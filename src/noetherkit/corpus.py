"""Worked example systems shipped with the package.

Three systems, each with named first integrals and named solution triples:

* ``freeparticle`` — the 1-d free particle with its eight point symmetries;
  five complete to strong triples, the remaining three only on-flow.
* ``isochrony`` — the 2-d system xddot = -G(x), yddot = -G'(x) y, which is
  superintegrable whenever G solves (c + x^2) G'' + 3 x G' - 3 G = 0.
* ``kepler3d`` — the spatial Kepler problem with energy, angular momentum and
  the Laplace-Runge-Lenz vector, including on-flow and strong triples for the
  projected LRL integral -u.A.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import sympy as sp

from .expressions import Alphabet, Exclusion, SampleDomain, _diff, equal_numeric, IdentityReport
from .mechanics import LagrangianSystem, build_system
from .noether import ONFLOW, STRONG, Triple

__all__ = [
    "CorpusEntry",
    "load",
    "check_G_ode",
    "CORPUS_NAMES",
    "kepler_family_triple",
    "kepler_strong_triple",
    "isochrony_strong_triple",
    "ISOCHRONY_G_CHOICES",
]

CORPUS_NAMES = ("freeparticle", "isochrony", "kepler3d")

# Steep singularities (1/x^3, 1/|r|^3) amplify float64 roundoff; sampling and
# trajectory truncation keep this far from their zero sets so residuals stay
# below the 1e-9 identity and 1e-6 drift tolerances.
STEEP_SINGULAR_MARGIN = 0.5


@dataclass(frozen=True)
class CorpusEntry:
    """A system together with its named integrals and solution triples.

    ``triple_integrals`` maps each triple name to the first integral its
    Noether formula is expected to reproduce.
    """

    system: LagrangianSystem
    integrals: dict[str, sp.Expr]
    triples: dict[str, Triple]
    triple_integrals: dict[str, sp.Expr]


def load(name: str, **kwargs) -> CorpusEntry:
    """Load a corpus entry by name.

    ``isochrony`` accepts ``G`` (one of :data:`ISOCHRONY_G_CHOICES`) and the
    constant ``c`` of the superintegrable family.
    """
    if name == "freeparticle":
        return free_particle(**kwargs)
    if name == "isochrony":
        return isochrony(**kwargs)
    if name == "kepler3d":
        return kepler3d(**kwargs)
    raise ValueError(f"unknown corpus entry {name!r}; choose from {CORPUS_NAMES}")


# ---------------------------------------------------------------------------
# Free particle


def free_particle() -> CorpusEntry:
    ab = Alphabet(coords=("q",))
    t = ab.t
    q, = ab.coord_symbols
    qd, = ab.velocity_symbols
    sys = build_system(qd**2 / 2, ab, name="freeparticle")

    # integrals not quadratic in qdot, such as (q - t*qdot)^3, cannot come
    # from velocity-independent triples
    integrals = {
        "momentum": -qd,
        "boost": q - t * qd,
        "energy": qd**2 / 2,
        "dilation": (t * qd - q) * qd,
        "boost_squared": (q - t * qd) ** 2 / 2,
    }

    # the three symmetries that do not complete strongly get their on-flow
    # boundary terms relative to N = q - t*qdot: the point symmetries q*d_q
    # (its Killing left-hand side qdot^2 is not linear in qdot), q*d_t and
    # qt*d_t + q^2*d_q
    N = q - t * qd
    triples = {
        "gamma1": Triple(sp.Integer(0), (sp.Integer(1),), sp.Integer(0), STRONG),
        "gamma2": Triple(sp.Integer(0), (t,), q, STRONG),
        "gamma3": Triple(sp.Integer(1), (sp.Integer(0),), sp.Integer(0), STRONG),
        "gamma4": Triple(2 * t, (q,), sp.Integer(0), STRONG),
        "gamma5": Triple(t**2, (t * q,), q**2 / 2, STRONG),
        "gamma6": Triple(sp.Integer(0), (q,), q * qd + N, ONFLOW),
        "gamma7": Triple(q, (sp.Integer(0),), -q * qd**2 / 2 + N, ONFLOW),
        "gamma8": Triple(q * t, (q**2,), (2 * q - t * qd) * q * qd / 2 + N, ONFLOW),
    }
    triple_integrals = {
        "gamma1": integrals["momentum"],
        "gamma2": integrals["boost"],
        "gamma3": integrals["energy"],
        "gamma4": integrals["dilation"],
        "gamma5": integrals["boost_squared"],
        "gamma6": N,
        "gamma7": N,
        "gamma8": N,
    }
    return CorpusEntry(sys, integrals, triples, triple_integrals)


# ---------------------------------------------------------------------------
# Superintegrable family related to isochrony

ISOCHRONY_G_CHOICES = ("x", "1/x^3", "sqrt_pos", "sqrt_neg")


def _isochrony_G(choice: str, c: float, x: sp.Symbol) -> tuple[sp.Expr, sp.Expr, tuple, dict]:
    """G, its antiderivative in x, and the exclusions and sampling ranges
    that G needs."""
    if choice == "x":
        return x, x**2 / 2, (), {}
    if choice == "1/x^3":
        if c != 0:
            raise ValueError("G = 1/x^3 belongs to the c = 0 family")
        return x**-3, -1 / (2 * x**2), (Exclusion(x, STEEP_SINGULAR_MARGIN),), {}
    if choice == "sqrt_pos":
        if c <= 0:
            raise ValueError("G = (c+2x^2)/sqrt(c+x^2) needs c > 0")
        return (c + 2 * x**2) / sp.sqrt(c + x**2), x * sp.sqrt(c + x**2), (), {}
    if choice == "sqrt_neg":
        if c >= 0:
            raise ValueError("G = (-c-2x^2)/sqrt(-c-x^2) needs c < 0")
        # radicand -c - x^2 > 0 restricts |x| < sqrt(-c)
        bound = 0.9 * float(sp.sqrt(-c))
        return (
            (-c - 2 * x**2) / sp.sqrt(-c - x**2),
            x * sp.sqrt(-c - x**2),
            (Exclusion(-c - x**2, 0.05),),
            {"x": (-bound, bound)},
        )
    raise ValueError(f"unknown G choice {choice!r}; choose from {ISOCHRONY_G_CHOICES}")


def isochrony(G: str = "x", c: float = 0.0) -> CorpusEntry:
    ab = Alphabet(coords=("x", "y"), params=("c",))
    x, y = ab.coord_symbols
    xd, yd = ab.velocity_symbols
    cs = ab.param_symbols[0]

    Gx, Gint, exclusions, var_ranges = _isochrony_G(G, c, x)
    L = xd * yd - Gx * y
    sys = build_system(
        L, ab,
        name=f"isochrony[G={G}, c={c}]",
        param_values={"c": float(c)},
        exclusions=exclusions,
        var_ranges=var_ranges,
    )

    Gp = _diff(Gx, x)
    N1 = xd * yd + Gx * y
    # g^{-1} d_qdot N2 = (0, xdot), so its velocity Jacobian is [[0,0],[1,0]];
    # sign conventions for this matrix differ across sources
    N2 = xd**2 / 2 + Gint
    N3 = (cs + x**2) * Gp * xd * y - (cs + x**2) * Gx * yd - x * xd**2 * yd + xd**3 * y

    h = (cs + x**2) * Gx + x * xd**2
    # on-flow total derivative of h: xdot*d_x h - G*d_xdot h
    h_dot = xd * _diff(h, x) - Gx * _diff(h, xd)
    # onflow_N3 is not a strong solution: xi - (tau*qdot - g^{-1} d_qdot N3)
    # = (0, (c+x^2)G'(x)y + (3*xdot*y - 2*x*ydot)*xdot) is nonzero at
    # generic points
    triples = {
        "strong_N1": Triple(sp.Integer(1), (sp.Integer(0), sp.Integer(0)),
                            sp.Integer(0), STRONG),
        "onflow_N3": Triple(sp.Integer(0), (h, sp.Integer(0)), y * h_dot, ONFLOW),
        "strong_N3": isochrony_strong_triple(sys, sp.Integer(0)),
    }
    triple_integrals = {"strong_N1": N1, "onflow_N3": N3, "strong_N3": N3}
    return CorpusEntry(sys, {"N1": N1, "N2": N2, "N3": N3}, triples, triple_integrals)


def isochrony_strong_triple(sys: LagrangianSystem, T) -> Triple:
    """Strong-sense triple for the third isochrony integral, with free time
    change T(t, q, qdot)."""
    T = sp.sympify(T)
    ab = sys.alphabet
    x, y = ab.coord_symbols
    xd, yd = ab.velocity_symbols
    cs = ab.param_symbols[0]
    Gx = -_diff(sys.L, y)  # L = xdot*ydot - G(x)*y
    Gp = _diff(Gx, x)
    xi = (
        (cs + x**2) * Gx + (T + x * xd) * xd,
        -y * (cs + x**2) * Gp - 3 * xd**2 * y + 2 * x * xd * yd + T * yd,
    )
    f = (T + 2 * x * xd) * xd * yd - 2 * xd**3 * y - Gx * T * y
    return Triple(T, xi, f, STRONG)


def check_G_ode(G_expr, c: float) -> IdentityReport:
    """Check (c + x^2) G'' + 3 x G' - 3 G = 0 with ``equal_numeric``'s own
    k = 100 x samples at seed 0 and tolerance 1e-9, kept off the zero set of
    the residual's denominator."""
    ab = Alphabet(coords=("x",), params=("c",))
    x, = ab.coord_symbols
    cs = ab.param_symbols[0]
    G_expr = sp.sympify(G_expr)
    Gp = _diff(G_expr, x)
    residual = (cs + x**2) * _diff(Gp, x) + 3 * x * Gp - 3 * G_expr
    denom = sp.denom(sp.together(residual.subs(cs, c)))
    exclusions = () if denom.is_constant() else (Exclusion(denom, STEEP_SINGULAR_MARGIN),)
    return equal_numeric(
        residual, 0, ab,
        param_values={"c": float(c)},
        domain=SampleDomain(exclusions=exclusions),
        label=f"G-ode[{G_expr}, c={c}]",
    )


# ---------------------------------------------------------------------------
# Kepler problem in dimension 3


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return sum(ai * bi for ai, bi in zip(a, b))


KEPLER_DEFAULTS = {"mu": 1.0, "u1": 0.3, "u2": -0.2, "u3": 0.5}


def _kepler_terms(ab: Alphabet) -> SimpleNamespace:
    """The symbols r, v, mu, u of the Kepler alphabet and the terms its
    builders share: |r|, r x v, v x (r x v), f0 = mu u.r/|r| and
    xi_Z = (r x v) x u."""
    r = ab.coord_symbols
    v = ab.velocity_symbols
    mu = ab.param_symbols[0]
    u = ab.param_symbols[1:]
    rnorm = sp.sqrt(_dot(r, r))
    ang = _cross(r, v)
    return SimpleNamespace(r=r, v=v, mu=mu, u=u, rnorm=rnorm, ang=ang, v_ang=_cross(v, ang),
                           f0=mu * _dot(r, u) / rnorm, xi_Z=_cross(ang, u))


def kepler3d(param_values: dict | None = None) -> CorpusEntry:
    ab = Alphabet(coords=("r1", "r2", "r3"), params=("mu", "u1", "u2", "u3"))
    k = _kepler_terms(ab)
    r, v, mu, u = k.r, k.v, k.mu, k.u
    sys = build_system(
        _dot(v, v) / 2 + mu / k.rnorm, ab,
        name="kepler3d",
        param_values={**KEPLER_DEFAULTS, **(param_values or {})},
        exclusions=(Exclusion(_dot(r, r), STEEP_SINGULAR_MARGIN),),
    )

    A = tuple(ci - mu * ri / k.rnorm for ci, ri in zip(k.v_ang, r))
    integrals = {
        "energy": _dot(v, v) / 2 - mu / k.rnorm,
        "angmom1": k.ang[0],
        "angmom2": k.ang[1],
        "angmom3": k.ang[2],
        "lrl1": A[0],
        "lrl2": A[1],
        "lrl3": A[2],
        # cannot come from a velocity-independent triple: g^{-1} d_qdot N is
        # affine in the velocities, with a Jacobian no multiple of the identity
        "lrl_u": -_dot(u, A),
    }

    tau0 = _dot(u, k.v_ang) / sys.L
    xi_L = tuple(
        _dot(r, u) * vi - sp.Rational(1, 2) * _dot(v, u) * ri
        - sp.Rational(1, 2) * _dot(v, r) * ui
        for vi, ri, ui in zip(v, r, u)
    )

    triples = {
        "onflow_simple": Triple(tau0, tuple(tau0 * vi for vi in v), k.f0, ONFLOW),
        "levy_leblond": Triple(sp.Integer(0), xi_L, k.f0, ONFLOW),
        "lrl_gauge": Triple(sp.Integer(0), k.xi_Z, k.f0, ONFLOW),
        # the member h = 0 of the one-parameter boundary-term family around
        # the lrl_gauge triple; the zero choice trivializes the gauge
        "family_h0": kepler_family_triple(sys, sp.Integer(0)),
        "strong_b": kepler_strong_triple(sys, sp.Integer(0)),
    }
    triple_integrals = {name: integrals["lrl_u"] for name in triples}
    return CorpusEntry(sys, integrals, triples, triple_integrals)


def kepler_family_triple(sys: LagrangianSystem, h) -> Triple:
    """On-flow family around the zero-time-change LRL triple, parameterized
    by an arbitrary boundary term h(t, r, v)."""
    h = sp.sympify(h)
    k = _kepler_terms(sys.alphabet)
    tau = (h - k.f0) / sys.L
    xi = tuple(zi + tau * vi for zi, vi in zip(k.xi_Z, k.v))
    return Triple(tau, xi, h, ONFLOW)


def kepler_strong_triple(sys: LagrangianSystem, h) -> Triple:
    """Strong-sense triple for the projected LRL integral, built from the
    auxiliary vector b = -u(r.v) - r(v.u) + v(u.r)."""
    h = sp.sympify(h)
    k = _kepler_terms(sys.alphabet)
    r, v, u = k.r, k.v, k.u
    b = tuple(
        -ui * _dot(r, v) - ri * _dot(v, u) + vi * _dot(u, r)
        for ui, ri, vi in zip(u, r, v)
    )
    tau = (h - _dot(u, k.v_ang) - k.f0) / sys.L
    vxbxv = _cross(v, _cross(b, v))
    xi = tuple(
        (h * vi + ci / 2 + k.mu * bi / k.rnorm) / sys.L
        for vi, ci, bi in zip(v, vxbxv, b)
    )
    return Triple(tau, xi, h, STRONG)
