"""Killing-type equation residuals, Noether integrals, and the reverse
Noether solvers.

A triple (tau, xi, f) claims to solve the Killing-type equation

    tau*d_t L + d_q L . xi + d_qdot L . (xi_dot - qdot*tau_dot) + L*tau_dot = f_dot

in one of four senses: ``strong`` (accelerations treated as free variables),
``onflow`` (accelerations replaced by the normal form), or the same two for
the alternative invariance convention, whose equation reads

    tau*d_t L + d_q L . (xi + tau*qdot) + d_qdot L . (xi_dot + tau*qddot) + L*tau_dot = f_dot

With the characteristic eta = xi - qdot*tau (standard) or xi (alternative),
the first integral N = f - L*tau - d_qdot L . eta and the Euler-Lagrange
expression E = g*qddot - rhs, both left-hand sides equal
``f_dot - N_dot - eta . E`` (the Noether identity), and ``killing_lhs``
builds them so.  E vanishes on the flow, so a triple's on-flow verdict is
the conservation verdict of its integral.

``solve_onflow`` and ``solve_strong`` invert N for a verified integral:
f = N + L*tau + d_qdot L . eta.  The zero-gauge solvers compose them with
``trivialize`` (through ``multiplicity_transform``) and
``convert_standard_alternative``, which all keep eta.

The total derivatives (tau_dot, xi_dot, f_dot and N_dot) are lazy
:class:`~noetherkit.expressions.TotalDerivative` nodes: the oracle
evaluates them by complex step, and ``.doit()`` expands them symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import sympy as sp

from .expressions import (
    Exclusion,
    IdentityReport,
    diff,
    tidy,
    total_dt,
)
from .mechanics import LagrangianSystem, invert_g_apply

__all__ = [
    "Triple",
    "FirstIntegral",
    "VerificationReport",
    "NotConservedError",
    "FORMS",
    "killing_lhs",
    "verify_triple",
    "check_conserved",
    "noether_integral",
    "solve_onflow",
    "solve_onflow_simplest",
    "solve_onflow_with_R",
    "solve_strong",
    "solve_alt_strong_trivial_gauge",
    "multiplicity_transform",
    "trivialize",
    "velocity_independence_check",
    "convert_standard_alternative",
]

ONFLOW = "onflow"
STRONG = "strong"
FORMS = (ONFLOW, STRONG, "alt_onflow", "alt_strong")

# Sampling keeps |L+c| above this margin wherever a solver divides by L+c;
# wide enough that float64 cancellation stays below the 1e-9 check tolerance.
DENOM_MARGIN = 0.05


class NotConservedError(ValueError):
    """A claimed first integral failed its conservation check."""

    def __init__(self, report: IdentityReport):
        self.report = report
        super().__init__(
            "not a first integral: max residual "
            f"{report.max_residual:.3e} at {report.worst_point}"
        )


@dataclass(frozen=True)
class Triple:
    """Candidate solution (tau, xi, f) with the interpretation it claims.

    ``exclusions`` records denominators introduced by a solver (e.g. 1/L);
    verification sampling keeps away from their zero sets.
    """

    tau: sp.Expr
    xi: tuple[sp.Expr, ...]
    f: sp.Expr
    form: str
    exclusions: tuple[Exclusion, ...] = ()

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")

    def simplified(self) -> "Triple":
        """Each component through ``tidy``, for the triples the CLI prints and
        writes: the one place that readability pass runs."""
        return replace(self, tau=tidy(self.tau), xi=tuple(map(tidy, self.xi)), f=tidy(self.f))


@dataclass(frozen=True)
class FirstIntegral:
    """Scalar function N(t, q, qdot) with its conservation-check status."""

    expr: sp.Expr
    name: str = ""
    conservation: IdentityReport | None = None

    @property
    def verified(self) -> bool:
        return self.conservation is not None and self.conservation.passed


@dataclass(frozen=True)
class VerificationReport:
    """Residual statistics of a Killing-type equation check."""

    check: str
    mode: str
    k: int
    tol: float
    max_residual: float
    worst_point: dict[str, float]
    passed: bool
    seed: int
    integral_check: IdentityReport | None = None

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "mode": self.mode,
            "k": self.k,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "worst_point": self.worst_point,
            "verdict": self.verdict,
            "seed": self.seed,
        }
        if self.integral_check is not None:
            out["integral_check"] = self.integral_check.to_dict()
        return out


def _as_expr(N) -> sp.Expr:
    return N.expr if isinstance(N, FirstIntegral) else sp.sympify(N)


def _check_triple_shape(sys: LagrangianSystem, tr: Triple) -> None:
    if len(tr.xi) != sys.n:
        raise ValueError(f"xi has length {len(tr.xi)}, expected {sys.n}")
    accs = sys.alphabet.acceleration_symbols
    if any(sp.sympify(e).has(*accs) for e in (tr.tau, *tr.xi, tr.f)):
        raise ValueError("triple components must be free of accelerations")


def _decode(form: str) -> tuple[bool, str]:
    """(strong?, convention) of one of the four forms."""
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    return form.endswith(STRONG), "alternative" if form.startswith("alt") else "standard"


def _eta(sys: LagrangianSystem, tau, xi: Sequence, convention: str) -> tuple:
    """The characteristic: xi - qdot*tau (standard) or xi (alternative)."""
    if convention == "alternative":
        return tuple(xi)
    return tuple(x - v * tau for x, v in zip(xi, sys.alphabet.velocity_symbols))


def _xi(sys: LagrangianSystem, tau, eta: Sequence, convention: str) -> tuple:
    """Inverse of ``_eta``: xi from the characteristic and the time change."""
    if convention == "alternative":
        return tuple(eta)
    return tuple(e + v * tau for e, v in zip(eta, sys.alphabet.velocity_symbols))


def _complete(sys: LagrangianSystem, N, tau, eta: Sequence) -> sp.Expr:
    """Boundary term of the triple with integral N: f = N + L*tau + p . eta."""
    return N + sys.L * tau + sum(pi * e for pi, e in zip(sys.p, eta))


def killing_lhs(sys: LagrangianSystem, tr: Triple, form: str) -> sp.Expr:
    """Left-hand side of the Killing-type equation in the requested sense,
    from the Noether identity ``Dt(f) - Dt(N) - eta . E`` (module docstring).

    Strong senses keep the accelerations symbolic, in the total derivatives
    and in E; on-flow senses substitute the normal form, where E = 0.
    """
    _check_triple_shape(sys, tr)
    strong, convention = _decode(form)
    ab = sys.alphabet
    lam = None if strong else sys.lam
    lhs = total_dt(tr.f, ab, lam) - total_dt(_integral_expr(sys, tr, convention), ab, lam)
    if strong:
        E = sys.g * sp.Matrix(ab.acceleration_symbols) - sp.Matrix(sys.rhs)
        lhs -= sum(e * Ei for e, Ei in zip(_eta(sys, tr.tau, tr.xi, convention), E))
    return lhs


def verify_triple(
    sys: LagrangianSystem,
    tr: Triple,
    integral=None,
    form: str | None = None,
    *,
    k: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
    extra_exclusions: Sequence[Exclusion] = (),
    label: str = "",
) -> VerificationReport:
    """Check the triple against the Killing-type equation by random sampling.

    Strong senses sample the accelerations as free variables; if an integral
    is supplied, the Noether formula for the matching convention is checked
    at the same tolerance.
    """
    form = form or tr.form
    strong, convention = _decode(form)
    lhs = killing_lhs(sys, tr, form)
    rhs = total_dt(tr.f, sys.alphabet, None if strong else sys.lam)
    extras = tuple(extra_exclusions) + tr.exclusions
    rep = sys.check(
        lhs, rhs,
        k=k, tol=tol, seed=seed, include_acc=strong,
        extra_exclusions=extras,
        label=label or f"killing:{form}",
    )
    integral_check = None
    if integral is not None:
        integral_check = sys.check(
            _integral_expr(sys, tr, convention), _as_expr(integral),
            k=k, tol=tol, seed=seed + 1,
            extra_exclusions=extras,
            label=f"noether-integral:{convention}",
        )
    passed = rep.passed and (integral_check is None or integral_check.passed)
    return VerificationReport(
        check=rep.label,
        mode=form,
        k=k,
        tol=tol,
        max_residual=rep.max_residual,
        worst_point=rep.worst_point,
        passed=passed,
        seed=seed,
        integral_check=integral_check,
    )


def check_conserved(
    sys: LagrangianSystem, N, *, k: int = 100, tol: float = 1e-9, seed: int = 0,
    extra_exclusions: Sequence[Exclusion] = (), name: str = "",
) -> FirstIntegral:
    """Verify d/dt N = 0 along the flow; returns N with its status attached."""
    expr = _as_expr(N)
    rep = sys.check(
        total_dt(expr, sys.alphabet, sys.lam), 0,
        k=k, tol=tol, seed=seed,
        extra_exclusions=extra_exclusions,
        label=f"conserved:{name or expr}",
    )
    return FirstIntegral(expr=expr, name=name, conservation=rep)


def _require_conserved(sys, N, seed, extra_exclusions=()) -> FirstIntegral:
    if isinstance(N, FirstIntegral) and N.verified:
        return N
    fi = check_conserved(sys, N, seed=seed, extra_exclusions=extra_exclusions)
    if not fi.verified:
        raise NotConservedError(fi.conservation)
    return fi


def _g_inv_grad(sys: LagrangianSystem, Nexpr: sp.Expr, seed: int) -> tuple[sp.Expr, ...]:
    """w = g^{-1} d_qdot N, symbolic and spot-checked."""
    grad = [diff(Nexpr, v, sys.alphabet) for v in sys.alphabet.velocity_symbols]
    return invert_g_apply(sys, grad, seed=seed)


def _integral_expr(sys: LagrangianSystem, tr: Triple, convention: str) -> sp.Expr:
    """N = f - L*tau - p . eta."""
    eta = _eta(sys, tr.tau, tr.xi, convention)
    return tr.f - sys.L * tr.tau - sum(pi * e for pi, e in zip(sys.p, eta))


def noether_integral(
    sys: LagrangianSystem,
    tr: Triple,
    convention: str = "standard",
    *,
    k: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> FirstIntegral:
    """First integral of a triple, as derived (not tidied); conservation is
    checked and recorded (an unverified result carries its witness point)."""
    if convention not in ("standard", "alternative"):
        raise ValueError(f"unknown convention {convention!r}")
    _check_triple_shape(sys, tr)
    return check_conserved(
        sys, _integral_expr(sys, tr, convention), k=k, tol=tol, seed=seed,
        extra_exclusions=tr.exclusions, name=f"noether:{convention}",
    )


def solve_onflow(sys: LagrangianSystem, N, tau, xi: Sequence, *, seed: int = 0) -> Triple:
    """Complete an arbitrary (tau, xi) to an on-flow triple for integral N:
    f = N + L*tau + d_qdot L . eta with eta = xi - qdot*tau."""
    xi = tuple(sp.sympify(x) for x in xi)
    if len(xi) != sys.n:
        raise ValueError(f"xi has length {len(xi)}, expected {sys.n}")
    Nexpr = _require_conserved(sys, N, seed).expr
    tau = sp.sympify(tau)
    f = _complete(sys, Nexpr, tau, _eta(sys, tau, xi, "standard"))
    return Triple(tau=tau, xi=xi, f=f, form=ONFLOW)


def solve_onflow_simplest(
    sys: LagrangianSystem, N, c: float = 0.0, *, seed: int = 0
) -> Triple:
    """``solve_onflow_with_R`` with R = 0, that is
    ``trivialize(solve_onflow(N, 0, 0), "gauge", c)``: tau = -N/(L+c),
    xi = tau*qdot, f = c*N/(L+c), which is 0 at c = 0.

    The shift constant c moves the working domain off the zero set of L.
    """
    return solve_onflow_with_R(sys, N, [0] * sys.n, c=c, seed=seed)


def solve_onflow_with_R(
    sys: LagrangianSystem, N, R: Sequence, *, c: float = 0.0, seed: int = 0
) -> Triple:
    """On-flow triple with free vector shape R and boundary term zero at
    c = 0: ``trivialize(solve_onflow(N, 0, R), "gauge", c)``."""
    # check conservation away from L + c = 0, where the result divides by it
    denom = Exclusion(sys.L + c, DENOM_MARGIN)
    fi = _require_conserved(sys, N, seed, extra_exclusions=(denom,))
    return trivialize(sys, solve_onflow(sys, fi, 0, R, seed=seed), "gauge", c=c)


def solve_strong(sys: LagrangianSystem, N, tau=sp.Integer(0), *, seed: int = 0) -> Triple:
    """Strong-sense triple for integral N and free time change tau: eta =
    -g^{-1} d_qdot N, xi = tau*qdot + eta, f = N + L*tau + d_qdot L . eta."""
    Nexpr = _require_conserved(sys, N, seed).expr
    tau = sp.sympify(tau)
    eta = tuple(-wi for wi in _g_inv_grad(sys, Nexpr, seed))
    return Triple(tau=tau, xi=_xi(sys, tau, eta, "standard"),
                  f=_complete(sys, Nexpr, tau, eta), form=STRONG)


def solve_alt_strong_trivial_gauge(
    sys: LagrangianSystem, N, *, c: float = 0.0, seed: int = 0
) -> Triple:
    """Alternative-convention strong triple with boundary term zero at c = 0:
    ``convert_standard_alternative(trivialize(solve_strong(N, 0), "gauge", c))``."""
    denom = Exclusion(sys.L + c, DENOM_MARGIN)
    fi = _require_conserved(sys, N, seed, extra_exclusions=(denom,))
    gauged = trivialize(sys, solve_strong(sys, fi, seed=seed), "gauge", c=c)
    return convert_standard_alternative(sys, gauged)


def multiplicity_transform(
    sys: LagrangianSystem, tr: Triple, h, *, c: float = 0.0
) -> Triple:
    """Trade the boundary term for h, preserving form, eta and the first
    integral: tau += s and f = h - c*s with s = (h-f)/(L+c), so that
    xi += qdot*s in the standard convention.  The shift c keeps the
    denominator off the zero set of L; f = h only at c = 0."""
    h = sp.sympify(h)
    shift = (h - tr.f) / (sys.L + c)
    _, convention = _decode(tr.form)
    # 0.0*shift folds to 0 only after sympy has asked whether shift is finite,
    # which costs milliseconds on a solver's expressions
    f = h - c * shift if c else h
    return Triple(
        tau=tr.tau + shift, xi=_xi(sys, shift, tr.xi, convention), f=f, form=tr.form,
        exclusions=tr.exclusions + (Exclusion(sys.L + c, DENOM_MARGIN),),
    )


def trivialize(sys: LagrangianSystem, tr: Triple, which: str, *, c: float = 0.0) -> Triple:
    """Equivalent triple with zero time change (``which='time'``: xi = eta,
    f -= L*tau) or zero boundary term (``which='gauge'``: the
    multiplicity transform to h = 0, which leaves f*c/(L+c), zero only at
    c = 0); the first integral is unchanged."""
    if which == "time":
        _, convention = _decode(tr.form)
        return Triple(
            tau=sp.Integer(0),
            xi=_eta(sys, tr.tau, tr.xi, convention),
            f=tr.f - sys.L * tr.tau,
            form=tr.form,
            exclusions=tr.exclusions,
        )
    if which == "gauge":
        return multiplicity_transform(sys, tr, 0, c=c)
    raise ValueError(f"unknown trivialization {which!r}")


def convert_standard_alternative(sys: LagrangianSystem, tr: Triple) -> Triple:
    """Map between the standard and alternative conventions, keeping eta:
    standard -> alternative replaces xi by xi - tau*qdot; the reverse adds
    tau*qdot back.  Round trips are the identity.
    """
    _, convention = _decode(tr.form)
    if convention == "alternative":
        other, form = "standard", tr.form.removeprefix("alt_")
    else:
        other, form = "alternative", "alt_" + tr.form
    xi = _xi(sys, tr.tau, _eta(sys, tr.tau, tr.xi, convention), other)
    return Triple(tau=tr.tau, xi=xi, f=tr.f, form=form, exclusions=tr.exclusions)


_VI_REASONS = {
    "affine-in-velocity": "second velocity derivative does not vanish",
    "jacobian-scalar-multiple": "velocity Jacobian is not a scalar multiple of the identity",
    "affine-extraction": "extracted affine form does not reproduce g^{-1} d_qdot N",
}


@dataclass(frozen=True)
class VelocityIndependenceVerdict:
    """Whether N can come from a triple independent of the velocities.

    Admissible iff g^{-1} d_qdot N = a(t,q) + b(t,q)*qdot with scalar b; the
    witness point documents the failure otherwise.
    """

    admissible: bool
    a: tuple[sp.Expr, ...] | None = None
    b: sp.Expr | None = None
    witness: dict[str, float] | None = None
    reason: str = ""


def velocity_independence_check(
    sys: LagrangianSystem, N, *, k: int = 20, tol: float = 1e-8, seed: int = 0
) -> VelocityIndependenceVerdict:
    """Test affineness of w = g^{-1} d_qdot N in the velocities and that its
    velocity Jacobian is a scalar multiple of the identity; extract (a, b)
    on success."""
    vs = sys.alphabet.velocity_symbols
    w = _g_inv_grad(sys, _as_expr(N), seed)
    n = sys.n
    check = partial(sys.check, k=k, tol=tol, seed=seed)
    second = [sp.diff(w[i], vs[j], vs[l]) for i in range(n) for j in range(n) for l in range(j, n)]
    rep = check(second, [0] * len(second), label="affine-in-velocity")
    if rep.passed:
        jac = [sp.diff(w[i], vs[j]) for i in range(n) for j in range(n)]
        scalar = [jac[0] if i == j else 0 for i in range(n) for j in range(n)]
        rep = check(jac, scalar, label="jacobian-scalar-multiple")
    if rep.passed:
        b = jac[0]
        a = tuple(wi.subs({v: 0 for v in vs}) for wi in w)
        # cross-check the extraction against w itself
        rep = check(list(w), [ai + b * v for ai, v in zip(a, vs)], label="affine-extraction")
    if rep.passed:
        return VelocityIndependenceVerdict(admissible=True, a=a, b=b)
    return VelocityIndependenceVerdict(
        admissible=False, witness=rep.worst_point, reason=_VI_REASONS[rep.label]
    )
