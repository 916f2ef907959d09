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
builds them so, reading E from ``LagrangianSystem.E``, derived once per
system by ``build_system``.  E vanishes on the flow, so a triple's on-flow
verdict is the conservation verdict of its integral.

``solve_onflow`` and ``solve_strong`` invert N for a verified integral:
f = N + L*tau + d_qdot L . eta.  The zero-gauge solvers compose them with
``multiplicity_transform`` to h = 0 (the gauge trivialization) and
``convert_standard_alternative``, which both keep eta, as does
``trivialize``, the zero time change.

eta is the one quantity this module derives, and one rule keeps it: a
solver's or transform's triple carries eta (``Triple.eta``) in its system's
velocities, with xi built from that eta alone on first read (eta +
qdot*tau in the standard convention), so a triple holds no system; a
triple built from xi derives eta at each check.  Every solver and
transform builds its triple through ``_derived``; a check on a system with
the same velocities reads the stored eta, and no check writes into a
triple, so a triple's verdict does not depend on what it was checked
against before.
A solve, its transforms and ``noether_integral`` never build xi: each
reads eta in the convention its triple's form names, and only a check in
a sense of the other convention derives that convention's eta, from xi.
``verify_triple`` returns a ``VerificationReport``, the ``IdentityReport``
of the Killing-equation check with the sense checked and the integral's
check added; both are components of one oracle call.

The total derivatives (tau_dot, xi_dot, f_dot and N_dot) are lazy
:class:`~noetherkit.expressions.TotalDerivative` nodes: the oracle
evaluates them by complex step, and ``.doit()`` expands them symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import sympy as sp

from .expressions import (
    Exclusion,
    IdentityReport,
    _diff,
    _occurring,
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
# A triple transformed again at the same c widens it (multiplicity_transform).
DENOM_MARGIN = 0.05


class NotConservedError(ValueError):
    """A claimed first integral failed its conservation check."""

    def __init__(self, report: IdentityReport):
        self.report = report
        super().__init__(
            "not a first integral: max residual "
            f"{report.max_residual:.3e} at {report.worst_point}"
        )


class _BuiltOnRead:
    """Descriptor of ``Triple.xi``, held in the slot ``_xi``: a derived
    triple's slot holds None until its first read builds xi from the stored
    eta, its velocities, tau and the convention of its form."""

    def __get__(self, obj, owner=None):
        if obj is None:  # no class-level default: the field stays required
            raise AttributeError("_xi")
        xi = obj.__dict__["_xi"]
        if xi is None and obj.eta is not None:
            xi = obj.__dict__["_xi"] = _xi(obj._eta_velocities, obj.tau, obj.eta,
                                           _decode(obj.form)[1])
        return xi

    def __set__(self, obj, value):  # reached from __init__ only: Triple is frozen
        obj.__dict__["_xi"] = value


@dataclass(frozen=True)
class Triple:
    """Candidate solution (tau, xi, f) with the interpretation it claims.

    ``exclusions`` records denominators introduced by a solver (e.g. 1/L);
    verification sampling keeps away from their zero sets.

    ``eta`` is the characteristic in the convention of ``form``: a solver's
    or transform's triple carries it in its system's velocities, with xi
    built from it on first read; a triple built from xi has None, and each
    check derives eta from xi.  ``replace`` leaves it unset.  A triple
    holds no system, and a copy of a derived triple keeps xi unbuilt.
    """

    tau: sp.Expr
    xi: tuple[sp.Expr, ...] = _BuiltOnRead()
    f: sp.Expr
    form: str
    exclusions: tuple[Exclusion, ...] = ()
    eta: tuple[sp.Expr, ...] | None = field(default=None, init=False, repr=False,
                                             compare=False)
    _eta_velocities: tuple[sp.Symbol, ...] | None = field(default=None, init=False,
                                                          repr=False, compare=False)

    def __post_init__(self):
        _decode(self.form)

    def simplified(self) -> "Triple":
        """Each component through ``tidy``.  Only the benchmark's set-up calls
        this; it goes with ``tidy`` in Benchmark v2 (ROADMAP item 1)."""
        return replace(self, tau=tidy(self.tau), xi=tuple(map(tidy, self.xi)), f=tidy(self.f))


def _derived(sys: LagrangianSystem, tau, eta, f, form, exclusions) -> Triple:
    """A solver's or transform's triple: eta stored with the velocities of
    ``sys`` it is written in, and xi None until its first read builds it."""
    tr = Triple(tau=tau, xi=None, f=f, form=form, exclusions=tuple(exclusions))
    object.__setattr__(tr, "eta", eta)
    object.__setattr__(tr, "_eta_velocities", sys.alphabet.velocity_symbols)
    return tr


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
class VerificationReport(IdentityReport):
    """The report of a Killing-type equation check in the sense ``mode``:
    every inherited field is the Killing check's, except ``passed``.  With an
    integral supplied, ``integral_check`` is the check of its Noether
    formula, at the same seed and points, and ``passed`` holds only if both
    checks pass, so an integral FAIL's residual and witness are in
    ``integral_check`` alone."""

    mode: str
    integral_check: IdentityReport | None

    def to_dict(self) -> dict:
        out = {"mode": self.mode} | super().to_dict()
        if self.integral_check is not None:
            out["integral_check"] = self.integral_check.to_dict()
        return out


def _as_expr(N) -> sp.Expr:
    return N.expr if isinstance(N, FirstIntegral) else sp.sympify(N)


def _characteristic(sys: LagrangianSystem, tr: Triple, convention: str) -> tuple:
    """The triple's eta in the convention: the stored one of a solver's or
    transform's triple, in the convention of its form and to a system with
    the velocities it is written in; otherwise derived from xi, and not
    kept."""
    if (tr.eta is not None and convention == _decode(tr.form)[1]
            and tr._eta_velocities == sys.alphabet.velocity_symbols):
        return tr.eta
    return _eta(sys, tr.tau, tr.xi, convention)


def _decode(form: str) -> tuple[bool, str]:
    """(strong?, convention) of one of the four forms."""
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    return form.endswith(STRONG), "alternative" if form.startswith("alt") else "standard"


def _eta(sys: LagrangianSystem, tau, xi: Sequence, convention: str) -> tuple:
    """The characteristic: xi - qdot*tau (standard) or xi (alternative)."""
    if len(xi) != sys.n:
        raise ValueError(f"xi has length {len(xi)}, expected {sys.n}")
    if convention == "alternative":
        return tuple(xi)
    return tuple(x - v * tau for x, v in zip(xi, sys.alphabet.velocity_symbols))


def _xi(velocities: Sequence, tau, eta: Sequence, convention: str) -> tuple:
    """Inverse of ``_eta``: xi from the characteristic, written in the
    velocity symbols ``velocities``, and the time change."""
    if convention == "alternative":
        return tuple(eta)
    return tuple(e + v * tau for e, v in zip(eta, velocities, strict=True))


def _L_times(sys: LagrangianSystem, tau) -> sp.Expr:
    """L*tau, without forming L*0 at a structural zero tau: that product
    folds to 0 only after sympy has asked whether L is finite."""
    return sys.L * tau if tau else sp.S.Zero


def _acceleration_free(sys: LagrangianSystem, tau, eta: Sequence) -> None:
    """Refuse a tau or eta that holds an acceleration: L*tau and p . eta may
    cancel it in N or f, out of total_dt's sight.  f needs no walk: with tau
    and eta free of accelerations, total_dt(f) or total_dt(N) refuses one in f."""
    for i, e in enumerate((tau, *eta)):
        found = _occurring(sp.sympify(e), sys.alphabet._acceleration_set)
        if found:
            name = "tau" if i == 0 else f"eta[{i - 1}]"
            raise ValueError(f"{name} holds the acceleration {min(map(str, found))}: "
                             "a triple is a function of t, q and qdot")


def _noether_sum(sys: LagrangianSystem, head, tau, eta: Sequence, sign: int) -> sp.Expr:
    """head + sign*(L*tau + p . eta) as one sum, which flattens its terms
    once, not once per term: the boundary term f = N + L*tau + p . eta of
    the triple with integral N at sign 1, and the integral N = f - L*tau -
    p . eta of a triple at sign -1, whose terms are negated one by one."""
    _acceleration_free(sys, tau, eta)
    terms = [_L_times(sys, tau), *[pi * e for pi, e in zip(sys.p, eta)]]
    if sign < 0:
        terms = [-term for term in terms]
    return sp.Add(head, *terms)


def killing_lhs(sys: LagrangianSystem, tr: Triple, form: str) -> sp.Expr:
    """Left-hand side of the Killing-type equation in the requested sense,
    from the Noether identity ``Dt(f) - Dt(N) - eta . E`` (module docstring).

    Strong senses keep the accelerations symbolic, in the total derivatives
    and in E; on-flow senses substitute the normal form, where E = 0.
    """
    return _killing_terms(sys, tr, form)[0]


def _killing_terms(sys: LagrangianSystem, tr: Triple, form: str):
    """The left-hand side of :func:`killing_lhs`, with the Dt(f) and the N
    it is built from, so that a verification derives each once."""
    strong, convention = _decode(form)
    eta = _characteristic(sys, tr, convention)
    ab = sys.alphabet
    lam = None if strong else sys.lam
    N = _noether_sum(sys, tr.f, tr.tau, eta, -1)
    dt_f = total_dt(tr.f, ab, lam)
    lhs = dt_f - total_dt(N, ab, lam)
    if strong:
        lhs -= sum(e * Ei for e, Ei in zip(eta, sys.E, strict=True))
    return lhs, dt_f, N


def verify_triple(
    sys: LagrangianSystem,
    tr: Triple,
    integral=None,
    form: str | None = None,
    *,
    k: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> VerificationReport:
    """Check the triple against the Killing-type equation in the sense
    ``form`` (by default its own), labelled ``killing:<form>``, by random
    sampling away from the system's and the triple's exclusions.

    Strong senses sample the accelerations as free variables.  If an
    integral is supplied, the Noether formula N = f - L*tau - d_qdot L . eta
    for the matching convention is checked against it, labelled
    ``noether-integral:<convention>``, in the same oracle call: one compiled
    function of both questions, whose N shares the subtrees of N_dot's body,
    one draw at ``seed`` and one array call.  So the integral's check reads
    the Killing check's points, accelerations included in a strong sense.
    A non-finite Killing value raises DomainViolation first; a non-finite
    integral value raises after a Killing PASS or FAIL alike.  The report's
    top-level fields are the Killing check's, but ``passed`` also needs the
    integral's check to pass, whose FAIL has its witness in
    ``integral_check``.
    """
    form = form or tr.form
    strong, convention = _decode(form)
    lhs, rhs, N = _killing_terms(sys, tr, form)
    killing = f"killing:{form}"
    check = partial(sys.check, k=k, tol=tol, seed=seed, include_acc=strong,
                    extra_exclusions=tr.exclusions)
    if integral is None:
        rep, integral_check = check(lhs, rhs, label=killing), None
    else:
        both = check([lhs, N], [rhs, _as_expr(integral)])
        rep = both.component(0, killing)
        integral_check = both.component(1, f"noether-integral:{convention}")
    passed = rep.passed and (integral_check is None or integral_check.passed)
    return VerificationReport(**(vars(rep) | {"passed": passed}), mode=form,
                              integral_check=integral_check)


def check_conserved(
    sys: LagrangianSystem, N, *, k: int = 100, tol: float = 1e-9, seed: int = 0,
    extra_exclusions: Sequence[Exclusion] = (), name: str = "",
) -> FirstIntegral:
    """Verify d/dt N = 0 along the flow; returns N with its status attached,
    labelled ``conserved:<name>``, ``name`` being by default a FirstIntegral's own.

    N_dot is compared with 0, so the residual |N_dot|/(1 + |N_dot|) is
    absolute, while the float error of N_dot grows with the size of N's
    terms: an integral written with large cancelling terms can FAIL."""
    name = name or (N.name if isinstance(N, FirstIntegral) else "")
    expr = _as_expr(N)
    rep = sys.check(
        total_dt(expr, sys.alphabet, sys.lam), 0,
        k=k, tol=tol, seed=seed,
        extra_exclusions=extra_exclusions,
        label=f"conserved:{name}" if name else "conserved",
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


def noether_integral(
    sys: LagrangianSystem, tr: Triple, *, k: int = 100, tol: float = 1e-9, seed: int = 0,
) -> FirstIntegral:
    """First integral N = f - L*tau - d_qdot L . eta of a triple, with eta in
    the convention its form names, as derived (not tidied); conservation is
    checked and recorded, labelled ``noether:<convention>`` (an unverified
    result carries its witness point)."""
    _, convention = _decode(tr.form)
    eta = _characteristic(sys, tr, convention)
    return check_conserved(
        sys, _noether_sum(sys, tr.f, tr.tau, eta, -1), k=k, tol=tol, seed=seed,
        extra_exclusions=tr.exclusions, name=f"noether:{convention}",
    )


def solve_onflow(sys: LagrangianSystem, N, tau, xi: Sequence, *, seed: int = 0) -> Triple:
    """Complete an arbitrary (tau, xi) to an on-flow triple for integral N:
    f = N + L*tau + d_qdot L . eta with eta = xi - qdot*tau."""
    xi = tuple(sp.sympify(x) for x in xi)
    tau = sp.sympify(tau)
    eta = _eta(sys, tau, xi, "standard")
    Nexpr = _require_conserved(sys, N, seed).expr
    return _derived(sys, tau, eta, _noether_sum(sys, Nexpr, tau, eta, 1), ONFLOW, ())


def solve_onflow_simplest(
    sys: LagrangianSystem, N, c: float = 0.0, *, seed: int = 0
) -> Triple:
    """``solve_onflow_with_R`` with R = 0, that is
    ``multiplicity_transform(solve_onflow(N, 0, 0), 0, c)``: tau = -N/(L+c),
    xi = tau*qdot, f = c*N/(L+c), which is 0 at c = 0.

    The shift constant c moves the working domain off the zero set of L.
    """
    return solve_onflow_with_R(sys, N, [0] * sys.n, c=c, seed=seed)


def solve_onflow_with_R(
    sys: LagrangianSystem, N, R: Sequence, *, c: float = 0.0, seed: int = 0
) -> Triple:
    """On-flow triple with free vector shape R and boundary term zero at
    c = 0: ``multiplicity_transform(solve_onflow(N, 0, R), 0, c)``."""
    # check conservation away from L + c = 0, where the result divides by it
    denom = Exclusion(sys.L + c, DENOM_MARGIN)
    fi = _require_conserved(sys, N, seed, extra_exclusions=(denom,))
    return multiplicity_transform(sys, solve_onflow(sys, fi, 0, R, seed=seed), 0, c=c)


def solve_strong(sys: LagrangianSystem, N, tau=sp.Integer(0), *, seed: int = 0) -> Triple:
    """Strong-sense triple for integral N and free time change tau: eta =
    -g^{-1} d_qdot N, xi = tau*qdot + eta, f = N + L*tau + d_qdot L . eta."""
    Nexpr = _require_conserved(sys, N, seed).expr
    tau = sp.sympify(tau)
    eta = tuple(-wi for wi in _g_inv_grad(sys, Nexpr, seed))
    return _derived(sys, tau, eta, _noether_sum(sys, Nexpr, tau, eta, 1), STRONG, ())


def solve_alt_strong_trivial_gauge(
    sys: LagrangianSystem, N, *, c: float = 0.0, seed: int = 0
) -> Triple:
    """Alternative-convention strong triple with boundary term zero at c = 0:
    ``convert_standard_alternative(multiplicity_transform(solve_strong(N, 0), 0, c))``."""
    denom = Exclusion(sys.L + c, DENOM_MARGIN)
    fi = _require_conserved(sys, N, seed, extra_exclusions=(denom,))
    gauged = multiplicity_transform(sys, solve_strong(sys, fi, seed=seed), 0, c=c)
    return convert_standard_alternative(sys, gauged)


def multiplicity_transform(
    sys: LagrangianSystem, tr: Triple, h, *, c: float = 0.0
) -> Triple:
    """Trade the boundary term for h, preserving form, eta and the first
    integral: tau += s and f = h - c*s with s = (h-f)/(L+c), so that
    xi += qdot*s in the standard convention.  The shift c keeps the
    denominator off the zero set of L; f = h only at c = 0.  h = 0 is the
    gauge trivialization: it leaves f*c/(L+c), zero only at c = 0.

    The result carries the triple's eta, and its xi is built from eta on
    first read: eta + qdot*(tau + s) in the standard convention."""
    h = sp.sympify(h)
    denom = sys.L + c
    shift = (h - tr.f) / denom
    _, convention = _decode(tr.form)
    # 0.0*shift folds to 0 only after sympy has asked whether shift is finite,
    # which costs milliseconds on a solver's expressions
    f = h - c * shift if c else h
    # at c != 0, f divides by L+c once per earlier transform at this c and the
    # result once more; at the p-th power, the margin DENOM_MARGIN**(2/(p+1))
    # bounds the float cancellation as DENOM_MARGIN bounds it at the first
    earlier = sum(ex.expr == denom for ex in tr.exclusions) if c else 0
    margin = DENOM_MARGIN ** (2 / (earlier + 2))
    return _derived(sys, tr.tau + shift, _characteristic(sys, tr, convention), f, tr.form,
                    (*tr.exclusions, Exclusion(denom, margin)))


def trivialize(sys: LagrangianSystem, tr: Triple) -> Triple:
    """Equivalent triple with zero time change: xi = eta, f -= L*tau; the
    first integral is unchanged.  The zero boundary term is
    ``multiplicity_transform(sys, tr, 0, c=c)``."""
    return _derived(sys, sp.Integer(0), _characteristic(sys, tr, _decode(tr.form)[1]),
                    tr.f - _L_times(sys, tr.tau), tr.form, tr.exclusions)


def convert_standard_alternative(sys: LagrangianSystem, tr: Triple) -> Triple:
    """Map between the standard and alternative conventions, keeping eta:
    standard -> alternative replaces xi by xi - tau*qdot; the reverse adds
    tau*qdot back.  Round trips are the identity.
    """
    _, convention = _decode(tr.form)
    form = tr.form.removeprefix("alt_") if convention == "alternative" else "alt_" + tr.form
    return _derived(sys, tr.tau, _characteristic(sys, tr, convention), tr.f, form,
                    tr.exclusions)


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


def velocity_independence_check(sys: LagrangianSystem, N) -> VelocityIndependenceVerdict:
    """Test affineness of w = g^{-1} d_qdot N in the velocities and that its
    velocity Jacobian is a scalar multiple of the identity; extract (a, b)
    on success.  Each of the three checks samples k = 20 points at seed 0
    with tolerance 1e-8, and w is spot-checked at seed 0."""
    vs = sys.alphabet.velocity_symbols
    w = _g_inv_grad(sys, _as_expr(N), 0)
    n = sys.n
    check = partial(sys.check, k=20, tol=1e-8, seed=0)
    jac = [_diff(w[i], vs[j]) for i in range(n) for j in range(n)]
    second = [_diff(jac[i * n + j], vs[l]) for i in range(n) for j in range(n)
              for l in range(j, n)]
    rep = check(second, [0] * len(second), label="affine-in-velocity")
    if rep.passed:
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
