"""Euler-Lagrange structure of a Lagrangian system.

From L(t, q, qdot) we derive the momentum gradient p, the velocity Hessian
g, the Euler-Lagrange right-hand side rhs = d_q L - d2_{qdot,t} L -
d2_{qdot,q} L * qdot, and the acceleration field Lam of the normal form
qddot = Lam(t, q, qdot) obtained by solving  g * Lam = rhs.  The system
also keeps what later steps would otherwise derive again: det g and adj g,
so that every solve of g*v = w is adj(g)*w/det(g), and the Euler-Lagrange
expression E = g*qddot - rhs that the strong Killing equations subtract.
Products with g and adj g sum each row over its nonzero entries only, since
the DSL refuses infinities.  Regularity (det g != 0) is checked once, by
sampling before adj g and Lam are formed, not proven.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import sympy as sp

from .expressions import (
    Alphabet,
    Exclusion,
    IdentityReport,
    SampleDomain,
    _diff,
    _eval_rows,
    _occurring,
    _point_at,
    compile_fn,
    draw_points,
    equal_numeric,
)

__all__ = ["LagrangianSystem", "RegularityError", "build_system", "invert_g_apply"]

REGULARITY_SAMPLES = 20
REGULARITY_MIN_DET = 1e-8


class RegularityError(ValueError):
    """The velocity Hessian is (numerically) singular at a sample point."""

    def __init__(self, point, det):
        self.point = dict(point)
        self.det = det
        super().__init__(f"singular Hessian: |det g| = {abs(det):.3e} at {self.point}")


@dataclass(frozen=True)
class LagrangianSystem:
    """A regular Lagrangian system with its derived normal-form data."""

    name: str
    alphabet: Alphabet
    L: sp.Expr
    param_values: dict[str, float]
    exclusions: tuple[Exclusion, ...]
    var_ranges: dict[str, tuple[float, float]]
    p: tuple[sp.Expr, ...]
    g: sp.Matrix
    lam: tuple[sp.Expr, ...]
    rhs: tuple[sp.Expr, ...]
    det_g: sp.Expr
    adj_g: sp.Matrix
    E: tuple[sp.Expr, ...]

    @property
    def n(self) -> int:
        return self.alphabet.n

    def domain(self, extra: Sequence[Exclusion] = ()) -> SampleDomain:
        return SampleDomain(
            var_ranges=dict(self.var_ranges),
            exclusions=self.exclusions + tuple(extra),
        )

    def check(self, a, b, *, extra_exclusions=(), **kw) -> IdentityReport:
        """equal_numeric at this system's parameters and away from its
        singular-set exclusions.  ``a`` and ``b`` are two expressions or two
        equal-length lists checked componentwise; ``extra_exclusions`` adds
        to the system's exclusions."""
        return equal_numeric(a, b, self.alphabet, param_values=self.param_values,
                             domain=self.domain(extra_exclusions), **kw)


def _matvec(m: sp.Matrix, v: Sequence[sp.Expr]) -> list[sp.Expr]:
    """m*v, each entry the sum over the nonzero entries of its row, with the
    terms of sympy's Matrix product.  That product also multiplies the zero
    entries out, to keep 0*oo = nan, and so asks whether each other factor is
    finite; expressions here are finite, since the DSL refuses infinities."""
    return [sp.Add(*[a * b for a, b in zip(row, v) if a and b]) for row in m.tolist()]


def _solve_linear(det: sp.Expr, adj: sp.Matrix, w: Sequence[sp.Expr]) -> tuple[sp.Expr, ...]:
    """v = adj(g)*w/det(g), the solution of g*v = w, at every n."""
    inv = sp.S.One / det
    return tuple(e * inv if e else e for e in _matvec(adj, w))


def build_system(
    L,
    alphabet: Alphabet,
    *,
    name: str = "",
    param_values: Mapping[str, float] | None = None,
    exclusions: Sequence[Exclusion] = (),
    var_ranges: Mapping[str, tuple[float, float]] | None = None,
) -> LagrangianSystem:
    """Derive p, g and det g, sample-check regularity, then derive adj g, the
    normal form Lam and E.

    Raises ValueError unless ``param_values`` names exactly the alphabet's
    parameters, and RegularityError with the witness point when det g is not
    finite or |det g| is below the regularity floor at any of the sampled
    points.
    """
    L = sp.sympify(L)
    alphabet.check_declared(L)
    param_values = dict(param_values or {})
    if set(param_values) != set(alphabet.params):
        missing = [name for name in alphabet.params if name not in param_values]
        undeclared = [name for name in param_values if name not in alphabet.params]
        raise ValueError(f"parameter values must be the alphabet's parameters: missing "
                         f"{missing}, undeclared {undeclared}")
    if _occurring(L, alphabet._acceleration_set):
        raise ValueError("Lagrangian must be free of acceleration symbols")
    qs = alphabet.coord_symbols
    vs = alphabet.velocity_symbols
    p = tuple(_diff(L, v) for v in vs)
    g = sp.Matrix(alphabet.n, alphabet.n, lambda i, j: _diff(p[i], vs[j]))
    rhs = tuple(
        _diff(L, qs[i])
        - _diff(p[i], alphabet.t)
        - sum(_diff(p[i], qs[j]) * vs[j] for j in range(alphabet.n))
        for i in range(alphabet.n)
    )
    det = g.det()
    domain = SampleDomain(var_ranges=dict(var_ranges or {}), exclusions=tuple(exclusions))
    _check_regularity(det, alphabet, domain, param_values)
    adj = g.adjugate()
    lam = _solve_linear(det, adj, rhs)
    E = tuple(a - b for a, b in zip(_matvec(g, alphabet.acceleration_symbols), rhs, strict=True))
    return LagrangianSystem(
        name=name,
        alphabet=alphabet,
        L=L,
        param_values=param_values,
        exclusions=domain.exclusions,
        var_ranges=domain.var_ranges,
        p=p,
        g=g,
        lam=lam,
        rhs=rhs,
        det_g=det,
        adj_g=adj,
        E=E,
    )


def _check_regularity(det, alphabet: Alphabet, domain: SampleDomain, param_values) -> None:
    det_fn = compile_fn([det], alphabet)
    points = draw_points(alphabet, domain, param_values, REGULARITY_SAMPLES, 0)
    values = _eval_rows(det_fn, points, REGULARITY_SAMPLES)[0]
    bad = ~np.isfinite(values) | (np.abs(values) < REGULARITY_MIN_DET)
    if bad.any():
        i = int(np.argmax(bad))
        raise RegularityError(_point_at(points, i), float(values[i]))


def invert_g_apply(sys: LagrangianSystem, w: Sequence, *, seed: int = 0) -> tuple[sp.Expr, ...]:
    """Symbolic solution v of g*v = w, numerically spot-checked at 20 points;
    a failed check raises RegularityError with det g at its witness."""
    w = [sp.sympify(wi) for wi in w]
    if len(w) != sys.n:
        raise ValueError(f"vector has length {len(w)}, expected {sys.n}")
    sol = _solve_linear(sys.det_g, sys.adj_g, w)
    # the residual often cancels symbolically, so its compilation is shared
    residual = [a - b for a, b in zip(_matvec(sys.g, sol), w, strict=True)]
    rep = sys.check(residual, [0] * sys.n, k=REGULARITY_SAMPLES, tol=1e-8, seed=seed,
                    label="invert_g_apply")
    if not rep.passed:
        point = {name: np.float64(v) for name, v in rep.worst_point.items()}
        det = _eval_rows(compile_fn([sys.det_g], sys.alphabet), point, 1)[0, 0]
        raise RegularityError(rep.worst_point, float(det))
    return sol
