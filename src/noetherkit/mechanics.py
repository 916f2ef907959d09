"""Euler-Lagrange structure of a Lagrangian system.

From L(t, q, qdot) we derive the momentum gradient p, the velocity Hessian
g, the Euler-Lagrange right-hand side rhs = d_q L - d2_{qdot,t} L -
d2_{qdot,q} L * qdot, and the acceleration field Lam of the normal form
qddot = Lam(t, q, qdot) obtained by solving  g * Lam = rhs.
Regularity (det g != 0) is checked by sampling, not proven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import sympy as sp

from .expressions import (
    Alphabet,
    Exclusion,
    SampleDomain,
    _eval_rows,
    compile_fn,
    draw_points,
    equal_numeric,
)

__all__ = ["LagrangianSystem", "RegularityError", "build_system", "el_residual", "invert_g_apply"]

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
    param_values: dict[str, float] = field(default_factory=dict)
    exclusions: tuple[Exclusion, ...] = ()
    var_ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    p: tuple[sp.Expr, ...] = ()
    g: sp.Matrix = None
    lam: tuple[sp.Expr, ...] = ()
    rhs: tuple[sp.Expr, ...] = ()

    @property
    def n(self) -> int:
        return self.alphabet.n

    def domain(self, extra: Sequence[Exclusion] = ()) -> SampleDomain:
        return SampleDomain(
            var_ranges=dict(self.var_ranges),
            exclusions=self.exclusions + tuple(extra),
        )

    def check(self, a, b, **kw) -> "IdentityReport":
        """equal_numeric preconfigured with this system's parameters and
        singular-set exclusions.  ``a`` and ``b`` are two expressions or two
        equal-length lists checked componentwise; ``extra_exclusions`` adds
        to the system's exclusions."""
        extra = kw.pop("extra_exclusions", ())
        kw.setdefault("param_values", self.param_values)
        kw.setdefault("domain", self.domain(extra))
        return equal_numeric(a, b, self.alphabet, **kw)


def _solve_linear(g: sp.Matrix, w: sp.Matrix, n: int) -> sp.Matrix:
    # adjugate keeps expressions bounded for the n <= 3 systems of interest
    if n > 3:
        return g.LUsolve(w)
    det = g.det()
    if det == 0:
        raise RegularityError({}, 0.0)
    return g.adjugate() * w / det


def build_system(
    L,
    alphabet: Alphabet,
    *,
    name: str = "",
    param_values: Mapping[str, float] | None = None,
    exclusions: Sequence[Exclusion] = (),
    var_ranges: Mapping[str, tuple[float, float]] | None = None,
    seed: int = 0,
) -> LagrangianSystem:
    """Derive p, g and the normal form Lam; sample-check regularity.

    Raises RegularityError with the witness point when |det g| drops below
    the regularity floor at any of the sampled points.
    """
    L = sp.sympify(L)
    alphabet.check_declared(L)
    for a in alphabet.acceleration_symbols:
        if L.has(a):
            raise ValueError("Lagrangian must be free of acceleration symbols")
    qs = alphabet.coord_symbols
    vs = alphabet.velocity_symbols
    p = tuple(sp.diff(L, v) for v in vs)
    g = sp.Matrix(alphabet.n, alphabet.n, lambda i, j: sp.diff(p[i], vs[j]))
    rhs = tuple(
        sp.diff(L, qs[i])
        - sp.diff(p[i], alphabet.t)
        - sum(sp.diff(p[i], qs[j]) * vs[j] for j in range(alphabet.n))
        for i in range(alphabet.n)
    )
    lam = tuple(_solve_linear(g, sp.Matrix(rhs), alphabet.n))

    sys = LagrangianSystem(
        name=name,
        alphabet=alphabet,
        L=L,
        param_values=dict(param_values or {}),
        exclusions=tuple(exclusions),
        var_ranges=dict(var_ranges or {}),
        p=p,
        g=g,
        lam=lam,
        rhs=rhs,
    )
    _check_regularity(sys, seed=seed)
    return sys


def _check_regularity(sys: LagrangianSystem, seed: int = 0) -> None:
    det_fn = compile_fn([sys.g.det()], sys.alphabet)
    points = draw_points(sys.alphabet, sys.domain(), sys.param_values, REGULARITY_SAMPLES, seed)
    det = _eval_rows(det_fn, points.columns, REGULARITY_SAMPLES)[0]
    bad = ~np.isfinite(det) | (np.abs(det) < REGULARITY_MIN_DET)
    if bad.any():
        i = int(np.argmax(bad))
        raise RegularityError(points[i], float(det[i]))


def el_residual(sys: LagrangianSystem, point: Mapping[str, float]) -> np.ndarray:
    """Euler-Lagrange residual d_q L - (d/dt) d_qdot L at a point that also
    binds the accelerations: rhs - g*qddot, which equals g*(Lam - qddot)."""
    accs = sys.alphabet.acceleration_symbols
    exprs = [
        r - sum(sys.g[i, j] * a for j, a in enumerate(accs))
        for i, r in enumerate(sys.rhs)
    ]
    fn = compile_fn(exprs, sys.alphabet, include_acc=True)
    # numpy floats make a pole read inf where Python floats raise
    full = {name: np.float64(v) for name, v in point.items()}
    for name, v in sys.param_values.items():
        full.setdefault(name, np.float64(v))
    return _eval_rows(fn, full, 1)[:, 0]


def invert_g_apply(sys: LagrangianSystem, w: Sequence, *, seed: int = 0) -> tuple[sp.Expr, ...]:
    """Symbolic solution v of g*v = w, numerically spot-checked at 20 points."""
    w = sp.Matrix([sp.sympify(wi) for wi in w])
    if w.shape[0] != sys.n:
        raise ValueError(f"vector has length {w.shape[0]}, expected {sys.n}")
    sol = _solve_linear(sys.g, w, sys.n)
    # the residual often cancels symbolically, so its compilation is shared
    rep = sys.check(list(sys.g * sol - w), [0] * sys.n, k=REGULARITY_SAMPLES,
                    tol=1e-8, seed=seed, label="invert_g_apply")
    if not rep.passed:
        raise RegularityError(rep.worst_point, rep.max_residual)
    return tuple(sol)
