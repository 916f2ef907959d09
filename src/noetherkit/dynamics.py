"""Numerical integration of the normal form and first-integral drift checks.

Fixed-step classical RK4 on the first-order system (q, qdot)' = (qdot, Lam).
Each stage evaluates the system's normal form Lam, compiled once.  A
trajectory is truncated with a flag when it approaches a declared singular
set or its state stops being finite.  The step count is bounded by
``MAX_STEPS``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import sympy as sp

from .expressions import _eval_rows, compile_fn, draw_points
from .mechanics import LagrangianSystem
from .noether import FirstIntegral, _as_expr

__all__ = [
    "SingularStartError",
    "Trajectory",
    "DriftReport",
    "integrate",
    "monitor_drift",
    "functional_independence_rank",
    "write_trajectory_csv",
]

SINGULAR_ABORT = 1e-3
# a run stores every node, so the step count is bounded; 100x the 10k steps
# of a long monitored orbit
MAX_STEPS = 1_000_000


class SingularStartError(ValueError):
    """The initial state lies inside a declared singular exclusion zone."""


@dataclass(frozen=True)
class Trajectory:
    """Uniform-step trajectory of a Lagrangian system."""

    system: str
    t: np.ndarray
    q: np.ndarray  # shape (m, n)
    qdot: np.ndarray  # shape (m, n)
    dt: float
    truncated: bool = False


@dataclass(frozen=True)
class DriftReport:
    """Empirical drift of a first integral along a trajectory."""

    name: str
    initial: float
    max_abs_drift: float
    max_rel_drift: float
    nodes: int
    truncated: bool

    def to_dict(self) -> dict:
        return {
            "integral": self.name,
            "initial_value": self.initial,
            "max_abs_drift": self.max_abs_drift,
            "max_rel_drift": self.max_rel_drift,
            "nodes": self.nodes,
            "truncated": self.truncated,
        }


def _state_fn(sys: LagrangianSystem, exprs: Sequence[sp.Expr]):
    """Compile exprs into a function of (t, q, qdot) returning a float array."""
    fn = compile_fn(exprs, sys.alphabet, sys.bindings)
    names = [s.name for s in sys.alphabet.variables()]
    # numpy floats make a pole read inf where Python floats raise
    params = {name: np.float64(v) for name, v in sys.param_values.items()}

    def at(t: float, q: np.ndarray, qdot: np.ndarray) -> np.ndarray:
        point = dict(zip(names, [np.float64(t), *q, *qdot]))
        point.update(params)
        return np.atleast_1d(np.asarray(fn(point), dtype=float))

    return at


def _singular_guard(sys: LagrangianSystem):
    if not sys.exclusions:
        return lambda t, q, qdot: False
    values = _state_fn(sys, [ex.expr for ex in sys.exclusions])
    # steep singular sets can be crossed within a single step, so the abort
    # distance follows each declared exclusion margin, never less than the
    # baseline
    thresholds = np.array(
        [max(ex.threshold, SINGULAR_ABORT) for ex in sys.exclusions]
    )

    def near_singular(t: float, q: np.ndarray, qdot: np.ndarray) -> bool:
        vals = values(t, q, qdot)
        return bool(np.any(~np.isfinite(vals)) or np.any(np.abs(vals) < thresholds))

    return near_singular


def integrate(
    sys: LagrangianSystem,
    initial: tuple[float, Sequence[float], Sequence[float]],
    t1: float,
    dt: float = 1e-3,
) -> Trajectory:
    """Integrate qddot = Lam(t, q, qdot) from (t0, q0, qdot0) up to t1.

    Raises ValueError when the run would take more than ``MAX_STEPS`` steps.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t0, q0, qd0 = initial
    q0 = np.asarray(q0, dtype=float)
    qd0 = np.asarray(qd0, dtype=float)
    if q0.shape != (sys.n,) or qd0.shape != (sys.n,):
        raise ValueError(f"initial state must have dimension {sys.n}")

    span = (t1 - t0) / dt
    if not span <= MAX_STEPS:
        raise ValueError(
            f"dt = {dt:g} over [{t0:g}, {t1:g}] needs {span:.3g} steps, "
            f"more than the limit of {MAX_STEPS}"
        )
    steps = int(round(span))

    accel = _state_fn(sys, list(sys.lam))
    near_singular = _singular_guard(sys)
    if near_singular(t0, q0, qd0):
        raise SingularStartError("initial state is inside the singular exclusion zone")

    ts = [t0]
    qs = [q0]
    qds = [qd0]
    truncated = False

    def rhs(t, y):
        q, qd = y[: sys.n], y[sys.n:]
        return np.concatenate([qd, accel(t, q, qd)])

    y = np.concatenate([q0, qd0])
    t = t0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + dt / 2 * k1)
        k3 = rhs(t + dt / 2, y + dt / 2 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + dt
        q, qd = y[: sys.n], y[sys.n:]
        if not np.all(np.isfinite(y)) or near_singular(t, q, qd):
            truncated = True
            break
        ts.append(t)
        qs.append(q.copy())
        qds.append(qd.copy())
    return Trajectory(
        system=sys.name,
        t=np.asarray(ts),
        q=np.asarray(qs),
        qdot=np.asarray(qds),
        dt=dt,
        truncated=truncated,
    )


def monitor_drift(
    sys: LagrangianSystem, traj: Trajectory, N, name: str = ""
) -> DriftReport:
    """Max absolute and relative deviation of N from its initial value."""
    expr = _as_expr(N)
    if isinstance(N, FirstIntegral) and not name:
        name = N.name
    fn = compile_fn([expr], sys.alphabet, sys.bindings)
    names = [s.name for s in sys.alphabet.variables()]
    columns = dict(zip(names, [traj.t, *traj.q.T, *traj.qdot.T]))
    columns.update({k: np.float64(v) for k, v in sys.param_values.items()})
    values = _eval_rows(fn, columns, len(traj.t))[0]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"integral {name or expr} not evaluable along trajectory")
    drift = np.abs(values - values[0])
    scale = 1.0 + abs(values[0])
    return DriftReport(
        name=name or str(expr),
        initial=float(values[0]),
        max_abs_drift=float(drift.max()),
        max_rel_drift=float(drift.max() / scale),
        nodes=len(traj.t),
        truncated=traj.truncated,
    )


def functional_independence_rank(
    sys: LagrangianSystem,
    integrals: Sequence,
    *,
    points: int = 10,
    seed: int = 0,
    svd_rtol: float = 1e-8,
) -> tuple[int, list[int]]:
    """Numeric rank of the Jacobian of the integrals with respect to
    (q, qdot), majority-voted over sample points.

    Returns (majority rank, per-point ranks).
    """
    exprs = [_as_expr(N) for N in integrals]
    ab = sys.alphabet
    state = ab.coord_symbols + ab.velocity_symbols
    jac_entries = [sp.diff(e, s) for e in exprs for s in state]
    fn = compile_fn(jac_entries, ab, sys.bindings)
    pts = draw_points(ab, sys.domain(), sys.param_values, sys.bindings, points, seed)
    J = _eval_rows(fn, pts.columns, points).T.reshape(points, len(exprs), len(state))
    sv = np.linalg.svd(J, compute_uv=False)
    ranks = [int(n) for n in np.sum(sv > svd_rtol * sv[:, :1], axis=1)]
    majority = max(set(ranks), key=ranks.count)
    return majority, ranks


def write_trajectory_csv(traj: Trajectory, path, coord_names: Sequence[str]) -> None:
    """Export with header t, q..., qdot... (one row per node)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"] + list(coord_names) + [c + "dot" for c in coord_names]
        )
        for i in range(len(traj.t)):
            writer.writerow(
                [f"{traj.t[i]:.12g}"]
                + [f"{v:.17g}" for v in traj.q[i]]
                + [f"{v:.17g}" for v in traj.qdot[i]]
            )
