"""Numerical integration of the normal form and first-integral drift checks.

Fixed-step classical RK4 on the first-order system (q, qdot)' = (qdot, Lam).
The normal form Lam and the declared singular sets are compiled into one
function, so each stage is one call that also gives the guard's values.
Each step is one straight-line function of the state on Python floats; a
step at which they raise or go complex runs again on numpy float64
scalars, which read inf or NaN there.  A trajectory is truncated with a
flag when it approaches a declared singular set or its state stops being
finite.  The step count is bounded by ``MAX_STEPS``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import sympy as sp

from .expressions import _eval_rows, _real, compile_fn, draw_points
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
# singular values below this fraction of the largest do not count to the rank
SVD_RTOL = 1e-8


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


def integrate(
    sys: LagrangianSystem,
    initial: tuple[float, Sequence[float], Sequence[float]],
    t1: float,
    dt: float = 1e-3,
) -> Trajectory:
    """Integrate qddot = Lam(t, q, qdot) from (t0, q0, qdot0) up to t1.

    Each step is the RK4 tableau unrolled over the state components
    (:func:`_rk4_step`) and run on Python floats.  Its four stages are each
    one call of Lam compiled with the exclusion values; the last, at the new
    node, guards that node and is the next step's first stage.  Python
    floats give float64's value wherever they give a real float without
    raising, so only a step that raises ZeroDivisionError or OverflowError,
    or goes complex, runs again on float64 scalars, which read inf or NaN
    there.  The run is truncated at the last node before a state that is not
    finite or within an exclusion margin.  Raises SingularStartError for a
    start in an exclusion zone, and ValueError when t1 is before t0 or the
    run needs more than ``MAX_STEPS`` steps.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t0, q0, qd0 = initial
    q0 = np.asarray(q0, dtype=float)
    qd0 = np.asarray(qd0, dtype=float)
    if q0.shape != (sys.n,) or qd0.shape != (sys.n,):
        raise ValueError(f"initial state must have dimension {sys.n}")
    if t1 < t0:
        raise ValueError(f"t1 = {t1:g} is before t0 = {t0:g}")

    span = (t1 - t0) / dt
    if not span <= MAX_STEPS:
        raise ValueError(
            f"dt = {dt:g} over [{t0:g}, {t1:g}] needs {span:.3g} steps, "
            f"more than the limit of {MAX_STEPS}"
        )
    steps = int(round(span))

    n = sys.n
    exprs = list(sys.lam) + [ex.expr for ex in sys.exclusions]
    stage = compile_fn(exprs, sys.alphabet).positional
    params = [float(sys.param_values[p]) for p in sys.alphabet.params]
    # steep singular sets can be crossed within a single step, so the abort
    # distance follows each declared exclusion margin, never less than the
    # baseline
    thresholds = [max(ex.threshold, SINGULAR_ABORT) for ex in sys.exclusions]

    def near_singular(excluded) -> bool:
        return not all(map(_clear, excluded, thresholds))

    t = float(t0)
    y = (*map(float, q0), *map(float, qd0))
    ts, ys = [t], [y]
    truncated = False
    with np.errstate(all="ignore"):
        # arithmetic on float64 arguments gives complex values at every state
        # or at none; where it does, each stage runs on float64 arguments, as
        # this first call does, and reads its values as the oracle does
        start = stage(np.float64(t), *map(np.float64, y), *map(np.float64, params))
        if any(isinstance(v, complex) for v in start):
            stage = lambda *args, compiled=stage: _real(compiled(*map(np.float64, args)))
            start = _real(start)
        if near_singular(start[n:]):
            raise SingularStartError("initial state is inside the singular exclusion zone")
        step = _rk4_step(stage, n, len(thresholds), len(params), dt)
        node = (t, *y, *map(float, start[:n]))
        for _ in range(steps):
            try:
                out = step(*node, *params)
            except (ZeroDivisionError, OverflowError):
                out = None
            # a sum is complex-typed where any of its terms is
            if out is None or isinstance(sum(out), complex):
                out = tuple(map(float, step(*map(np.float64, node),
                                            *map(np.float64, params))))
            y = out[1:1 + 2 * n]
            if not all(map(math.isfinite, y)) or near_singular(out[1 + 3 * n:]):
                truncated = True
                break
            node = out[:1 + 3 * n]
            ts.append(out[0])
            ys.append(y)
    states = np.array(ys)
    return Trajectory(
        system=sys.name,
        t=np.asarray(ts),
        q=np.ascontiguousarray(states[:, :n]),
        qdot=np.ascontiguousarray(states[:, n:]),
        dt=dt,
        truncated=truncated,
    )


def _clear(value, threshold) -> bool:
    """An exclusion value that is finite and at least threshold from zero."""
    return threshold <= abs(value) < math.inf


def _rk4_step(stage, n: int, m: int, p: int, dt: float):
    """One classical RK4 step of (q, qdot)' = (qdot, Lam), unrolled over the
    2n state components: from (t, y, Lam at (t, y), params) to (t + dt, y',
    Lam and the m exclusion values at (t + dt, y')).  ``stage`` maps (t, y,
    params) to Lam and the exclusion values.  Each stage state is
    ``y + h*k`` and the new state ``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)``, in
    this order of operations."""
    y = [f"y{i}" for i in range(2 * n)]
    params = [f"p{i}" for i in range(p)]
    ks = [y[n:] + [f"a{i}" for i in range(n)]]
    body = []
    for s, (h, at) in enumerate([("h2", "th"), ("h2", "th"), ("dt", "t1")], 2):
        z = [f"z{s}_{i}" for i in range(2 * n)]
        lam = [f"a{s}_{i}" for i in range(n)]
        body += [f"{zi} = {yi} + {h} * {ki}" for zi, yi, ki in zip(z, y, ks[-1])]
        body.append(f"{', '.join(lam + ['_'] * m)}, = stage({at}, {', '.join(z + params)})")
        ks.append(z[n:] + lam)
    new = [f"y{i}_1" for i in range(2 * n)]
    body += [f"{yn} = {yi} + h6 * ({k1} + 2 * {k2} + 2 * {k3} + {k4})"
             for yn, yi, k1, k2, k3, k4 in zip(new, y, *ks)]
    body.append(f"return (t1, {', '.join(new)}, *stage(t1, {', '.join(new + params)}))")
    source = (f"def step(t, {', '.join(y + ks[0][n:] + params)}):\n"
              "    th, t1 = t + h2, t + dt\n" + "".join(f"    {line}\n" for line in body))
    namespace = {"stage": stage, "dt": dt, "h2": dt / 2, "h6": dt / 6}
    exec(source, namespace)
    return namespace["step"]


def monitor_drift(
    sys: LagrangianSystem, traj: Trajectory, N, name: str = ""
) -> DriftReport:
    """Max absolute and relative deviation of N from its initial value."""
    expr = _as_expr(N)
    if isinstance(N, FirstIntegral) and not name:
        name = N.name
    fn = compile_fn([expr], sys.alphabet)
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
) -> tuple[int, list[int]]:
    """Numeric rank of the Jacobian of the integrals with respect to
    (q, qdot), majority-voted over sample points.

    Returns (majority rank, per-point ranks).
    """
    exprs = [_as_expr(N) for N in integrals]
    ab = sys.alphabet
    state = ab.coord_symbols + ab.velocity_symbols
    jac_entries = [sp.diff(e, s) for e in exprs for s in state]
    fn = compile_fn(jac_entries, ab)
    pts = draw_points(ab, sys.domain(), sys.param_values, points, seed)
    J = _eval_rows(fn, pts.columns, points).T.reshape(points, len(exprs), len(state))
    sv = np.linalg.svd(J, compute_uv=False)
    ranks = [int(n) for n in np.sum(sv > SVD_RTOL * sv[:, :1], axis=1)]
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
