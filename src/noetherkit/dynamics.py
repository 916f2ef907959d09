"""Numerical integration of the normal form and first-integral drift checks.

Fixed-step classical RK4 on the first-order system (q, qdot)' = (qdot, Lam).
The whole run is one generated function per system, memoized on Lam and the
exclusions: its loop takes the RK4 steps on Python floats, two per pass.
Lam and the declared singular sets, which guard each new node, are printed
once, at that node; every stage, the pass's second step and its odd exit
node are renamings of that text, and a second generated function runs it
once to evaluate the start.  A step at which Python floats raise or go
complex runs again on numpy float64 scalars, which read inf or NaN there,
and the loop resumes after it.  The loop packs each state straight into
the trajectory's float64 array, allocated once for every node; the times
are derived from t0 and dt afterwards.  A trajectory is truncated with a
flag when it approaches a declared singular set or its state stops being
finite.  The step count is bounded by ``MAX_STEPS``.
"""

from __future__ import annotations

import functools
import math
import re
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expressions import (
    COMPILE_MEMO_SIZE,
    _GLOBALS,
    Alphabet,
    _define,
    _diff,
    _eval_rows,
    _print_code,
    compile_fn,
    draw_points,
)
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
# a run preallocates (steps + 1)*2n doubles, so the step count is bounded;
# 100x the 10k steps of a long monitored orbit
MAX_STEPS = 1_000_000
# singular values below this fraction of the largest do not count to the rank
SVD_RTOL = 1e-8
# the rank is majority-voted over this many sample points
RANK_POINTS = 10
# a name in the RK4 loop's source, and a call
_NAME = re.compile(r"[^\W\d][\w·]*")
_CALL = re.compile(r"[\w·]\(")


class SingularStartError(ValueError):
    """The initial state lies inside a declared singular exclusion zone."""


@dataclass(frozen=True)
class Trajectory:
    """Uniform-step trajectory of a Lagrangian system."""

    t: np.ndarray
    q: np.ndarray  # shape (m, n)
    qdot: np.ndarray  # shape (m, n)
    dt: float
    truncated: bool


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
    """Integrate qddot = Lam(t, q, qdot) from (t0, q0, qdot0) over
    round((t1 - t0)/dt) steps of dt, so the last node may lie up to dt/2
    past t1 or before it: t1 = 1 ends at 1.05 with dt = 0.35 and at 0.9
    with dt = 0.3.

    The start is evaluated on float64 scalars by the ``at`` of
    :func:`_rk4_loop`, and the steps run in its loop on Python floats,
    which give float64's value wherever they give a real float without
    raising.  So only a step that raises ZeroDivisionError or
    OverflowError, or goes complex, runs again, through the same loop on
    float64 scalars, which read inf or NaN there; the loop then resumes on
    Python floats.  The loop packs the state at each node into one float64
    array of (steps + 1)*2n doubles and returns the byte offset it has
    filled to, so the node count is read from that offset and the rows are
    the filled part.  The times are the running sums of t0, dt, dt, ...,
    which is the clock t + dt that the loop keeps for a Lam or exclusion
    that reads t, bit for bit.  The run is truncated at the last node
    before a state that is not finite or within an exclusion margin.
    A float64 rerun that returns a node without packing one is an internal
    error, a RuntimeError, so the loop cannot repeat it without end.
    Raises SingularStartError for a start in an exclusion zone, and ValueError
    when the start is not finite, t1 is before t0, the run needs more than
    ``MAX_STEPS`` steps, Lam or an exclusion is complex-typed at the start, or
    an exclusion holds a total-derivative node.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t0, q0, qd0 = initial
    q0 = np.asarray(q0, dtype=float)
    qd0 = np.asarray(qd0, dtype=float)
    if q0.shape != (sys.n,) or qd0.shape != (sys.n,):
        raise ValueError(f"initial state must have dimension {sys.n}")
    if not (math.isfinite(t0) and np.isfinite(q0).all() and np.isfinite(qd0).all()):
        raise ValueError(f"initial state must be finite, got t0 = {t0}, "
                         f"q0 = {q0.tolist()}, qdot0 = {qd0.tolist()}")
    if t1 < t0:
        raise ValueError(f"t1 = {t1:g} is before t0 = {t0:g}")

    span = (t1 - t0) / dt
    if not span <= MAX_STEPS:
        raise ValueError(
            f"dt = {dt:g} over [{t0:g}, {t1:g}] needs {span:.3g} steps, "
            f"more than the limit of {MAX_STEPS}"
        )
    steps = int(round(span))

    n, width = sys.n, 2 * sys.n
    run, at = _rk4_loop((*sys.lam, *(ex.expr for ex in sys.exclusions)), sys.alphabet)
    params = tuple(float(sys.param_values[p]) for p in sys.alphabet.params)
    # steep singular sets can be crossed within a single step, so the abort
    # distance follows each declared exclusion margin, never less than the
    # baseline
    thresholds = [max(ex.threshold, SINGULAR_ABORT) for ex in sys.exclusions]
    tail = (*thresholds, dt, dt / 2, dt / 6)

    t = float(t0)
    y = (*map(float, q0), *map(float, qd0))
    # the run packs each node's doubles at a byte offset into buf
    buf = np.empty((steps + 1) * width)
    buf[:width] = y
    stride, end = 8 * width, buf.nbytes
    with np.errstate(all="ignore"):
        start = at(np.float64(t), *map(np.float64, y + params))
        # arithmetic on float64 arguments gives complex values at every state
        # or at none, so the start decides; a complex-typed stage would send
        # every step to the float64 rerun, which takes none
        if any(isinstance(v, complex) for v in start):
            raise ValueError("Lam or an exclusion is not real at the start")
        if not all(c <= abs(v) < math.inf for c, v in zip(thresholds, start[n:])):
            raise SingularStartError("initial state is inside the singular exclusion zone")
        node, off = (t, *y, *map(float, start[:n])), stride
        while node is not None and off < end:
            node, off = run(*node, *params, *tail, (end - off) // stride, buf, off)
            if node is not None and off < end:
                # the step from node raised or went complex on Python floats
                node, moved = run(*map(np.float64, node + params), *tail, 1, buf, off)
                if node is not None and moved == off:
                    raise RuntimeError("the float64 rerun of a step packed no node")
                node, off = node and tuple(map(float, node)), moved
    rows = buf[:off // 8].reshape(-1, width)
    # the loop's t + dt at each step, in the same order
    times = np.full(len(rows), dt, dtype=float)
    times[0] = t
    return Trajectory(
        t=np.add.accumulate(times),
        q=np.ascontiguousarray(rows[:, :n]),
        qdot=np.ascontiguousarray(rows[:, n:]),
        dt=dt,
        truncated=node is None,
    )


@functools.lru_cache(maxsize=COMPILE_MEMO_SIZE)
def _rk4_loop(exprs, alphabet):
    """The generated RK4 run and start evaluation for ``exprs``, Lam and then
    the exclusion values: the pair (run, at), memoized on ``(exprs,
    alphabet)``, so one pair serves every ``param_values`` of a Lam.

    :func:`expressions._print_code` prints Lam and the exclusion values once,
    at the new node (t1, w), into the locals b and e; a negated parameter
    reads a local computed once per call, the inline ``(-mu)*x`` bit for
    bit.  Every other text of the loop renames that one (:func:`_rename`),
    an inner stage keeping Lam's assignments only, and ``at(t, y, params)``
    runs it once, returning Lam and the exclusion values.

    run(t, y, Lam at (t, y), params, thresholds, dt, dt/2, dt/6, steps,
    out, o) takes up to ``steps`` classical RK4 steps of (q, qdot)' = (qdot,
    Lam), unrolled over the 2n state components.  Each stage state is
    ``y + h*k`` and the new state ``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)``, in
    this order of operations.  Each pass of the loop takes two steps.  The
    first maps the node locals (t, y, a) to (t1, w, b) and the second, its
    text with those names swapped, maps them back, so no node is handed on
    by assignment, and one ``pack_into`` writes both new states into the
    float64 buffer ``out`` at the byte offset ``o``, which then moves past
    them.  An odd last step, or a second step that leaves, packs the first
    step's state alone.  The clock t + dt/2, t + dt runs only when Lam or
    an exclusion reads t; otherwise the t of a node it returns is the
    start's.

    At the new node the statements give Lam, the next step's k1, and the
    exclusion values, which guard the node: each state component must be
    finite and each exclusion value finite and at least its threshold in
    magnitude.  The loop sums the new state, Lam and the exclusion values,
    and a sum is finite only where every term is.  So a node passes at once
    when that sum is finite and each exclusion value e is at least its
    threshold c or at most -c, which the run also negates once: for a
    finite real e and c > 0 that is c <= |e|, without a call.  Only when
    the sum is not finite, from an overflow or a term that is not finite,
    does the guard of each term decide.  It accepts the same nodes either
    way.  A sum is complex-typed where any of its terms is.  Comparing a
    Python complex raises TypeError, which the step's handler takes with
    ZeroDivisionError and OverflowError.  A numpy complex, which a
    function's value can be, compares without raising, so a stage that
    calls a function also tests the type of the sum.  An exclusion with
    total-derivative nodes, which need a complex step, is a ValueError.
    Returns the pair of a node and the offset past the last packed state:
    the node after ``steps`` steps, the start node of a step that raised
    or went complex, or None at a node the guard refused.  Every local
    carries a ``·``, outside the DSL's names.
    """
    n, m = alphabet.n, len(exprs) - alphabet.n
    names = [s.name for s in (*alphabet.variables(), *alphabet.param_symbols)]
    params = [f"p·{j}" for j in range(len(alphabet.params))]
    y = [f"y·{i}" for i in range(2 * n)]
    w = [f"w·{i}" for i in range(2 * n)]
    lam, excl = [f"b·{i}" for i in range(n)], [f"e·{j}" for j in range(m)]
    lines, outs, nodes, _ = _print_code(
        exprs, dict(zip(names, ["t1·", *w, *params])), {p: f"n{p}" for p in params})
    if nodes:
        raise ValueError(f"the RK4 loop cannot run the total derivative {nodes[0]}")
    at = lines + [f"{v} = {o}" for v, o in zip(lam + excl, outs)]
    ks = [y[n:] + [f"a·{i}" for i in range(n)]]
    body = []
    for s, (h, time) in enumerate([("h2·", "th·"), ("h2·", "th·"), ("dt·", "t1·")], 2):
        z = [f"z{s}·{i}" for i in range(2 * n)]
        body += [f"{zi} = {yi} + {h} * {ki}" for zi, yi, ki in zip(z, y, ks[-1])]
        ks.append(z[n:] + [f"k{s}·{i}" for i in range(n)])
        body += _rename(at[:len(at) - m], {"t1·": time, **dict(zip(w + lam, z + ks[-1][n:]))})
    body += [f"{wi} = {yi} + h6· * ({k1} + 2.0 * {k2} + 2.0 * {k3} + {k4})"
             for wi, yi, k1, k2, k3, k4 in zip(w, y, *ks)]
    body += at
    clear = [f"c·{j}" for j in range(m)]
    a = ks[0][n:]
    start = ["t·", *y, *a]
    node = f"({', '.join(start)}), o·"
    # for a finite real e and c > 0, c <= |e| is e >= c or e <= -c
    fast = " and ".join(["-inf· < s· < inf·",
                         *(f"({e} >= {c} or {e} <= n{c})" for c, e in zip(clear, excl))])
    guard = " and ".join([*(f"-inf· < {v} < inf·" for v in w),
                          *(f"{c} <= abs·({e}) < inf·" for c, e in zip(clear, excl))])
    clocked = any(alphabet.t in e.free_symbols for e in exprs)
    calls = _CALL.search("\n".join(body))

    def step(leave):
        """The lines of one step from (t·, y·, a·) to (t1·, w·, b·), with
        the lines ``leave`` before each exit."""
        return [
            *(["th·, t1· = t· + h2·, t· + dt·"] if clocked else []),
            "try:",
            *(f"    {line}" for line in body),
            "    # a sum is complex-typed where any of its terms is, and finite",
            "    # only where every term is; comparing a Python complex raises",
            f"    s· = {' + '.join(w + lam + excl)}",
            *(["    if isinstance(s·, complex):", "        raise TypeError"] if calls else []),
            f"    if not ({fast}):",
            "        # the sum overflowed or a term is not finite",
            f"        if not ({guard}):",
            *(f"            {line}" for line in [*leave, "return None, o·"]),
            "except (ZeroDivisionError, OverflowError, TypeError):",
            *(f"    {line}" for line in [*leave, f"return {node}"]),
        ]

    def store(state):
        """The lines that pack ``state`` at o· and move o· past it."""
        return [f"pk{len(state) // (2 * n)}·(out·, o·, {', '.join(state)})",
                f"o· += {8 * len(state)}"]

    other = dict(zip(y + a, w + lam))
    if clocked:
        other["t·"] = "t1·"
    other.update({v: k for k, v in other.items()})
    # the second step, back from (t1·, w·, b·), packs the pass's first node
    # before it leaves: the y· it names are its w·
    second = _rename(step(store(y)), other)
    signature = ", ".join([*start, *params, *clear, "dt·", "h2·", "h6·", "steps·", "out·", "o·"])
    source = (
        f"def run·({signature}):\n" +
        "".join(f"    n{v} = -{v}\n" for v in params + clear) +
        "    last· = steps· // 2\n"
        "    for _· in range(steps· - last·):\n" +
        "".join(f"        {line}\n" for line in step([])) +
        "        if _· == last·:  # an odd last step\n" +
        "".join(f"            {line}\n" for line in store(w)) +
        f"            {_rename([f'return {node}'], other)[0]}\n" +
        "".join(f"        {line}\n" for line in second) +
        "".join(f"        {line}\n" for line in store(w + y)) +
        f"    return {node}\n"
        f"\n\ndef at·({', '.join(['t1·', *w, *params])}):\n" +
        "".join(f"    n{v} = -{v}\n" for v in params) +
        "".join(f"    {line}\n" for line in at) +
        f"    return [{', '.join(lam + excl)}]\n"
    )
    namespace = {**_GLOBALS, "abs·": abs, "inf·": math.inf,
                 "pk1·": struct.Struct(f"{2 * n}d").pack_into,
                 "pk2·": struct.Struct(f"{4 * n}d").pack_into}
    return _define(source, "run·", namespace), namespace["at·"]


def _rename(lines, names):
    """``lines`` with each local that ``names`` maps renamed, all at once."""
    return [_NAME.sub(lambda name: names.get(name[0], name[0]), line) for line in lines]


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
    sys: LagrangianSystem, integrals: Sequence
) -> tuple[int, list[int]]:
    """Numeric rank of the Jacobian of the integrals with respect to
    (q, qdot), majority-voted over RANK_POINTS = 10 sample points drawn at
    seed 0.

    Returns (majority rank, per-point ranks).
    """
    exprs = [_as_expr(N) for N in integrals]
    ab = sys.alphabet
    state = ab.coord_symbols + ab.velocity_symbols
    jac_entries = [_diff(e, s) for e in exprs for s in state]
    fn = compile_fn(jac_entries, ab)
    pts = draw_points(ab, sys.domain(), sys.param_values, RANK_POINTS, 0)
    J = _eval_rows(fn, pts, RANK_POINTS).T.reshape(RANK_POINTS, len(exprs), len(state))
    sv = np.linalg.svd(J, compute_uv=False)
    ranks = [int(n) for n in np.sum(sv > SVD_RTOL * sv[:, :1], axis=1)]
    majority = max(set(ranks), key=ranks.count)
    return majority, ranks


def write_trajectory_csv(traj: Trajectory, path, alphabet: Alphabet) -> None:
    """Export one row per node under the header t, q..., qdot... that
    ``alphabet.variables()`` names, each value at 17 significant digits,
    so that it reads back to the stored float; lines end in CRLF."""
    header = ",".join(s.name for s in alphabet.variables())
    rows = np.column_stack([traj.t, traj.q, traj.qdot])
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", newline="\r\n", header=header,
                   comments="")
