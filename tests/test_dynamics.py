
import ast
import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, strategies as st

from noetherkit.expressions import (
    Alphabet,
    Exclusion,
    UndeclaredSymbolError,
    compile_fn,
    total_dt,
)
from noetherkit import corpus, dynamics
from noetherkit.mechanics import build_system
from noetherkit.noether import check_conserved
from noetherkit.dynamics import (
    MAX_STEPS,
    SINGULAR_ABORT,
    SingularStartError,
    functional_independence_rank,
    integrate,
    monitor_drift,
    write_trajectory_csv,
)


def test_free_particle_is_exact(fp):
    traj = integrate(fp.system, (0.0, [1.0], [0.5]), 1.0, dt=0.01)
    assert len(traj.t) == 101
    assert not traj.truncated
    assert np.allclose(traj.q[:, 0], 1.0 + 0.5 * traj.t)
    assert np.allclose(traj.qdot[:, 0], 0.5)
    rep = monitor_drift(fp.system, traj, fp.integrals["momentum"], "momentum")
    assert rep.max_abs_drift < 1e-14


def test_monitor_drift_takes_the_name_of_a_first_integral(fp):
    traj = integrate(fp.system, (0.0, [1.0], [0.5]), 0.1, dt=0.01)
    N = check_conserved(fp.system, fp.integrals["momentum"], name="momentum")
    assert monitor_drift(fp.system, traj, N).name == "momentum"
    assert monitor_drift(fp.system, traj, N, "p").name == "p"


def test_integrate_argument_validation(fp):
    with pytest.raises(ValueError):
        integrate(fp.system, (0.0, [1.0], [0.5]), 1.0, dt=-0.1)
    with pytest.raises(ValueError):
        integrate(fp.system, (0.0, [1.0, 2.0], [0.5]), 1.0)
    with pytest.raises(ValueError, match="before"):
        integrate(fp.system, (0.0, [1.0], [0.5]), -1.0)


def test_harmonic_coordinate_of_linear_G(iso):
    # G(x) = x decouples the first coordinate into xddot = -x
    traj = integrate(iso.system, (0.0, [1.0, 0.3], [0.0, 0.0]), 2 * np.pi, dt=1e-3)
    assert np.max(np.abs(traj.q[:, 0] - np.cos(traj.t))) < 1e-6


def test_kepler_circular_orbit(kepler):
    traj = integrate(kepler.system, (0.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
                     2 * np.pi, dt=1e-3)
    radius = np.sqrt((traj.q**2).sum(axis=1))
    assert np.max(np.abs(radius - 1.0)) < 1e-6
    for name in ("energy", "lrl_u"):
        rep = monitor_drift(kepler.system, traj, kepler.integrals[name], name)
        assert rep.max_rel_drift < 1e-6


def test_radial_plunge_truncates(kepler):
    traj = integrate(kepler.system, (0.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                     3.0, dt=1e-3)
    assert traj.truncated
    assert traj.t[-1] < 3.0
    rep = monitor_drift(kepler.system, traj, kepler.integrals["energy"], "energy")
    assert rep.truncated


@pytest.mark.parametrize("name, start", [
    ("fp", (0.0, [np.nan], [0.0])),
    ("fp", (np.nan, [0.0], [0.0])),
    ("fp", (0.0, [1.0], [np.inf])),
    ("kepler", (0.0, [np.nan, 0.0, 0.0], [0.0, 1.0, 0.0])),
    ("kepler", (-np.inf, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])),
])
def test_integrate_refuses_a_start_that_is_not_finite(name, start, request, monkeypatch):
    # refused before Lam or an exclusion is evaluated, on every system
    sysdef = request.getfixturevalue(name).system
    monkeypatch.setattr(dynamics, "_rk4_loop", None)
    with pytest.raises(ValueError, match=r"^initial state must be finite, got t0 = "):
        integrate(sysdef, start, 1.0, dt=0.1)


def test_integrate_rejects_singular_start(kepler):
    with pytest.raises(ValueError):
        integrate(kepler.system, (0.0, [0.1, 0.0, 0.0], [0.0, 1.0, 0.0]), 1.0)


def _blow_up_system():
    ab = Alphabet(coords=("q",))
    (q,), (qd,) = ab.coord_symbols, ab.velocity_symbols
    return build_system(qd**2 / 2 + q**4 / 4, ab, name="blow")


def _pole_system():
    ab = Alphabet(coords=("q",))
    (q,), (qd,) = ab.coord_symbols, ab.velocity_symbols
    return build_system(qd**2 / 2 + q / ab.t, ab, name="pole")


def _system_of(L):
    """A one-coordinate system with L given as a function of (t, q, qdot)."""
    ab = Alphabet(coords=("q",))
    (q,), (qd,) = ab.coord_symbols, ab.velocity_symbols
    return build_system(L(ab.t, q, qd), ab)


def test_blow_up_truncates_at_the_last_finite_state():
    # qddot = q^3 from q = 10 leaves the floats long before t = 1
    traj = integrate(_blow_up_system(), (0.0, [10.0], [0.0]), 1.0, dt=1e-3)
    assert traj.truncated
    assert 1 < len(traj.t) < 1001
    assert np.isfinite(traj.q).all() and np.isfinite(traj.qdot).all()


def test_an_overflowing_sum_of_finite_terms_takes_the_exact_guard(fp):
    # the loop accepts a node on one finite sum of its values; here the sum
    # 1.7e308 + 2e307 overflows, and the guard of each term accepts the node
    traj = integrate(fp.system, (0.0, [1.7e308], [2e307]), 5e-3, dt=1e-3)
    assert not traj.truncated and len(traj.t) == 6
    assert np.isfinite(traj.q).all()
    # a finite sum still refuses the node whose exclusion value is too small
    traj = integrate(_walled_system(), (0.0, [2.0], [-1.0]), 2.0, dt=1e-3)
    assert traj.truncated and len(traj.t) == 1500
    assert traj.q[-1, 0] > 0.5005


@pytest.mark.parametrize("name", ["kepler", "fp", "iso", "window"])
def test_rk4_loop_multiplies_squares_and_checks_one_sum_first(name, request):
    sysdef = (_overflow_window_system() if name == "window"
              else request.getfixturevalue(name).system)
    exprs = [*sysdef.lam, *(ex.expr for ex in sysdef.exclusions)]
    run, _ = dynamics._rk4_loop(tuple(exprs), sysdef.alphabet)
    tree = ast.parse(inspect.getsource(run))
    squares = [node for node in ast.walk(tree)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
               and isinstance(node.left, ast.Name) and isinstance(node.right, ast.Constant)
               and node.right.value == 2]
    assert squares == []

    def names(node):
        return {a.id for a in ast.walk(node) if isinstance(a, ast.Name)}

    # a pass takes two steps, (y·, a·) to (w·, b·) and back, each in its own try
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For))
    copies = [node for node in loop.body if isinstance(node, ast.Try)]
    assert len(copies) == 2
    for copy, state in zip(copies, ("w·", "y·")):
        compares = [node for node in ast.walk(copy) if isinstance(node, ast.Compare)]
        on_sum = [node for node in compares if "s·" in names(node)]
        on_state = [node for node in compares
                    if names(node) & {f"{state}{i}" for i in range(2 * sysdef.n)}]
        assert len(on_sum) == 1 and len(on_state) == 2 * sysdef.n
        assert on_sum[0].lineno < min(node.lineno for node in on_state)
        # the check on the sum calls nothing
        fast, = [node.test for node in ast.walk(copy) if isinstance(node, ast.If)
                 and isinstance(node.test, ast.UnaryOp) and "s·" in names(node.test)]
        assert not [node for node in ast.walk(fast) if isinstance(node, ast.Call)]
    # the steps negate no parameter
    assert not [node for node in ast.walk(loop) if isinstance(node, ast.UnaryOp)
                and isinstance(node.operand, ast.Name) and node.operand.id.startswith("p·")]
    # no node local is handed to another
    node_locals = {"t·", "t1·", *(f"{v}{i}" for v in ("y·", "w·", "a·", "b·")
                                  for i in range(2 * sysdef.n))}
    handoffs = [node for node in ast.walk(loop) if isinstance(node, ast.Assign)
                and names(node.value) & node_locals
                and all(isinstance(v, ast.Name) for v in ast.walk(node.value)
                        if not isinstance(v, (ast.Tuple, ast.Load)))]
    assert handoffs == []
    # the nodes are packed into the trajectory's array, never added to a list:
    # both states at the end of a pass, one where the odd last step or the
    # second step leaves
    moves = [node for node in ast.walk(tree) if isinstance(node, ast.AugAssign)]
    assert moves and all(names(node.target) == {"o·"} and isinstance(node.value, ast.Constant)
                         for node in moves)
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "out·"]
    stores = [node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)
              and node.args and names(node.args[0]) == {"out·"}]
    assert len(uses) == len(stores) and sorted(stores) == ["pk1·"] * 3 + ["pk2·"]
    # the clock runs only for a Lam that reads t
    assert names(loop) & {"th·", "t1·"} == ({"th·", "t1·"} if name == "window" else set())
    # the oracle's code for the same expressions prints as before
    assert inspect.getsource(compile_fn(exprs, sysdef.alphabet)) == COMPILED[name]


COMPILED = {
    "kepler": "def _compiled(t, r1, r2, r3, r1dot, r2dot, r3dot, mu, u1, u2, u3):\n"
              "    cse·0 = r1*r1 + r2*r2 + r3*r3\n"
              "    cse·1 = cse·0**(-3/2)\n"
              "    return [-mu*r1*cse·1, -mu*r2*cse·1, -mu*r3*cse·1, cse·0]\n",
    "fp": "def _compiled(t, q, qdot):\n    return [0]\n",
    "iso": "def _compiled(t, x, y, xdot, ydot, c):\n    return [-x, -y]\n",
    "window": "def _compiled(t, q, qdot):\n"
              "    return [-q/(1 + (-50 + 100*t)**(-400.0))]\n",
}


def test_the_imaginary_unit_is_refused():
    ab = Alphabet(coords=("x",))
    (x,), (xd,) = ab.coord_symbols, ab.velocity_symbols
    for L in [xd**2 / 2 + sp.I * x, xd**2 / 2 - (1 + sp.I) * (1 - sp.I) * x**2 / 4]:
        with pytest.raises(UndeclaredSymbolError, match="imaginary unit"):
            integrate(build_system(L, ab), (0.0, [1.0], [0.0]), 1.0, dt=0.01)


def test_stages_the_loop_cannot_run_are_refused():
    ab = Alphabet(coords=("x",))
    (x,), (xd,) = ab.coord_symbols, ab.velocity_symbols
    sysdef = build_system(xd**2 / 2 - x**2 / 2, ab)
    # Lam = (-1)^(1/3)*x is complex-typed on float64 at every state
    complex_lam = dataclasses.replace(sysdef, lam=((-1) ** sp.Rational(1, 3) * x,))
    with pytest.raises(ValueError, match="not real at the start"):
        integrate(complex_lam, (0.0, [1.0], [0.0]), 1.0, dt=0.01)
    # the loop's stages run on real floats, a total derivative needs a complex step
    node = build_system(xd**2 / 2 - x**2 / 2, ab,
                        exclusions=(Exclusion(total_dt(x**2 + 3, ab, (-x,))),))
    with pytest.raises(ValueError, match="total derivative"):
        integrate(node, (0.0, [1.0], [1.0]), 0.5, dt=0.01)


def test_step_count_is_bounded(fp):
    start = (0.0, [1.0], [0.5])
    with pytest.raises(ValueError, match="limit"):
        integrate(fp.system, start, 1.0, dt=1e-300)
    with pytest.raises(ValueError, match="limit"):
        integrate(fp.system, start, 1.0, dt=1e-320)  # step count overflows to inf
    with pytest.raises(ValueError, match="limit"):
        integrate(fp.system, start, (MAX_STEPS + 1) * 1e-3, dt=1e-3)


def test_rk4_loop_is_printed_once_per_system(monkeypatch):
    # dt comes in as an argument, so another step size reuses the loop;
    # Lam = -6q/7 is compiled by no other test
    sysdef = _system_of(lambda t, q, qd: qd**2 / 2 - 3 * q**2 / 7)
    printed = []
    real = dynamics._print_code
    monkeypatch.setattr(dynamics, "_print_code", lambda *a: printed.append(1) or real(*a))
    first = integrate(sysdef, (0.0, [1.0], [0.0]), 0.1, dt=1e-2)
    assert len(printed) == 1  # one print, at the new node
    again = integrate(sysdef, (0.0, [1.0], [0.0]), 0.1, dt=1e-3)
    assert len(printed) == 1
    assert len(first.t) == 11 and len(again.t) == 101


def test_rank_of_duplicated_integral(iso):
    N1 = iso.integrals["N1"]
    rank, per_point = functional_independence_rank(iso.system, [N1, N1])
    assert rank == 1
    assert all(r == 1 for r in per_point)


def test_kepler_seven_integral_rank(kepler):
    names = ["energy", "angmom1", "angmom2", "angmom3", "lrl1", "lrl2", "lrl3"]
    rank, per_point = functional_independence_rank(
        kepler.system, [kepler.integrals[n] for n in names]
    )
    assert rank == 5  # 7 quantities, 2 relations
    assert per_point.count(5) >= 9


def _reference_csv(traj, coords) -> bytes:
    """The trajectory file as a ``csv.writer`` writes it: one row per node,
    .17g cells and CRLF line endings."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["t", *coords, *(c + "dot" for c in coords)])
    for t, q, qdot in zip(traj.t, traj.q, traj.qdot):
        writer.writerow([f"{v:.17g}" for v in (t, *q, *qdot)])
    return fh.getvalue().encode()


@pytest.mark.parametrize("name, start, t1, dt, header", [
    ("fp", (0.0, [0.0], [1.0]), 0.1, 0.05, "t,q,qdot"),
    ("kepler", (0.3, [1.0, 0.0, 0.2], [0.0, 1.0, -0.1]), 0.4, 0.01,
     "t,r1,r2,r3,r1dot,r2dot,r3dot"),
], ids=["fp", "kepler"])
def test_write_trajectory_csv(name, start, t1, dt, header, tmp_path, request):
    sysdef = request.getfixturevalue(name).system
    traj = integrate(sysdef, start, t1, dt=dt)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, sysdef.alphabet)
    assert path.read_bytes() == _reference_csv(traj, sysdef.alphabet.coords)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == header
    assert len(lines) == len(traj.t) + 1
    # every column, t included, reads back to the stored float
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(rows, np.column_stack([traj.t, traj.q, traj.qdot]))


def _overflow_window_system():
    """Lam = -q/(1 + (100*t - 50)^-400): the power overflows on Python floats
    within 0.0017 of t = 1/2, where float64 reads inf and Lam = 0, so a run
    through t = 1/2 takes float64 steps mid-run and Python-float steps after
    them."""
    return _system_of(lambda t, q, qd: qd**2 / 2 - q**2 / 2 / (1 + (100 * t - 50)**-400))


def _param_system(L, k):
    """A one-coordinate system with one parameter k at the given value, L a
    function of (q, qdot, k)."""
    ab = Alphabet(coords=("q",), params=("k",))
    (q,), (qd,), (ks,) = ab.coord_symbols, ab.velocity_symbols, ab.param_symbols
    return build_system(L(q, qd, ks), ab, param_values={"k": k})


def _walled_system():
    """The free particle with the exclusion |q| >= 0.5005."""
    ab = Alphabet(coords=("q",))
    (q,), (qd,) = ab.coord_symbols, ab.velocity_symbols
    return build_system(qd**2 / 2, ab, exclusions=(Exclusion(q, 0.5005),))


def _exp_cbrt_wall_system():
    """Lam = -1 with the exclusion exp(q^(1/3))."""
    ab = Alphabet(coords=("q",))
    (q,), (qd,) = ab.coord_symbols, ab.velocity_symbols
    return build_system(qd**2 / 2 - q, ab, exclusions=(Exclusion(sp.exp(q**sp.Rational(1, 3))),))


# whether each case's first rerun or refusal falls on the first step of a pass
ON_FIRST_STEP = {"wall_first": True, "wall_second": False, "smooth_pole": True,
                 "smooth_pole_second": False, "fractional_power": True,
                 "fractional_power_second": False}


def _reference_integrate(sysdef, initial, t1, dt):
    """RK4 as written before its stages were fused: a numpy state, one
    dict-point call of the compiled Lam per stage, and a separate call of the
    compiled exclusions to guard each node."""
    n = sysdef.n
    names = [s.name for s in sysdef.alphabet.variables()]
    params = {k: np.float64(v) for k, v in sysdef.param_values.items()}

    def state_fn(exprs):
        fn = compile_fn(exprs, sysdef.alphabet)

        def at(t, y):
            point = dict(zip(names, [np.float64(t), *y]), **params)
            with np.errstate(all="ignore"):
                values = fn(*(point[name] for name in fn.arg_names))
            return np.atleast_1d(np.asarray(values, dtype=float))

        return at

    accel = state_fn(list(sysdef.lam))
    excluded = state_fn([ex.expr for ex in sysdef.exclusions])
    thresholds = np.array([max(ex.threshold, SINGULAR_ABORT) for ex in sysdef.exclusions])

    def near_singular(t, y):
        if not sysdef.exclusions:
            return False
        vals = excluded(t, y)
        return bool(np.any(~np.isfinite(vals)) or np.any(np.abs(vals) < thresholds))

    def rhs(t, y):
        return np.concatenate([y[n:], accel(t, y)])

    t0, q0, qd0 = initial
    y = np.concatenate([np.asarray(q0, dtype=float), np.asarray(qd0, dtype=float)])
    if near_singular(t0, y):
        raise SingularStartError("initial state is inside the singular exclusion zone")
    t, ts, ys, truncated = t0, [t0], [y], False
    for _ in range(int(round((t1 - t0) / dt))):
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + dt / 2 * k1)
        k3 = rhs(t + dt / 2, y + dt / 2 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + dt
        if not np.all(np.isfinite(y)) or near_singular(t, y):
            truncated = True
            break
        ts.append(t)
        ys.append(y)
    states = np.array(ys)
    return np.asarray(ts), states[:, :n], states[:, n:], truncated


@pytest.mark.parametrize("case", [
    "kepler_orbit", "radial_plunge", "plunge_to_zone", "iso_steep_fall", "blow_up",
    "pole", "iso_opaque_fall", "fractional_power", "abs_sign", "smooth_pole",
    "overflow_window", "kepler_second_mu", "param_subtree", "param_square_divides",
    "param_quotient_pole", "param_exp_pole", "wall_first", "wall_second",
    "smooth_pole_second", "fractional_power_second", "complex_function",
])
def test_integrate_matches_reference_loop(case, kepler, iso_steep, iso_opaque, monkeypatch):
    plunge = (kepler.system, (0.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), 3.0)
    fall = ((0.0, [1.0, 1.0], [0.3, 0.0]), 2.0)
    fractional = _system_of(lambda t, q, qd: qd**2 / 2 - sp.Rational(3, 4) * q**sp.Rational(4, 3))
    smooth = _system_of(lambda t, q, qd: qd**2 / 2 + q * sp.exp(-1 / t**2))
    sysdef, initial, t1 = {
        "kepler_orbit": (kepler.system, (0.0, [1.2, 0.1, -0.3], [0.1, 0.8, 0.2]), 2.0),
        "radial_plunge": plunge,
        "plunge_to_zone": plunge,
        "iso_steep_fall": (iso_steep.system, *fall),
        "blow_up": (_blow_up_system(), (0.0, [10.0], [0.0]), 1.0),
        "pole": (_pole_system(), (0.0, [1.0], [0.0]), 1.0),
        "iso_opaque_fall": (iso_opaque[0], *fall),
        # Lam = -q^(1/3): complex on Python floats once q < 0, NaN on float64
        "fractional_power": (fractional, (0.0, [1.0], [-3.0]), 1.0),
        # Lam = -q*sign(q) - |q|, whose functions return numpy floats
        "abs_sign": (_system_of(lambda t, q, qd: qd**2 / 2 - sp.sqrt(q**2) * q),
                     (0.0, [1.0], [-3.0]), 1.0),
        # Lam = exp(-1/t^2): 1/t^2 raises on Python floats at the midpoint
        # stages of the first step, where float64 reads exp(-inf) = 0
        "smooth_pole": (smooth, (-5e-4, [1.0], [0.0]), 1.0),
        "overflow_window": (_overflow_window_system(), (0.0, [1.0], [0.0]), 1.0),
        # the loop is kepler3d's, which reads mu from its arguments
        "kepler_second_mu": (corpus.load("kepler3d", param_values={"mu": 2.0}).system,
                             (0.0, [1.2, 0.1, -0.3], [0.1, 1.2, 0.2]), 2.0),
        # Lam = -2*sqrt(k)*q - k - 1: a compound subtree of k, and -k in a sum
        "param_subtree": (_param_system(lambda q, qd, k: qd**2 / 2 - sp.sqrt(k) * q**2
                                        - (k + 1) * q, 2.0), (0.0, [1.0], [0.5]), 1.0),
        # Lam = -q/(1 + k)^2: the square of a sum of k divides
        "param_square_divides": (_param_system(lambda q, qd, k: qd**2 / 2
                                               - q**2 / (2 * (1 + k)**2), 0.3),
                                 (0.0, [1.0], [0.5]), 1.0),
        # Lam = -q/k at k = 0: the quotient raises inside the step
        "param_quotient_pole": (_param_system(lambda q, qd, k: qd**2 / 2 - q**2 / (2 * k), 0.0),
                                (0.0, [1.0], [0.0]), 1.0),
        # Lam = -q*exp(-1/k^2) at k = 0: 1/k^2 raises on Python floats, and
        # float64 reads exp(-inf) = 0 there
        "param_exp_pole": (_param_system(lambda q, qd, k: qd**2 / 2
                                         - q**2 / 2 * sp.exp(-1 / k**2), 0.0),
                           (0.0, [1.0], [0.5]), 1.0),
        # a pass takes two steps; these put the guard's refusal, a rerun after
        # a raise and a rerun after a complex value on its first step and on
        # its second (ON_FIRST_STEP)
        "wall_first": (_walled_system(), (0.0, [2.001], [-1.0]), 2.0),
        "wall_second": (_walled_system(), (0.0, [2.0], [-1.0]), 2.0),
        # the midpoint stages of the second step read t = 0
        "smooth_pole_second": (smooth, (-1.5e-3, [1.0], [0.0]), 1.0),
        "fractional_power_second": (fractional, (0.0, [1.0], [-3.01]), 1.0),
        # a fall through q = 0 with the exclusion exp(q^(1/3)), a numpy
        # complex once q < 0, which compares without raising
        "complex_function": (_exp_cbrt_wall_system(), (0.0, [1.0], [0.0]), 2.0),
    }[case]
    dt = 1e-3
    if case == "plunge_to_zone":
        # end on the step whose new node lies in the exclusion zone, so the
        # guard must run at the last node too
        nodes = len(_reference_integrate(sysdef, initial, t1, dt)[0])
        t1 = nodes * dt
    if case == "kepler_second_mu":
        integrate(kepler.system, initial, 0.01, dt=dt)
    # the node count at each float64 rerun
    reruns = []
    real = dynamics._rk4_loop

    def recording_loop(*args):
        run, at = real(*args)

        def call(*node):
            if type(node[0]) is np.float64:
                reruns.append(node[-1] // (8 * 2 * sysdef.n))
            return run(*node)

        return call, at

    monkeypatch.setattr(dynamics, "_rk4_loop", recording_loop)
    # -q/0 reads inf - inf within a step
    quiet = case == "param_quotient_pole"
    with np.errstate(invalid="ignore") if quiet else contextlib.nullcontext():
        t, q, qdot, truncated = _reference_integrate(sysdef, initial, t1, dt)
    traj = integrate(sysdef, initial, t1, dt=dt)
    if case == "kepler_second_mu":
        # mu = 2 gets the pair that the mu = 1 run above put in the memo
        exprs = (*sysdef.lam, *(ex.expr for ex in sysdef.exclusions))
        assert real(exprs, sysdef.alphabet) is real(
            (*kepler.system.lam, *(ex.expr for ex in kepler.system.exclusions)),
            kepler.system.alphabet)
    assert truncated == (case not in ("kepler_orbit", "abs_sign", "smooth_pole",
                                      "overflow_window", "kepler_second_mu", "param_subtree",
                                      "param_square_divides", "param_exp_pole",
                                      "smooth_pole_second"))
    assert (len(t) == 1) == (case in ("pole", "param_quotient_pole"))
    if case == "fractional_power":
        assert len(t) == 319
    if case in ON_FIRST_STEP:
        # the step of the first rerun or refusal follows an odd number of
        # nodes where it is the first of its pass
        nodes = reruns[0] if reruns else len(t)
        assert nodes % 2 == ON_FIRST_STEP[case]
    if case == "complex_function":
        assert reruns == [len(t)]
    assert traj.truncated == truncated
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.q, q)
    assert np.array_equal(traj.qdot, qdot)


def _fractional_power_system():
    """Lam = -q^(1/3): complex on Python floats once q < 0, NaN on float64."""
    return _system_of(lambda t, q, qd: qd**2 / 2 - sp.Rational(3, 4) * q**sp.Rational(4, 3))


def _smooth_pole_system():
    """Lam = exp(-1/t^2): 1/t^2 raises on Python floats at t = 0, where
    float64 reads exp(-inf) = 0."""
    return _system_of(lambda t, q, qd: qd**2 / 2 + q * sp.exp(-1 / t**2))


# The integrate parity set: for each guard path of the RK4 loop, a system, a
# start (t0, q0, qdot0), a step dt and an even step count, each run for that
# count and one more.  "first" and "second" name the step of a pass on which
# the guard refuses a node, or on which a step raises or goes complex and
# runs again on float64 scalars (the same starts as ON_FIRST_STEP's cases).
PARITY_SET = {
    "kepler_orbit": ("kepler", (0.0, [1.2, 0.1, -0.3], [0.1, 0.8, 0.2]), 1e-3, 2000),
    "radial_plunge": ("kepler", (0.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), 1e-3, 3000),
    "singular_start": ("kepler", (0.0, [0.1, 0.0, 0.0], [0.0, 1.0, 0.0]), 1e-3, 1000),
    "refusal_first": ("walled", (0.0, [2.001], [-1.0]), 1e-3, 2000),
    "refusal_second": ("walled", (0.0, [2.0], [-1.0]), 1e-3, 2000),
    "raise_first": ("smooth_pole", (-5e-4, [1.0], [0.0]), 1e-3, 1000),
    "raise_second": ("smooth_pole", (-1.5e-3, [1.0], [0.0]), 1e-3, 1000),
    "complex_first": ("fractional_power", (0.0, [1.0], [-3.0]), 1e-3, 1000),
    "complex_second": ("fractional_power", (0.0, [1.0], [-3.01]), 1e-3, 1000),
    "complex_function": ("exp_cbrt_wall", (0.0, [1.0], [0.0]), 1e-3, 2000),
    "overflow_window": ("overflow_window", (0.0, [1.0], [0.0]), 1e-3, 1000),
    "blow_up": ("blow_up", (0.0, [10.0], [0.0]), 1e-3, 1000),
    "param_zero_quotient": ("param_quotient_pole", (0.0, [1.0], [0.0]), 1e-3, 1000),
    "param_zero_exp": ("param_exp_pole", (0.0, [1.0], [0.5]), 1e-3, 1000),
}
PARITY_SYSTEMS = {
    "walled": _walled_system,
    "smooth_pole": _smooth_pole_system,
    "fractional_power": _fractional_power_system,
    "exp_cbrt_wall": _exp_cbrt_wall_system,
    "overflow_window": _overflow_window_system,
    "blow_up": _blow_up_system,
    # a parameter at 0: Lam = -q/k raises inside the step, and
    # Lam = -q*exp(-1/k^2) reads exp(-inf) = 0 on float64
    "param_quotient_pole": lambda: _param_system(lambda q, qd, k: qd**2 / 2
                                                 - q**2 / (2 * k), 0.0),
    "param_exp_pole": lambda: _param_system(lambda q, qd, k: qd**2 / 2
                                            - q**2 / 2 * sp.exp(-1 / k**2), 0.0),
}
# the sha256 of each run's bytes (_parity_digest), pinned from the code as it
# stood before the set was committed
PINNED_RUNS = {
    "kepler_orbit": ["ab27ad5308b67991a352ff0d0b9c0cba6ba6c9047ce5a44e845a8b18bd941aa2",
                    "13510fc5f0518640c2f2fe5e4cbb72aee05b2e007aab67367eba26c9c09e2869"],
    "radial_plunge": ["75875f0876b208107f83cc379a9c822330ee4591d6be437183871589c08e9cd1",
                     "75875f0876b208107f83cc379a9c822330ee4591d6be437183871589c08e9cd1"],
    "singular_start": ["7ef6c675f5702bfc072bff563ec3bd1ead0307861c1c0f5ba232330a2950a54f",
                      "7ef6c675f5702bfc072bff563ec3bd1ead0307861c1c0f5ba232330a2950a54f"],
    "refusal_first": ["f311bcdc46636f033bdd7e6a86cd5b68f24cf1f0bab97288373aefe402ad81d2",
                     "f311bcdc46636f033bdd7e6a86cd5b68f24cf1f0bab97288373aefe402ad81d2"],
    "refusal_second": ["d97656dc61642c7176d3c8e61f66a5e74bb4859a4e99d5dfb42b20ee1f669e04",
                      "d97656dc61642c7176d3c8e61f66a5e74bb4859a4e99d5dfb42b20ee1f669e04"],
    "raise_first": ["b9b296da331d38653cba18c076ee26247e0952dbfb8af9044860c876bf927ce1",
                   "3cb39bf6742ce915538cea5040b43c103804c8d664afa7ea67dc13209fdeb34c"],
    "raise_second": ["831c04b6c75bd74f338d463aac9e5e5bbec8982b905c95e82ac149adfa98da0c",
                    "d0aad578f113585f9534c7ad0a38c6b48a300105b43a98e5edcb3a071dad806a"],
    "complex_first": ["5bf222761374fb6dc8e1e148d1c2af8546873a37f1b62d25a18bc6187721d761",
                     "5bf222761374fb6dc8e1e148d1c2af8546873a37f1b62d25a18bc6187721d761"],
    "complex_second": ["825e5b1461a27bbb96510f90f0244d32f0d0159fab1773d45f1dd7d4846e3565",
                      "825e5b1461a27bbb96510f90f0244d32f0d0159fab1773d45f1dd7d4846e3565"],
    "complex_function": ["b73d87fd45fb132842b225f88e830648fd487e8156bda2a0b17024a2fcc35505",
                        "b73d87fd45fb132842b225f88e830648fd487e8156bda2a0b17024a2fcc35505"],
    "overflow_window": ["e5351db7e4dd1772a096ae281b4c593b435d4f1f6bc7410a7e3ed2581469fcbb",
                       "09672f49d93b3fe0db7114e7dfb8441fb7fb79733bc21b58bb5b81dfa802feef"],
    "blow_up": ["b026f6bc810522ed9b82040b0fa7f904d7411ac1b271f595fd82e29929cdb522",
               "b026f6bc810522ed9b82040b0fa7f904d7411ac1b271f595fd82e29929cdb522"],
    "param_zero_quotient": ["9e9b140c91e7dfad645bc90dfc6c98548321d7a23baf77e76ec00cda06fa27d6",
                           "9e9b140c91e7dfad645bc90dfc6c98548321d7a23baf77e76ec00cda06fa27d6"],
    "param_zero_exp": ["74dcce084d8051969e6dd3fb554d4ab1d56c2383ab5a28145a258e5a795674a3",
                      "e460bc5ee82f708fee9426d9ac9a9a93df4b64538aeb3371da20d74080b4e450"],
}


def _parity_digest(sysdef, start, dt, steps):
    """The sha256 of the t, q and qdot bytes, the node count and the
    truncated flag of ``steps`` steps from ``start``, or of the name of the
    error the run raises."""
    try:
        traj = integrate(sysdef, start, start[0] + steps * dt, dt=dt)
    except ValueError as err:
        return hashlib.sha256(type(err).__name__.encode()).hexdigest()
    h = hashlib.sha256()
    for array in (traj.t, traj.q, traj.qdot):
        h.update(array.tobytes())
    h.update(f"{len(traj.t)} {traj.truncated}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", PARITY_SET)
def test_integrate_parity_set_is_pinned(case, kepler):
    name, start, dt, steps = PARITY_SET[case]
    sysdef = kepler.system if name == "kepler" else PARITY_SYSTEMS[name]()
    digests = [_parity_digest(sysdef, start, dt, n) for n in (steps, steps + 1)]
    assert digests == PINNED_RUNS[case]


@given(n=st.integers(0, 7), name=st.sampled_from(["kepler", "window"]),
       shift=st.integers(0, 7))
def test_a_run_is_a_prefix_of_the_run_one_step_longer(n, name, shift, kepler):
    # a pass of the loop takes two steps, and an odd last step leaves after
    # the first; the overflow window's Lam reads t, and from these starts its
    # float64 steps fall on either step of a pass
    sysdef, q0, qd0 = {"kepler": (kepler.system, [1.2, 0.1, -0.3], [0.1, 0.8, 0.2]),
                       "window": (_overflow_window_system(), [1.0], [0.0])}[name]
    t0, dt = 0.494 + shift * 5e-4, 1e-3
    short, longer = (integrate(sysdef, (t0, q0, qd0), t0 + k * dt, dt=dt) for k in (n, n + 1))
    assert len(short.t) == n + 1 and len(longer.t) == n + 2
    for a, b in [(short.t, longer.t), (short.q, longer.q), (short.qdot, longer.qdot)]:
        assert np.array_equal(a, b[:n + 1])


def test_a_run_holds_little_more_than_the_trajectory_it_returns(kepler):
    # the loop packs each node into the float64 array the trajectory is cut
    # from, so a call holds that array and the t, q and qdot copies, and no
    # Python float for each value
    start = (0.0, [1.0, 0.0, 0.0], [0.0, 1.1, 0.2])
    integrate(kepler.system, start, 0.01)  # the loop is printed outside the trace
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        traj = integrate(kepler.system, start, 10.0, dt=1e-3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert not traj.truncated and len(traj.t) == 10_001
    assert peak <= 2.5 * (traj.t.nbytes + traj.q.nbytes + traj.qdot.nbytes)


def test_a_rerun_that_packs_no_node_raises(fp, monkeypatch):
    # a run whose odd-step exit packs nothing returns its node with the
    # offset unmoved, and so does the float64 rerun of that step: an
    # internal error, where the loop would otherwise repeat it without end
    real = dynamics._rk4_loop

    def mutant(*args):
        run, at = real(*args)
        head, odd = inspect.getsource(run).split("# an odd last step\n")
        exit_lines = odd.splitlines(True)
        assert exit_lines[0].lstrip().startswith("pk1·(") and "o· +=" in exit_lines[1]
        namespace = dict(run.__globals__)
        exec(head + "# an odd last step\n" + "".join(exit_lines[2:]), namespace)
        return namespace["run·"], at

    monkeypatch.setattr(dynamics, "_rk4_loop", mutant)
    with pytest.raises(RuntimeError, match="packed no node"):
        integrate(fp.system, (0.0, [0.0], [1.0]), 0.5, dt=0.1)


def test_steps_run_on_python_floats(kepler, monkeypatch):
    # numpy scalars cost several times as much per operation; a step runs
    # on them only where Python floats raise or go complex
    calls = []
    real = dynamics._rk4_loop

    def recording_loop(*args):
        run, at = real(*args)
        return (lambda *node: calls.append(type(node[0])) or run(*node)), at

    monkeypatch.setattr(dynamics, "_rk4_loop", recording_loop)
    traj = integrate(kepler.system, (0.0, [1.0, 0.0, 0.0], [0.0, 1.1, 0.2]), 1.0, dt=1e-2)
    assert not traj.truncated and len(traj.t) == 101
    assert calls == [float]
    for sysdef, start in [
        (_system_of(lambda t, q, qd: qd**2 / 2 + q * sp.exp(-1 / t**2)), (-5e-4, [1.0], [0.0])),
        (_system_of(lambda t, q, qd: qd**2 / 2 - sp.Rational(3, 4) * q**sp.Rational(4, 3)),
         (0.0, [1.0], [-3.0])),
    ]:
        calls.clear()
        integrate(sysdef, start, 1.0, dt=1e-3)
        assert np.float64 in calls
    # mid-run float64 steps hand back to Python floats
    calls.clear()
    traj = integrate(_overflow_window_system(), (0.0, [1.0], [0.0]), 1.0, dt=1e-3)
    assert not traj.truncated and len(traj.t) == 1001
    assert calls[0] is float and calls[-1] is float and np.float64 in calls
