
import ast
import dataclasses
import inspect

import numpy as np
import pytest
import sympy as sp

from noetherkit.expressions import (
    Alphabet,
    Exclusion,
    UndeclaredSymbolError,
    compile_fn,
    total_dt,
)
from noetherkit import dynamics
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
    ab = Alphabet(coords=("q",))
    (q,), (qd,) = ab.coord_symbols, ab.velocity_symbols
    walled = build_system(qd**2 / 2, ab, exclusions=(Exclusion(q, 0.5005),))
    traj = integrate(walled, (0.0, [2.0], [-1.0]), 2.0, dt=1e-3)
    assert traj.truncated and len(traj.t) == 1500
    assert traj.q[-1, 0] > 0.5005


@pytest.mark.parametrize("name", ["kepler", "fp", "iso"])
def test_rk4_loop_multiplies_squares_and_checks_one_sum_first(name, request):
    sysdef = request.getfixturevalue(name).system
    exprs = [*sysdef.lam, *(ex.expr for ex in sysdef.exclusions)]
    run = dynamics._rk4_loop(compile_fn(exprs, sysdef.alphabet), exprs, sysdef.alphabet)
    tree = ast.parse(inspect.getsource(run))
    squares = [node for node in ast.walk(tree)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
               and isinstance(node.left, ast.Name) and isinstance(node.right, ast.Constant)
               and node.right.value == 2]
    assert squares == []
    compares = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)]

    def names(node):
        return {a.id for a in ast.walk(node) if isinstance(a, ast.Name)}

    on_sum = [node for node in compares if "s·" in names(node)]
    on_state = [node for node in compares if names(node) & {f"w·{i}" for i in range(2 * sysdef.n)}]
    assert len(on_sum) == 1 and len(on_state) == 2 * sysdef.n
    assert on_sum[0].lineno < min(node.lineno for node in on_state)


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
    assert len(printed) == 4  # one print per stage
    again = integrate(sysdef, (0.0, [1.0], [0.0]), 0.1, dt=1e-3)
    assert len(printed) == 4
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


def test_write_trajectory_csv(fp, tmp_path):
    traj = integrate(fp.system, (0.0, [0.0], [1.0]), 0.1, dt=0.05)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, fp.system.alphabet.coords)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,q,qdot"
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
            return np.atleast_1d(np.asarray(fn(point), dtype=float))

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
    "overflow_window",
])
def test_integrate_matches_reference_loop(case, kepler, iso_steep, iso_opaque):
    plunge = (kepler.system, (0.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), 3.0)
    fall = ((0.0, [1.0, 1.0], [0.3, 0.0]), 2.0)
    sysdef, initial, t1 = {
        "kepler_orbit": (kepler.system, (0.0, [1.2, 0.1, -0.3], [0.1, 0.8, 0.2]), 2.0),
        "radial_plunge": plunge,
        "plunge_to_zone": plunge,
        "iso_steep_fall": (iso_steep.system, *fall),
        "blow_up": (_blow_up_system(), (0.0, [10.0], [0.0]), 1.0),
        "pole": (_pole_system(), (0.0, [1.0], [0.0]), 1.0),
        "iso_opaque_fall": (iso_opaque[0], *fall),
        # Lam = -q^(1/3): complex on Python floats once q < 0, NaN on float64
        "fractional_power": (_system_of(lambda t, q, qd: qd**2 / 2
                                        - sp.Rational(3, 4) * q**sp.Rational(4, 3)),
                             (0.0, [1.0], [-3.0]), 1.0),
        # Lam = -q*sign(q) - |q|, whose functions return numpy floats
        "abs_sign": (_system_of(lambda t, q, qd: qd**2 / 2 - sp.sqrt(q**2) * q),
                     (0.0, [1.0], [-3.0]), 1.0),
        # Lam = exp(-1/t^2): 1/t^2 raises on Python floats at the midpoint
        # stages of the first step, where float64 reads exp(-inf) = 0
        "smooth_pole": (_system_of(lambda t, q, qd: qd**2 / 2 + q * sp.exp(-1 / t**2)),
                        (-5e-4, [1.0], [0.0]), 1.0),
        "overflow_window": (_overflow_window_system(), (0.0, [1.0], [0.0]), 1.0),
    }[case]
    dt = 1e-3
    if case == "plunge_to_zone":
        # end on the step whose new node lies in the exclusion zone, so the
        # guard must run at the last node too
        nodes = len(_reference_integrate(sysdef, initial, t1, dt)[0])
        t1 = nodes * dt
    t, q, qdot, truncated = _reference_integrate(sysdef, initial, t1, dt)
    traj = integrate(sysdef, initial, t1, dt=dt)
    assert truncated == (case not in ("kepler_orbit", "abs_sign", "smooth_pole",
                                      "overflow_window"))
    assert (len(t) == 1) == (case == "pole")
    if case == "fractional_power":
        assert len(t) == 319
    assert traj.truncated == truncated
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.q, q)
    assert np.array_equal(traj.qdot, qdot)


def test_steps_run_on_python_floats(kepler, monkeypatch):
    # numpy scalars cost several times as much per operation; a step runs
    # on them only where Python floats raise or go complex
    calls = []
    real = dynamics._rk4_loop

    def recording_loop(*args):
        run = real(*args)
        return lambda *node: calls.append(type(node[0])) or run(*node)

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
