import numpy as np
import pytest
import sympy as sp

from noetherkit.expressions import Alphabet, compile_fn
from noetherkit.mechanics import build_system
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


def test_blow_up_truncates_at_the_last_finite_state():
    # qddot = q^3 from q = 10 leaves the floats long before t = 1
    traj = integrate(_blow_up_system(), (0.0, [10.0], [0.0]), 1.0, dt=1e-3)
    assert traj.truncated
    assert 1 < len(traj.t) < 1001
    assert np.isfinite(traj.q).all() and np.isfinite(traj.qdot).all()


def test_complex_normal_form_truncates():
    # Lam = I: the first step's state is not finite, so the run stops at the start
    ab = Alphabet(coords=("x",))
    (x,), (xd,) = ab.coord_symbols, ab.velocity_symbols
    traj = integrate(build_system(xd**2 / 2 + sp.I * x, ab), (0.0, [1.0], [0.0]), 1.0, dt=0.01)
    assert traj.truncated
    assert len(traj.t) == 1
    # complex arithmetic with a real result stays legal: Lam = -(1+I)*(1-I)*x/2 = -x
    L = xd**2 / 2 - (1 + sp.I) * (1 - sp.I) * x**2 / 4
    traj = integrate(build_system(L, ab), (0.0, [1.0], [0.0]), 1.0, dt=0.01)
    assert not traj.truncated
    assert np.allclose(traj.q[:, 0], np.cos(traj.t), atol=1e-9)


def test_step_count_is_bounded(fp):
    start = (0.0, [1.0], [0.5])
    with pytest.raises(ValueError, match="limit"):
        integrate(fp.system, start, 1.0, dt=1e-300)
    with pytest.raises(ValueError, match="limit"):
        integrate(fp.system, start, 1.0, dt=1e-320)  # step count overflows to inf
    with pytest.raises(ValueError, match="limit"):
        integrate(fp.system, start, (MAX_STEPS + 1) * 1e-3, dt=1e-3)


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
    "pole", "iso_opaque_fall",
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
    }[case]
    dt = 1e-3
    if case == "plunge_to_zone":
        # end on the step whose new node lies in the exclusion zone, so the
        # guard must run at the last node too
        nodes = len(_reference_integrate(sysdef, initial, t1, dt)[0])
        t1 = nodes * dt
    t, q, qdot, truncated = _reference_integrate(sysdef, initial, t1, dt)
    traj = integrate(sysdef, initial, t1, dt=dt)
    assert truncated == (case != "kepler_orbit")
    assert (len(t) == 1) == (case == "pole")
    assert traj.truncated == truncated
    assert np.array_equal(traj.t, t)
    assert np.array_equal(traj.q, q)
    assert np.array_equal(traj.qdot, qdot)
