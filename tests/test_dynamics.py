import numpy as np
import pytest

from noetherkit.expressions import Alphabet
from noetherkit.mechanics import build_system
from noetherkit.dynamics import (
    MAX_STEPS,
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


def test_blow_up_truncates_at_the_last_finite_state():
    # qddot = q^3 from q = 10 leaves the floats long before t = 1
    ab = Alphabet(coords=("q",))
    (q,), (qd,) = ab.coord_symbols, ab.velocity_symbols
    sysdef = build_system(qd**2 / 2 + q**4 / 4, ab, name="blow")
    traj = integrate(sysdef, (0.0, [10.0], [0.0]), 1.0, dt=1e-3)
    assert traj.truncated
    assert 1 < len(traj.t) < 1001
    assert np.isfinite(traj.q).all() and np.isfinite(traj.qdot).all()


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
