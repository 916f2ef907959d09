import numpy as np
import pytest
import sympy as sp

from noetherkit.expressions import Alphabet
from noetherkit.mechanics import (
    RegularityError,
    build_system,
    el_residual,
    invert_g_apply,
)


def test_free_particle_structure(fp):
    sysdef = fp.system
    qd = sysdef.alphabet.velocity_symbols[0]
    assert sysdef.p == (qd,)
    assert sysdef.g == sp.Matrix([[1]])
    assert sysdef.lam == (0,)


def test_kepler_normal_form_is_inverse_square(kepler):
    sysdef = kepler.system
    ab = sysdef.alphabet
    r = ab.coord_symbols
    mu = ab.param_symbols[0]
    rnorm = sp.sqrt(sum(ri**2 for ri in r))
    for i in range(3):
        rep = sysdef.check(sysdef.lam[i], -mu * r[i] / rnorm**3, k=30)
        assert rep.passed


def test_isochrony_offdiagonal_hessian(iso):
    sysdef = iso.system
    assert sysdef.g == sp.Matrix([[0, 1], [1, 0]])
    x = sysdef.alphabet.coord_symbols[0]
    # L = xdot*ydot - G(x)*y decouples: xddot = -G, yddot = -G'(x)*y
    assert sp.simplify(sysdef.lam[0] + x) == 0


def test_build_system_rejects_degenerate_lagrangian():
    ab = Alphabet(coords=("q",))
    with pytest.raises(RegularityError):
        build_system(ab.velocity_symbols[0], ab)  # g vanishes identically


def test_build_system_rejects_acceleration_terms():
    ab = Alphabet(coords=("q",))
    with pytest.raises(ValueError):
        build_system(ab.acceleration_symbols[0] ** 2, ab)


def test_build_system_rejects_foreign_symbols():
    ab = Alphabet(coords=("q",))
    from noetherkit.expressions import UndeclaredSymbolError

    with pytest.raises(UndeclaredSymbolError):
        build_system(sp.Symbol("z", real=True) ** 2, ab)


def test_el_residual_vanishes_on_the_flow(fp):
    sysdef = fp.system
    point = {"t": 0.4, "q": 1.1, "qdot": -0.7, "qddot": 0.0}
    assert np.allclose(el_residual(sysdef, point), 0.0)
    # shifting the acceleration off the flow gives g*(Lam - qddot)
    point["qddot"] = 2.5
    assert np.allclose(el_residual(sysdef, point), [-2.5])


def test_el_residual_at_a_pole_is_not_finite():
    # Lam = 1/t: numpy floats give inf at t = 0 where Python floats raise
    ab = Alphabet(coords=("q",))
    (q,), (qd,) = ab.coord_symbols, ab.velocity_symbols
    sysdef = build_system(qd**2 / 2 + q / ab.t, ab, name="pole")
    res = el_residual(sysdef, {"t": 0.0, "q": 1.0, "qdot": 0.0, "qddot": 0.0})
    assert res.shape == (1,)
    assert not np.isfinite(res).any()


def test_el_residual_of_a_complex_lagrangian_is_not_finite():
    # Lam = I: the imaginary part reads NaN, never cast away
    ab = Alphabet(coords=("x",))
    (x,), (xd,) = ab.coord_symbols, ab.velocity_symbols
    sysdef = build_system(xd**2 / 2 + sp.I * x, ab)
    res = el_residual(sysdef, {"t": 0.0, "x": 1.0, "xdot": 0.0, "xddot": 0.0})
    assert res.shape == (1,)
    assert not np.isfinite(res).any()


def test_el_residual_matches_g_times_lam_minus_acc(kepler):
    sysdef = kepler.system
    point = {
        "t": 0.3, "r1": 1.0, "r2": 0.5, "r3": -0.4,
        "r1dot": 0.2, "r2dot": -0.1, "r3dot": 0.6,
        "r1ddot": 0.7, "r2ddot": -0.3, "r3ddot": 0.1,
    }
    res = el_residual(sysdef, point)
    from noetherkit.expressions import compile_fn

    lam_fn = compile_fn(list(sysdef.lam), sysdef.alphabet)
    full = dict(point)
    full.update(sysdef.param_values)
    lam = np.asarray(lam_fn(full), dtype=float)
    acc = np.array([point["r1ddot"], point["r2ddot"], point["r3ddot"]])
    # g is the identity here
    assert np.allclose(res, lam - acc)


@pytest.mark.parametrize("name", ["fp", "iso", "iso_steep", "iso_opaque", "kepler"])
def test_normal_form_solves_g_lam_equals_rhs(name, request):
    # the integrator evaluates the compiled Lam directly; this is the check
    # that it solves the Euler-Lagrange equations g * Lam = rhs
    entry = request.getfixturevalue(name)
    sysdef = entry[0] if name == "iso_opaque" else entry.system
    n = sysdef.n
    for i in range(n):
        g_lam = sum(sysdef.g[i, j] * sysdef.lam[j] for j in range(n))
        rep = sysdef.check(g_lam, sysdef.rhs[i], k=100, seed=3, label=f"g*Lam={i}")
        assert rep.passed, rep.to_dict()


def test_invert_g_apply_swaps_for_offdiagonal_hessian(iso):
    sysdef = iso.system
    xd, yd = sysdef.alphabet.velocity_symbols
    sol = invert_g_apply(sysdef, (xd, yd))
    assert sp.simplify(sol[0] - yd) == 0
    assert sp.simplify(sol[1] - xd) == 0


def test_invert_g_apply_shape_check(fp):
    with pytest.raises(ValueError):
        invert_g_apply(fp.system, (1, 2))


def test_system_check_uses_params_and_exclusions(kepler):
    sysdef = kepler.system
    ab = sysdef.alphabet
    mu = ab.param_symbols[0]
    rep = sysdef.check(mu, 1.0, k=5)
    assert rep.passed
    # sampling avoids the declared singular set around the origin
    rr = sum(ri**2 for ri in ab.coord_symbols)
    pts_ok = sysdef.check(1 / rr, 1 / rr, k=50)
    assert pts_ok.passed
