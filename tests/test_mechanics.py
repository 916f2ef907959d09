import dataclasses

import numpy as np
import pytest
import sympy as sp

from noetherkit.dynamics import integrate, monitor_drift
from noetherkit.expressions import (
    Alphabet,
    UndeclaredSymbolError,
    _eval_rows,
    compile_fn,
    evaluate,
)
from noetherkit.mechanics import (
    RegularityError,
    _matvec,
    _solve_linear,
    build_system,
    invert_g_apply,
)


@pytest.fixture(scope="module")
def skew():
    """Two coordinates whose Hessian g depends on the position and is not
    diagonal; det g = 2 + 2x^2 + y^2."""
    ab = Alphabet(coords=("x", "y"), params=("m",))
    (x, y), (xd, yd), (m,) = ab.coord_symbols, ab.velocity_symbols, ab.param_symbols
    L = (1 + x**2) * xd**2 / 2 + x * y * xd * yd + (2 + y**2) * yd**2 / 2 - m * x * y
    return build_system(L, ab, name="skew", param_values={"m": 1.0})


@pytest.fixture(scope="module")
def dense4():
    """Four coordinates with the dense, position-dependent Hessian
    g = diag(1 + q_i^2) + q q^T, whose determinant is at least 1."""
    ab = Alphabet(coords=("w", "x", "y", "z"))
    qs, vs = ab.coord_symbols, ab.velocity_symbols
    L = (sum((1 + q**2) * v**2 for q, v in zip(qs, vs)) / 2
         + sum(q * v for q, v in zip(qs, vs))**2 / 2 - sum(q**2 for q in qs) / 2)
    return build_system(L, ab, name="dense4")


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
    with pytest.raises(RegularityError) as err:
        build_system(ab.velocity_symbols[0], ab)  # g vanishes identically
    # refused by the sampled check, at a real point
    assert set(err.value.point) == {"t", "q", "qdot"}
    assert err.value.det == 0


def test_build_system_rejects_a_det_that_fails_at_a_sampled_point():
    # det g = sqrt(q) is NaN wherever a sample has q < 0
    ab = Alphabet(coords=("q",))
    (q,), (qd,) = ab.coord_symbols, ab.velocity_symbols
    with pytest.raises(RegularityError) as err:
        build_system(sp.sqrt(q) * qd**2 / 2, ab)
    assert err.value.point["q"] < 0 and np.isnan(err.value.det)


def test_invert_g_apply_error_carries_det_g_at_its_witness(kepler):
    # a stored det g twice the true one makes g*v - w fail the spot check
    bad = dataclasses.replace(kepler.system, det_g=2 * kepler.system.det_g)
    with pytest.raises(RegularityError) as err:
        invert_g_apply(bad, [1, 0, 0])
    point = err.value.point
    assert set(point) >= {"r1", "r2", "r3", "mu"}
    assert err.value.det == evaluate(bad.det_g, point, bad.alphabet) == 2.0


def test_build_system_rejects_acceleration_terms():
    ab = Alphabet(coords=("q",))
    with pytest.raises(ValueError):
        build_system(ab.acceleration_symbols[0] ** 2, ab)


def test_build_system_rejects_foreign_symbols():
    ab = Alphabet(coords=("q",))
    from noetherkit.expressions import UndeclaredSymbolError

    with pytest.raises(UndeclaredSymbolError):
        build_system(sp.Symbol("z", real=True) ** 2, ab)


@pytest.mark.parametrize("values, names", [
    ({}, r"missing \['k'\], undeclared \[\]"),
    ({"k": 1.0, "z": 2.0}, r"missing \[\], undeclared \['z'\]"),
], ids=["missing", "undeclared"])
def test_build_system_takes_exactly_the_alphabets_parameters(values, names):
    # an extra value would be written to a system file and read back as a
    # parameter of another alphabet
    ab = Alphabet(coords=("q",), params=("k",))
    (q,), (qd,), (k,) = ab.coord_symbols, ab.velocity_symbols, ab.param_symbols
    with pytest.raises(ValueError, match=names):
        build_system(qd**2 / 2 - k * q**2 / 2, ab, param_values=values)


def _E_at(sysdef, point):
    """The stored E = g*qddot - rhs at a point that binds the accelerations;
    numpy floats make a pole read inf where Python floats raise."""
    fn = compile_fn(list(sysdef.E), sysdef.alphabet, include_acc=True)
    full = {name: np.float64(v) for name, v in {**sysdef.param_values, **point}.items()}
    return _eval_rows(fn, full, 1)[:, 0]


def test_el_residual_vanishes_on_the_flow(fp):
    sysdef = fp.system
    point = {"t": 0.4, "q": 1.1, "qdot": -0.7, "qddot": 0.0}
    assert np.allclose(_E_at(sysdef, point), 0.0)
    # shifting the acceleration off the flow gives g*(qddot - Lam)
    point["qddot"] = 2.5
    assert np.allclose(_E_at(sysdef, point), [2.5])


def test_el_residual_at_a_pole_is_not_finite():
    # Lam = 1/t
    ab = Alphabet(coords=("q",))
    (q,), (qd,) = ab.coord_symbols, ab.velocity_symbols
    sysdef = build_system(qd**2 / 2 + q / ab.t, ab, name="pole")
    res = _E_at(sysdef, {"t": 0.0, "q": 1.0, "qdot": 0.0, "qddot": 0.0})
    assert res.shape == (1,)
    assert not np.isfinite(res).any()


def test_el_residual_of_a_complex_lagrangian_is_refused():
    ab = Alphabet(coords=("x",))
    (x,), (xd,) = ab.coord_symbols, ab.velocity_symbols
    sysdef = build_system(xd**2 / 2 + sp.I * x, ab)
    with pytest.raises(UndeclaredSymbolError, match="imaginary unit"):
        _E_at(sysdef, {"t": 0.0, "x": 1.0, "xdot": 0.0, "xddot": 0.0})


def test_el_residual_matches_g_times_lam_minus_acc(kepler):
    sysdef = kepler.system
    point = {
        "t": 0.3, "r1": 1.0, "r2": 0.5, "r3": -0.4,
        "r1dot": 0.2, "r2dot": -0.1, "r3dot": 0.6,
        "r1ddot": 0.7, "r2ddot": -0.3, "r3ddot": 0.1,
    }
    lam_fn = compile_fn(list(sysdef.lam), sysdef.alphabet)
    full = dict(point)
    full.update(sysdef.param_values)
    with np.errstate(all="ignore"):
        lam = np.asarray(lam_fn(*(full[name] for name in lam_fn.arg_names)), dtype=float)
    acc = np.array([point["r1ddot"], point["r2ddot"], point["r3ddot"]])
    # g is the identity here, and E = g*qddot - rhs = -g*(Lam - qddot)
    assert np.allclose(_E_at(sysdef, point), -(lam - acc))


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


@pytest.mark.parametrize("name", ["fp", "iso", "kepler"])
def test_g_inverse_and_E_are_derived_once(name, request, monkeypatch):
    entry = request.getfixturevalue(name)
    sysdef = entry.system
    g = sysdef.g
    accs = sp.Matrix(sysdef.alphabet.acceleration_symbols)
    assert sysdef.E == tuple(g * accs - sp.Matrix(sysdef.rhs))
    vs = sysdef.alphabet.velocity_symbols
    ws = [list(vs)] + [[sp.diff(N, v) for v in vs] for N in entry.integrals.values()]
    expected = [tuple(g.adjugate() * sp.Matrix(w) / g.det()) for w in ws]
    calls = []

    def spy(method):
        real = getattr(type(g), method)

        def wrapper(self, *args, **kwargs):
            calls.append(method)
            return real(self, *args, **kwargs)
        return wrapper

    for method in ("adjugate", "det"):
        monkeypatch.setattr(type(g), method, spy(method))
    assert [invert_g_apply(sysdef, w) for w in ws] == expected
    assert calls == []


@pytest.mark.parametrize("name", ["fp", "iso", "kepler", "skew", "dense4"])
def test_g_products_equal_the_matrix_products(name, request):
    # the row sums over nonzero entries build the trees sympy's Matrix
    # products build, so every derived expression is unchanged
    sysdef = request.getfixturevalue(name)
    sysdef = getattr(sysdef, "system", sysdef)
    ab, g, det, adj = sysdef.alphabet, sysdef.g, sysdef.det_g, sysdef.adj_g
    qs, vs = ab.coord_symbols, ab.velocity_symbols
    rhs = sp.Matrix(sysdef.rhs)
    assert sysdef.E == tuple(g * sp.Matrix(ab.acceleration_symbols) - rhs)
    assert sysdef.lam == _solve_linear(det, adj, sysdef.rhs) == tuple(adj * rhs / det)
    assert sysdef.check(list(sysdef.lam), list(g.LUsolve(rhs)), k=20).passed
    ws = [vs, sysdef.p, (0,) * (sysdef.n - 1) + (qs[0],),
          [q * v + sp.sin(q) for q, v in zip(qs, reversed(vs))]]
    for w in ws:
        w = [sp.sympify(wi) for wi in w]
        sol = invert_g_apply(sysdef, w)
        assert sol == tuple(adj * sp.Matrix(w) / det)
        assert ([a - b for a, b in zip(_matvec(g, sol), w)]
                == list(g * sp.Matrix(sol) - sp.Matrix(w)))


def test_four_coordinates_integrate(dense4):
    traj = integrate(dense4, (0.0, [0.5, -0.3, 0.2, 0.1], [0.1, 0.2, -0.1, 0.3]), 0.5,
                     dt=0.01)
    assert not traj.truncated and len(traj.t) == 51
    energy = sum(p * v for p, v in zip(dense4.p, dense4.alphabet.velocity_symbols)) - dense4.L
    assert monitor_drift(dense4, traj, energy, "energy").max_rel_drift < 1e-6


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
