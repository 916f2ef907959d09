import ast
import copy
import hashlib
import inspect
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, strategies as st
from sympy.printing.str import StrPrinter

from noetherkit.expressions import (
    Alphabet,
    DomainViolation,
    Exclusion,
    TotalDerivative,
    _eval_rows,
    compile_fn,
    diff,
    draw_points,
    total_dt,
)
from noetherkit import expressions, noether
from noetherkit.mechanics import LagrangianSystem, build_system
from noetherkit.noether import (
    DENOM_MARGIN,
    FORMS,
    FirstIntegral,
    NotConservedError,
    Triple,
    check_conserved,
    convert_standard_alternative,
    killing_lhs,
    multiplicity_transform,
    noether_integral,
    solve_alt_strong_trivial_gauge,
    solve_onflow,
    solve_onflow_simplest,
    solve_onflow_with_R,
    solve_strong,
    trivialize,
    velocity_independence_check,
    verify_triple,
    _characteristic,
    _eta,
    _g_inv_grad,
    _killing_terms,
    _L_times,
    _noether_sum,
    _require_conserved,
)


def test_triple_validation(fp):
    with pytest.raises(ValueError):
        Triple(0, (1,), 0, "sideways")
    qdd = fp.system.alphabet.acceleration_symbols[0]
    bad = Triple(0, (qdd,), 0, "strong")
    # eta is refused before N = f - L*tau - p . eta is formed
    with pytest.raises(ValueError, match="eta\\[0\\] holds the acceleration qddot"):
        killing_lhs(fp.system, bad, "strong")
    with pytest.raises(ValueError):
        killing_lhs(fp.system, Triple(0, (1, 1), 0, "strong"), "strong")


@pytest.mark.parametrize("component", ["tau", "xi", "f"])
def test_a_triple_holding_an_acceleration_is_refused(fp, component):
    # the library's guard for sympy input: tau and eta are walked before N
    # is formed, and N = f - L*tau - p . eta carries f's acceleration into
    # total_dt's refusal
    qdd = fp.system.alphabet.acceleration_symbols[0]
    parts = {"tau": 0, "xi": (1,), "f": 0}
    parts[component] = (qdd,) if component == "xi" else qdd
    message = {"tau": "tau holds the acceleration qddot",
               "xi": "eta\\[0\\] holds the acceleration qddot",
               "f": "total_dt input must be free of qddot"}[component]
    for form in FORMS:
        bad = Triple(parts["tau"], parts["xi"], parts["f"], form)
        with pytest.raises(ValueError, match=message):
            verify_triple(fp.system, bad)
        with pytest.raises(ValueError, match=message):
            noether_integral(fp.system, bad)


@pytest.mark.parametrize("form", FORMS)
def test_accelerations_that_cancel_in_the_integral_are_refused(fp, form):
    # L*tau and p . eta cancel here, so N = 0 holds no acceleration and
    # total_dt cannot see one: tau is refused before N is formed
    qd, qdd = fp.system.alphabet.velocity_symbols[0], fp.system.alphabet.acceleration_symbols[0]
    bad = Triple(qdd, (qd * qdd / 2,), 0, form)
    for call in (lambda: killing_lhs(fp.system, bad, form),
                 lambda: verify_triple(fp.system, bad),
                 lambda: noether_integral(fp.system, bad)):
        with pytest.raises(ValueError, match="tau holds the acceleration qddot"):
            call()


def test_a_solver_refuses_an_acceleration_in_its_inputs(fp):
    qd, qdd = fp.system.alphabet.velocity_symbols[0], fp.system.alphabet.acceleration_symbols[0]
    with pytest.raises(ValueError, match="tau holds the acceleration qddot"):
        solve_strong(fp.system, qd, tau=qdd)
    with pytest.raises(ValueError, match="eta\\[0\\] holds the acceleration qddot"):
        solve_onflow(fp.system, qd, 0, (qdd,))


def test_killing_lhs_translation_symmetry(fp):
    # spatial translation of the free particle: lhs vanishes identically
    tr = fp.triples["gamma1"]
    assert sp.simplify(killing_lhs(fp.system, tr, "strong")) == 0


def test_killing_lhs_strong_vs_onflow(fp):
    sysdef = fp.system
    qd = sysdef.alphabet.velocity_symbols[0]
    qdd = sysdef.alphabet.acceleration_symbols[0]
    tr = Triple(qd, (sp.Integer(0),), sp.Integer(0), "onflow")
    strong = killing_lhs(sysdef, tr, "strong")
    onflow = killing_lhs(sysdef, tr, "onflow")
    assert strong.has(qdd)
    assert not onflow.has(qdd)
    # the free flow has zero acceleration, so they agree after substitution
    assert sp.simplify(strong.subs(qdd, 0) - onflow) == 0


CORPUS_FIXTURES = ("fp", "iso", "iso_steep", "kepler")


def _expand(e):
    return e.xreplace({n: n.doit() for n in e.atoms(TotalDerivative)})


def _assert_nodes_match_expansion(sysdef, e, include_acc, exclusions=(), k=200):
    """Complex-step nodes agree with their symbolic expansion within 1e-12
    in the oracle's residual |a - b| / (1 + max(|a|, |b|)) at k points."""
    ab = sysdef.alphabet
    pts = draw_points(ab, sysdef.domain(exclusions), sysdef.param_values, k, 7, include_acc)
    a, b = (_eval_rows(compile_fn([x], ab, include_acc), pts, k)[0]
            for x in (e, _expand(e)))
    assert np.isfinite(a).all() and np.isfinite(b).all()
    resid = np.abs(a - b) / (1 + np.maximum(np.abs(a), np.abs(b)))
    assert resid.max() < 1e-12, f"{e}: {resid.max():.3e}"


@pytest.mark.parametrize("name", CORPUS_FIXTURES)
def test_onflow_integral_nodes_match_expansion(name, request):
    entry = request.getfixturevalue(name)
    sysdef = entry.system
    for N in entry.integrals.values():
        node = total_dt(N, sysdef.alphabet, sysdef.lam)
        assert isinstance(node, TotalDerivative)
        _assert_nodes_match_expansion(sysdef, node, include_acc=False)
        assert check_conserved(sysdef, N).verified


def test_opaque_onflow_integral_nodes_match_expansion(iso_opaque):
    sysdef, integrals = iso_opaque
    for N in integrals.values():
        node = total_dt(N, sysdef.alphabet, sysdef.lam)
        assert isinstance(node, TotalDerivative)
        _assert_nodes_match_expansion(sysdef, node, include_acc=False)
        assert check_conserved(sysdef, N).verified


@pytest.mark.parametrize("name", CORPUS_FIXTURES)
def test_killing_lhs_nodes_match_expansion(name, request):
    entry = request.getfixturevalue(name)
    sysdef = entry.system
    for tr in entry.triples.values():
        for form in FORMS:
            lhs = killing_lhs(sysdef, tr, form)
            _assert_nodes_match_expansion(sysdef, lhs, form.endswith("strong"),
                                          tr.exclusions)


def _reference_killing_lhs(sysdef, tr, form):
    """The Killing-type left-hand sides written out term by term, as the
    noether module docstring states them."""
    ab = sysdef.alphabet
    strong = form.endswith("strong")
    lam = None if strong else sysdef.lam
    tau_dot = total_dt(tr.tau, ab, lam)
    xi_dot = [total_dt(x, ab, lam) for x in tr.xi]
    L, t = sysdef.L, ab.t
    vs, qs = ab.velocity_symbols, ab.coord_symbols
    lhs = tr.tau * sp.diff(L, t) + L * tau_dot
    if not form.startswith("alt"):
        for i in range(sysdef.n):
            lhs += sp.diff(L, qs[i]) * tr.xi[i]
            lhs += sp.diff(L, vs[i]) * (xi_dot[i] - vs[i] * tau_dot)
        return lhs
    accs = ab.acceleration_symbols if strong else sysdef.lam
    for i in range(sysdef.n):
        lhs += sp.diff(L, qs[i]) * (tr.xi[i] + tr.tau * vs[i])
        lhs += sp.diff(L, vs[i]) * (xi_dot[i] + tr.tau * accs[i])
    return lhs


@pytest.mark.parametrize("name", CORPUS_FIXTURES)
def test_noether_identity_for_corpus_triples(name, request):
    # killing_lhs builds Dt(f) - Dt(N) - eta.E, with E = g.qddot - rhs the
    # Euler-Lagrange expression; it must equal the Killing sums term by term
    entry = request.getfixturevalue(name)
    sysdef = entry.system
    for tr in entry.triples.values():
        for form in FORMS:
            rep = sysdef.check(killing_lhs(sysdef, tr, form),
                               _reference_killing_lhs(sysdef, tr, form),
                               k=50, include_acc=form.endswith("strong"),
                               extra_exclusions=tr.exclusions)
            assert rep.passed, (form, tr, rep.max_residual)


def test_verify_triple_pass_and_fail(fp):
    rep = verify_triple(fp.system, fp.triples["gamma5"], fp.integrals["boost_squared"])
    assert rep.passed and rep.verdict == "PASS"
    assert rep.integral_check is not None and rep.integral_check.passed
    bad = Triple(sp.Integer(0), (fp.system.alphabet.coord_symbols[0],),
                 sp.Integer(0), "strong")
    rep = verify_triple(fp.system, bad)
    assert not rep.passed
    assert rep.max_residual > rep.tol


def test_verify_triple_report_round_trip(fp):
    rep = verify_triple(fp.system, fp.triples["gamma1"], seed=5)
    d = rep.to_dict()
    assert d["verdict"] == "PASS"
    assert d["seed"] == 5
    assert d["mode"] == "strong"
    assert set(d["worst_point"]) >= {"t", "q", "qdot", "qddot"}


def test_check_conserved(fp):
    sysdef = fp.system
    q = sysdef.alphabet.coord_symbols[0]
    fi = check_conserved(sysdef, fp.integrals["boost"], name="boost")
    assert fi.verified
    fi = check_conserved(sysdef, q)
    assert not fi.verified
    assert fi.conservation.max_residual > 1e-9


def test_conservation_labels_name_the_integral_without_printing_it(kepler, monkeypatch):
    sysdef = kepler.system
    N = kepler.integrals["lrl_u"] + sysdef.alphabet.coord_symbols[0]
    with pytest.raises(NotConservedError) as err:
        _require_conserved(sysdef, FirstIntegral(N, name="lrl_u + r1"), 0)
    assert err.value.report.label == "conserved:lrl_u + r1"
    printed = []
    real = StrPrinter.doprint
    monkeypatch.setattr(StrPrinter, "doprint", lambda self, e: printed.append(e) or real(self, e))
    with pytest.raises(NotConservedError) as err:
        _require_conserved(sysdef, N, 0)
    assert err.value.report.label == "conserved"
    assert check_conserved(sysdef, N).conservation.label == "conserved"
    assert printed == []


def test_noether_integral_matches_table(fp):
    for name in ("gamma1", "gamma2", "gamma3", "gamma4", "gamma5"):
        fi = noether_integral(fp.system, fp.triples[name])
        assert fi.verified
        assert fp.system.check(fi.expr, fp.triple_integrals[name], k=50).passed


@pytest.mark.parametrize("name, integral", [
    ("kepler", "energy"), ("kepler", "lrl_u"), ("fp", "gamma4"), ("fp", "gamma5"),
    ("fp", "gamma7"),
])
def test_noether_integral_of_an_alternative_triple_is_its_own(name, integral, request):
    # eta read in the standard convention gives these triples an integral
    # that is not conserved; the form names the alternative one
    entry = request.getfixturevalue(name)
    sysdef = entry.system
    if name == "kepler":
        N = entry.integrals[integral]
        alt = solve_alt_strong_trivial_gauge(sysdef, N)
    else:
        N = entry.triple_integrals[integral]
        alt = convert_standard_alternative(sysdef, entry.triples[integral])
    assert alt.form.startswith("alt_")
    fi = noether_integral(sysdef, alt)
    assert fi.verified and fi.name == "noether:alternative"
    assert sysdef.check(fi.expr, N, extra_exclusions=alt.exclusions).passed


def test_noether_integral_takes_no_convention():
    assert "convention" not in inspect.signature(noether_integral).parameters


def test_a_first_integral_is_checked_under_its_own_name(fp):
    N = FirstIntegral(fp.integrals["momentum"], name="x")
    fi = check_conserved(fp.system, N)
    assert (fi.conservation.label, fi.name) == ("conserved:x", "x")
    assert check_conserved(fp.system, N, name="y").conservation.label == "conserved:y"


def test_solve_onflow_general(fp):
    sysdef = fp.system
    t = sysdef.alphabet.t
    q = sysdef.alphabet.coord_symbols[0]
    tr = solve_onflow(sysdef, fp.integrals["energy"], tau=t, xi=(q,))
    assert tr.form == "onflow"
    rep = verify_triple(sysdef, tr, fp.integrals["energy"])
    assert rep.passed


def test_solve_onflow_simplest_shape(fp):
    sysdef = fp.system
    qd = sysdef.alphabet.velocity_symbols[0]
    tr = solve_onflow_simplest(sysdef, fp.integrals["energy"])
    # tau = -N/L = -1 here, xi = tau*qdot, f = 0
    assert sp.simplify(tr.tau + 1) == 0
    assert sp.simplify(tr.xi[0] + qd) == 0
    assert tr.f == 0
    assert verify_triple(sysdef, tr, fp.integrals["energy"]).passed


def test_solve_onflow_with_R(fp):
    sysdef = fp.system
    tr = solve_onflow_with_R(sysdef, fp.integrals["boost"], R=(1,))
    qd = sysdef.alphabet.velocity_symbols[0]
    # N + p*R = q - t*qdot + qdot over L = qdot^2/2
    assert verify_triple(sysdef, tr, fp.integrals["boost"]).passed
    assert tr.f == 0
    with pytest.raises(ValueError):
        solve_onflow_with_R(sysdef, fp.integrals["boost"], R=(1, 2))


@pytest.mark.parametrize("xi", [(1, 2), ()])
def test_solve_onflow_checks_xi_length(fp, xi):
    with pytest.raises(ValueError, match="xi has length"):
        solve_onflow(fp.system, fp.integrals["energy"], 0, xi)


def test_solve_strong_round_trip(kepler):
    sysdef = kepler.system
    tr = solve_strong(sysdef, kepler.integrals["angmom3"])
    rep = verify_triple(sysdef, tr, kepler.integrals["angmom3"])
    assert rep.passed and rep.mode == "strong"


def test_solvers_reject_non_integrals(fp):
    q = fp.system.alphabet.coord_symbols[0]
    with pytest.raises(NotConservedError) as err:
        solve_strong(fp.system, q)
    assert err.value.report.max_residual > 1e-9
    # the message carries the witness as a Python literal
    msg = str(err.value)
    witness = ast.literal_eval(msg[msg.index("{"):msg.rindex("}") + 1])
    assert witness == err.value.report.worst_point
    assert all(type(v) is float for v in witness.values())
    with pytest.raises(NotConservedError):
        solve_onflow_simplest(fp.system, q)


@pytest.mark.parametrize("solver", [
    solve_onflow_simplest,
    lambda sysdef, N: solve_onflow_with_R(sysdef, N, [0]),
    solve_alt_strong_trivial_gauge,
], ids=["simplest", "with_R", "alt_strong"])
def test_zero_gauge_solvers_check_conservation_off_their_denominator(fp, solver):
    # d/dt (q/qdot^3) peaks where qdot, and so L, is near 0; these solvers
    # divide by L + c, so their witness must keep |L + c| >= DENOM_MARGIN
    q, qd = fp.system.alphabet.coord_symbols[0], fp.system.alphabet.velocity_symbols[0]
    with pytest.raises(NotConservedError) as err:
        solver(fp.system, q / qd**3)
    assert err.value.report.worst_point["qdot"] ** 2 / 2 >= DENOM_MARGIN


@pytest.mark.parametrize("solver", [
    solve_onflow_simplest,
    lambda sysdef, N, c: solve_onflow_with_R(sysdef, N, [1, 0, 0], c=c),
    solve_alt_strong_trivial_gauge,
], ids=["simplest", "with_R", "alt_strong"])
def test_zero_gauge_solvers_keep_the_integral_at_a_shift(kepler, solver):
    # the shift c moves the denominator L + c; the boundary term then
    # completes the triple, so the Noether integral is still N
    energy = kepler.integrals["energy"]
    tr = solver(kepler.system, energy, c=1.0)
    assert tr.f != 0
    rep = verify_triple(kepler.system, tr, energy)
    assert rep.passed and rep.integral_check.passed, rep.to_dict()


def test_alt_strong_solver(kepler):
    sysdef = kepler.system
    tr = solve_alt_strong_trivial_gauge(sysdef, kepler.integrals["energy"])
    assert tr.form == "alt_strong" and tr.f == 0
    rep = verify_triple(sysdef, tr, kepler.integrals["energy"])
    assert rep.passed
    fi = noether_integral(sysdef, tr)
    assert sysdef.check(fi.expr, kepler.integrals["energy"], k=50,
                        extra_exclusions=tr.exclusions).passed


def test_multiplicity_transform_preserves_integral(fp):
    sysdef = fp.system
    t = sysdef.alphabet.t
    tr = fp.triples["gamma5"]
    tr2 = multiplicity_transform(sysdef, tr, sp.sin(t))
    assert tr2.f == sp.sin(t)
    assert tr2.form == tr.form
    assert verify_triple(sysdef, tr2, fp.triple_integrals["gamma5"]).passed


def test_a_triple_gauged_twice_at_one_shift_keeps_a_checkable_integral(iso_steep):
    # twice at c = 3 the triple divides by (L+3)^2; at the first power's
    # margin, |L+3| >= 0.05, terms of 8e6 in N_dot cancel to 2.9e-9 > tol
    sysdef = iso_steep.system
    tr = solve_strong(sysdef, iso_steep.integrals["N3"])
    for _ in range(2):
        tr = trivialize(sysdef, tr, "gauge", c=3)
    assert [ex.threshold for ex in tr.exclusions] == [DENOM_MARGIN, DENOM_MARGIN ** (2 / 3)]
    fi = noether_integral(sysdef, tr)
    assert fi.verified, fi.conservation.to_dict()
    assert verify_triple(sysdef, tr, fi).passed


def test_trivialize_time_and_gauge(fp):
    sysdef = fp.system
    tr = fp.triples["gamma5"]
    N = fp.triple_integrals["gamma5"]
    t_triv = trivialize(sysdef, tr, "time")
    assert t_triv.tau == 0
    assert verify_triple(sysdef, t_triv, N).passed
    g_triv = trivialize(sysdef, tr, "gauge")
    assert g_triv.f == 0
    assert verify_triple(sysdef, g_triv, N).passed
    with pytest.raises(ValueError):
        trivialize(sysdef, tr, "both")


def test_transforms_of_alternative_triples_keep_the_integral(fp):
    # in the alternative convention eta is xi itself, so zeroing tau or
    # trading the boundary term leaves xi alone
    sysdef = fp.system
    t = sysdef.alphabet.t
    for name in ("gamma4", "gamma5", "gamma7"):
        alt = convert_standard_alternative(sysdef, fp.triples[name])
        timeless = trivialize(sysdef, alt, "time")
        assert timeless.xi == alt.xi and timeless.form == alt.form
        for tr in (timeless, multiplicity_transform(sysdef, alt, sp.sin(t))):
            assert verify_triple(sysdef, tr, fp.triple_integrals[name]).passed


def test_convert_standard_alternative_round_trip(fp):
    sysdef = fp.system
    for name in ("gamma4", "gamma7"):
        tr = fp.triples[name]
        alt = convert_standard_alternative(sysdef, tr)
        assert alt.form.startswith("alt_")
        back = convert_standard_alternative(sysdef, alt)
        assert back.form == tr.form
        assert sp.simplify(back.tau - tr.tau) == 0
        assert all(sp.simplify(a - b) == 0 for a, b in zip(back.xi, tr.xi))
        assert sp.simplify(back.f - tr.f) == 0
        # the two conventions assign the same first integral
        fi_std = noether_integral(sysdef, tr)
        fi_alt = noether_integral(sysdef, alt)
        assert sysdef.check(fi_std.expr, fi_alt.expr, k=30).passed


def test_velocity_independence_boost(fp):
    sysdef = fp.system
    verdict = velocity_independence_check(sysdef, fp.integrals["boost"])
    assert verdict.admissible
    t = sysdef.alphabet.t
    assert sp.simplify(verdict.a[0] + t) == 0
    assert sp.simplify(verdict.b) == 0


def test_velocity_independence_cubic_fails(fp):
    sysdef = fp.system
    q = sysdef.alphabet.coord_symbols[0]
    qd = sysdef.alphabet.velocity_symbols[0]
    t = sysdef.alphabet.t
    verdict = velocity_independence_check(sysdef, (q - t * qd) ** 3)
    assert not verdict.admissible
    assert verdict.witness is not None
    assert "second velocity derivative" in verdict.reason


@pytest.mark.parametrize("name", CORPUS_FIXTURES)
def test_velocity_independence_builds_the_second_derivatives_sympy_builds(
        name, request, monkeypatch):
    # each second velocity derivative is the _diff of a Jacobian entry, and
    # so the tree that sympy.diff builds from w in one call
    entry = request.getfixturevalue(name)
    sysdef = entry.system
    vs, n = sysdef.alphabet.velocity_symbols, sysdef.n
    checked = []
    real = LagrangianSystem.check
    monkeypatch.setattr(LagrangianSystem, "check",
                        lambda self, a, b, **kw: checked.append((kw["label"], a))
                        or real(self, a, b, **kw))
    for N in entry.integrals.values():
        checked.clear()
        velocity_independence_check(sysdef, N)
        w = _g_inv_grad(sysdef, sp.sympify(N), 0)
        want = [sp.diff(wi, vs[j], vs[l]) for wi in w for j in range(n) for l in range(j, n)]
        second = dict(checked)["affine-in-velocity"]
        assert list(map(sp.srepr, second)) == list(map(sp.srepr, want))


def test_forms_constant():
    assert FORMS == ("onflow", "strong", "alt_onflow", "alt_strong")


# Properties of the solution sets: the paper describes every on-flow and
# strong solution through its first integral N.  The draws are small
# polynomials in t, the first and last coordinate and velocity.

def _monomials(ab):
    qs, vs = ab.coord_symbols, ab.velocity_symbols
    return (sp.Integer(1), ab.t, qs[0], qs[-1], vs[0], vs[-1], qs[0] * vs[-1])


@st.composite
def _polys(draw, ab, size=2):
    terms = draw(st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(_monomials(ab))),
                          max_size=size))
    return sum((c * m for c, m in terms), sp.Integer(0))


_shifts = st.sampled_from((0.0, 1.0, 3.0))


@st.composite
def _solved_chain(draw, systems):
    """A system with one of its integrals N, drawn from the corpus (the
    isochrony family G = x at a drawn parameter c), and a chain of triples
    for N: solve_onflow or solve_strong at a drawn tau (and R), followed by
    drawn multiplicity transforms to a boundary term h, trivializations, and
    a conversion to the alternative convention.  The transforms that divide
    by L + c draw that shift c too (0, 1 or 3), apart from the family's c.

    Each triple comes with the xi that building it at once gives, from the
    eta of the step before (eta + qdot*tau in the standard convention), as
    the reference for the xi its first read builds."""
    name = draw(st.sampled_from(sorted(systems)))
    sysdef, integrals = systems[name]
    if name == "iso":  # G = x solves the family's ODE for every c
        sysdef = replace(sysdef, param_values={"c": draw(st.floats(-2, 2))})
    ab = sysdef.alphabet
    vs = ab.velocity_symbols

    def alt(tr):
        return tr.form.startswith("alt")

    N = integrals[draw(st.sampled_from(sorted(integrals)))]
    tau = draw(_polys(ab))
    if draw(st.booleans()):
        tr = solve_strong(sysdef, N, tau)
        xi = tuple(e + v * tau for e, v in zip(tr.eta, vs))
    else:
        xi = tuple(draw(_polys(ab)) for _ in range(sysdef.n))
        tr = solve_onflow(sysdef, N, tau, xi)
    chain = [(tr, xi)]
    for step in draw(st.lists(st.sampled_from(("h", "time", "gauge")), max_size=2)):
        if step == "h":
            new = multiplicity_transform(sysdef, tr, draw(_polys(ab)), c=draw(_shifts))
        elif step == "gauge":
            new = trivialize(sysdef, tr, step, c=draw(_shifts))
        else:
            new = trivialize(sysdef, tr, step)
        if not alt(tr):
            eta = tuple(x - v * tr.tau for x, v in zip(xi, vs))
            xi = tuple(e + v * new.tau for e, v in zip(eta, vs))
        tr = new
        chain.append((tr, xi))
    if draw(st.booleans()):
        eta = xi if alt(tr) else tuple(x - v * tr.tau for x, v in zip(xi, vs))
        xi = tuple(e + v * tr.tau for e, v in zip(eta, vs)) if alt(tr) else eta
        tr = convert_standard_alternative(sysdef, tr)
        chain.append((tr, xi))
    return sysdef, N, chain


def _solved(systems):
    """A system, an integral N and the last triple of a chain for N."""
    return _solved_chain(systems).map(lambda drawn: (drawn[0], drawn[1], drawn[2][-1][0]))


@pytest.fixture(scope="module")
def systems(fp, iso, iso_steep, kepler):
    entries = {"fp": fp, "iso": iso, "iso_steep": iso_steep, "kepler": kepler}
    return {name: (e.system, e.integrals) for name, e in entries.items()}


@given(data=st.data())
def test_composed_solutions_verify_with_their_integral(systems, data):
    sysdef, N, tr = data.draw(_solved(systems))
    rep = verify_triple(sysdef, tr, N)
    assert rep.passed, (tr, rep.to_dict())
    assert rep.integral_check.passed


@given(data=st.data())
def test_strong_solutions_are_determined_by_their_integral(systems, data):
    sysdef, N, tr = data.draw(_solved(systems))
    if not tr.form.endswith("strong"):
        tr = replace(solve_strong(sysdef, N, tr.tau), exclusions=tr.exclusions)
    def check(a, b):
        return sysdef.check(a, b, k=50, extra_exclusions=tr.exclusions)

    ab = sysdef.alphabet
    # eta = -g^{-1} d_qdot N: g.eta + d_qdot N = 0 componentwise
    eta = [x - v * tr.tau if tr.form == "strong" else x
           for x, v in zip(tr.xi, ab.velocity_symbols)]
    g_eta = sysdef.g * sp.Matrix(eta)
    assert check([g_eta[i] + diff(N, v, ab) for i, v in enumerate(ab.velocity_symbols)],
                 [0] * sysdef.n).passed
    # solve_strong recovers the triple from its integral and tau
    convention = "alternative" if tr.form.startswith("alt") else "standard"
    again = solve_strong(sysdef, noether_integral(sysdef, tr), tr.tau)
    if convention == "alternative":
        again = convert_standard_alternative(sysdef, again)
    assert check([*again.xi, again.f], [*tr.xi, tr.f]).passed


def _chained_complete(sysdef, N, tau, eta):
    """f = N + L*tau + p . eta as a chain of binary sums: the tree that
    _noether_sum builds in one sum."""
    return N + _L_times(sysdef, tau) + sum(pi * e for pi, e in zip(sysdef.p, eta))


def _chained_integral(sysdef, tr, convention):
    """N = f - L*tau - p . eta as a chain of binary differences."""
    eta = _eta(sysdef, tr.tau, tr.xi, convention)
    return tr.f - _L_times(sysdef, tr.tau) - sum(pi * e for pi, e in zip(sysdef.p, eta))


@given(data=st.data())
def test_triple_sums_are_the_chained_sums(systems, data):
    sysdef, N, tr = data.draw(_solved(systems))
    ab = sysdef.alphabet
    tau = data.draw(_polys(ab))
    eta = _eta(sysdef, tau, [data.draw(_polys(ab)) for _ in range(sysdef.n)], "standard")
    assert sp.srepr(_noether_sum(sysdef, N, tau, eta, 1)) == sp.srepr(
        _chained_complete(sysdef, N, tau, eta))
    for convention in ("standard", "alternative"):
        eta = _characteristic(sysdef, tr, convention)
        assert sp.srepr(_noether_sum(sysdef, tr.f, tr.tau, eta, -1)) == sp.srepr(
            _chained_integral(sysdef, tr, convention))


@given(data=st.data())
def test_triples_keep_the_trees_of_their_xi(systems, data):
    # every solved or transformed triple stores an eta, the tree that deriving
    # it from xi builds, and the xi that a first read builds is the tree that
    # building it at once gives
    sysdef, _, chain = data.draw(_solved_chain(systems))
    for tr, xi in chain:
        convention = "alternative" if tr.form.startswith("alt") else "standard"
        assert sp.srepr(tr.eta) == sp.srepr(_eta(sysdef, tr.tau, tr.xi, convention))
        assert sp.srepr(tr.xi) == sp.srepr(xi)


def test_replace_derives_eta_again(kepler):
    # a replaced component or form leaves the solver's eta behind, so the
    # verdict is that of the same components without a stored eta
    sysdef, ab = kepler.system, kepler.system.alphabet
    tr = solve_strong(sysdef, kepler.integrals["lrl_u"], ab.t)
    assert verify_triple(sysdef, tr).passed
    r1 = ab.coord_symbols[0]
    for changed in (replace(tr, tau=r1), replace(tr, xi=tuple(x + r1 for x in tr.xi)),
                    replace(tr, form="alt_strong")):
        assert changed.eta is None
        plain = Triple(changed.tau, changed.xi, changed.f, changed.form, changed.exclusions)
        rep = verify_triple(sysdef, changed)
        assert not rep.passed
        assert rep.to_dict() == verify_triple(sysdef, plain).to_dict()


@pytest.fixture(scope="module")
def free_particles():
    """The free particle in the coordinate q and in x, each with its
    kinetic energy as the integral."""
    out = {}
    for coord in ("q", "x"):
        ab = Alphabet(coords=(coord,))
        energy = ab.velocity_symbols[0] ** 2 / 2
        out[coord] = build_system(energy, ab, name=f"free particle in {coord}"), energy
    return out


def _outcome(sysdef, N, tr):
    """The report of tr checked with N on sysdef, and its Noether integral
    with that integral's report."""
    fi = noether_integral(sysdef, tr)
    return verify_triple(sysdef, tr, N).to_dict(), sp.srepr(fi.expr), fi.conservation.to_dict()


@pytest.mark.parametrize("make", [
    lambda sysdef, N: Triple(1, (0,), 0, "strong"),
    lambda sysdef, N: solve_strong(sysdef, N, 1),
], ids=["built_from_xi", "solved"])
def test_a_triple_gets_the_verdicts_of_a_fresh_copy_in_either_order(free_particles, make):
    # (1, (0,), 0) solves the free particle in any coordinate; checked on one
    # system and then on the other, it gets on each what a fresh copy gets
    fresh = {coord: _outcome(*pair, make(*free_particles["q"]))
             for coord, pair in free_particles.items()}
    assert all(rep["verdict"] == "PASS" for rep, _, _ in fresh.values())
    for order in (("q", "x"), ("x", "q")):
        tr = make(*free_particles["q"])
        for coord in order:
            assert _outcome(*free_particles[coord], tr) == fresh[coord], order


@pytest.mark.parametrize("name", CORPUS_FIXTURES)
def test_checks_write_nothing_into_a_triple(name, request):
    entry = request.getfixturevalue(name)
    sysdef = entry.system
    for tr in entry.triples.values():
        tr = replace(tr)  # a copy that no other test has checked
        before = dict(vars(tr))
        verify_triple(sysdef, tr, k=20)
        noether_integral(sysdef, tr, k=20)
        for form in FORMS:
            killing_lhs(sysdef, tr, form)
        assert vars(tr) == before


@given(data=st.data())
def test_solved_and_transformed_triples_keep_their_eta_through_copies(systems, data):
    sysdef, _, chain = data.draw(_solved_chain(systems))
    vs = sysdef.alphabet.velocity_symbols
    for tr, _ in chain:
        convention = "alternative" if tr.form.startswith("alt") else "standard"
        assert tr.eta is not None and tr._eta_velocities == vs
        for copied in (pickle.loads(pickle.dumps(tr)), copy.deepcopy(tr)):
            assert sp.srepr(copied.eta) == sp.srepr(tr.eta)
            assert copied._eta_velocities == vs
            assert _characteristic(sysdef, copied, convention) is copied.eta


@pytest.fixture()
def xi_calls(monkeypatch):
    """The argument tuples of every ``_xi`` call made while the test runs."""
    calls = []
    real = noether._xi

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(noether, "_xi", spy)
    return calls


@pytest.mark.parametrize("solve", [
    lambda sysdef, N: solve_strong(sysdef, N, sysdef.alphabet.t),
    lambda sysdef, N: solve_onflow_with_R(sysdef, N, sysdef.alphabet.coord_symbols),
    solve_alt_strong_trivial_gauge,
], ids=["strong", "onflow_with_R", "alt_strong_trivial_gauge"])
def test_integral_of_a_solved_triple_builds_no_xi(kepler, xi_calls, solve):
    sysdef = kepler.system
    tr = solve(sysdef, kepler.integrals["lrl_u"])
    assert noether_integral(sysdef, tr).verified
    assert xi_calls == []
    assert len(tr.xi) == sysdef.n and len(xi_calls) == 1


def test_solve_onflow_builds_xi_from_eta(kepler, xi_calls):
    # like every solver: xi is the recipe eta + qdot*tau, run on first read,
    # and it builds the tree it was given
    sysdef, ab = kepler.system, kepler.system.alphabet
    r1, r2, r3 = ab.coord_symbols
    xi = (r1 * ab.t, r2 + ab.velocity_symbols[2], sp.Integer(0))
    tr = solve_onflow(sysdef, kepler.integrals["energy"], r3 * ab.t, xi)
    assert xi_calls == []
    assert sp.srepr(tr.xi) == sp.srepr(xi) and len(xi_calls) == 1


def test_integral_of_a_time_trivialized_triple_builds_no_xi(kepler, xi_calls):
    # trivialize(..., "time") keeps the solver's eta, which is its xi
    sysdef = kepler.system
    tr = trivialize(sysdef, solve_strong(sysdef, kepler.integrals["lrl_u"], sysdef.alphabet.t),
                    "time")
    assert noether_integral(sysdef, tr).verified
    assert xi_calls == [] and sp.srepr(tr.xi) == sp.srepr(tr.eta)


@pytest.mark.parametrize("transform, tau", [
    (lambda sysdef, tr: trivialize(sysdef, tr, "time"), 0),
    (convert_standard_alternative, 0),
    (lambda sysdef, tr: multiplicity_transform(sysdef, tr, sysdef.alphabet.t), 0),
    (lambda sysdef, tr: multiplicity_transform(sysdef, tr, 0), "t"),
], ids=["trivialize_time", "convert", "multiplicity", "multiplicity_at_tau_t"])
def test_transforms_refuse_a_triple_with_extra_xi_components(fp, transform, tau):
    # a component with no velocity to pair with is refused at once, not
    # dropped, whether or not tau is structurally 0
    bad = Triple(sp.sympify(tau), (1, fp.system.alphabet.coord_symbols[0]), 0, "strong")
    with pytest.raises(ValueError, match="xi has length 2, expected 1"):
        transform(fp.system, bad)


def test_verify_triple_refuses_an_unknown_form(fp):
    with pytest.raises(ValueError, match="unknown form 'sideways'"):
        verify_triple(fp.system, Triple(0, (1,), 0, "strong"), form="sideways")


@pytest.mark.parametrize("clone", [lambda tr: pickle.loads(pickle.dumps(tr)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_triples_with_xi_not_built_copy_whole(kepler, clone):
    sysdef, N = kepler.system, kepler.integrals["lrl_u"]
    for tr in (solve_strong(sysdef, N, sysdef.alphabet.t),
               solve_onflow_with_R(sysdef, N, sysdef.alphabet.coord_symbols)):
        copied = clone(tr)
        assert copied == tr and hash(copied) == hash(tr)
        assert noether_integral(sysdef, copied).expr == noether_integral(sysdef, tr).expr


def test_copies_of_a_derived_triple_build_no_xi(kepler, xi_calls):
    # a derived triple holds eta, not its system, so a copy carries the
    # unbuilt slot and builds on its own first read the xi of the original
    sysdef = kepler.system
    tr = solve_strong(sysdef, kepler.integrals["lrl_u"], sysdef.alphabet.t)
    copies = [pickle.loads(pickle.dumps(tr)), copy.deepcopy(tr)]
    assert xi_calls == []
    for copied in copies:
        assert sp.srepr(copied.xi) == sp.srepr(tr.xi)
    assert "xi=None" in repr(Triple(0, None, 0, "strong"))


def test_a_time_trivialization_refuses_a_gauge_shift(fp):
    tr = next(iter(fp.triples.values()))
    with pytest.raises(ValueError, match="c = 5 shifts the gauge"):
        trivialize(fp.system, tr, "time", c=5)
    assert trivialize(fp.system, tr, "time", c=0).tau == 0


def test_a_gauge_trivialization_takes_exclusions_given_as_a_list(fp):
    # a library triple may list its exclusions; the transform appends its
    # denominator to them
    q = fp.system.alphabet.coord_symbols[0]
    tr = Triple(1, (0,), 0, "strong", exclusions=[Exclusion(q, 0.1)])
    assert verify_triple(fp.system, tr).passed
    gauged = trivialize(fp.system, tr, "gauge")
    assert gauged.exclusions == (Exclusion(q, 0.1), Exclusion(fp.system.L, DENOM_MARGIN))
    assert verify_triple(fp.system, gauged).passed


# Library round trips at seed 11, pinned by sha256: for each integral of the
# entry in turn, the srepr of the solved triple's tau, xi and f and of its
# derived integral, and that integral's conservation residual (float.hex)
# and witness.  A change that moves one node of a tree or one bit of a
# residual fails here.
CHAIN_SOLVERS = {
    "strong": lambda s, N: solve_strong(s, N, s.alphabet.t * s.alphabet.coord_symbols[0],
                                        seed=11),
    "onflow_simplest": lambda s, N: solve_onflow_simplest(s, N, seed=11),
    "onflow_with_R": lambda s, N: solve_onflow_with_R(s, N, s.alphabet.coord_symbols, seed=11),
    "alt_strong_trivial_gauge": lambda s, N: solve_alt_strong_trivial_gauge(s, N, seed=11),
    # the gauge trivializations and conversions that the CLI's solve modes
    # reach, all at a structurally zero tau, and a time trivialization
    "onflow_with_R_c3": lambda s, N: solve_onflow_with_R(s, N, s.alphabet.coord_symbols,
                                                         c=3, seed=11),
    "gauge_strong": lambda s, N: trivialize(s, solve_strong(s, N, seed=11), "gauge"),
    "gauge_strong_c3": lambda s, N: trivialize(s, solve_strong(s, N, seed=11), "gauge", c=3),
    "alt_onflow_with_R": lambda s, N: convert_standard_alternative(
        s, solve_onflow_with_R(s, N, s.alphabet.coord_symbols, seed=11)),
    "alt_onflow_with_R_c3": lambda s, N: convert_standard_alternative(
        s, solve_onflow_with_R(s, N, s.alphabet.coord_symbols, c=3, seed=11)),
    "alt_strong_trivial_gauge_c3": lambda s, N: solve_alt_strong_trivial_gauge(s, N, c=3,
                                                                               seed=11),
    "time_strong": lambda s, N: trivialize(s, solve_strong(
        s, N, s.alphabet.t * s.alphabet.coord_symbols[0], seed=11), "time"),
}
PINNED_CHAINS = {
    ("kepler", "strong"): "8839ea53e3a3937f2ac6fd3649c7c92c197383fa650eed94671a171bfd38e503",
    ("kepler", "onflow_simplest"):
        "486f08307e7915bedf29a7536aa4c5541e3766240e601c716947539fe7f8e767",
    ("kepler", "onflow_with_R"): "31f7d0d0380bc47cb094137976dd09e11a9b963f158cd0c6c81aa8bcf668f431",
    ("kepler", "alt_strong_trivial_gauge"):
        "dde16cafd8925daa0960d39e46ed4333842e2afeee5e7aae042d682d7eeb37b8",
    ("iso", "strong"): "63b934459ee167e0adac4998f67dfd98da7ee604fcd7e6987bdaf8d4889f8ef2",
    ("iso", "onflow_simplest"): "c246a6db627d69cf048b89e78ef8e689f404796305961bffb63cec91f0301f5b",
    ("iso", "onflow_with_R"): "8facbf1dee8dd5371fd77d022e27202d4e221492d0b4bea41ca55fabdfd8d277",
    ("iso", "alt_strong_trivial_gauge"):
        "fd843c9a47604bafff8c1e29d1fe63c91d01991bc840896b745a3f1bcb5a3ff5",
    ("iso_steep", "strong"): "059827a0eba921a5064209d2903bc375bafea1de3035c7a937107d3d5c044299",
    ("iso_steep", "onflow_simplest"):
        "863869d6f890c7703c96ea0148652e6cac1f7879b4342e8cf1a1e6be1769d11e",
    ("iso_steep", "onflow_with_R"):
        "d5bed5a94d11f36e5de9429cdc2ed32e7960fc3db6e111e91ebedc425d7d4216",
    ("iso_steep", "alt_strong_trivial_gauge"):
        "422680e35f53e48e7b971fc58e1cf395d82324971e148f07b857f3b7d9773240",
    ("kepler", "onflow_with_R_c3"):
        "1091dfca246a3ad603fa0a1a2c627b416f4ed417078aaaabe50b9687894bf894",
    ("kepler", "gauge_strong"): "c0e494726a391818845fab926d2bcd94d94c2859cb065685d11f80573ca72a6b",
    ("kepler", "gauge_strong_c3"):
        "b739ce09e66eb14b34ca0e41703237ba6e47d87f63d4826836c093f3182c0951",
    ("kepler", "alt_onflow_with_R"):
        "6582797fed2dc38d2aa444bd8a95e97ae840bc1df9dc76444b9d6eae977817a4",
    ("kepler", "alt_onflow_with_R_c3"):
        "7db5a286070594e26c01ca16f6e39497b604e1aeccddab6399f5ce59991c663e",
    ("kepler", "alt_strong_trivial_gauge_c3"):
        "9d173e1ab3bdf9834f86050e31a1e6b9a2eb871ad47523df2a30c0eaeff37e85",
    ("kepler", "time_strong"): "d11efeaf611dce7d952c3b259dbb7768acfabe6162fa08821661421658358b95",
    ("iso", "onflow_with_R_c3"):
        "32dc1aeb17048e3df6afba0196b03e831bda46f929532c86994af62f22bf47f2",
    ("iso", "gauge_strong"): "6b58ba8977badbc0e2aede4daea5a6532319e4458b7f44c1dfdeb81ca1aa4a8c",
    ("iso", "gauge_strong_c3"): "eb147ae6906f966f32b65b39cf2eb655dd7bbb2f02e64a32acc9192d4462c7dd",
    ("iso", "alt_onflow_with_R"):
        "9d8e200e741af59e4863450156ff45157f0e65524f3c2db5a998ebff94193caf",
    ("iso", "alt_onflow_with_R_c3"):
        "a23c5e3593a30483fd3853623d7bb13fcc831b3488944ad131544a18473e4dac",
    ("iso", "alt_strong_trivial_gauge_c3"):
        "0a0927dee7d1668b3a4a31930753331f3c1e4cf3a0d227b9e7761794c7f13bde",
    ("iso", "time_strong"): "7419f0111449911b1f5384fb91b723056931a0923790f95fc56677035638dd2e",
    ("iso_steep", "onflow_with_R_c3"):
        "9d35347fe4207025c39a4cde424225bd4eeb8c42d5689f23644861aa2b9ddeb8",
    ("iso_steep", "gauge_strong"):
        "494c4076f2b22a1a56853c570ef922df709b5fe84ffebff710a837f006d476e2",
    ("iso_steep", "gauge_strong_c3"):
        "6d51359b42b870e37e35f27f984c06016eb613f4d1986a0d0b89d67011e7e77c",
    ("iso_steep", "alt_onflow_with_R"):
        "f0e48f29f1ce79fa5b9d3ce898e1e61557b3617f1489e2cc100018c27dca131d",
    ("iso_steep", "alt_onflow_with_R_c3"):
        "d53ee896ca6e4200a1eca3add7400b6d2d65f5b3c984ac26f960c3580aa74dd7",
    ("iso_steep", "alt_strong_trivial_gauge_c3"):
        "2642ca5f750609e28efc23dcdfb85c0d5e331811780efc4faf2ace65b7dfad26",
    ("iso_steep", "time_strong"):
        "eadedc081f7835f326b0ba309a23a206a94b421b365167ad4bbd859878d6a6b6",
}


@pytest.mark.parametrize("name", ["kepler", "iso", "iso_steep"])
def test_library_round_trips_are_pinned(name, request):
    entry = request.getfixturevalue(name)
    sysdef = entry.system
    for solver, solve in CHAIN_SOLVERS.items():
        digest = hashlib.sha256()
        for N in entry.integrals.values():
            tr = solve(sysdef, N)
            out = noether_integral(sysdef, tr, seed=11)
            rep = out.conservation
            for part in (sp.srepr(tr.tau), *map(sp.srepr, tr.xi), sp.srepr(tr.f),
                         sp.srepr(out.expr), rep.max_residual.hex(),
                         json.dumps(rep.worst_point, sort_keys=True)):
                digest.update(part.encode() + b"\n")
        assert digest.hexdigest() == PINNED_CHAINS[name, solver], solver


@given(data=st.data(), eps=st.sampled_from((1e-3, 0.1, 1.0)))
def test_perturbed_solutions_fail_with_a_witness(systems, data, eps):
    sysdef, N, tr = data.draw(_solved(systems))
    ab = sysdef.alphabet
    bump = data.draw(st.sampled_from((ab.t, ab.coord_symbols[0], ab.t * ab.coord_symbols[-1])))
    bad = replace(tr, f=tr.f + eps * bump)
    rep = verify_triple(sysdef, bad)
    assert not rep.passed
    # the witness reproduces the FAIL through the term-by-term sums
    strong = bad.form.endswith("strong")
    fn = compile_fn([_reference_killing_lhs(sysdef, bad, bad.form),
                     total_dt(bad.f, ab, None if strong else sysdef.lam)],
                    ab, include_acc=strong)
    a, b = _eval_rows(fn, {name: np.float64(v) for name, v in rep.worst_point.items()}, 1)[:, 0]
    assert abs(a - b) / (1 + max(abs(a), abs(b))) > rep.tol


# The verify_dense path at k = 2000 and seed 11, pinned by sha256: for each
# corpus triple in each form, checked against its integral, the verdict and
# the float.hex residual and witness of the Killing check and of the
# integral check.  A change to compiled evaluation or to the draws that
# moves one bit of a residual or one witness coordinate fails here.
PINNED_DENSE = {
    "fp": "87aeb10710f2a42e48b3f58c83c687f9f2fa6a3deae39647a6b2378ab789391c",
    "iso": "b45d9689f35da40af70d6eebfc2ebd2ec83014e29ec07c5799bce00621754b3a",
    "kepler": "6a927bfbab5840902426e82bd3da64e5387e7549a511851e377fde3a4e567109",
}

# The verdicts under those digests, "<Killing> <integral>" in the order of
# FORMS (onflow, strong, alt_onflow, alt_strong), so that a re-pinned digest
# cannot carry a changed verdict.
DENSE_VERDICTS = {
    ("fp", "gamma1"): ("PASS PASS", "PASS PASS", "PASS PASS", "PASS PASS"),
    ("fp", "gamma2"): ("PASS PASS", "PASS PASS", "PASS PASS", "PASS PASS"),
    ("fp", "gamma3"): ("PASS PASS", "PASS PASS", "FAIL FAIL", "FAIL FAIL"),
    ("fp", "gamma4"): ("PASS PASS", "PASS PASS", "FAIL FAIL", "FAIL FAIL"),
    ("fp", "gamma5"): ("PASS PASS", "PASS PASS", "FAIL FAIL", "FAIL FAIL"),
    ("fp", "gamma6"): ("PASS PASS", "FAIL PASS", "PASS PASS", "FAIL PASS"),
    ("fp", "gamma7"): ("PASS PASS", "FAIL PASS", "FAIL FAIL", "FAIL FAIL"),
    ("fp", "gamma8"): ("PASS PASS", "FAIL PASS", "FAIL FAIL", "FAIL FAIL"),
    ("iso", "strong_N1"): ("PASS PASS", "PASS PASS", "FAIL FAIL", "FAIL FAIL"),
    ("iso", "onflow_N3"): ("PASS PASS", "FAIL PASS", "PASS PASS", "FAIL PASS"),
    ("iso", "strong_N3"): ("PASS PASS", "PASS PASS", "PASS PASS", "PASS PASS"),
    ("kepler", "onflow_simple"): ("PASS PASS", "FAIL PASS", "FAIL FAIL", "FAIL FAIL"),
    ("kepler", "levy_leblond"): ("PASS PASS", "FAIL PASS", "PASS PASS", "FAIL PASS"),
    ("kepler", "lrl_gauge"): ("PASS PASS", "FAIL PASS", "PASS PASS", "FAIL PASS"),
    ("kepler", "family_h0"): ("PASS PASS", "FAIL PASS", "FAIL FAIL", "FAIL FAIL"),
    ("kepler", "strong_b"): ("PASS PASS", "PASS PASS", "FAIL FAIL", "FAIL FAIL"),
}


@pytest.fixture(scope="module")
def dense_checks():
    """The verify_dense checks of a corpus entry, made once: the report of
    each (triple, form) at k = 2000 and seed 11, with its integral."""
    memo = {}

    def checks(entry):
        if entry.system.name not in memo:
            memo[entry.system.name] = {
                (triple, form): verify_triple(entry.system, tr, entry.triple_integrals[triple],
                                              form, k=2000, seed=11)
                for triple, tr in entry.triples.items() for form in FORMS}
        return memo[entry.system.name]

    return checks


@pytest.mark.parametrize("name", sorted(PINNED_DENSE))
def test_dense_verdicts_are_pinned(name, request, dense_checks):
    entry = request.getfixturevalue(name)
    checks = dense_checks(entry)
    got = {(name, triple): tuple(f"{checks[triple, form].verdict} "
                                 f"{checks[triple, form].integral_check.verdict}"
                                 for form in FORMS)
           for triple in entry.triples}
    assert got == {key: row for key, row in DENSE_VERDICTS.items() if key[0] == name}


@pytest.mark.parametrize("name", sorted(PINNED_DENSE))
def test_dense_verifications_are_pinned(name, request, dense_checks):
    digest = hashlib.sha256()
    for rep in dense_checks(request.getfixturevalue(name)).values():
        for check in (rep, rep.integral_check):
            for part in (check.verdict, check.max_residual.hex(),
                         json.dumps(check.worst_point, sort_keys=True)):
                digest.update(part.encode() + b"\n")
    assert digest.hexdigest() == PINNED_DENSE[name]


@pytest.mark.parametrize("form", FORMS)
def test_a_verification_with_its_integral_is_one_oracle_call(kepler, form, monkeypatch):
    # from cold memos, the Killing equation and the Noether formula are one
    # draw and one compiled function, beside the exclusion and direction
    # functions that a Killing check alone compiles too
    sysdef, tr = kepler.system, kepler.triples["strong_b"]
    N = kepler.triple_integrals["strong_b"]
    draws, compiled = [], []
    draw_into, generate = expressions._draw_into, expressions._generate
    monkeypatch.setattr(expressions, "_draw_into", lambda *a: draws.append(a) or draw_into(*a))
    monkeypatch.setattr(expressions, "_generate",
                        lambda syms, exprs: compiled.append(exprs) or generate(syms, exprs))
    expressions._last_draw[0] = None
    expressions._compile.cache_clear()
    rep = verify_triple(sysdef, tr, N, form, seed=7)
    helpers = {tuple(sysdef.lam), sysdef.alphabet.acceleration_symbols,
               tuple(ex.expr for ex in sysdef.domain(tr.exclusions).exclusions)}
    lhs, dt_f, integral = _killing_terms(sysdef, tr, form)
    assert len(draws) == 1
    assert [exprs for exprs in compiled if exprs not in helpers] == [(lhs, dt_f, integral, N)]
    # the integral's check reads the Killing check's points
    check = rep.integral_check
    assert (check.seed, check.k, check.worst_point.keys()) == (
        rep.seed, rep.k, rep.worst_point.keys())
    accs = {s.name for s in sysdef.alphabet.acceleration_symbols}
    assert (accs <= check.worst_point.keys()) == form.endswith("strong")


def test_a_non_finite_integral_raises_after_a_killing_fail(fp):
    # gamma6 fails the strong equation and log(q) is NaN for q < 0: the
    # integral's check raises, as it does when asked alone, and no FAIL is
    # returned
    sysdef, tr = fp.system, fp.triples["gamma6"]
    log_q = sp.log(sysdef.alphabet.coord_symbols[0])
    assert verify_triple(sysdef, tr, form="strong").verdict == "FAIL"
    with pytest.raises(DomainViolation) as err:
        verify_triple(sysdef, tr, log_q, form="strong")
    N = _killing_terms(sysdef, tr, "strong")[2]
    assert err.value.expr == sp.Eq(N, log_q, evaluate=False)
    assert err.value.point["q"] < 0
