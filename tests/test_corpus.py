import hashlib

import pytest
import sympy as sp

from noetherkit.corpus import (
    CORPUS_NAMES,
    ISOCHRONY_G_CHOICES,
    _isochrony_G,
    check_G_ode,
    isochrony_strong_triple,
    kepler_family_triple,
    kepler_strong_triple,
    load,
)
from noetherkit.expressions import diff
from noetherkit.noether import check_conserved, verify_triple


def test_corpus_names_load():
    for name in CORPUS_NAMES:
        entry = load(name)
        assert entry.system.name
    with pytest.raises(ValueError):
        load("pendulum")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_all_integrals_conserved(name):
    entry = load(name)
    for label, N in entry.integrals.items():
        fi = check_conserved(entry.system, N, k=50, name=label)
        assert fi.verified, label


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_all_triples_verify_with_their_integrals(name):
    entry = load(name)
    for label, tr in entry.triples.items():
        rep = verify_triple(
            entry.system, tr, entry.triple_integrals.get(label), k=50
        )
        assert rep.passed, f"{label}: {rep.max_residual:.3e} at {rep.worst_point}"


@pytest.mark.parametrize("G,c", [("x", 0.0), ("1/x^3", 0.0),
                                 ("sqrt_pos", 1.0), ("sqrt_neg", -1.0)])
def test_isochrony_family_members(G, c):
    entry = load("isochrony", G=G, c=c)
    for label, N in entry.integrals.items():
        assert check_conserved(entry.system, N, k=30, name=label).verified, label
    rep = verify_triple(entry.system, entry.triples["strong_N3"],
                        entry.triple_integrals["strong_N3"], k=30)
    assert rep.passed


@pytest.mark.parametrize("G,c", [("x", 0.0), ("1/x^3", 0.0),
                                 ("sqrt_pos", 1.0), ("sqrt_neg", -1.0)])
def test_isochrony_N2_holds_an_antiderivative_of_G(G, c):
    sysdef = load("isochrony", G=G, c=c).system
    x = sysdef.alphabet.coord_symbols[0]
    Gx, Gint, _, _ = _isochrony_G(G, c, x)
    assert sysdef.check(diff(Gint, x, sysdef.alphabet), Gx).passed


def test_isochrony_N2_keeps_its_tree():
    # the corpus export and the CLI list print these integrals
    half_xdot2 = "Mul(Rational(1, 2), Pow(Symbol('xdot', real=True), Integer(2)))"
    want = {"x": "Add(Mul(Rational(1, 2), Pow(Symbol('x', real=True), Integer(2))), "
                 f"{half_xdot2})",
            "1/x^3": f"Add({half_xdot2}, "
                     "Mul(Integer(-1), Rational(1, 2), Pow(Symbol('x', real=True), Integer(-2))))"}
    for G, tree in want.items():
        assert sp.srepr(load("isochrony", G=G, c=0.0).integrals["N2"]) == tree


def test_isochrony_rejects_inconsistent_constants():
    with pytest.raises(ValueError):
        load("isochrony", G="1/x^3", c=1.0)
    with pytest.raises(ValueError):
        load("isochrony", G="sqrt_pos", c=0.0)
    with pytest.raises(ValueError):
        load("isochrony", G="sqrt_neg", c=1.0)
    with pytest.raises(ValueError):
        load("isochrony", G="cosh")
    assert set(ISOCHRONY_G_CHOICES) == {"x", "1/x^3", "sqrt_pos", "sqrt_neg"}


def test_isochrony_strong_triple_with_time_change(iso):
    t = iso.system.alphabet.t
    tr = isochrony_strong_triple(iso.system, t)
    rep = verify_triple(iso.system, tr, iso.integrals["N3"], k=50)
    assert rep.passed


def test_onflow_N3_is_not_strong(iso):
    rep = verify_triple(iso.system, iso.triples["onflow_N3"], form="strong", k=50)
    assert not rep.passed
    # the witness binds the accelerations
    assert "xddot" in rep.worst_point


def test_check_G_ode_verdicts():
    x = sp.Symbol("x", real=True)
    assert check_G_ode(x, 0.0).passed
    assert check_G_ode(x**-3, 0.0).passed
    assert check_G_ode((1 + 2 * x**2) / sp.sqrt(1 + x**2), 1.0).passed
    rep = check_G_ode(x**2, 1.0)
    assert not rep.passed
    assert rep.max_residual > 1e-9


def test_kepler_family_triple_parameterized(kepler):
    sysdef = kepler.system
    t = sysdef.alphabet.t
    tr = kepler_family_triple(sysdef, t)
    assert tr.f == t
    rep = verify_triple(sysdef, tr, kepler.integrals["lrl_u"], k=50)
    assert rep.passed


def test_kepler_strong_triple_nonzero_gauge(kepler):
    sysdef = kepler.system
    t = sysdef.alphabet.t
    tr = kepler_strong_triple(sysdef, t)
    rep = verify_triple(sysdef, tr, kepler.integrals["lrl_u"], k=50)
    assert rep.passed


def test_kepler_parameter_override():
    entry = load("kepler3d", param_values={"mu": 2.0})
    assert entry.system.param_values["mu"] == 2.0
    fi = check_conserved(entry.system, entry.integrals["lrl_u"], k=30)
    assert fi.verified


# sha256 over the srepr of each tree below, one per line, computed before the
# Kepler terms were shared between their builders
CORPUS_TREES = "c2f03db2e8545fce891e4ded8b36212a3d6ef247dbab0fb2d42e24251963c9e0"


def test_every_corpus_tree_is_pinned():
    # the CLI pins hold only printed exports, and the printer orders terms
    # for display, so this pins the trees themselves
    digest = hashlib.sha256()

    def add(tree):
        digest.update(sp.srepr(tree).encode() + b"\n")

    def add_triple(tr):
        for part in (tr.tau, tr.xi, tr.f, tr.form, tr.exclusions):
            add(part)

    kepler, *isos = [load("kepler3d")] + [
        load("isochrony", G=G, c=c)
        for G, c in [("x", 0.0), ("1/x^3", 0.0), ("sqrt_pos", 1.0), ("sqrt_neg", -1.0)]]
    entries = [load("freeparticle"), kepler, load("kepler3d", param_values={"mu": 2.0}), *isos]
    for entry in entries:
        for name in sorted(entry.integrals):
            add(entry.integrals[name])
        for name in sorted(entry.triples):
            add_triple(entry.triples[name])
    t = kepler.system.alphabet.t
    add_triple(kepler_family_triple(kepler.system, t))
    add_triple(kepler_strong_triple(kepler.system, t))
    for entry in isos:
        add_triple(isochrony_strong_triple(entry.system, t))
    assert digest.hexdigest() == CORPUS_TREES
