import builtins
import inspect
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import noetherkit
from noetherkit import corpus, expressions
from noetherkit.expressions import (
    Alphabet,
    DomainViolation,
    Exclusion,
    SampleDomain,
    SamplingError,
    TotalDerivative,
    UndeclaredSymbolError,
    compile_fn,
    diff,
    draw_points,
    equal_numeric,
    evaluate,
    substitute,
    tidy,
    total_dt,
)
from noetherkit.mechanics import build_system
from noetherkit.noether import FORMS, killing_lhs, solve_strong

AB = Alphabet(coords=("x", "y"))
X, Y = AB.coord_symbols
XD, YD = AB.velocity_symbols
T = AB.t


def test_alphabet_rejects_reserved_and_duplicate_names():
    with pytest.raises(ValueError):
        Alphabet(coords=("t",))
    with pytest.raises(ValueError):
        Alphabet(coords=("x",), params=("sin",))
    with pytest.raises(ValueError):
        Alphabet(coords=("x", "x"))


def test_lookup_and_aliases():
    ab = Alphabet(coords=("q1", "q2"))
    assert ab.lookup("q1dot") == ab.velocity_symbols[0]
    assert ab.lookup("qdot2") == ab.velocity_symbols[1]
    assert ab.lookup("qddot1") == ab.acceleration_symbols[0]
    with pytest.raises(UndeclaredSymbolError):
        ab.lookup("z")


def test_check_declared_flags_foreign_symbols():
    ab = Alphabet(coords=("x",), params=("m",))
    ab.check_declared(ab.coord_symbols[0] * ab.param_symbols[0])
    with pytest.raises(UndeclaredSymbolError):
        AB.check_declared(X + sp.Symbol("z", real=True))
    with pytest.raises(UndeclaredSymbolError):
        AB.check_declared(sp.Function("H")(X))


def _random_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([X, Y, XD, YD, T, sp.Integer(rng.randint(1, 3))])
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    op = rng.choice(["+", "*", "-", "sin"])
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "sin":
        return sp.sin(a)
    return a * b


def test_diff_is_linear_and_leibniz_on_random_trees():
    rng = random.Random(7)
    for _ in range(10):
        a = _random_expr(rng)
        b = _random_expr(rng)
        for var in (X, XD, T):
            lhs = diff(a + 2 * b, var, AB)
            rhs = diff(a, var, AB) + 2 * diff(b, var, AB)
            assert equal_numeric(lhs, rhs, AB, k=20).passed
            prod = diff(a * b, var, AB)
            leib = diff(a, var, AB) * b + a * diff(b, var, AB)
            assert equal_numeric(prod, leib, AB, k=20).passed


def test_total_dt_generic_vs_onflow():
    e = X * XD + sp.sin(T) * Y
    generic = total_dt(e, AB)
    xdd, ydd = AB.acceleration_symbols
    assert generic.has(xdd)
    lam = (-X, -Y)
    onflow = total_dt(e, AB, lam)
    assert not onflow.has(xdd) and not onflow.has(ydd)
    # substituting the flow into the generic result gives the on-flow result
    subbed = generic.subs({xdd: lam[0], ydd: lam[1]})
    assert equal_numeric(subbed, onflow, AB, k=20).passed


def test_total_dt_rejects_acceleration_input():
    with pytest.raises(ValueError):
        total_dt(AB.acceleration_symbols[0], AB)
    with pytest.raises(ValueError):
        total_dt(X, AB, lam=(X,))  # wrong length


def _expand(e):
    return e.xreplace({n: n.doit() for n in e.atoms(TotalDerivative)})


def _node_residual(e, alphabet, domain=SampleDomain(), k=200, include_acc=False,
                   param_values=None):
    """Largest oracle residual |a - b| / (1 + max(|a|, |b|)) between the
    complex-step value of e and its symbolic expansion at k points."""
    pts = draw_points(alphabet, domain, param_values or {}, k, 5, include_acc)
    a, b = (expressions._eval_rows(compile_fn([x], alphabet, include_acc),
                                   pts.columns, k)[0]
            for x in (e, _expand(e)))
    assert np.isfinite(a).all() and np.isfinite(b).all()
    return float(np.max(np.abs(a - b) / (1 + np.maximum(np.abs(a), np.abs(b)))))


def test_total_dt_is_a_lazy_node():
    e = X * XD + sp.sin(T) * Y
    node = total_dt(e, AB, (-X, -Y))
    assert isinstance(node, TotalDerivative)
    assert str(node) == "Dt(x*xdot + y*sin(t))"
    expansion = sp.diff(e, T) + XD * XD + X * -X + sp.sin(T) * YD
    assert sp.expand(node.doit() - expansion) == 0
    # nothing to differentiate: a plain zero, as before
    ab = Alphabet(coords=("x",), params=("m",))
    assert total_dt(ab.param_symbols[0] ** 2, ab) == 0


def test_total_dt_subs_and_diff_act_on_the_expansion():
    node = total_dt(X**2 * YD, AB)
    assert sp.expand(node.subs(X, 3) - node.doit().subs(X, 3)) == 0
    assert sp.expand(sp.diff(node, X) - sp.diff(node.doit(), X)) == 0
    # substituting only the direction keeps the node
    xdd, ydd = AB.acceleration_symbols
    assert node.subs({xdd: -X, ydd: -Y}) == total_dt(X**2 * YD, AB, (-X, -Y))


def test_generic_node_matches_expansion_with_sampled_accelerations():
    e = sp.exp(T * X) * sp.cos(YD) + sp.sqrt(XD**2 + Y**2 + 1) / (2 + sp.sin(X))
    assert _node_residual(total_dt(e, AB), AB, include_acc=True) < 1e-12


def test_complex_step_through_abs_and_sign():
    # sympy writes sqrt(x^2) as Abs(x) on real symbols
    e = sp.sqrt(X**2) * Y + sp.sign(X) * YD**2
    assert e.has(sp.Abs)
    ydd = AB.acceleration_symbols[1]
    # away from x = 0, where the expansion's DiracDelta(x) term vanishes
    expected = sp.sign(X) * XD * Y + sp.Abs(X) * YD + 2 * sp.sign(X) * YD * ydd
    dom = SampleDomain(exclusions=(Exclusion(X, 0.1),))
    pts = draw_points(AB, dom, {}, 200, 5, include_acc=True)
    got, want = expressions._eval_rows(
        compile_fn([total_dt(e, AB), expected], AB, include_acc=True), pts.columns, 200)
    assert np.max(np.abs(got - want) / (1 + np.abs(want))) < 1e-12


def test_node_domain_violation_survives_complex_step():
    # sqrt(x + i*h*xdot) is finite for x < 0; the real evaluation is not
    ab = Alphabet(coords=("q",))
    q, = ab.coord_symbols
    dom = SampleDomain(var_ranges={"q": (-2.0, -0.1)})
    for lam in (None, (-q,)):
        node = total_dt(sp.sqrt(q), ab, lam)
        with pytest.raises(DomainViolation) as err:
            equal_numeric(node, 0, ab, domain=dom, include_acc=lam is None)
        assert "Dt(sqrt(q))" in str(err.value)
        with pytest.raises(DomainViolation):
            evaluate(node, {"t": 0.0, "q": -1.0, "qdot": 1.0, "qddot": 0.5}, ab)


def test_nested_total_dt_is_refused():
    inner = total_dt(X * XD, AB, (-X, -Y))
    for lam in (None, (-X, -Y)):
        with pytest.raises(ValueError, match="total derivatives"):
            total_dt(inner, AB, lam)
        with pytest.raises(ValueError, match="total derivatives"):
            total_dt(X + total_dt(X * XD, AB), AB, lam)


def test_several_nodes_cost_one_lambdify(monkeypatch):
    ab = Alphabet(coords=("u", "w"))
    u, w = ab.coord_symbols
    ud, wd = ab.velocity_symbols
    lam = (-u * w, sp.sin(u))
    compile_fn(list(lam), ab)  # the direction is compiled once per system
    calls = []
    real = sp.lambdify
    monkeypatch.setattr(sp, "lambdify", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    e = ud * total_dt(u**2 * wd, ab, lam) + total_dt(sp.cos(w) * ud, ab, lam) ** 2
    fn = compile_fn([e, total_dt(u * w, ab, lam)], ab)
    assert len(calls) == 1
    assert compile_fn([e, total_dt(u * w, ab, lam)], ab) is fn
    assert len(calls) == 1


def _resolve(fn, name):
    return fn.__globals__.get(name, vars(builtins).get(name))


def test_compiled_code_matches_stock_lambdify(monkeypatch):
    # the stock call imports every lazy numpy submodule; the package's
    # prebuilt namespace must print the same code and bind the same objects
    calls = []
    real = sp.lambdify

    def spy(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(sp, "lambdify", spy)
    expressions._compile.cache_clear()
    distinct = set()
    for name in corpus.CORPUS_NAMES:
        entry = corpus.load(name)
        sysdef = entry.system
        exprs = [*sysdef.lam, *entry.integrals.values()]
        exprs += [killing_lhs(sysdef, tr, form).doit()
                  for tr in entry.triples.values() for form in FORMS]
        for e in exprs:
            compile_fn([e], sysdef.alphabet, include_acc=True)
        distinct.update((sysdef.alphabet, e) for e in exprs)
    # Abs and sign print as the complex-step functions
    compile_fn([sp.diff(sp.sqrt(X**2), X) * sp.Abs(Y)], AB)
    assert len(calls) > len(distinct) > 60
    for args, kwargs, fn in calls:
        # the same subexpression sharing, so the code compared is the same
        stock = real(*args, modules=[expressions._COMPLEX_STEP_FUNCS, "numpy", {"math": math}],
                     docstring_limit=0, cse=kwargs["cse"])
        assert inspect.getsource(fn) == inspect.getsource(stock)
        for name in fn.__code__.co_names:
            assert _resolve(fn, name) is _resolve(stock, name), name


def test_compile_fn_leaves_lazy_numpy_submodules_unloaded():
    script = (
        "import sys\n"
        "from noetherkit import corpus\n"
        "from noetherkit.expressions import compile_fn\n"
        "entry = corpus.load('kepler3d')\n"
        "compile_fn([entry.integrals['lrl_u']], entry.system.alphabet)\n"
        "print(*(m for m in ('numpy.f2py', 'numpy.testing', 'unittest') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(noetherkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_compiled_code_shares_repeated_subtrees():
    # the kepler3d RK4 stage computes r.r once, not once per occurrence
    sysdef = corpus.load("kepler3d").system
    exprs = [*sysdef.lam, *(ex.expr for ex in sysdef.exclusions)]
    fn = compile_fn(exprs, sysdef.alphabet)
    assert inspect.getsource(fn.positional).count("r1**2 + r2**2 + r3**2") == 1


def test_shared_subtrees_do_not_capture_declared_names():
    ab = Alphabet(coords=("x0", "x1"), params=("x2",))
    (x0, x1), (x0d, x1d), (x2,) = ab.coord_symbols, ab.velocity_symbols, ab.param_symbols
    r = sp.sqrt(x0**2 + x1**2)
    sysdef = build_system((x0d**2 + x1d**2) / 2 + x2 / r, ab, param_values={"x2": 1.5},
                          exclusions=(Exclusion(r, 0.3),))
    energy = (x0d**2 + x1d**2) / 2 - x2 / r
    exprs = [*sysdef.lam, energy, x0 * x1d - x1 * x0d]
    exprs += [killing_lhs(sysdef, solve_strong(sysdef, energy, tau=x0), form).doit()
              for form in FORMS]
    pts = draw_points(ab, sysdef.domain(), sysdef.param_values, 8, seed=3,
                      include_acc=True)
    got = [np.broadcast_to(v, (8,)) for v in compile_fn(exprs, ab, include_acc=True)(pts.columns)]
    for e, values in zip(exprs, got):
        want = [evaluate(e, point, ab) for point in pts]
        exact = [float(e.evalf(subs={ab.lookup(k): v for k, v in point.items()}))
                 for point in pts]
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(values, exact, rtol=1e-12, atol=1e-12)


def test_compiled_code_is_the_same_under_every_hash_seed():
    # sharing takes Add and Mul arguments in sympy's own order, never in
    # the per-process order of a set
    script = (
        "import hashlib, inspect\n"
        "import sympy as sp\n"
        "from noetherkit import corpus\n"
        "from noetherkit.expressions import compile_fn\n"
        "from noetherkit.noether import FORMS, killing_lhs\n"
        "real, sources = sp.lambdify, []\n"
        "def spy(*args, **kwargs):\n"
        "    fn = real(*args, **kwargs)\n"
        "    sources.append(inspect.getsource(fn))\n"
        "    return fn\n"
        "sp.lambdify = spy\n"
        "for name in corpus.CORPUS_NAMES:\n"
        "    entry = corpus.load(name)\n"
        "    sysdef = entry.system\n"
        "    exprs = [*sysdef.lam, *entry.integrals.values()]\n"
        "    exprs += [killing_lhs(sysdef, tr, form).doit()\n"
        "              for tr in entry.triples.values() for form in FORMS]\n"
        "    for e in exprs:\n"
        "        compile_fn([e], sysdef.alphabet, include_acc=True)\n"
        "print(len(sources), hashlib.sha256('\\n'.join(sources).encode()).hexdigest())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(noetherkit.__file__).parents[1]))
    procs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=dict(env, PYTHONHASHSEED=str(h)))
             for h in (0, 1, 2)]
    outs = set()
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outs.add(out)
    assert len(outs) == 1
    assert int(outs.pop().split()[0]) > 60


def test_alphabet_builds_its_symbols_once_and_keys_the_memo_by_its_fields():
    a, b = Alphabet(coords=("u", "v"), params=("k",)), Alphabet(coords=("u", "v"), params=("k",))
    u, v = a.coord_symbols
    assert a.coord_symbols is a.coord_symbols
    assert a.lookup("udot") is a.velocity_symbols[0] and a.lookup("k") is a.param_symbols[0]
    # a now holds its symbols and b does not; fields alone decide
    assert a is not b and a == b and hash(a) == hash(b)
    f = compile_fn([u * v + a.param_symbols[0]], a)
    assert compile_fn([u * v + a.param_symbols[0]], b) is f


def test_substitute_is_simultaneous():
    out = substitute(X - Y, {"x": Y, "y": X}, AB)
    assert sp.simplify(out - (Y - X)) == 0


def test_evaluate_and_domain_violation():
    assert evaluate(X * XD, {"x": 2.0, "xdot": 3.0}, AB) == pytest.approx(6.0)
    # a name the value depends on is never filled in
    with pytest.raises(ValueError, match=r"\['xdot', 'y'\]"):
        evaluate(X * XD + Y, {"x": 2.0}, AB)
    ab = Alphabet(coords=("q",), params=("m",))
    (q,), (m,) = ab.coord_symbols, ab.param_symbols
    with pytest.raises(ValueError, match="qdot"):
        evaluate(total_dt(q**2, ab, [0]), {"t": 0.0, "q": 2.0}, ab)
    with pytest.raises(ValueError, match="'m'"):
        evaluate(m * q, {"q": 2.0}, ab)
    assert evaluate(total_dt(q**2, ab, [0]), {"q": 2.0, "qdot": 3.0}, ab) == pytest.approx(12.0)
    with pytest.raises(DomainViolation) as err:
        evaluate(1 / X, {"x": 0.0}, AB)
    assert err.value.point["x"] == 0.0
    with pytest.raises(DomainViolation):
        evaluate(sp.sqrt(X), {"x": -1.0}, AB)
    with pytest.raises(DomainViolation):
        evaluate(X ** sp.Rational(3, 2), {"x": -1.0}, AB)


def test_complex_values_are_not_finite():
    # the imaginary part is never dropped: I*x is a domain violation, also
    # inside a total derivative, and an exclusion that is complex rejects
    with pytest.raises(DomainViolation):
        equal_numeric(sp.I * X, 0 * X, AB)
    with pytest.raises(DomainViolation):
        equal_numeric(X + sp.I, X, AB)
    with pytest.raises(DomainViolation):
        equal_numeric(total_dt(sp.I * X, AB), 0, AB, include_acc=True)
    with pytest.raises(DomainViolation):
        evaluate(sp.I * X, {"x": 1.0}, AB)
    # complex arithmetic with a real result stays legal
    assert evaluate((1 + sp.I) * (1 - sp.I) * X, {"x": 3.0}, AB) == pytest.approx(6.0)
    dom = SampleDomain(exclusions=(Exclusion(sp.I * X),))
    with pytest.raises(SamplingError):
        draw_points(AB, dom, {}, 1, seed=0)


def test_draw_points_deterministic_and_respects_exclusions():
    dom = SampleDomain(exclusions=(Exclusion(X, 0.5),))
    p1 = draw_points(AB, dom, {}, 25, seed=3)
    p2 = draw_points(AB, dom, {}, 25, seed=3)
    assert p1 == p2
    assert all(abs(p["x"]) >= 0.5 for p in p1)
    assert all(0.0 <= p["t"] <= 2.0 for p in p1)


def test_draw_points_var_range_override():
    dom = SampleDomain(var_ranges={"x": (5.0, 6.0)})
    pts = draw_points(AB, dom, {}, 10, seed=0)
    assert all(5.0 <= p["x"] <= 6.0 for p in pts)


def test_draw_points_exhaustion_raises():
    dom = SampleDomain(exclusions=(Exclusion(sp.Integer(0), 1.0),))
    with pytest.raises(SamplingError):
        draw_points(AB, dom, {}, 1, seed=0)


def _reference_draw(alphabet, domain, param_values, k, seed, include_acc=False,
                    max_tries=1000):
    """One candidate at a time, one exclusion at a time: the sampler that
    draw_points must reproduce."""
    rng = np.random.default_rng(seed)
    ranges = {}
    for s in alphabet.variables(include_acc):
        if s.name in domain.var_ranges:
            ranges[s.name] = domain.var_ranges[s.name]
        elif s.name == "t":
            ranges[s.name] = expressions.T_RANGE
        elif s in alphabet.acceleration_symbols:
            ranges[s.name] = expressions.ACC_RANGE
        else:
            ranges[s.name] = expressions.DEFAULT_RANGE
    excl = [(compile_fn([ex.expr], alphabet, include_acc), ex.threshold)
            for ex in domain.exclusions]
    points = []
    for _ in range(k):
        for _ in range(max_tries):
            point = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in ranges.items()}
            point.update({name: float(v) for name, v in param_values.items()})
            vals = [float(fn(point)[0]) for fn, _ in excl]
            if all(math.isfinite(v) and abs(v) >= th
                   for v, (_, th) in zip(vals, excl)):
                points.append(point)
                break
        else:
            raise SamplingError("reference sampler exhausted")
    return points


def test_draw_points_matches_one_at_a_time_reference():
    ab = Alphabet(coords=("x", "y"), params=("a",))
    x, y = ab.coord_symbols
    # |x| >= 1 rejects about half of the box; the product adds a second test
    dom = SampleDomain(var_ranges={"y": (0.5, 3.0)},
                       exclusions=(Exclusion(x, 1.0), Exclusion(x * y - 1, 0.2)))
    for seed in range(6):
        for include_acc in (False, True):
            ref = _reference_draw(ab, dom, {"a": 0.7}, 40, seed, include_acc)
            pts = draw_points(ab, dom, {"a": 0.7}, 40, seed, include_acc)
            assert len(pts) == 40
            assert list(pts) == ref
            assert list(pts.columns) == list(ref[0])


def test_draw_points_rejection_run_across_blocks():
    # only x > 1.9 is accepted (sqrt is NaN below), one candidate in forty,
    # so rejection runs are long
    dom = SampleDomain(exclusions=(Exclusion(sp.sqrt(X - 1.9), 1e-12),))
    first_block = expressions._next_block(2, 0, 0)
    seed = 5
    ref = _reference_draw(AB, dom, {}, 2, seed)
    assert list(draw_points(AB, dom, {}, 2, seed)) == ref
    # replay the stream to find the rejection run before each accepted point
    rng = np.random.default_rng(seed)
    runs, run = [], 0
    while len(runs) < 2:
        rng.uniform(0.0, 2.0)  # t
        x = rng.uniform(-2.0, 2.0)
        for _ in range(3):  # y, xdot, ydot
            rng.uniform(-2.0, 2.0)
        if x > 1.9:
            runs.append(run)
            run = 0
        else:
            run += 1
    longest = max(runs)
    assert runs[0] + 1 + runs[1] > first_block  # the draw needs a second block
    with pytest.raises(SamplingError):
        draw_points(AB, dom, {}, 2, seed, max_tries=longest)
    assert list(draw_points(AB, dom, {}, 2, seed, max_tries=longest + 1)) == ref


def test_compile_fn_memo_returns_shared_function():
    ab = Alphabet(coords=("x",))
    (x,), (xd,) = ab.coord_symbols, ab.velocity_symbols
    f = compile_fn([x**2 * xd], ab)
    assert compile_fn([xd * x**2], ab) is f
    assert compile_fn([x**3 * xd], ab) is not f
    assert compile_fn([x**2 * xd], ab, include_acc=True) is not f


def test_equal_numeric_pass_and_conclusive_fail():
    rep = equal_numeric((X + Y) ** 2, X**2 + 2 * X * Y + Y**2, AB)
    assert rep.passed and rep.verdict == "PASS"
    rep = equal_numeric(X**2, X, AB, label="x^2 vs x")
    assert not rep.passed and rep.verdict == "FAIL"
    # the worst point is a usable witness
    w = rep.worst_point
    resid = abs(w["x"] ** 2 - w["x"]) / (1 + max(abs(w["x"] ** 2), abs(w["x"])))
    assert resid == pytest.approx(rep.max_residual)
    assert rep.label == "x^2 vs x"
    # witnesses are Python floats, so their repr is plain and JSON-stable
    assert type(rep.max_residual) is float
    assert all(type(v) is float for v in w.values())


def test_equal_numeric_seed_determinism():
    a, b = sp.sin(X) * XD, XD * sp.sin(X) + sp.Float(1e-7)
    r1 = equal_numeric(a, b, AB, seed=11)
    r2 = equal_numeric(a, b, AB, seed=11)
    assert r1.worst_point == r2.worst_point
    assert r1.max_residual == r2.max_residual


def test_equal_numeric_raises_on_singular_point():
    # sqrt goes non-finite on the negative half of the sampling box
    with pytest.raises(DomainViolation) as err:
        equal_numeric(sp.sqrt(X), sp.sqrt(X), AB, k=50)
    first_bad = next(p for p in draw_points(AB, SampleDomain(), {}, 50, 0)
                     if p["x"] < 0)
    assert err.value.point == first_bad
    assert all(type(v) is float for v in err.value.point.values())


def _sequential_reference(pairs):
    """One equal_numeric call per pair at k = 50, stopping at the first FAIL."""
    reports = []
    for a, b in pairs:
        rep = equal_numeric(a, b, AB, k=50)
        if not rep.passed:
            return rep
        reports.append(rep)
    return max(reports, key=lambda r: r.max_residual)


COMPONENTWISE_CASES = {
    "pass": [((X + Y) ** 2, X**2 + 2 * X * Y + Y**2), (sp.sin(X) ** 2, 1 - sp.cos(X) ** 2),
             (X * XD, XD * X + sp.Float(1e-12))],
    "second fails": [(X, X), (X**2, X), (Y**2, Y)],
    "last fails": [(X, X), (Y, Y), (sp.exp(X), 1 + X)],
    "fail before singular": [(X**2, X), (sp.sqrt(X), sp.sqrt(X))],
    # a node that is singular at x < 0 must not mask the components before it
    "nodes": [(total_dt(X * Y, AB, [0, 0]), XD * Y + X * YD),
              (total_dt(X**2, AB, [0, 0]), XD),
              (total_dt(sp.sqrt(X), AB, [0, 0]), XD)],
}


@pytest.mark.parametrize("name", COMPONENTWISE_CASES)
def test_componentwise_oracle_matches_sequential_calls(name):
    pairs = COMPONENTWISE_CASES[name]
    want = _sequential_reference(pairs)
    got = equal_numeric(*zip(*pairs), AB, k=50)
    assert (got.passed, got.max_residual, got.worst_point) == (
        want.passed, want.max_residual, want.worst_point)
    assert got.passed == (name == "pass")


def test_componentwise_oracle_raises_at_first_singular_component():
    pairs = [(X, X), (sp.sqrt(X), sp.sqrt(X)), (X**2, X)]
    with pytest.raises(DomainViolation) as want:
        _sequential_reference(pairs)
    with pytest.raises(DomainViolation) as got:
        equal_numeric([a for a, _ in pairs], [b for _, b in pairs], AB, k=50)
    assert str(got.value) == str(want.value)
    assert got.value.point == want.value.point
    with pytest.raises(ValueError):
        equal_numeric([X, Y], [X], AB)
    with pytest.raises(ValueError):
        equal_numeric([], [], AB)


def test_tidy_is_cosmetic_only():
    e = X / (X * Y) + (Y**2 - 1) / (Y - 1)
    out = tidy(e)
    assert equal_numeric(
        out, e, AB,
        domain=SampleDomain(exclusions=(Exclusion(X, 0.1), Exclusion(Y - 1, 0.1),
                                        Exclusion(Y, 0.1))),
        k=20,
    ).passed
