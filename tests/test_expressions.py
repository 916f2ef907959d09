import ast
import inspect
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, strategies as st

import noetherkit
from noetherkit import corpus, expressions
from noetherkit.dsl import ExprSyntaxError, parse
from noetherkit.expressions import (
    STANDARD_FUNCTIONS,
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
    with pytest.raises(ValueError, match="at least one coordinate"):
        Alphabet(coords=(), params=("m",))


@pytest.mark.parametrize("coords, params", [
    (("q",), ("2.5",)), (("q",), ("a b",)), (("q.x",), ()), (("2q",), ()), (("q",), ("",)),
    (("é",), ()), (("q",), ("a-b",)), (("q",), ("a\n",)),
])
def test_alphabet_rejects_names_the_dsl_cannot_read(coords, params):
    # no expression could refer to a name that is not one DSL identifier
    with pytest.raises(ValueError, match="is not an identifier"):
        Alphabet(coords=coords, params=params)


def test_alphabet_names_are_the_dsl_identifiers():
    ab = Alphabet(coords=("_a1",), params=("Z_",))
    assert parse("_a1dot*Z_", ab) == ab.velocity_symbols[0] * ab.param_symbols[0]


@pytest.mark.parametrize("coords, params", [
    (("q", "qdot"), ()), (("q",), ("qdot",)), (("q",), ("qddot",)), (("q1",), ("qdot1",)),
])
def test_alphabet_rejects_the_names_of_velocities_and_accelerations(coords, params):
    # qdot declared beside q would be the same Symbol as q's velocity
    with pytest.raises(ValueError, match="names a velocity or acceleration"):
        Alphabet(coords=coords, params=params)


def test_lookup_and_aliases():
    ab = Alphabet(coords=("q1", "q2"))
    assert ab.lookup("q1dot") == ab.velocity_symbols[0]
    assert ab.lookup("qdot2") == ab.velocity_symbols[1]
    assert ab.lookup("qddot1") == ab.acceleration_symbols[0]
    with pytest.raises(UndeclaredSymbolError):
        ab.lookup("z")


def test_compiling_an_undeclared_symbol_is_refused():
    with pytest.raises(UndeclaredSymbolError, match="undeclared symbol 'z'"):
        compile_fn([X + sp.Symbol("z", real=True)], AB)


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


PAB = Alphabet(coords=("x", "y"), params=("m",))
_POWERS = ("3", "-2", "(2/3)", "(-1/2)", "2.5")


def _dsl_text(max_leaves=4):
    leaves = st.sampled_from(["x", "y", "xdot", "ydot", "t", "m", "2", "3", "0.5"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda a: f"({a[0]} {a[1]} {a[2]})"),
            st.tuples(st.sampled_from(sorted(STANDARD_FUNCTIONS)), inner).map(
                lambda a: f"{a[0]}({a[1]})"),
            st.tuples(inner, st.sampled_from(_POWERS)).map(lambda a: f"({a[0]})^{a[1]}"),
        )
    return st.recursive(leaves, extend, max_leaves=max_leaves)


@st.composite
def _dsl_expressions(draw):
    """Drawn DSL expressions joined by sums and products, so that each one
    holds every standard function, integer, negative, rational and Float
    powers, a variable exponent, sqrt(e^2) (which sympy turns into Abs), and
    a generic and an on-flow total-derivative node."""
    def part(text):
        try:
            return parse(text, PAB)
        except ExprSyntaxError:  # a constant folded to a non-finite or non-real value
            assume(False)

    texts = [f"{f}({draw(_dsl_text())})" for f in sorted(STANDARD_FUNCTIONS)]
    texts += [f"({draw(_dsl_text())})^{p}" for p in _POWERS]
    texts += [f"({draw(_dsl_text())})^({draw(_dsl_text(2))} + x)", f"sqrt(({draw(_dsl_text())})^2)"]
    parts = [part(text) for text in draw(st.permutations(texts))]
    x, y = PAB.coord_symbols
    m, = PAB.param_symbols
    parts += [y * total_dt(part(draw(_dsl_text())), PAB),
              total_dt(part(draw(_dsl_text())), PAB, (-x, -m * y))]
    e = parts[0]
    for p, times in zip(parts[1:], draw(st.lists(st.booleans(), min_size=len(parts),
                                                 max_size=len(parts)))):
        e = e * p if times else e + p
    return e


@given(_dsl_expressions())
def test_diff_builds_the_tree_sympy_diff_builds(e):
    for var in PAB.variables() + PAB.param_symbols:
        got, want = diff(e, var, PAB), sp.diff(e, var)
        assert got == want and sp.srepr(got) == sp.srepr(want), (e, var)


@pytest.mark.parametrize("name", ["fp", "iso", "iso_steep", "kepler"])
def test_diff_builds_the_tree_sympy_diff_builds_on_the_corpus(name, request):
    entry = request.getfixturevalue(name)
    ab = entry.system.alphabet
    exprs = [entry.system.L, *entry.integrals.values()]
    for tr in entry.triples.values():
        exprs += [tr.tau, *tr.xi, tr.f]
    for e in map(sp.sympify, exprs):
        for var in ab.variables(include_acc=True) + ab.param_symbols:
            assert sp.srepr(diff(e, var, ab)) == sp.srepr(sp.diff(e, var)), (e, var)
    with pytest.raises(ValueError, match="cannot differentiate"):
        diff(exprs[0], ab.t ** 2, ab)


def test_diff_builds_no_derivative_objects(kepler, monkeypatch):
    # pins the structural route without a timing gate: sympy.diff builds a
    # Derivative at every node it differentiates
    calls = []
    real = sp.Derivative.__new__

    def spy(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(sp.Derivative, "__new__", staticmethod(spy))
    ab = kepler.system.alphabet
    N = sp.sympify(kepler.integrals["lrl_u"])
    want = sp.diff(N, ab.lookup("r1dot"))
    assert calls
    calls.clear()
    assert diff(N, "r1dot", ab) == want
    assert calls == []


def test_sympy_diff_is_called_only_where_the_grammar_ends():
    """One differentiation route: sympy differentiates only at the fallback
    of the structural kernel."""
    sites = set()
    for path in sorted(Path(noetherkit.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "sympy":
                    assert "diff" not in [a.name for a in node.names], path.name
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "diff"):
                    sites.add((path.name, getattr(top, "name", None)))
    assert sites == {("expressions.py", "_diff")}


def test_triples_are_emitted_as_derived():
    """``tidy`` is used only inside ``Triple.simplified``, and nothing in the
    package reaches ``.simplified``, so triples leave the package as derived."""
    sites = set()
    for path in sorted(Path(noetherkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}  # node -> innermost enclosing function (ast.walk is breadth-first)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                scope.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "tidy" or (
                    isinstance(node, ast.Attribute) and node.attr in ("tidy", "simplified")):
                sites.add((path.name, scope.get(node), getattr(node, "id", None) or node.attr))
    assert sites == {("noether.py", "simplified", "tidy")}


def test_every_module_level_import_is_used():
    for path in sorted(Path(noetherkit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


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
    xdd, ydd = AB.acceleration_symbols
    with pytest.raises(ValueError, match="must be free of xddot"):
        total_dt(xdd, AB)
    # the first acceleration of the alphabet is named, and a node outranks it
    with pytest.raises(ValueError, match="must be free of xddot"):
        total_dt(sp.sin(ydd) + X * xdd, AB)
    with pytest.raises(ValueError, match="total derivatives"):
        total_dt(ydd + total_dt(X * XD, AB), AB)
    with pytest.raises(ValueError):
        total_dt(X, AB, lam=(X,))  # wrong length


def test_total_dt_is_zero_only_without_variables():
    ab = Alphabet(coords=("q",), params=("mu",))
    (q,), (qd,), (mu,) = ab.coord_symbols, ab.velocity_symbols, ab.param_symbols
    for e in (sp.Integer(3), sp.Rational(-1, 2), sp.pi, mu, sp.sin(mu) ** 2 + sp.exp(mu)):
        assert total_dt(e, ab) == 0
        assert total_dt(e, ab, (q,)) == 0
    for e in (sp.sin(sp.exp(mu * q)), sp.log(1 + mu * ab.t ** 2), sp.sqrt(mu + qd ** 2)):
        node = total_dt(e, ab)
        assert isinstance(node, TotalDerivative) and node.args[0] == e


@pytest.mark.parametrize("name", ["freeparticle", "kepler3d", "isochrony"])
def test_total_dt_constant_test_agrees_with_free_symbols(name):
    entry = corpus.load(name)
    ab = entry.system.alphabet
    exprs = list(entry.integrals.values())
    for tr in entry.triples.values():
        exprs += [tr.tau, *tr.xi, tr.f]
    variables = set(ab.variables())
    for e in exprs:
        e = sp.sympify(e)
        assert (total_dt(e, ab) == 0) == (not e.free_symbols & variables), e


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


def test_total_dt_returns_the_same_node_for_the_same_inputs(kepler):
    # the compile memo then finds the node by identity
    sysdef, N = kepler.system, kepler.integrals["lrl_u"]
    ab = sysdef.alphabet
    assert total_dt(N, ab, sysdef.lam) is total_dt(N, ab, sysdef.lam)
    assert total_dt(N, ab) is total_dt(N, ab)


def test_diff_returns_the_same_tree_for_the_same_inputs(kepler):
    # the strong solver differentiates the same integral again and again
    N, ab = kepler.integrals["lrl_u"], kepler.system.alphabet
    for v in ab.variables():
        assert diff(N, v, ab) is diff(N, v, ab)


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


def test_a_value_is_nan_where_the_body_of_any_of_its_nodes_is_not():
    # each output is masked by every node it holds, and only by those
    ab = Alphabet(coords=("q", "p"))
    q, p = ab.coord_symbols
    a, b = total_dt(sp.sqrt(q), ab), total_dt(sp.log(p), ab)
    fn = compile_fn([a + b, b + 1, b], ab, include_acc=True)
    point = {"t": 0.0, "q": np.array([-1.0, 1.0]), "p": np.array([1.0, -1.0]),
             "qdot": 1.0, "pdot": 1.0, "qddot": 0.0, "pddot": 0.0}
    with np.errstate(all="ignore"):
        both, rate_b, only_b = fn(*(point[name] for name in fn.arg_names))
    assert np.isnan(both).all()
    assert np.isnan(only_b[1]) and only_b[0] == 1.0 == rate_b[0] - 1


def test_nested_total_dt_is_refused():
    inner = total_dt(X * XD, AB, (-X, -Y))
    for lam in (None, (-X, -Y)):
        with pytest.raises(ValueError, match="total derivatives"):
            total_dt(inner, AB, lam)
        with pytest.raises(ValueError, match="total derivatives"):
            total_dt(X + total_dt(X * XD, AB), AB, lam)


def test_several_nodes_cost_one_generated_function(monkeypatch):
    ab = Alphabet(coords=("u", "w"))
    u, w = ab.coord_symbols
    ud, wd = ab.velocity_symbols
    lam = (-u * w, sp.sin(u))
    compile_fn(list(lam), ab)  # the direction is compiled once per system
    calls = []
    real = expressions._generate
    monkeypatch.setattr(expressions, "_generate",
                        lambda *a: calls.append(1) or real(*a))
    e = ud * total_dt(u**2 * wd, ab, lam) + total_dt(sp.cos(w) * ud, ab, lam) ** 2
    fn = compile_fn([e, total_dt(u * w, ab, lam)], ab)
    assert len(calls) == 1
    assert compile_fn([e, total_dt(u * w, ab, lam)], ab) is fn
    assert len(calls) == 1


def _corpus_compile_inputs():
    """(alphabet, expression) for every normal form, integral and expanded
    Killing identity of the corpus."""
    for name in corpus.CORPUS_NAMES:
        entry = corpus.load(name)
        sysdef = entry.system
        exprs = [*sysdef.lam, *entry.integrals.values()]
        exprs += [killing_lhs(sysdef, tr, form).doit()
                  for tr in entry.triples.values() for form in FORMS]
        yield from ((sysdef, e) for e in exprs)


def test_compiled_code_matches_stock_lambdify():
    # the generated code gives the values of sympy's own printer and of
    # exact evaluation, at sample points of each system's domain
    ab = Alphabet(coords=("x", "y"), params=("m",))
    (x, y), (m,) = ab.coord_symbols, ab.param_symbols
    # Abs and sign are the complex-step functions
    abs_sign = SimpleNamespace(alphabet=ab, domain=lambda: SampleDomain(), param_values={"m": 0.5})
    inputs = {(sysdef.alphabet, e): sysdef for sysdef, e in _corpus_compile_inputs()}
    inputs[ab, sp.diff(sp.sqrt(x**2), x) * sp.Abs(y) * m] = abs_sign
    assert len(inputs) > 60
    for (alphabet, e), sysdef in inputs.items():
        pts = draw_points(alphabet, sysdef.domain(), sysdef.param_values, 4, seed=1,
                          include_acc=True)
        fn = compile_fn([e], alphabet, include_acc=True)
        got = expressions._eval_rows(fn, pts.columns, 4)[0]
        stock = sp.lambdify([alphabet.lookup(name) for name in fn.arg_names], e,
                            modules=[expressions._COMPLEX_STEP_FUNCS, "numpy", {"math": math}])
        want = np.broadcast_to(stock(*(pts.columns[name] for name in fn.arg_names)), (4,))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=str(e))
        # 30 digits from the sampled doubles, which they hold exactly
        # (evalf(subs=...) takes a minute on a kepler3d identity)
        exact = [float(e.xreplace({alphabet.lookup(k): sp.Float(v, 30)
                                   for k, v in point.items()}).evalf(30))
                 for point in pts]
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=1e-12, err_msg=str(e))


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
    assert inspect.getsource(fn).count("r1*r1 + r2*r2 + r3*r3") == 1


@pytest.mark.parametrize("make, text, square", [
    (lambda x, y, m: -m * x**2, "-m*(x*x)", lambda x, y, m: -m * np.square(x)),
    (lambda x, y, m: x**2 / y, "(x*x)/y", lambda x, y, m: np.square(x) / y),
    # a lone 1/x**2 is Pow(x, -2), a float power; as a factor it divides
    (lambda x, y, m: 1 / x**2, "x**(-2.0)", lambda x, y, m: x**-2.0),
    (lambda x, y, m: m / x**2, "m/(x*x)", lambda x, y, m: m / np.square(x)),
    # two denominators divide as one parenthesized product
    (lambda x, y, m: m / (x**2 * (1 + y**2)), "m/((x*x)*(1 + y*y))",
     lambda x, y, m: m / (np.square(x) * (1 + np.square(y)))),
    (lambda x, y, m: (x + y)**2, "(x + y)**2", lambda x, y, m: np.square(x + y)),
])
def test_the_square_of_a_name_prints_as_one_product_factor(make, text, square):
    ab = Alphabet(coords=("x", "y"), params=("m",))
    e = make(*ab.coord_symbols, *ab.param_symbols)
    lines, outs, _, _ = expressions._print_code([e], {"x": "x", "y": "y", "m": "m"})
    assert (lines, outs) == ([], [text])
    fn = compile_fn([e], ab)
    rng = np.random.default_rng(5)
    x, y, m = rng.uniform(0.2, 2.0, (3, 1000))
    # a complex step carries a derivative in the imaginary part
    for x, y in [(x, y), (x + 1e-30j * y, y - 1e-30j * x)]:
        got = fn(0.0, x, y, 0.0, 0.0, m)[0]
        assert np.array_equal(got, square(x, y, m))


def test_a_number_that_is_not_finite_prints_as_a_float_call():
    x = sp.Symbol("x")
    for e, text in [(sp.oo * x, "float('inf')*x"), (-sp.oo * x, "float('-inf')*x")]:
        assert expressions._print_code([e], {"x": "x"})[:2] == ([], [text])


@pytest.mark.parametrize("make, text", [
    # the negated first factor of a product reads its local
    (lambda x, y, k, m: -k * x * y, "nk*x*y"),
    (lambda x, y, k, m: -m * k * x, "nk*m*x"),
    (lambda x, y, k, m: -k, "nk"),
    (lambda x, y, k, m: -k / x, "nk/x"),
    (lambda x, y, k, m: y - k * x**2, "y + nk*(x*x)"),
    (lambda x, y, k, m: -(k + 1) * x, "x*(-1 + nk)"),
    # a positive product, a signed number or a factor that is not a lone
    # argument stays
    (lambda x, y, k, m: k * x - y, "-y + k*x"),
    (lambda x, y, k, m: -2 * k * x, "-2*k*x"),
    (lambda x, y, k, m: -x / k, "-x/k"),
    (lambda x, y, k, m: -k**2 * x, "-x*(k*k)"),
])
def test_a_negated_argument_reads_the_local_that_holds_its_negation(make, text):
    ab = Alphabet(coords=("x", "y"), params=("k", "m"))
    e = make(*ab.coord_symbols, *ab.param_symbols)
    args = {"x": "x", "y": "y", "k": "k", "m": "m"}
    assert expressions._print_code([e], args, {"k": "nk", "m": "nm"})[:2] == ([], [text])
    # the local gives what the inline source gives, bit for bit
    _, (inline,), _, _ = expressions._print_code([e], args)
    ns = {**expressions._GLOBALS, "x": 0.3, "y": -1.7, "k": 2.9, "m": 0.6, "nk": -2.9}
    assert eval(text, ns).hex() == eval(inline, ns).hex()


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
    got = expressions._eval_rows(compile_fn(exprs, ab, include_acc=True), pts.columns, 8)
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
        "from noetherkit import corpus\n"
        "from noetherkit.expressions import compile_fn\n"
        "from noetherkit.noether import FORMS, killing_lhs\n"
        "from noetherkit import expressions\n"
        "real, sources = expressions._generate, []\n"
        "def spy(*args):\n"
        "    out = real(*args)\n"
        "    sources.append(inspect.getsource(out[0]))\n"
        "    return out\n"
        "expressions._generate = spy\n"
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


def test_rk4_loop_is_the_same_under_every_hash_seed():
    # the generated RK4 loop prints each stage with the same printer
    script = (
        "import hashlib, inspect\n"
        "from noetherkit import corpus, dynamics\n"
        "sources = []\n"
        "for name, kw in [('kepler3d', {}), ('isochrony', {}),\n"
        "                 ('isochrony', {'G': '1/x^3', 'c': 0.0})]:\n"
        "    sysdef = corpus.load(name, **kw).system\n"
        "    dynamics.integrate(sysdef, (0.0, [1.0] * sysdef.n, [0.5] * sysdef.n), 0.01)\n"
        "    exprs = [*sysdef.lam, *(ex.expr for ex in sysdef.exclusions)]\n"
        "    sources.append(inspect.getsource(dynamics._rk4_loop(tuple(exprs), sysdef.alphabet)[0]))\n"
        "print(sources[0].count('**(-3/2)'), hashlib.sha256('\\n'.join(sources).encode()).hexdigest())\n"
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
    # kepler3d's four stages each compute |r|^-3 once, in each of the two
    # steps a pass of the loop takes; the digest pins the text of all three
    # loops, so a change to it is made on purpose
    assert outs.pop() == "8 6f37be53ba53aa9d18282540a1b00ab02a7516d0310f2680f200b4435e024a79\n"


def test_alphabet_builds_its_symbols_once_and_keys_the_memo_by_its_fields():
    a, b = Alphabet(coords=("u", "v"), params=("k",)), Alphabet(coords=("u", "v"), params=("k",))
    u, v = a.coord_symbols
    assert a.coord_symbols is a.coord_symbols
    assert a.lookup("udot") is a.velocity_symbols[0] and a.lookup("k") is a.param_symbols[0]
    # a now holds its symbols and b does not; fields alone decide
    assert a is not b and a == b and hash(a) == hash(b)
    f = compile_fn([u * v + a.param_symbols[0]], a)
    assert compile_fn([u * v + a.param_symbols[0]], b) is f


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


def test_evaluate_turns_an_overflow_into_a_domain_violation():
    # 10^400 is an exact integer to sympy, and too large for a float
    with pytest.raises(DomainViolation) as err:
        evaluate(10**400 * X, {"x": 1.0}, AB)
    assert isinstance(err.value.__cause__, OverflowError)
    assert err.value.point == {"x": 1.0}


def test_float_constants_compile_at_full_precision():
    ab = Alphabet(coords=("q",))
    assert evaluate(parse("(1/3.0)*q", ab), {"q": 1.0}, ab) == 1 / 3
    assert evaluate(sp.pi * X + sp.E, {"x": 1.0}, AB) == math.pi + math.e


def test_functions_outside_the_grammar_fail_at_compile_time():
    # the second derivative of |q| holds DiracDelta(q)
    ab = Alphabet(coords=("q",))
    q, = ab.coord_symbols
    e = sp.diff(sp.sqrt(q**2), q, 2)
    assert e.has(sp.DiracDelta)
    with pytest.raises(ValueError, match="DiracDelta"):
        compile_fn([e], ab)
    with pytest.raises(ValueError, match="DiracDelta"):
        evaluate(e, {"q": 1.0}, ab)


@pytest.mark.parametrize("name", ["sign", "abs", "lambda"])
def test_declared_names_never_hide_compiled_functions(name):
    # a coordinate may be named like a function the compiled code calls,
    # or like a Python keyword
    ab = Alphabet(coords=(name, "x"))
    a, x = ab.coord_symbols
    assert evaluate(a * sp.sign(x) + sp.Abs(x), {name: 2.0, "x": -3.0}, ab) == 1.0


def test_the_imaginary_unit_is_refused_at_compile_time():
    # compiled values are real: I is refused wherever it occurs, also where
    # the arithmetic would give a real result
    with pytest.raises(UndeclaredSymbolError, match="imaginary unit"):
        equal_numeric(sp.I * X, 0 * X, AB)
    with pytest.raises(UndeclaredSymbolError, match="imaginary unit"):
        equal_numeric(X + sp.I, X, AB)
    with pytest.raises(UndeclaredSymbolError, match="imaginary unit"):
        evaluate((1 + sp.I) * (1 - sp.I) * X, {"x": 3.0}, AB)
    with pytest.raises(UndeclaredSymbolError, match="imaginary unit"):
        equal_numeric(total_dt(sp.I * X, AB), 0, AB, include_acc=True)
    with pytest.raises(UndeclaredSymbolError, match="imaginary unit"):
        evaluate(sp.I * X, {"x": 1.0}, AB)
    with pytest.raises(UndeclaredSymbolError, match="imaginary unit"):
        draw_points(AB, SampleDomain(exclusions=(Exclusion(sp.I * X),)), {}, 1, seed=0)
    # so is complex infinity, which 1/sympify(0) gives
    with pytest.raises(UndeclaredSymbolError, match="complex infinity"):
        evaluate(sp.zoo * X, {"x": 1.0}, AB)
    with pytest.raises(UndeclaredSymbolError, match="complex infinity"):
        equal_numeric(sp.zoo * X, X, AB)
    # a non-real value from real arithmetic still reads NaN
    with pytest.raises(DomainViolation):
        equal_numeric((-1) ** sp.Rational(1, 3) * X, 0 * X, AB)


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


def _reference_draw(alphabet, domain, param_values, k, seed, include_acc=False):
    """One candidate at a time, one exclusion at a time: the sampler that
    draw_points must reproduce."""
    rng = np.random.default_rng(seed)
    ranges = {}
    for s in alphabet.variables(include_acc):
        if s.name in domain.var_ranges:
            ranges[s.name] = domain.var_ranges[s.name]
        elif s.name == "t":
            ranges[s.name] = expressions.T_RANGE
        else:
            ranges[s.name] = expressions.DEFAULT_RANGE
    excl = [(compile_fn([ex.expr], alphabet, include_acc), ex.threshold)
            for ex in domain.exclusions]
    points = []
    for _ in range(k):
        for _ in range(expressions.MAX_TRIES):
            point = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in ranges.items()}
            point.update({name: float(v) for name, v in param_values.items()})
            vals = [float(expressions._eval_rows(fn, point, 1)[0, 0]) for fn, _ in excl]
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


def _first_rejected(alphabet, seed, include_acc, k):
    """The index of the first candidate with |x| < 0.1 among the first k
    candidates drawn at seed, or k: a candidate is one uniform per
    variable, in order, and x is the second."""
    width = len(alphabet.variables(include_acc))
    lo, hi = expressions.DEFAULT_RANGE
    x = lo + (hi - lo) * np.random.default_rng(seed).random((k, width))[:, 1]
    return int(np.argmax(np.abs(x) < 0.1)) if (np.abs(x) < 0.1).any() else k


@pytest.mark.parametrize("include_acc", [False, True])
@pytest.mark.parametrize("case", ["none_rejected", "kth_first_rejected", "earlier_rejected"])
def test_draw_points_matches_the_reference_around_the_first_rejection(case, include_acc):
    # |x| >= 0.1 rejects one candidate in twenty, so the first k candidates
    # of the first block often all pass; the draw takes exactly k, wherever
    # the first rejection falls
    k = 8
    dom = SampleDomain(exclusions=(Exclusion(X, 0.1),))
    wanted = {"none_rejected": lambda i: i == k, "kth_first_rejected": lambda i: i == k - 1,
              "earlier_rejected": lambda i: i < k - 1}[case]
    seed = next(s for s in range(10_000) if wanted(_first_rejected(AB, s, include_acc, k)))
    expressions._last_draw[0] = None
    got = draw_points(AB, dom, {}, k, seed, include_acc)
    assert list(got) == _reference_draw(AB, dom, {}, k, seed, include_acc)


@pytest.mark.parametrize("exclusions", [(), (Exclusion(X, 1.0), Exclusion(X * Y - 1, 0.2))],
                         ids=["box", "exclusions"])
def test_draw_points_reuses_the_last_point_set(exclusions):
    ab = Alphabet(coords=("x", "y"), params=("a",))
    dom = SampleDomain(var_ranges={"y": (0.5, 3.0)}, exclusions=exclusions)

    def draw(k, seed=4, a=0.7, **kw):
        return draw_points(ab, dom, {"a": a}, k, seed, **kw)

    def fresh(k, seed=4):
        expressions._last_draw[0] = None
        return list(draw(k, seed))

    ref = _reference_draw(ab, dom, {"a": 0.7}, 60, 4)
    assert fresh(60) == ref
    big = draw(60)
    again = draw(60)
    small = draw(25)
    # served from the last draw, and each a fresh SamplePoints
    assert np.shares_memory(again.columns["x"], big.columns["x"])
    assert np.shares_memory(small.columns["x"], big.columns["x"])
    assert again is not big and again.columns is not big.columns
    assert list(again) == ref and list(small) == ref[:25] == fresh(25)
    # the arrays are read-only, and replacing a column touches one result only
    for pts in (big, again, small):
        for col in pts.columns.values():
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 0.0
    small.columns["x"] = np.zeros(25)
    assert list(draw(25)) == ref[:25]
    # a larger k, another seed or other parameter values draw again
    draw(10)
    base = draw(60)
    assert list(base) == ref
    assert list(draw(30, seed=5)) == fresh(30, seed=5)
    base = draw(60, a=0.0)
    got = draw(30, a=-0.0)
    assert not np.shares_memory(got.columns["x"], base.columns["x"])
    assert np.signbit(got.columns["a"]).all()
    # a seed of None is fresh entropy at every call
    assert list(draw(5, seed=None)) != list(draw(5, seed=None))


def test_draw_points_refuses_a_non_finite_span():
    # numpy's uniform(lo, hi) refuses these; the affine map keeps its error
    for lo, hi in [(-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(OverflowError, match="Range exceeds valid bounds"):
            draw_points(AB, SampleDomain(var_ranges={"x": (lo, hi)}), {}, 5, 0)


def test_draw_points_rejection_run_across_blocks(monkeypatch):
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
    expressions._last_draw[0] = None
    monkeypatch.setattr(expressions, "MAX_TRIES", longest)
    with pytest.raises(SamplingError):
        draw_points(AB, dom, {}, 2, seed)
    monkeypatch.setattr(expressions, "MAX_TRIES", longest + 1)
    assert list(draw_points(AB, dom, {}, 2, seed)) == ref


def test_draw_points_refuses_a_run_of_exactly_max_tries(monkeypatch):
    # one candidate in twenty is rejected, so a block's rejections are
    # often one run, which reaches MAX_TRIES exactly
    dom = SampleDomain(exclusions=(Exclusion(X, 0.1),))
    outcomes = set()
    for seed in range(20):
        for max_tries in (1, 2):
            monkeypatch.setattr(expressions, "MAX_TRIES", max_tries)
            expressions._last_draw[0] = None
            try:
                ref = _reference_draw(AB, dom, {}, 5, seed)
            except SamplingError:
                ref = None
            try:
                got = list(draw_points(AB, dom, {}, 5, seed))
            except SamplingError:
                got = None
            assert got == ref
            outcomes.add(ref is None)
    assert outcomes == {True, False}


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


def test_equal_numeric_needs_a_point():
    with pytest.raises(ValueError, match="k must be >= 1"):
        equal_numeric(X, X, AB, k=0)


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
