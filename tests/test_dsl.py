import pytest
import sympy as sp

from noetherkit.dsl import ExprSyntaxError, parse, print_expr
from noetherkit.expressions import Alphabet, UndeclaredSymbolError, equal_numeric

AB = Alphabet(coords=("x", "y"), params=("m",))
X, Y = AB.coord_symbols
XD, YD = AB.velocity_symbols


def test_numbers_and_names():
    assert parse("3", AB) == sp.Integer(3)
    assert parse("2.5e-1", AB) == sp.Float("0.25")
    assert parse("xdot", AB) == XD
    assert parse("t", AB) == AB.t


def test_precedence_and_associativity():
    assert parse("1 + 2*3", AB) == sp.Integer(7)
    assert parse("2^3^2", AB) == sp.Integer(512)  # right-assoc
    assert parse("8 - 3 - 2", AB) == sp.Integer(3)  # left-assoc
    assert parse("-x^2", AB) == -(X**2)
    assert parse("(x + y)^2", AB) == (X + Y) ** 2
    assert sp.simplify(parse("x/y/2", AB) - X / Y / 2) == 0


def test_standard_functions():
    assert parse("sin(t)^2 + cos(t)^2", AB) == sp.sin(AB.t) ** 2 + sp.cos(AB.t) ** 2
    assert parse("sqrt(x^2)", AB) == sp.sqrt(X**2)
    with pytest.raises(ExprSyntaxError):
        parse("sin(x, y)", AB)


def test_prime_notation_is_a_syntax_error():
    for text in ("x'(x)", "G'(x)", "xdot'"):
        with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
            parse(text, AB)
        assert text[err.value.position] == "'"


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + * y", AB)
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse("x +", AB)
    assert err.value.position == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse("(x + y", AB)
    assert "expected ')'" in str(err.value)
    with pytest.raises(ExprSyntaxError):
        parse("x $ y", AB)


def test_a_trailing_token_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError, match="unexpected 'y'") as err:
        parse("x y", AB)
    assert err.value.position == 2


def test_unary_plus_is_the_operand():
    assert parse("+x", AB) == X
    assert parse("-+x", AB) == -X


@pytest.mark.parametrize("text, position", [
    ("1/0", 1), ("0/0", 1), ("x + y/(x - x)", 5), ("0^-1", 1), ("2*log(0)", 2),
    ("exp(x/0.0)", 5),
])
def test_non_finite_constants_are_syntax_errors(text, position):
    with pytest.raises(ExprSyntaxError, match="not a finite expression") as err:
        parse(text, AB)
    assert err.value.position == position


@pytest.mark.parametrize("text, position", [
    ("1e999", 0), pytest.param("x + 1" + "0" * 400, 4, id="x + 10...0 (401 digits)"), ("1e308*10", 5), ("-1e308 - 1e308", 7),
    ("10^400", 2), ("x*10^400", 4), ("x/1e-400", 1), ("10^200*(x + 10^200*y)", 6),
    ("exp(1000.0)", 0), ("exp(1000)", 0), ("exp(10^3)", 0), ("2*exp(800)", 2),
    ("3*exp(709)", 1), ("exp(400)*exp(400)", 8), ("x*exp(1000)", 2),
    ("exp(exp(exp(100)))", 4), ("x*exp(400)*exp(400)", 10), ("x + exp(709) + 1.7e308", 13),
])
def test_numbers_beyond_the_float_range_are_syntax_errors(text, position):
    # sympy keeps these finite; NumPy reads them as inf or cannot convert them.
    # An exact constant is refused where it is made, as its Float twin is
    with pytest.raises(ExprSyntaxError, match="beyond the float range") as err:
        parse(text, AB)
    assert err.value.position == position


def test_numbers_below_the_float_range_stay_legal():
    assert parse("x + 1e-400", AB) == X + sp.Float("1e-400")
    assert parse("10^-400*y", AB) == sp.Rational(1, 10**400) * Y
    assert parse("exp(709)", AB) == sp.exp(709)
    assert parse("exp(-1000)", AB) == sp.exp(-1000)
    assert parse("cos(10^300)", AB) == sp.cos(sp.Integer(10)**300)


@pytest.mark.parametrize("text, message, position", [
    # where two refusals meet, the first in the fold rule's order wins
    ("0^(-1/2)", "not a finite expression: zoo", 1),
    ("(-10^300)^(3/2)", "not a real expression", 9),
    # one of each at its operator
    ("x + 1/0", "not a finite expression: zoo", 5),
    ("x + (-8)^(1/3)", "not a real expression: 2*(-1)**(1/3)", 8),
    ("x + 1e200*1e200", "number beyond the float range: 1.00E+400", 9),
])
def test_the_fold_rule_refuses_in_its_order(text, message, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text, AB)
    assert str(err.value).startswith(message) and err.value.position == position


def test_undeclared_names_rejected():
    with pytest.raises(UndeclaredSymbolError):
        parse("x + z", AB)
    with pytest.raises(UndeclaredSymbolError):
        parse("H(x)", AB)


@pytest.mark.parametrize("coords, params", [
    (("q1", "q2"), ("m",)), (("x",), ()), (("q1", "q2"), ("qdot1", "qddot2")),
])
def test_every_name_the_parser_reads_prints_back(coords, params):
    # a name reads only as one of the alphabet's symbols prints it: q1dot,
    # never qdot1, which is undeclared, or else a parameter of its own; an
    # acceleration's name is refused at its position
    ab = Alphabet(coords=coords, params=params)
    candidates = {"t", "z", *params, *(f"{c}{d}" for c in coords for d in ("", "dot", "ddot")),
                  *(f"q{d}{i}" for i in (1, 2) for d in ("dot", "ddot"))}
    read, refused = set(), set()
    for name in sorted(candidates):
        try:
            e = parse(name, ab)
        except UndeclaredSymbolError:
            continue
        except ExprSyntaxError as err:
            assert err.position == 0 and str(err).startswith(f"acceleration {name!r}")
            refused.add(name)
            continue
        assert print_expr(e) == name
        read.add(name)
    assert read == {s.name for s in (*ab.variables(), *ab.param_symbols)}
    assert refused == {s.name for s in ab.acceleration_symbols}


@pytest.mark.parametrize("text, position", [
    ("x + xddot", 4),
    ("sin(1 + yddot)", 8),
    ("x^xddot", 2),
    ("(x + 1)^(2*yddot)", 11),
    ("sqrt(sin(xddot))^2", 9),
])
def test_an_acceleration_is_refused_at_its_position(text, position):
    # a written expression is a function of t, q and qdot: inside a call or a
    # power too
    with pytest.raises(ExprSyntaxError, match="acceleration '[xy]ddot'") as err:
        parse(text, AB)
    assert err.value.position == position


@pytest.mark.parametrize(
    "text",
    [
        "xdot*ydot - y/x^3",
        "m/sqrt(x^2 + y^2) + (xdot^2 + ydot^2)/2",
        "-x^2/2 + sin(t)*xdot",
        "(x - t*xdot)^3",
        "exp(1)*x",
        "exp(x + 1)",
    ],
)
def test_print_parse_round_trip(text):
    e = parse(text, AB)
    again = parse(print_expr(e), AB)
    assert sp.simplify(again - e) == 0


@pytest.mark.parametrize("text", ["1/3.0", "0.1", "1e-20", "123456789.123456789"])
def test_print_parse_round_trip_keeps_float_constants(text):
    # each constant prints as the text of its double, not at 15 digits
    e = parse(text, AB)
    again = parse(print_expr(e), AB)
    assert isinstance(again, sp.Float) and float(again) == float(e)
    scaled = parse(f"x^2*{text}", AB)
    assert float(parse(print_expr(scaled), AB).subs(X, 1)) == float(e)


@pytest.mark.parametrize("e", [
    sp.sign(XD), sp.sign(XD) ** 2, -X * sp.sign(XD), 1 / sp.sign(XD), sp.sin(sp.sign(X - Y)),
    sp.diff(parse("sqrt(xdot^2)", AB), XD),
], ids=["sign", "squared", "times", "reciprocal", "argument", "derivative_of_abs"])
def test_a_sign_prints_as_text_that_parses(e):
    # sign cannot be written, but sympy builds it as the derivative of Abs;
    # it prints as x/sqrt(x^2), equal to it wherever x != 0
    again = parse(print_expr(e), AB)
    assert equal_numeric(again, e, AB, param_values={"m": 1.0}, k=20).passed


def test_round_trip_on_corpus_expressions(kepler):
    sysdef = kepler.system
    for expr in list(kepler.integrals.values()) + [sysdef.L, *sysdef.lam]:
        again = parse(print_expr(expr), sysdef.alphabet)
        assert equal_numeric(
            again, expr, sysdef.alphabet,
            param_values=sysdef.param_values, domain=sysdef.domain(), k=20,
        ).passed


def test_a_number_beyond_decimal_range_is_a_syntax_error():
    # exp(1e308) folds to a Float whose exponent decimal cannot format
    with pytest.raises(ExprSyntaxError, match=r"beyond the float range: 1\.\d\dE\+4342944819"):
        parse("log(exp(1e308))", AB)
