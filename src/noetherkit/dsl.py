"""Infix expression grammar: parsing and printing.

Grammar: ``+ - * / ^`` with usual precedence (``^`` right-associative),
parentheses, function application ``f(arg, ...)``, numbers, and declared
names.  Velocity names carry the ``dot`` suffix (``xdot``), accelerations
``ddot``; for coordinates named ``q1..qn`` the prefix aliases ``qdot1`` /
``qddot1`` are accepted as well.  Derivatives of opaque unary functions are
written with primes: ``G'(x)``, ``G''(x)``.
"""

from __future__ import annotations

import math
import re

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.printing.str import StrPrinter

from .expressions import Alphabet, STANDARD_FUNCTIONS, UndeclaredSymbolError

__all__ = ["parse", "print_expr", "ExprSyntaxError"]


class ExprSyntaxError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*'*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)

_BINARY = {
    "+": (10, 11),
    "-": (10, 11),
    "*": (20, 21),
    "/": (20, 21),
    "^": (30, 29),  # right-associative
}
_UNARY_BP = 25  # -x^2 parses as -(x^2); -x*y as (-x)*y
_NON_FINITE = (sp.zoo, sp.oo, -sp.oo, sp.nan)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ExprSyntaxError(f"expected {value!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> sp.Expr:
        e = self.expression(0)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {val!r}", pos)
        return e

    def expression(self, min_bp: int) -> sp.Expr:
        left = self.prefix()
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in _BINARY:
                break
            lbp, rbp = _BINARY[val]
            if lbp < min_bp:
                break
            self.next()
            right = self.expression(rbp)
            if val == "+":
                left = left + right
            elif val == "-":
                left = left - right
            elif val == "*":
                left = left * right
            elif val == "/":
                left = self.finite(left / right, right, pos)
            else:
                left = self.finite(left ** right, left, pos)
            left = self.in_range(left, pos)
        return left

    def finite(self, e: sp.Expr, operand: sp.Expr, pos: int) -> sp.Expr:
        """``e``, unless a zero ``operand`` folded it to zoo, oo or nan, as
        in 1/0, 0/0, 0^-1 or log(0); these are the only sources."""
        if operand.is_Number and e.has(*_NON_FINITE):
            raise ExprSyntaxError(f"not a finite expression: {e}", pos)
        return e

    def in_range(self, e: sp.Expr, pos: int) -> sp.Expr:
        """``e``, unless a number in it overflows float64, as in 1e999,
        1e308*10 or 10^400: sympy keeps such a number finite, NumPy reads it
        as inf or cannot convert it.  Folding puts new numbers only in ``e``
        itself, its coefficient or the coefficients of its terms."""
        for term in e.args if e.is_Add else (e,):
            coeff = term.as_coeff_Mul()[0]
            if math.isinf(float(coeff)):
                raise ExprSyntaxError(f"number beyond the float range: {sp.N(coeff, 3)}", pos)
        return e

    def prefix(self) -> sp.Expr:
        kind, val, pos = self.next()
        if kind == "number":
            number = sp.Integer(int(val)) if re.fullmatch(r"\d+", val) else sp.Float(val)
            return self.in_range(number, pos)
        if kind == "ident":
            return self.name_or_call(val, pos)
        if val == "(":
            e = self.expression(0)
            self.expect(")")
            return e
        if val == "-":
            return -self.expression(_UNARY_BP)
        if val == "+":
            return self.expression(_UNARY_BP)
        raise ExprSyntaxError(f"unexpected {val or 'end of input'!r}", pos)

    def name_or_call(self, name: str, pos: int) -> sp.Expr:
        primes = len(name) - len(name.rstrip("'"))
        base = name.rstrip("'")
        is_call = self.peek()[1] == "("
        if primes and base not in self.alphabet.opaque:
            raise ExprSyntaxError(
                f"prime notation only applies to opaque functions, not {base!r}", pos
            )
        if is_call:
            self.next()
            args = [self.expression(0)]
            while self.peek()[1] == ",":
                self.next()
                args.append(self.expression(0))
            self.expect(")")
            if base in STANDARD_FUNCTIONS:
                if len(args) != 1:
                    raise ExprSyntaxError(f"{base} takes one argument", pos)
                value = STANDARD_FUNCTIONS[base](args[0])
                return self.in_range(self.finite(value, args[0], pos), pos)
            if base in self.alphabet.opaque:
                app = sp.Function(base)(*args)
                if primes:
                    if len(args) != 1 or not args[0].is_Symbol:
                        raise ExprSyntaxError(
                            "primed opaque function needs a single variable argument",
                            pos,
                        )
                    return sp.Derivative(app, (args[0], primes))
                return app
            raise UndeclaredSymbolError(f"undeclared function {base!r}")
        return self.alphabet.lookup(name)


def parse(text: str, alphabet: Alphabet) -> sp.Expr:
    """Parse DSL text into an expression over the declared alphabet.

    Raises ExprSyntaxError with a position for malformed input and
    UndeclaredSymbolError (naming the symbol) for foreign names.
    """
    e = _Parser(text, alphabet).parse()
    alphabet.check_declared(e)
    return e


class _DslPrinter(StrPrinter):
    def _print_Derivative(self, expr):
        inner = expr.expr
        if (
            isinstance(inner, AppliedUndef)
            and len(inner.args) == 1
            and len(expr.variable_count) == 1
        ):
            var, order = expr.variable_count[0]
            if var == inner.args[0]:
                name = inner.func.__name__
                primes = "'" * int(order)
                return f"{name}{primes}({self._print(var)})"
        return super()._print_Derivative(expr)


def print_expr(e) -> str:
    """Print an expression in the same grammar the parser accepts."""
    s = _DslPrinter().doprint(sp.sympify(e))
    return s.replace("**", "^")
