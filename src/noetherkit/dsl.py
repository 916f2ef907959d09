"""Infix expression grammar: parsing and printing.

Grammar: ``+ - * / ^`` with usual precedence (``^`` right-associative),
parentheses, the standard functions ``sqrt sin cos exp log`` of one
argument, numbers, and declared names, each read only as the package
prints it: velocities carry the suffix ``dot`` (``q1dot``).  A written
expression is a function of (t, q, qdot) and the parameters, so the name of
an acceleration (``q1ddot``) is a syntax error at its token.  Input nested
more than ``MAX_DEPTH`` levels deep is a syntax error at the token past the
limit; a parenthesis, a call's argument and the right operand of a sign or
an operator each nest one frame of the parser's recursion.

Constants fold as they are parsed; ``_Parser.folded`` states which folds
are syntax errors, and where.
"""

from __future__ import annotations

import math
import operator
import re

import sympy as sp
from sympy.printing.str import StrPrinter

from .expressions import IDENTIFIER, Alphabet, STANDARD_FUNCTIONS, UndeclaredSymbolError

__all__ = ["parse", "print_expr", "ExprSyntaxError"]

# the corpus's files, and the triples the solvers write for kepler3d, reach 13 at most
MAX_DEPTH = 64


class ExprSyntaxError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>{IDENTIFIER})
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)

_BINARY = {  # binding powers and the fold
    "+": (10, 11, operator.add),
    "-": (10, 11, operator.sub),
    "*": (20, 21, operator.mul),
    "/": (20, 21, operator.truediv),
    "^": (30, 29, operator.pow),  # right-associative
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
        self.alphabet = alphabet
        self.tokens = _tokenize(text)
        self.accelerations = {s.name for s in alphabet.acceleration_symbols}
        self.i = 0
        self.depth = 0

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
        if self.depth == MAX_DEPTH:  # before sympy builds anything that deep
            raise ExprSyntaxError(f"input too large or too deeply nested: more than "
                                  f"{MAX_DEPTH} levels", self.peek()[2])
        self.depth += 1
        left = self.prefix()
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in _BINARY:
                break
            lbp, rbp, fold = _BINARY[val]
            if lbp < min_bp:
                break
            self.next()
            right = self.expression(rbp)
            left = self.folded(fold(left, right), pos,
                               operand={"/": right, "^": left}.get(val), real=val == "^")
        self.depth -= 1
        return left

    def folded(self, e: sp.Expr, pos: int, operand: sp.Expr | None = None,
               real: bool = False) -> sp.Expr:
        """``e``, the fold of the operator, number or call at ``pos``, unless
        float64 cannot hold it.  Each test, in this order, is a syntax error
        at ``pos``:

        1. A zero Number ``operand`` (a divisor, a base or a call's argument)
           folded ``e`` to zoo, oo or nan, as in 1/0, 0/0, 0^-1 or log(0);
           these are the only sources.
        2. For a power or a call (``real``), the only sources, real operands
           folded ``e`` to a non-real value, as in sqrt(-1), log(-1),
           sqrt(-x^2) = I*Abs(x) or (-8)^(1/3) = 2*(-1)^(1/3).  Symbolic
           forms such as sqrt(-x^2 - 1) stay: they evaluate to NaN.
        3. A constant overflows float64, as in 1e999, 10^400 or exp(1000):
           sympy keeps it finite, NumPy reads it as inf or cannot convert it.
           Folding makes new constants only in each term's Number
           coefficient, named first, then in the sum of the constant terms
           and in each other term's product of constant factors.  Those
           inside passed where they were made, so no tower such as
           exp(exp(exp(100))) is evaluated whole.  A constant that sympy
           cannot prove real stays.
        """
        if operand is not None and operand.is_Number and e.has(*_NON_FINITE):
            raise ExprSyntaxError(f"not a finite expression: {e}", pos)
        if real and (e.has(sp.I) or (e.is_number and e.is_extended_real is False)):
            raise ExprSyntaxError(f"not a real expression: {e}", pos)
        terms = sp.Add.make_args(e)
        constants = [term.as_coeff_Mul()[0] for term in terms]
        constants.append(sp.Add(*[term for term in terms if term.is_number]))
        constants += [sp.Mul(*[f for f in sp.Mul.make_args(term) if f.is_number])
                      for term in terms if not term.is_number]
        for constant in constants:
            try:
                overflows = math.isinf(float(constant))
            except TypeError:
                continue
            if overflows:
                # a Float formats through decimal, which refuses an exponent as
                # large as exp(1e308)'s: print it, in decimal's notation
                raise ExprSyntaxError(
                    f"number beyond the float range: {str(sp.N(constant, 3)).upper()}", pos)
        return e

    def prefix(self) -> sp.Expr:
        kind, val, pos = self.next()
        if kind == "number":
            number = sp.Integer(int(val)) if re.fullmatch(r"\d+", val) else sp.Float(val)
            return self.folded(number, pos)
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
        if self.peek()[1] != "(":
            if name in self.accelerations:
                raise ExprSyntaxError(f"acceleration {name!r}: a written expression is a "
                                      f"function of t, q and qdot", pos)
            return self.alphabet.lookup(name)
        self.next()
        args = [self.expression(0)]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expression(0))
        self.expect(")")
        if name not in STANDARD_FUNCTIONS:
            raise UndeclaredSymbolError(f"undeclared function {name!r}")
        if len(args) != 1:
            raise ExprSyntaxError(f"{name} takes one argument", pos)
        return self.folded(STANDARD_FUNCTIONS[name](args[0]), pos, operand=args[0], real=True)


def parse(text: str, alphabet: Alphabet) -> sp.Expr:
    """Parse DSL text into an expression over the declared alphabet.

    Raises ExprSyntaxError with a position for malformed input or an
    acceleration's name, and UndeclaredSymbolError for a foreign name: the
    parser reaches names only through ``Alphabet.lookup`` and functions only
    through ``STANDARD_FUNCTIONS``, so the result holds nothing undeclared.
    """
    return _Parser(text, alphabet).parse()


class _Printer(StrPrinter):
    def _print_Abs(self, e):
        # sympy folds sqrt(x^2) into Abs(x) on real x, so the parser reads
        # this back as Abs(x)
        return f"sqrt(({self._print(e.args[0])})**2)"

    def _print_Exp1(self, e):
        return "exp(1)"

    def _print_sign(self, e):
        # the derivative of Abs(x); the parser reads this back as
        # x/Abs(x), which is sign(x) wherever x != 0
        arg = self._print(e.args[0])
        return f"(({arg})/sqrt(({arg})**2))"

    def _print_Float(self, e):
        # the shortest text that reads back as the same double
        return repr(float(e))


def print_expr(e) -> str:
    """Print an expression in the same grammar the parser accepts."""
    return _Printer().doprint(sp.sympify(e)).replace("**", "^")
