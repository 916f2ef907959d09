"""Symbolic expression layer over a declared alphabet of mechanical variables.

Expressions are sympy trees restricted to the symbols of an :class:`Alphabet`:
time ``t``, coordinates ``q_i``, velocities ``q_i dot``, accelerations
``q_i ddot`` and named parameters, combined with the standard functions
sqrt, sin, cos, exp and log.

Partial derivatives (:func:`diff`) walk the grammar's nodes by the chain
rule and build the tree ``sympy.diff`` builds, without its ``Derivative``
object at every node and its assumption queries on products with a zero
factor; only nodes outside sums, products, powers and the standard
functions go to ``sympy.diff``.  Derivatives are cached in sympy's cache,
so the same expression and variable give the same tree without a walk.

Identity between expressions is decided by a randomized numeric oracle
(:func:`equal_numeric`), never by symbolic zero-testing: a FAIL comes with a
concrete witness point and is conclusive, a PASS is probabilistic evidence.

Total time derivatives are lazy: :func:`total_dt` returns an unevaluated
:class:`TotalDerivative` node, ``.doit()`` expands it symbolically, and the
oracle evaluates it by complex step, D_t e = Im e(x + i*h*d)/h along the
direction d = (1, qdot, acc), which is exact to round-off (Squire & Trapp,
SIAM Rev. 40 (1998) 110-112).

The oracle compiles each distinct input once (:func:`compile_fn` keeps a
bounded memo) and evaluates all k sample points, and every component of a
componentwise check, in one numpy array call.  Compiling prints NumPy
source straight from the expression tree, whose grammar is closed: sums,
products, powers, numbers, the alphabet's symbols, sqrt, sin, cos, exp,
log, and the Abs and sign that their derivatives produce.  Any other
function is a ValueError when it is compiled.  One walk over the tree finds
the total-derivative nodes and the repeated subtrees, and the code computes
each repeated subtree once: the kepler3d RK4 stage computes
r1*r1 + r2*r2 + r3*r3 once for its three components and its exclusion.
Only exact repeats are shared; finding common parts of sums and products,
as ``sympy.cse`` does, costs more compile time than it saves.  Float
constants print at full precision.  Compiled values are real: the imaginary
unit and complex infinity are an UndeclaredSymbolError when compiled.
Rejection sampling draws candidates in blocks from the same random stream as
one-at-a-time draws, so a seed gives the same points either way, and the
first k points of a larger draw are the k-point draw.  :func:`draw_points`
returns a draw as its columns, a dict of one read-only array of k values
per name.  It keeps the last point set it drew and serves a call with the
same inputs and no larger k from it: a round trip's conservation,
inversion and identity checks at one seed draw once.

A compiled function takes its arguments by position, in the order of its
``arg_names``; :func:`_eval_rows` builds that argument list from a point
mapping and holds ``np.errstate`` around the call.  With total-derivative
nodes the function calls its direction's compiled function, runs the
complex step, and masks only the outputs that hold a node.
"""

from __future__ import annotations

import functools
import itertools
import keyword
import linecache
import math
import numbers
import re
import weakref
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef

__all__ = [
    "Alphabet",
    "Exclusion",
    "SampleDomain",
    "IdentityReport",
    "UndeclaredSymbolError",
    "DomainViolation",
    "SamplingError",
    "TotalDerivative",
    "STANDARD_FUNCTIONS",
    "diff",
    "total_dt",
    "evaluate",
    "compile_fn",
    "draw_points",
    "equal_numeric",
    "tidy",
]

STANDARD_FUNCTIONS = {
    "sqrt": sp.sqrt,
    "sin": sp.sin,
    "cos": sp.cos,
    "exp": sp.exp,
    "log": sp.log,
}

_RESERVED = {"t"} | set(STANDARD_FUNCTIONS)
# a name the DSL tokenizer reads as one identifier; every declared name is one
IDENTIFIER = r"[A-Za-z_][A-Za-z_0-9]*"
_IDENTIFIER_RE = re.compile(IDENTIFIER)

# distinct compile_fn inputs kept; a verification touches a few dozen
COMPILE_MEMO_SIZE = 256
# largest block of candidates draw_points tests in one array call
MAX_BLOCK = 1 << 16
# consecutive rejections at which draw_points gives up
MAX_TRIES = 1000
# sampling box of a variable that SampleDomain.var_ranges does not name
T_RANGE = (0.0, 2.0)
DEFAULT_RANGE = (-2.0, 2.0)  # coordinates, velocities and accelerations
# complex-step size: far below the scale of any sampled quantity, so the
# O(h^2) truncation error vanishes in float64
COMPLEX_STEP = 1e-30

# sympy turns sqrt(x^2) into Abs(x) on real symbols and differentiates it to
# sign(x); the complex abs and sign would lose the imaginary part that
# carries the derivative.
_COMPLEX_STEP_FUNCS = {
    "abs": lambda z: np.where(np.real(z) < 0, -z, z),
    "sign": lambda z: np.sign(np.real(z)),
}
# the functions the compiled grammar holds, by the name compiled code calls
_FUNCTION_NAMES = {sp.sin: "sin", sp.cos: "cos", sp.exp: "exp", sp.log: "log",
                   sp.Abs: "abs", sp.sign: "sign"}
# every name compiled code calls: float prints a non-finite number
_GLOBALS = {"sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
            "float": float, **_COMPLEX_STEP_FUNCS}
# precedence of printed code, ranked as sympy's printers rank it
_ADD, _MUL, _POW, _ATOM = 40, 50, 60, 1000
_sources = itertools.count()


class UndeclaredSymbolError(ValueError):
    """An expression uses a symbol outside the declared alphabet."""


class DomainViolation(ValueError):
    """Numeric evaluation hit a singularity (division by zero, sqrt/log of
    a negative number)."""

    def __init__(self, expr, point):
        self.expr = expr
        self.point = {name: float(v) for name, v in point.items()}
        super().__init__(f"domain violation evaluating {expr} at {self.point}")


class SamplingError(RuntimeError):
    """The sample domain is empty after exclusions (rejection budget spent)."""


def _sym(name: str) -> sp.Symbol:
    return sp.Symbol(name, real=True)


@dataclass(frozen=True)
class Alphabet:
    """Declares the variables a system's expressions may mention: at least
    one coordinate, and parameters.

    Every name is one identifier of the DSL, ``[A-Za-z_][A-Za-z_0-9]*``,
    so that an expression can refer to it.  Coordinates ``c`` induce
    velocity symbols ``cdot`` and acceleration symbols ``cddot``, so no
    declared name is one of these, and no coordinate is another's name
    followed by ``d``.
    :meth:`lookup` reads a name only as one of these symbols prints it.
    """

    coords: tuple[str, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("coords", "params"):
            if not isinstance(getattr(self, name), tuple):
                raise ValueError(f"{name} must be a tuple of names, not {getattr(self, name)!r}")
        if not self.coords:
            raise ValueError("a system needs at least one coordinate")
        names = list(self.coords) + list(self.params)
        # the names lookup gives to velocities and accelerations
        derived = {c + d for c in self.coords for d in ("dot", "ddot")}
        seen = set()
        for name in names:
            if not _IDENTIFIER_RE.fullmatch(name):
                raise ValueError(f"symbol name {name!r} is not an identifier")
            if name in _RESERVED:
                raise ValueError(f"symbol name {name!r} is reserved")
            if name in seen:
                raise ValueError(f"symbol name {name!r} declared twice")
            if name in derived:
                raise ValueError(f"symbol name {name!r} names a velocity or acceleration")
            seen.add(name)
        coords = set(self.coords)
        for c in self.coords:
            if c + "d" in coords:
                raise ValueError(f"coordinates {c!r} and {c + 'd'!r} give the name "
                                 f"{c}ddot to an acceleration and a velocity")

    @property
    def n(self) -> int:
        return len(self.coords)

    @functools.cached_property
    def t(self) -> sp.Symbol:
        return _sym("t")

    @functools.cached_property
    def coord_symbols(self) -> tuple[sp.Symbol, ...]:
        return tuple(_sym(c) for c in self.coords)

    @functools.cached_property
    def velocity_symbols(self) -> tuple[sp.Symbol, ...]:
        return tuple(_sym(c + "dot") for c in self.coords)

    @functools.cached_property
    def acceleration_symbols(self) -> tuple[sp.Symbol, ...]:
        return tuple(_sym(c + "ddot") for c in self.coords)

    @functools.cached_property
    def _acceleration_set(self) -> frozenset:
        return frozenset(self.acceleration_symbols)

    @functools.cached_property
    def param_symbols(self) -> tuple[sp.Symbol, ...]:
        return tuple(_sym(p) for p in self.params)

    def variables(self, include_acc: bool = False) -> tuple[sp.Symbol, ...]:
        out = (self.t,) + self.coord_symbols + self.velocity_symbols
        if include_acc:
            out += self.acceleration_symbols
        return out

    @functools.cached_property
    def _name_table(self) -> dict[str, sp.Symbol]:
        return {s.name: s for s in (*self.variables(include_acc=True), *self.param_symbols)}

    def lookup(self, name: str) -> sp.Symbol:
        if name not in self._name_table:
            raise UndeclaredSymbolError(f"undeclared symbol {name!r}")
        return self._name_table[name]

    def check_declared(self, e: sp.Expr) -> None:
        """Raise UndeclaredSymbolError if ``e`` mentions anything foreign."""
        known = set(self.variables(include_acc=True)) | set(self.param_symbols)
        for s in e.free_symbols:
            if s not in known:
                raise UndeclaredSymbolError(f"undeclared symbol {s!r} in {e}")
        for app in e.atoms(AppliedUndef):
            raise UndeclaredSymbolError(f"undeclared function {app.func.__name__!r} in {e}")


def diff(e, var, alphabet: Alphabet) -> sp.Expr:
    """Exact partial derivative with respect to a declared variable: the
    tree ``sympy.diff`` gives, built by :func:`_diff`."""
    if isinstance(var, str):
        var = alphabet.lookup(var)
    if not isinstance(var, sp.Symbol):
        raise ValueError(f"cannot differentiate with respect to {var}")
    return _diff(sp.sympify(e), var)


@sp.cacheit
def _diff(e: sp.Expr, var: sp.Symbol) -> sp.Expr:
    """d e / d var by the chain rule over the grammar's nodes, memoized on
    the subtrees of e.  Cached in sympy's cache, as :func:`total_dt` is: the
    strong solver differentiates the same integral again and again.

    Each rule builds the tree that sympy's rule for the node builds, so the
    result is the one ``sympy.diff`` gives.  But no ``Derivative`` is made
    at each node, a product of m factors differentiates each factor once
    rather than m times, and no term with a zero factor is formed, such as
    ``0*log(base)`` at a constant power: it folds to 0 only after sympy has
    asked whether the other factor is finite.  Abs, sign and TotalDerivative
    nodes go to ``sympy.diff``.
    """
    memo = {}

    def d(e):
        got = memo.get(e)
        if got is not None:
            return got
        if e.is_Atom:
            got = sp.S.One if e == var else sp.S.Zero
        elif e.is_Add:
            got = sp.Add(*map(d, e.args))
        elif e.is_Mul:
            factors = e.args
            got = sp.Add(*[sp.Mul(*factors[:i], da, *factors[i + 1:])
                           for i, da in enumerate(map(d, factors)) if da])
        elif e.is_Pow:
            base, ex = e.args
            dbase, dex = d(base), d(ex)
            terms = ([dex * sp.log(base)] if dex else []) + ([dbase * ex / base] if dbase else [])
            got = e * sp.Add(*terms) if terms else sp.S.Zero
        elif (isinstance(e, sp.Function) and len(e.args) == 1
              and type(e)._eval_derivative is sp.Function._eval_derivative):
            da = d(e.args[0])
            got = e.fdiff(1) * da if da else sp.S.Zero
        else:
            got = sp.diff(e, var)
        memo[e] = got
        return got

    return d(e)


class TotalDerivative(sp.Expr):
    """Unevaluated total time derivative of ``expr`` along the direction
    (1, qdot, acc):  D_t e = d_t e + d_q e . qdot + d_qdot e . acc.

    ``acc`` holds the acceleration symbols (generic) or a normal form
    (on-flow).  :func:`compile_fn` evaluates the node by complex step;
    ``doit()`` returns the symbolic expansion.
    """

    is_commutative = True

    def __new__(cls, expr, t, coords, velocities, acc):
        return super().__new__(
            cls, sp.sympify(expr), t,
            sp.Tuple(*coords), sp.Tuple(*velocities), sp.Tuple(*acc),
        )

    @property
    def expr(self) -> sp.Expr:
        return self.args[0]

    @property
    def acc(self) -> sp.Tuple:
        return self.args[4]

    def doit(self, **hints):
        e, t, qs, vs, accs = self.args
        out = _diff(e, t)
        for q, qd, qdd in zip(qs, vs, accs):
            out = out + _diff(e, q) * qd + _diff(e, qd) * qdd
        return out

    def _eval_derivative(self, s):
        return _diff(self.doit(), s)

    def _eval_subs(self, old, new):
        # substituting for t, q or qdot does not commute with D_t
        variables = set().union(*(a.free_symbols for a in self.args[1:4]))
        if isinstance(old, sp.Basic) and old.free_symbols & variables:
            return self.doit()._subs(old, new)
        return None

    def _sympystr(self, printer):
        return f"Dt({printer._print(self.expr)})"


@sp.cacheit
def total_dt(e, alphabet: Alphabet, lam: Sequence[sp.Expr] | None = None) -> sp.Expr:
    """Total time derivative of an expression in (t, q, qdot).

    Generic mode (``lam is None``) differentiates along free acceleration
    symbols; on-flow mode along the supplied acceleration field ``lam``, so
    the result is free of accelerations.  Returns a lazy
    :class:`TotalDerivative` (``.doit()`` expands it), or 0 when ``e`` is
    free of t, q and qdot, which agrees with ``free_symbols`` since the
    grammar binds no symbols.  One walk over ``e`` finds the nodes and
    symbols that refuse it and the variables.  Cached in sympy's cache, so
    the same inputs return the same node, which the compile memo then
    finds by identity.
    """
    e = sp.sympify(e)
    accs = alphabet.acceleration_symbols
    found = _occurring(e, frozenset((TotalDerivative, *accs, *alphabet.variables())))
    if TotalDerivative in found:
        raise ValueError(
            "total_dt input must be free of total derivatives; expand them "
            "with .doit() first"
        )
    for a in accs:
        if a in found:
            raise ValueError(f"total_dt input must be free of {a}")
    if lam is not None and len(lam) != alphabet.n:
        raise ValueError(
            f"acceleration field has length {len(lam)}, expected {alphabet.n}"
        )
    if not found:
        return sp.Integer(0)
    return TotalDerivative(
        e, alphabet.t, alphabet.coord_symbols, alphabet.velocity_symbols,
        accs if lam is None else lam,
    )


@sp.cacheit
def _occurring(e: sp.Basic, wanted: frozenset) -> frozenset:
    """The members of ``wanted``, atoms or node types, that occur in e, in
    one walk; ``e.has`` walks e once for its patterns and once more for each
    pattern's matcher.  Cached in sympy's cache, as ``e.has`` is, since a
    verification meets the same triple components again and again."""
    found, stack = set(), [e]
    while stack:
        node = stack.pop()
        if node.args:
            if type(node) in wanted:
                found.add(type(node))
            stack.extend(node.args)
        elif node in wanted:
            found.add(node)
    return frozenset(found)


def compile_fn(exprs: Sequence, alphabet: Alphabet, include_acc: bool = False):
    """Compile expressions into a numeric function that takes its arguments
    by position, in the order of its ``arg_names``, and returns their values.

    The arguments may be floats or equal-length numpy arrays, one entry per
    point.  Structurally equal inputs return the same function object from
    a memo of the last ``COMPILE_MEMO_SIZE`` distinct inputs.
    """
    return _compile(tuple(sp.sympify(e) for e in exprs), alphabet, bool(include_acc))


@functools.lru_cache(maxsize=COMPILE_MEMO_SIZE)
def _compile(exprs, alphabet, include_acc):
    """One generated function of (variables, one slot per total-derivative
    node) returning the expressions, with the nodes read from their slots,
    then the node bodies.  Without nodes it is called once at the point.
    With nodes, which all differentiate along one acceleration field (free
    accelerations or a normal form; two are a ValueError), it is called once
    at the complex-shifted point of that direction, which gives the node
    values, then once at the real point with the slots bound to them.  An
    expression is NaN where the body of one of its nodes is not finite at
    the real point, so branch cuts of sqrt and log cannot hide a domain
    violation behind a finite complex-step value.

    :func:`_generate` prints the function's source; it computes each
    repeated subtree once."""
    syms = alphabet.variables(include_acc) + alphabet.param_symbols
    raw, nodes, owners = _generate(syms, exprs)
    raw.arg_names = [s.name for s in syms]
    if not nodes:
        return raw
    if any(node.acc != nodes[0].acc for node in nodes):
        raise ValueError("total derivatives along two acceleration fields in one function")
    # each system compiles its normal form once, through the memo
    direction = _compile(tuple(nodes[0].acc), alphabet, include_acc)
    n, m = alphabet.n, len(exprs)
    h = COMPLEX_STEP
    no_slots = [0.0] * len(nodes)
    owned = [(j, own) for j, own in enumerate(owners) if own]

    def core(*args):
        real = [np.asarray(v, dtype=float) for v in args]
        t, qs, vs = real[0], real[1:1 + n], real[1 + n:1 + 2 * n]
        shifted = (
            [t + 1j * h]
            + [q + 1j * h * v for q, v in zip(qs, vs)]
            + [v + 1j * h * a for v, a in zip(vs, direction(*args))]
            + real[1 + 2 * n:]
        )
        rates = [np.imag(body) / h for body in raw(*shifted, *no_slots)[m:]]
        vals = raw(*real, *rates)
        finite = [np.isfinite(_real(body)) for body in vals[m:]]
        out = vals[:m]
        for j, own in owned:
            out[j] = np.where(np.all([finite[i] for i in own], axis=0), out[j], np.nan)
        return out

    core.arg_names = raw.arg_names
    return core


def _generate(syms, exprs):
    """Print and run the NumPy source of a function of (syms, one slot per
    total-derivative node) returning the expressions, then the node bodies.

    Returns the function, the nodes in slot order and the slots each
    expression holds (see :func:`_print_code`).
    """
    # a keyword, or a name that would hide a global, becomes v·i; like
    # cse·k and Dt·i, that is outside the DSL's ASCII names
    args = {s.name: s.name if not keyword.iskeyword(s.name) and s.name not in _GLOBALS
            else f"v·{i}" for i, s in enumerate(syms)}
    lines, outs, nodes, owners = _print_code(exprs, args)
    params = ", ".join([*args.values(), *(f"Dt·{i}" for i in range(len(nodes)))])
    body = "".join(f"    {line}\n" for line in lines)
    source = f"def _compiled({params}):\n{body}    return [{', '.join(outs)}]\n"
    return _define(source, "_compiled", dict(_GLOBALS)), nodes, owners


def _print_code(exprs, args, negated=None):
    """The statements and the output sources that compute the expressions,
    then the bodies of their total-derivative nodes, over the argument names
    ``args`` gives each symbol name; the statements assign ``cse·k`` locals.

    A post-order walk gives each TotalDerivative node a slot ``Dt·i``, in
    first-encounter order, without descending into it, and counts the uses
    of every other subtree that is not an atom; a repeat is not descended
    into, so what lies inside it counts once, as in sympy's ``tree_cse``.
    The distinct subtrees then print in walk order, each one used twice
    into a ``cse·k`` local.  Sums and products keep sympy's argument order,
    which does not depend on the hash seed, with the signs, the numerator
    and denominator split and the powers of sympy's NumPy printer.  The
    split matters: 12*(c + x**2)/x**5 keeps the G-ode residual of x**-3
    within 1e-9, 12*x**(-5)*(c + x**2) does not.

    The one exception to those powers: the square of a name prints as a
    product, ``x*x`` (see :func:`_show_pow`).  On numpy arrays, real or
    complex, ``x**2`` is ``np.square``, which gives ``x*x`` bit for bit, so
    the oracle's values stay put.  On Python floats and numpy scalars
    ``x**2`` calls libm ``pow``, which is slower and not always correctly
    rounded, so the RK4 loop, which runs these statements on Python floats,
    is cheaper, and its trajectories, like the single-point values of
    :func:`evaluate`, may change at round-off.

    ``negated`` maps argument names to the names of locals that hold their
    negations, such as the RK4 loop's parameters, which it negates once per
    run.  A product whose sign is minus and whose first factor is such an
    argument reads the local: ``np*x`` for ``-p*x``.  Python evaluates
    ``-p*x`` as ``(-p)*x``, so the value is the same bit for bit.

    Returns the statements, the output sources, the nodes in slot order and
    the slots each expression holds.  A function outside the grammar, the
    imaginary unit or complex infinity is an UndeclaredSymbolError naming it.
    """
    nodes, uses, slots_in, order = {}, {}, {}, []

    def walk(e):
        if e.is_Atom:
            return ()
        if e in uses:
            uses[e] += 1
            return slots_in[e]
        if isinstance(e, TotalDerivative):
            return (nodes.setdefault(e, len(nodes)),)
        if not (e.is_Add or e.is_Mul or e.is_Pow or e.func in _FUNCTION_NAMES):
            raise UndeclaredSymbolError(f"cannot compile the function {e.func.__name__!r} in {e}")
        uses[e] = 1
        held = ()
        for a in e.args:
            held += walk(a)
        slots_in[e] = held
        order.append(e)
        return held

    owners = [sorted(set(walk(e))) for e in exprs]
    bodies = [node.expr for node in nodes]
    for body in bodies:
        walk(body)

    shown = {node: (f"Dt·{i}", _ATOM) for node, i in nodes.items()}

    def show(e):
        got = shown.get(e)
        if got is None:
            got = shown[e] = _show_atom(e, args)
        return got

    lines = []
    for e in order:
        if e.is_Add:
            got = _show_add(e, show)
        elif e.is_Mul:
            got = _show_mul(e, show, uses, negated)
        elif e.is_Pow:
            got = _show_pow(show(e.base), e.exp, show)
        else:
            got = f"{_FUNCTION_NAMES[e.func]}({', '.join(show(a)[0] for a in e.args)})", _ATOM
        if uses[e] > 1:
            name = f"cse·{len(lines)}"
            lines.append(f"{name} = {got[0]}")
            got = name, _ATOM
        shown[e] = got
    outs = [show(e)[0] for e in (*exprs, *bodies)]
    return lines, outs, list(nodes), owners


def _define(source: str, name: str, namespace: dict):
    """Run generated source in ``namespace`` and return the function it
    defines as ``name``, whose source ``inspect.getsource`` reads while the
    function lives."""
    filename = f"<noetherkit-compiled-{next(_sources)}>"
    exec(compile(source, filename, "exec"), namespace)
    fn = namespace[name]
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    weakref.finalize(fn, linecache.cache.pop, filename, None)
    return fn


def _paren(shown, level) -> str:
    text, precedence = shown
    return f"({text})" if precedence <= level else text


def _show_float(value: float) -> str:
    """Source of a float: a finite one's repr, which reads back exactly, or
    ``float('inf')``, ``float('-inf')`` or ``float('nan')``."""
    return repr(value) if math.isfinite(value) else f"float('{value}')"


def _show_atom(e, args):
    """Source and precedence of a symbol or a number: an integer or a
    rational prints exactly, unless it is beyond float64 and prints as an
    infinity, and a float as :func:`_show_float` prints it."""
    if e.is_Symbol:
        if e.name not in args:
            raise UndeclaredSymbolError(f"cannot compile the undeclared symbol {e.name!r}")
        return args[e.name], _ATOM
    if e is sp.I or e is sp.zoo:
        name = "the imaginary unit" if e is sp.I else "complex infinity"
        raise UndeclaredSymbolError(f"cannot compile {name}: compiled values are real")
    value = float(e)
    if not math.isfinite(value):
        return _show_float(value), _ATOM
    if e.is_Integer:
        return str(e.p), _ADD if e.p < 0 else _ATOM
    if e.is_Rational:
        return f"{e.p}/{e.q}", _ADD if e.p < 0 else _MUL
    return repr(value), _ADD if value < 0 else _ATOM


def _show_add(e, show):
    parts = []
    for a in e.args:
        text = show(a)[0]
        parts += [" - ", text[1:]] if text[0] == "-" else [" + ", text]
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts), _ADD


def _show_mul(e, show, uses, negated):
    args, sign = e.args, ""
    if args[0].is_Number and args[0].is_negative:
        coeff, sign = -args[0], "-"
        args = args[1:] if coeff is sp.S.One else (coeff, *args[1:])
    num, den = [], []
    for a in args:
        # a shared power is a local, which multiplies
        if a.is_Pow and a.exp.is_Rational and a.exp.is_negative and uses[a] == 1:
            den.append(_paren(_show_pow(show(a.base), -a.exp, show), _MUL))
        else:
            num.append(show(a))
    if sign and negated and num and num[0][0] in negated:
        # -p*x is (-p)*x in Python
        num[0], sign = (negated[num[0][0]], _ATOM), ""
    if len(num) == 1 and sign:
        text = _paren(num[0], (_POW + _MUL) // 2)
    else:
        text = "*".join(_paren(a, _MUL) for a in num) or "1"
    if len(den) == 1:
        text += f"/{den[0]}"
    elif den:
        text += f"/({'*'.join(den)})"
    return sign + text, _ADD if sign else _MUL


def _show_pow(base, exp, show):
    """Source and precedence of ``base**exp``, ``base`` already shown.

    The square of a name (a symbol, a ``cse·k`` local or a ``Dt·i`` slot)
    prints as the product ``b*b`` at product precedence, so it is
    parenthesized as one factor wherever a power would be; any other base
    keeps ``**2``.
    """
    if exp.is_Integer and exp.p == 2 and base[0].isidentifier():
        return f"{base[0]}*{base[0]}", _MUL
    if exp is sp.S.Half:
        return f"sqrt({base[0]})", _ATOM
    if exp is sp.S.One:
        return base
    if exp.is_Rational and exp.q == 2 and exp.p == -1:
        return f"1/sqrt({base[0]})", _MUL
    if exp is sp.S.NegativeOne:
        return f"1/{_paren(base, _POW)}", _MUL
    if exp.is_Integer and exp.is_negative:
        # a float exponent: NumPy refuses negative integer powers of integers
        power = f"({_show_float(float(exp))})"
    else:
        power = _paren(show(exp), _POW)
    return f"{_paren(base, _POW)}**{power}", _POW


def _real(values) -> np.ndarray:
    """Compiled values as a float array, where a value with a non-zero
    imaginary part reads NaN (the oracle works over the reals)."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        values = np.where(values.imag == 0, values.real, np.nan)
    return values.astype(float, copy=False)


def _eval_rows(fn, columns: Mapping[str, np.ndarray], m: int) -> np.ndarray:
    """A compiled function's values at m points, one row per expression,
    read through :func:`_real`.  ``columns`` maps each of ``fn.arg_names``
    to its numpy column or scalar; numpy inputs make singular points read
    inf or NaN where Python floats would raise, and numpy's warnings are
    off for the call.

    The values fill one array, complex if any of them is; a constant
    expression's value fills its whole row."""
    args = [columns[name] for name in fn.arg_names]
    with np.errstate(all="ignore"):
        vals = fn(*args)
    dtype = complex if any(np.iscomplexobj(v) for v in vals) else float
    rows = np.empty((len(vals), m), dtype)
    for row, v in zip(rows, vals):
        row[...] = v
    return _real(rows)


def evaluate(e, point: Mapping[str, float], alphabet: Alphabet) -> float:
    """IEEE double evaluation at a sample point.

    The point must bind every variable and parameter the value depends on
    (ValueError names the missing ones); the others may be left out.  A
    value that is not finite, or a constant beyond float64, raises
    DomainViolation.
    """
    e = sp.sympify(e)
    fn = compile_fn([e], alphabet, include_acc=True)
    expanded = e.xreplace({node: node.doit() for node in e.atoms(TotalDerivative)})
    needed = {s.name for s in expanded.free_symbols}
    missing = sorted(needed - set(point))
    if missing:
        raise ValueError(f"evaluating {e} needs values for {missing}")
    # numpy floats give inf or NaN where Python floats raise or go complex
    full = {name: np.float64(point.get(name, 0.0)) for name in fn.arg_names}
    try:
        # a constant beyond float64 compiles as an infinity, and is refused
        # with the OverflowError of its own conversion
        for c in e.atoms(sp.Rational):
            c.p / c.q
        val = float(_eval_rows(fn, full, 1)[0, 0])
    except (ZeroDivisionError, ValueError, OverflowError) as err:
        raise DomainViolation(e, point) from err
    if not math.isfinite(val):
        raise DomainViolation(e, point)
    return val


@dataclass(frozen=True)
class Exclusion:
    """Singular-set declaration: points where |expr| < threshold are rejected."""

    expr: sp.Expr
    threshold: float = 1e-3


@dataclass(frozen=True)
class SampleDomain:
    """Sampling box for the randomized identity oracle.

    Time is drawn uniformly from ``T_RANGE`` and every coordinate, velocity
    and acceleration (strong-mode checks) from ``DEFAULT_RANGE``, unless
    ``var_ranges`` names the variable.
    """

    var_ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    exclusions: tuple[Exclusion, ...] = ()


def _point_at(columns: Mapping[str, np.ndarray], i: int) -> dict[str, float]:
    """Point i of a draw's columns, as Python floats under the columns' names."""
    return {name: float(col[i]) for name, col in columns.items()}


def _next_block(need: int, drawn: int, accepted: int) -> int:
    # size the block from the acceptance seen so far, with a margin so that
    # one more block usually finishes the draw
    if drawn == 0:
        m = need
    elif accepted == 0:
        m = 2 * drawn
    else:
        m = need * drawn // accepted
    return min(m + m // 8 + 16, MAX_BLOCK)


@functools.lru_cache(maxsize=64)
def _box(alphabet: Alphabet, ranges: tuple, include_acc: bool):
    """The variable names of a draw, and the lower ends and spans of their
    ranges as read-only columns; ``ranges`` holds the domain's
    ``var_ranges`` items."""
    names = tuple(s.name for s in alphabet.variables(include_acc))
    var_ranges = {"t": T_RANGE, **dict(ranges)}
    lo, hi = np.array([var_ranges.get(name, DEFAULT_RANGE) for name in names], dtype=float).T
    # numpy's uniform(lo, hi) is lo + (hi - lo)*u, and refuses this span
    with np.errstate(over="ignore", invalid="ignore"):
        span = (hi - lo)[:, None]
    if not np.all(np.isfinite(span)):
        raise OverflowError("Range exceeds valid bounds")
    lo = lo[:, None]
    lo.flags.writeable = span.flags.writeable = False
    return names, lo, span


# the last point set drawn: its inputs, its read-only values, one row per
# name, and the names
_last_draw = [None]


def draw_points(
    alphabet: Alphabet,
    domain: SampleDomain,
    param_values: Mapping[str, float],
    k: int,
    seed: int,
    include_acc: bool = False,
) -> dict[str, np.ndarray]:
    """Draw k points from the box, rejecting those near declared singular sets.

    A point is drawn as a row of one uniform per variable, in order, and is
    accepted when every exclusion passes, so the accepted points are those
    that drawing one candidate at a time from the same seed gives, and the
    first k points of a larger draw are the k-point draw.  Candidates are
    drawn in blocks and all exclusions are tested on a block with one array
    call; without exclusions exactly k candidates are drawn.  ``MAX_TRIES``
    consecutive rejections raise SamplingError.

    Returns the draw's columns: a dict that maps each variable's name, in
    ``alphabet.variables(include_acc)`` order, and then each parameter's to
    a read-only array of its k values.  The last point set drawn at an
    integer seed is kept, in one read-only array, one row per name: a call
    with the same alphabet, ranges, exclusions, parameter values, seed and
    ``include_acc`` and no larger k returns a new dict of views of its
    rows' first k values.
    """
    include_acc = bool(include_acc)
    ranges = tuple((name, tuple(r)) for name, r in domain.var_ranges.items())
    params = [(name, np.float64(v)) for name, v in param_values.items()]
    # parameters by their bits: 0.0 and -0.0 are equal but other points
    key = (alphabet, ranges, domain.exclusions, tuple((name, v.tobytes()) for name, v in params),
           seed, include_acc)
    # any other seed, None included, is no fixed stream
    reusable = isinstance(seed, (int, np.integer))
    last = _last_draw[0]
    if reusable and last is not None and last[0] == key and 0 <= k <= last[1].shape[1]:
        _, values, names = last
    else:
        missing = [name for name in alphabet.params if name not in param_values]
        if missing:
            raise ValueError(f"no value for the parameter {', '.join(map(repr, missing))}")
        var_names, lo, span = _box(alphabet, ranges, include_acc)
        names = var_names + tuple(name for name, _ in params)
        values = np.empty((len(names), k))
        for row, (_, v) in zip(values[len(var_names):], params):
            row[...] = v
        _draw_into(values[:len(var_names)], var_names, lo, span, np.random.default_rng(seed),
                   domain.exclusions, dict(params), alphabet, include_acc)
        values.flags.writeable = False
        if reusable:
            _last_draw[0] = key, values, names
    return dict(zip(names, values[:, :k]))


def _draw_into(out, var_names, lo, span, rng, exclusions, params, alphabet,
               include_acc) -> None:
    """Fill ``out``, one row per variable, with the accepted candidates in
    order: without exclusions the first k candidates, with them each
    block's accepted candidates, straight into their columns."""
    k = out.shape[1]
    if not exclusions:
        np.multiply(span, rng.random((k, len(var_names))).T, out=out)
        out += lo
        return
    excl = compile_fn([ex.expr for ex in exclusions], alphabet, include_acc)
    thresholds = np.array([[ex.threshold] for ex in exclusions])
    accepted = drawn = run = 0
    while accepted < k:
        need = k - accepted
        m = _next_block(need, drawn, accepted)
        block = np.empty((len(var_names), m))
        np.multiply(span, rng.random((m, len(var_names))).T, out=block)
        block += lo
        drawn += m
        cols = dict(zip(var_names, block))
        cols.update(params)
        vals = np.abs(_eval_rows(excl, cols, m))
        ok = np.all((vals >= thresholds) & np.isfinite(vals), axis=0)
        idx = np.flatnonzero(ok)
        # a run of MAX_TRIES rejections, with the run carried in, needs
        # that many in this block
        if run + m - len(idx) >= MAX_TRIES:
            # the acceptances the draw uses, and the block's end when they
            # do not finish it: each ends a run of one less than its gap
            ends = idx[:need] if len(idx) >= need else np.append(idx, m)
            if (ends - np.append(-1 - run, ends[:-1])).max() > MAX_TRIES:
                raise SamplingError(
                    f"could not draw a point outside exclusions in {MAX_TRIES} tries"
                )
        run = m - 1 - int(idx[-1]) if len(idx) else run + m
        idx = idx[:need]
        out[:, accepted:accepted + len(idx)] = block[:, idx]
        accepted += len(idx)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of a randomized identity check between two expressions."""

    passed: bool
    max_residual: float
    worst_point: dict[str, float]
    k: int
    tol: float
    seed: int
    label: str
    # what the check holds: its points, and each component's residuals,
    # finiteness and sides, one row per component, read by component()
    _sample: tuple = field(repr=False, compare=False)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def component(self, i: int, label: str) -> "IdentityReport":
        """The report of component i of a componentwise check, labelled
        ``label``: the report that checking that component alone at the same
        points gives, or the DomainViolation it raises."""
        points, resid, finite, lhs, rhs = self._sample
        part = slice(i, i + 1)
        return _report(points, resid[part], finite[part], lhs[part], rhs[part],
                       self.tol, self.seed, label)

    def to_dict(self) -> dict:
        return {
            "check": self.label,
            "k": self.k,
            "tol": self.tol,
            "max_residual": self.max_residual,
            "worst_point": self.worst_point,
            "verdict": self.verdict,
            "seed": self.seed,
        }


def equal_numeric(
    a,
    b,
    alphabet: Alphabet,
    *,
    param_values: Mapping[str, float] | None = None,
    domain: SampleDomain = SampleDomain(),
    k: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
    include_acc: bool = False,
    label: str = "",
) -> IdentityReport:
    """Randomized identity oracle: PASS iff |a-b| <= tol*(1+max(|a|,|b|)) at
    all k sample points.

    ``a`` and ``b`` may be equal-length lists or tuples, checked
    componentwise with one compilation, one draw and one array call.  In
    component order, the first with a non-finite value raises
    DomainViolation and the first that fails gives the report, as checking
    the pairs one at a time would; a PASS reports the largest residual.
    ``report.component(i, label)`` gives component i's own report at the
    same points, so several questions share one check: a component after
    one that fails may still raise there.

    FAIL carries the worst point as a conclusive witness; PASS is strong
    probabilistic evidence only.  Deterministic for a fixed seed.  ``k``
    must be an integer of at least 1 and ``tol`` positive and finite, else
    ValueError: a NaN or negative tol would FAIL with no witness, and an
    infinite one PASS anything.
    """
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, not {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, not {tol!r}")
    lhs, rhs = (
        [sp.sympify(x) for x in (v if isinstance(v, (list, tuple)) else [v])]
        for v in (a, b)
    )
    if not lhs or len(lhs) != len(rhs):
        raise ValueError(f"{len(lhs)} left sides against {len(rhs)} right sides")
    exprs = [e for pair in zip(lhs, rhs) for e in pair]
    fn = compile_fn(exprs, alphabet, include_acc)
    points = draw_points(alphabet, domain, param_values or {}, k, seed, include_acc)
    vals = _eval_rows(fn, points, k)
    va, vb = vals[0::2], vals[1::2]
    finite = np.isfinite(va) & np.isfinite(vb)
    with np.errstate(invalid="ignore"):
        resid = np.abs(va - vb) / (1.0 + np.maximum(np.abs(va), np.abs(vb)))
    return _report(points, resid, finite, lhs, rhs, tol, seed, label)


def _report(points, resid, finite, lhs, rhs, tol, seed, label) -> IdentityReport:
    """The report of a check from its residuals and finiteness, one row per
    component, scanned in component order as :func:`equal_numeric` says."""
    peak = resid.max(axis=1)
    for i in range(len(lhs)):
        if not finite[i].all():
            bad = _point_at(points, int(np.argmin(finite[i])))
            raise DomainViolation(sp.Eq(lhs[i], rhs[i], evaluate=False), bad)
        if peak[i] > tol:
            break
    else:
        i = int(np.argmax(peak))
    return IdentityReport(
        passed=bool(peak[i] <= tol),
        max_residual=float(peak[i]),
        worst_point=_point_at(points, int(np.argmax(resid[i]))),
        k=resid.shape[1],
        tol=tol,
        seed=seed,
        label=label,
        _sample=(points, resid, finite, lhs, rhs),
    )


def tidy(e) -> sp.Expr:
    """``cancel(together(e))``, run only by ``Triple.simplified``, which the
    package never calls: verdicts never depend on simplification.  Kept for
    the benchmark's cli_kepler set-up until Benchmark v2 (ROADMAP item 1)."""
    e = sp.sympify(e)
    try:
        return sp.cancel(sp.together(e))
    except (sp.PolynomialError, NotImplementedError):
        return e
