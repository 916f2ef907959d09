"""Symbolic expression layer over a declared alphabet of mechanical variables.

Expressions are sympy trees restricted to the symbols of an :class:`Alphabet`:
time ``t``, coordinates ``q_i``, velocities ``q_i dot``, accelerations
``q_i ddot`` and named parameters, combined with the standard functions
sqrt, sin, cos, exp and log.

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
componentwise check, in one numpy array call.  ``lambdify`` gets one
prebuilt namespace and a NumPy printer instead of ``modules="numpy"``: the
generated code is the same, and a process does not import numpy's lazy
submodules, which ``from numpy import *`` would load on its first compile.
The generated code computes each repeated subtree once: the kepler3d normal
form takes sqrt(r1**2 + r2**2 + r3**2) once, not nine times.  Only exact
repeats are shared (sympy's ``tree_cse``); ``sympy.cse`` would also
re-associate sums and products, which costs more compile time than it saves.
Rejection sampling draws candidates in blocks from the same random stream as
one-at-a-time draws, so a seed gives the same points either way.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.printing.numpy import NumPyPrinter
from sympy.simplify.cse_main import tree_cse
from sympy.utilities.lambdify import NUMPY_DEFAULT, NUMPY_TRANSLATIONS

__all__ = [
    "Alphabet",
    "Exclusion",
    "SampleDomain",
    "SamplePoints",
    "IdentityReport",
    "UndeclaredSymbolError",
    "DomainViolation",
    "SamplingError",
    "TotalDerivative",
    "STANDARD_FUNCTIONS",
    "diff",
    "total_dt",
    "substitute",
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

# distinct compile_fn inputs kept; a verification touches a few dozen
COMPILE_MEMO_SIZE = 256
# largest block of candidates draw_points tests in one array call
MAX_BLOCK = 1 << 16
# sampling box of a variable that SampleDomain.var_ranges does not name
T_RANGE = (0.0, 2.0)
DEFAULT_RANGE = (-2.0, 2.0)  # coordinates and velocities
ACC_RANGE = (-2.0, 2.0)  # accelerations, in strong-mode checks
# complex-step size: far below the scale of any sampled quantity, so the
# O(h^2) truncation error vanishes in float64
COMPLEX_STEP = 1e-30

# sympy turns sqrt(x^2) into Abs(x) on real symbols and differentiates it to
# sign(x); the complex abs and sign would lose the imaginary part that
# carries the derivative.  lambdify prints Abs as the builtin abs.
_COMPLEX_STEP_FUNCS = {
    "abs": lambda z: np.where(np.real(z) < 0, -z, z),
    "sign": lambda z: np.sign(np.real(z)),
}
# What lambdify(modules=[_COMPLEX_STEP_FUNCS, "numpy", {"math": math}]) would
# bind, later entries taking priority, built once per process.  For "numpy"
# sympy runs `from numpy import *`, which imports every lazy numpy submodule
# (f2py, testing, ma, polynomial, random, fft ...); taking only the names
# numpy has already bound costs nothing.  numpy.linalg goes on top of numpy:
# in numpy 2, outer, cross, trace and diagonal exist in both and differ.
_NAMESPACE = {"numpy": np}
_NAMESPACE.update((name, vars(np)[name]) for name in np.__all__ if name in vars(np))
_NAMESPACE.update((name, getattr(np.linalg, name)) for name in np.linalg.__all__)
_NAMESPACE.update(NUMPY_DEFAULT)
_NAMESPACE.update((name, _NAMESPACE[numpy_name])
                  for name, numpy_name in NUMPY_TRANSLATIONS.items())
_NAMESPACE.setdefault("Abs", abs)
_NAMESPACE["math"] = math
_NAMESPACE.update(_COMPLEX_STEP_FUNCS)
# the settings lambdify gives the printer it picks for those modules; given a
# printer class instead, it would print numpy-qualified names
_PRINTER_SETTINGS = {
    "fully_qualified_modules": False, "inline": True, "allow_unknown_functions": True,
    "user_functions": {name: name for name in ("math", *_COMPLEX_STEP_FUNCS)},
}


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
    """Declares the variables a system's expressions may mention.

    Coordinates ``c`` induce velocity symbols ``cdot`` and acceleration
    symbols ``cddot``.  When coordinates follow the ``q1..qn`` convention the
    aliases ``qdot<i>`` / ``qddot<i>`` are accepted by :meth:`lookup` too.
    """

    coords: tuple[str, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self):
        names = list(self.coords) + list(self.params)
        seen = set()
        for name in names:
            if name in _RESERVED:
                raise ValueError(f"symbol name {name!r} is reserved")
            if name in seen:
                raise ValueError(f"symbol name {name!r} declared twice")
            seen.add(name)

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
    def param_symbols(self) -> tuple[sp.Symbol, ...]:
        return tuple(_sym(p) for p in self.params)

    def variables(self, include_acc: bool = False) -> tuple[sp.Symbol, ...]:
        out = (self.t,) + self.coord_symbols + self.velocity_symbols
        if include_acc:
            out += self.acceleration_symbols
        return out

    @functools.cached_property
    def _name_table(self) -> dict[str, sp.Symbol]:
        table = {"t": self.t, **dict(zip(self.params, self.param_symbols))}
        symbols = zip(self.coord_symbols, self.velocity_symbols, self.acceleration_symbols)
        for i, (c, (q, qd, qdd)) in enumerate(zip(self.coords, symbols), start=1):
            table.update({c: q, c + "dot": qd, c + "ddot": qdd})
            if c == f"q{i}":
                table.update({f"qdot{i}": qd, f"qddot{i}": qdd})
        return table

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
    """Exact partial derivative with respect to a declared variable."""
    if isinstance(var, str):
        var = alphabet.lookup(var)
    return sp.diff(sp.sympify(e), var)


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
        out = sp.diff(e, t)
        for q, qd, qdd in zip(qs, vs, accs):
            out = out + sp.diff(e, q) * qd + sp.diff(e, qd) * qdd
        return out

    def _eval_derivative(self, s):
        return sp.diff(self.doit(), s)

    def _eval_subs(self, old, new):
        # substituting for t, q or qdot does not commute with D_t
        variables = set().union(*(a.free_symbols for a in self.args[1:4]))
        if isinstance(old, sp.Basic) and old.free_symbols & variables:
            return self.doit()._subs(old, new)
        return None

    def _sympystr(self, printer):
        return f"Dt({printer._print(self.expr)})"


def total_dt(e, alphabet: Alphabet, lam: Sequence[sp.Expr] | None = None) -> sp.Expr:
    """Total time derivative of an expression in (t, q, qdot).

    Generic mode (``lam is None``) differentiates along free acceleration
    symbols; on-flow mode along the supplied acceleration field ``lam``, so
    the result is free of accelerations.  Returns a lazy
    :class:`TotalDerivative` (``.doit()`` expands it), or 0 when ``e`` is
    free of t, q and qdot.
    """
    e = sp.sympify(e)
    if e.has(TotalDerivative):
        raise ValueError(
            "total_dt input must be free of total derivatives; expand them "
            "with .doit() first"
        )
    for a in alphabet.acceleration_symbols:
        if e.has(a):
            raise ValueError(f"total_dt input must be free of {a}")
    if lam is not None and len(lam) != alphabet.n:
        raise ValueError(
            f"acceleration field has length {len(lam)}, expected {alphabet.n}"
        )
    if not e.free_symbols & set(alphabet.variables()):
        return sp.Integer(0)
    accs = alphabet.acceleration_symbols if lam is None else lam
    return TotalDerivative(
        e, alphabet.t, alphabet.coord_symbols, alphabet.velocity_symbols, accs
    )


def substitute(e, bindings: Mapping, alphabet: Alphabet) -> sp.Expr:
    """Simultaneous capture-free substitution.

    Keys are declared symbols or their names; values are expressions.
    """
    pairs = [(alphabet.lookup(key) if isinstance(key, str) else key, sp.sympify(val))
             for key, val in bindings.items()]
    return sp.sympify(e).subs(pairs, simultaneous=True).doit()


def compile_fn(exprs: Sequence, alphabet: Alphabet, include_acc: bool = False):
    """Compile expressions into a numeric function of a point mapping.

    The mapping's values may be floats or equal-length numpy arrays, one
    entry per point.  Structurally equal inputs return the same function
    object from a memo of the last ``COMPILE_MEMO_SIZE`` distinct inputs.
    """
    return _compile(tuple(sp.sympify(e) for e in exprs), alphabet, bool(include_acc))


def _shared_subtrees(exprs):
    # order="none" takes Add and Mul arguments in sympy's own order, which
    # does not depend on the hash seed; the names are outside the DSL's
    return tree_cse(list(exprs), sp.numbered_symbols("cse·"), order="none")


@functools.lru_cache(maxsize=COMPILE_MEMO_SIZE)
def _compile(exprs, alphabet, include_acc):
    """One lambdified function of (variables, one slot per total-derivative
    node) returning the expressions, with the nodes replaced by their slots,
    then the node bodies.  Without nodes it is called once at the point.
    With nodes it is called once at the complex-shifted point of each
    direction, which gives the node values, then once at the real point with
    the slots bound to them.  An expression is NaN where the body of one of
    its nodes is not finite at the real point, so branch cuts of sqrt and log
    cannot hide a domain violation behind a finite complex-step value.

    The function assigns each repeated subtree to a local once.  It shares
    exact repeats only (``tree_cse``, not ``sympy.cse``, whose ``opt_cse``
    pass re-associates Add and Mul arguments and made compiles cost a third
    more), so values change at most by the round-off of another evaluation
    order."""
    syms = alphabet.variables(include_acc) + alphabet.param_symbols
    # the slot order sets the order of sums in the compiled code, so it
    # must not follow the per-process order of a set
    held = [e.atoms(TotalDerivative) for e in exprs]
    nodes = sorted(set().union(*held), key=sp.default_sort_key)
    owners = [[i for i, node in enumerate(nodes) if node in own] for own in held]
    # valid identifiers outside the DSL's ASCII names; Dummy arguments would
    # make lambdify rewrite the whole expression
    slots = [sp.Symbol(f"Dt·{i}") for i in range(len(nodes))]
    outs = [e.xreplace(dict(zip(nodes, slots))) for e in exprs]
    raw = sp.lambdify(
        syms + tuple(slots),
        outs + [node.expr for node in nodes],
        modules=_NAMESPACE, printer=NumPyPrinter(_PRINTER_SETTINGS), docstring_limit=0,
        cse=_shared_subtrees,
    )
    groups = {}
    for i, node in enumerate(nodes):
        groups.setdefault(tuple(node.acc), []).append(i)
    # each system compiles its normal form once, through the memo
    directions = [
        (_compile(acc, alphabet, include_acc), members)
        for acc, members in groups.items()
    ]
    names = [s.name for s in syms]
    n, m = alphabet.n, len(exprs)
    h = COMPLEX_STEP
    no_slots = [0.0] * len(nodes)

    def fn(point: Mapping[str, float]):
        args = [point[name] for name in names]
        with np.errstate(all="ignore"):
            if not nodes:
                return raw(*args)
            real = [np.asarray(v, dtype=float) for v in args]
            t, qs, vs = real[0], real[1:1 + n], real[1 + n:1 + 2 * n]
            rates = [None] * len(nodes)
            for direction, members in directions:
                accs = direction(point)
                shifted = (
                    [t + 1j * h]
                    + [q + 1j * h * v for q, v in zip(qs, vs)]
                    + [v + 1j * h * a for v, a in zip(vs, accs)]
                    + real[1 + 2 * n:]
                )
                vals = raw(*shifted, *no_slots)
                for i in members:
                    rates[i] = np.imag(vals[m + i]) / h
            vals = raw(*real, *rates)
            finite = [np.isfinite(_real(body)) for body in vals[m:]]
            return [np.where(np.all([finite[i] for i in own], axis=0), v, np.nan)
                    for v, own in zip(vals[:m], owners)]

    fn.arg_names = names
    # fn on arguments in arg_names order; without nodes the lambdified function
    # itself, which skips the mapping and the errstate (callers hold their own)
    fn.positional = raw if not nodes else lambda *args: fn(dict(zip(names, args)))
    return fn


def _real(values) -> np.ndarray:
    """Compiled values as a float array, where a value with a non-zero
    imaginary part reads NaN (the oracle works over the reals)."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        values = np.where(values.imag == 0, values.real, np.nan)
    return values.astype(float, copy=False)


def _eval_rows(fn, columns: Mapping[str, np.ndarray], m: int) -> np.ndarray:
    """A compiled function's values at m points given as numpy columns, one
    row per expression, read through :func:`_real`.  Numpy inputs make
    singular points read inf or NaN where Python floats would raise."""
    return _real([np.broadcast_to(v, (m,)) for v in fn(columns)])


def evaluate(e, point: Mapping[str, float], alphabet: Alphabet) -> float:
    """IEEE double evaluation at a sample point.

    The point must bind every variable and parameter the value depends on
    (ValueError names the missing ones); the others may be left out.
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

    Every coordinate and velocity is drawn uniformly from ``DEFAULT_RANGE``,
    time from ``T_RANGE`` and accelerations (strong-mode checks) from
    ``ACC_RANGE``, unless ``var_ranges`` names the variable.
    """

    var_ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    exclusions: tuple[Exclusion, ...] = ()


def _range_for(name: str, alphabet: Alphabet, domain: SampleDomain):
    if name in domain.var_ranges:
        return domain.var_ranges[name]
    if name == "t":
        return T_RANGE
    if any(name == c + "ddot" for c in alphabet.coords):
        return ACC_RANGE
    return DEFAULT_RANGE


class SamplePoints(Sequence):
    """Read-only sequence of sample points backed by one array per name.

    Indexing and iteration yield point dicts of Python floats; ``columns``
    maps each name to its read-only array of k values.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]):
        self.columns = dict(columns)
        for col in self.columns.values():
            col.flags.writeable = False
        self._k = len(next(iter(self.columns.values())))

    def __len__(self) -> int:
        return self._k

    def __getitem__(self, i: int) -> dict[str, float]:
        i = range(self._k)[i]  # negative indices, IndexError past the end
        return {name: float(col[i]) for name, col in self.columns.items()}

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None


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


def draw_points(
    alphabet: Alphabet,
    domain: SampleDomain,
    param_values: Mapping[str, float],
    k: int,
    seed: int,
    include_acc: bool = False,
    max_tries: int = 1000,
) -> SamplePoints:
    """Draw k points from the box, rejecting those near declared singular sets.

    Candidates are drawn in blocks and all exclusions are tested on a block
    with one array call.  A point is drawn as a row of one uniform per
    variable, in order, so the accepted points are those that drawing one
    candidate at a time from the same seed gives.  ``max_tries`` consecutive
    rejections raise SamplingError.
    """
    rng = np.random.default_rng(seed)
    var_names = [s.name for s in alphabet.variables(include_acc)]
    lo, hi = np.array(
        [_range_for(name, alphabet, domain) for name in var_names], dtype=float
    ).T
    params = {name: np.float64(v) for name, v in param_values.items()}
    if domain.exclusions:
        excl = compile_fn([ex.expr for ex in domain.exclusions], alphabet, include_acc)
        thresholds = np.array([[ex.threshold] for ex in domain.exclusions])
    kept = [np.empty((len(var_names), 0))]
    accepted = drawn = run = 0
    while accepted < k:
        need = k - accepted
        m = _next_block(need, drawn, accepted)
        block = np.ascontiguousarray(rng.uniform(lo, hi, size=(m, len(lo))).T)
        drawn += m
        if domain.exclusions:
            cols = dict(zip(var_names, block))
            cols.update(params)
            vals = np.abs(_eval_rows(excl, cols, m))
            ok = np.all((vals >= thresholds) & np.isfinite(vals), axis=0)
        else:
            ok = np.ones(m, dtype=bool)
        # length of the rejection run ending at each candidate
        pos = np.arange(m)
        last = np.maximum.accumulate(np.where(ok, pos, -1))
        runs = np.where(last < 0, run + pos + 1, pos - last)
        idx = np.flatnonzero(ok)[:need]
        used = idx[-1] + 1 if len(idx) == need else m
        if np.any(runs[:used] >= max_tries):
            raise SamplingError(
                f"could not draw a point outside exclusions in {max_tries} tries"
            )
        run = int(runs[-1])
        kept.append(block[:, idx])
        accepted += len(idx)
    values = np.concatenate(kept, axis=1)
    columns = dict(zip(var_names, values))
    columns.update({name: np.full(k, v) for name, v in params.items()})
    return SamplePoints(columns)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of a randomized identity check between two expressions."""

    passed: bool
    max_residual: float
    worst_point: dict[str, float]
    k: int
    tol: float
    seed: int
    label: str = ""

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

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

    FAIL carries the worst point as a conclusive witness; PASS is strong
    probabilistic evidence only.  Deterministic for a fixed seed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lhs, rhs = (
        [sp.sympify(x) for x in (v if isinstance(v, (list, tuple)) else [v])]
        for v in (a, b)
    )
    if not lhs or len(lhs) != len(rhs):
        raise ValueError(f"{len(lhs)} left sides against {len(rhs)} right sides")
    exprs = [e for pair in zip(lhs, rhs) for e in pair]
    fn = compile_fn(exprs, alphabet, include_acc)
    points = draw_points(alphabet, domain, param_values or {}, k, seed, include_acc)
    vals = _eval_rows(fn, points.columns, k)
    va, vb = vals[0::2], vals[1::2]
    finite = np.isfinite(va) & np.isfinite(vb)
    with np.errstate(invalid="ignore"):
        resid = np.abs(va - vb) / (1.0 + np.maximum(np.abs(va), np.abs(vb)))
    peak = resid.max(axis=1)
    for i in range(len(lhs)):
        if not finite[i].all():
            bad = points[int(np.argmin(finite[i]))]
            raise DomainViolation(sp.Eq(lhs[i], rhs[i], evaluate=False), bad)
        if peak[i] > tol:
            break
    else:
        i = int(np.argmax(peak))
    return IdentityReport(
        passed=bool(peak[i] <= tol),
        max_residual=float(peak[i]),
        worst_point=points[int(np.argmax(resid[i]))],
        k=k,
        tol=tol,
        seed=seed,
        label=label,
    )


def tidy(e) -> sp.Expr:
    """Readability pass for emitted expressions, run only by ``Triple.simplified``:
    correctness decisions go through the numeric oracle, never through
    simplification, which on kepler3d lengthens the normal form."""
    e = sp.sympify(e)
    try:
        return sp.cancel(sp.together(e))
    except (sp.PolynomialError, NotImplementedError):
        return e
