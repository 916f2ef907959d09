"""The CLI contract under mutated input: whatever the files and arguments,
``main`` returns an exit code 0-6 without raising, and an error (codes 2-5)
is one line on stderr.

The inputs are the corpus's exported files, mutated line by line with the
grammar's tokens, calls nested about as deep as the parser reads, the files'
section headers and keys, ``@`` thresholds and names that a declaration may
or may not use, and argv built from the same pools.  The pools keep
spellings the package never writes, such as ``qdot1`` and the
``singular_threshold`` key, which draw refusals.  Options are passed as
``--opt=value`` and positionals after ``--``, so every argv gets past
argparse and reaches the commands."""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from noetherkit import cli
from noetherkit.dsl import MAX_DEPTH

NAMES = ("q", "x", "y", "c", "t", "sin", "log", "qdot", "qddot", "xdot", "yddot", "q1",
         "qdot1", "z")
NUMBERS = ("0", "1", "2.5", ".5", "-1", "1e-3", "1e308", "1e999")
FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")
TOKENS = NAMES + NUMBERS + FUNCTIONS + ("+", "-", "*", "/", "^", "(", ")", ",", "=", "@")
HEADERS = ("[system]", "[integral]", "[triple]", "[other]", "[", "# comment", "no equals")
KEYS = ("name", "dim", "coords", "params", "lagrangian", "singular", "singular_threshold",
        "range_x", "range_qdot", "range_t", "expr", "tau", "xi", "f", "form", "frm")
THRESHOLDS = ("0", "-1", "1e-3", "0.5", "inf", "nan", "1e300", "", "x")
FORMS = ("strong", "onflow", "alt_strong", "alt_onflow", "sideways")



def _nested(functions, leaf):
    return "".join(f + "(" for f in functions) + leaf + ")" * len(functions)


def _exprs_over(names):
    """Small expressions of the grammar in names and NUMBERS, and calls
    nested to either side of the parser's depth limit."""
    leaves = st.sampled_from(names + NUMBERS)
    deep = st.lists(st.sampled_from(FUNCTIONS), min_size=MAX_DEPTH - 3, max_size=MAX_DEPTH + 1)
    return st.one_of(st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(" ".join),
        st.tuples(st.sampled_from(FUNCTIONS), inner).map("{0[0]}({0[1]})".format),
        inner.map("-{}".format),
    ), max_leaves=4), st.builds(_nested, deep, leaves))


_exprs = _exprs_over(NAMES)
_soup = st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join)
_name_lists = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(", ".join)
_values = st.one_of(
    _exprs,
    _soup,
    _name_lists,
    st.sampled_from(NUMBERS + FORMS),
    st.tuples(st.sampled_from(NAMES), st.sampled_from(NUMBERS)).map("{0[0]} = {0[1]}".format),
    st.tuples(_exprs, st.sampled_from(THRESHOLDS)).map("{0[0]} @ {0[1]}".format),
    st.tuples(st.sampled_from(NUMBERS), st.sampled_from(NUMBERS)).map(", ".join),
)
_lines = st.one_of(
    st.sampled_from(HEADERS),
    st.tuples(st.sampled_from(KEYS), _values).map("{0[0]} = {0[1]}".format),
)


@st.composite
def _mutated(draw, text):
    """text with one to three lines replaced, inserted, deleted or given a
    new value after their key."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(("replace", "insert", "delete", "value")))
        if action == "insert" or i == len(lines):
            lines.insert(i, draw(_lines))
        elif action == "replace":
            lines[i] = draw(_lines)
        elif action == "delete":
            del lines[i]
        else:
            lines[i] = lines[i].partition("=")[0] + "= " + draw(_values)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """The exported system and triple texts of two corpus entries, and a
    directory to write the mutated files and the commands' outputs in."""
    work = tmp_path_factory.mktemp("fuzz")
    texts = {}
    for name in ("freeparticle", "isochrony"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["corpus", "export", name, "--out", str(work / f"{name}.sys")]) == 0
        texts[name] = tuple((work / f"{name}.{suffix}").read_text() for suffix in ("sys", "tri"))
    return work, texts


# per entry: its dimension, the names of its integrals and of its variables
ENTRIES = {
    "freeparticle": (1, ("momentum", "boost", "energy", "dilation", "boost_squared"),
                     ("t", "q", "qdot")),
    "isochrony": (2, ("N1", "N2", "N3"), ("t", "x", "y", "xdot", "ydot", "c")),
}


def _options(draw, *pools):
    """Some of the options in pools, each ``(flag, values)``, as --flag=value."""
    out = []
    for flag, values in pools:
        if draw(st.booleans()):
            out.append(f"{flag}={draw(values)}")
    return out


def _paths(work):
    return st.sampled_from((str(work / "out.json"), str(work / "out.tri"), str(work),
                            str(work / "no-such-dir" / "x")))


def _write(path, text):
    """Write text to path as a new file: on some file systems, truncating a
    file that holds data waits for its writeback, a new file does not."""
    path.unlink(missing_ok=True)
    path.write_text(text)


@st.composite
def _argv(draw, exports):
    """A command on mutated copies of an exported system and triple file."""
    work, texts = exports
    name = draw(st.sampled_from(sorted(texts)))
    system, triples = texts[name]
    n, integrals, names = ENTRIES[name]
    exprs = st.one_of(_exprs_over(names), _exprs)
    sys_path, tri_path = work / "fuzz.sys", work / "fuzz.tri"
    mutate_system = draw(st.booleans())
    _write(sys_path, draw(_mutated(system)) if mutate_system else system)
    _write(tri_path, triples if mutate_system else draw(_mutated(triples)))
    common = [("--k", st.sampled_from(("5", "20"))), ("--seed", st.sampled_from(("0", "3"))),
              ("--tol", st.sampled_from(("1e-9", "1e-3"))), ("--out", _paths(work))]
    command = draw(st.sampled_from(("describe", "solve", "verify", "integrate", "corpus")))
    if command == "describe":
        return ["describe", "--", str(sys_path)]
    if command == "solve":
        mode = draw(st.sampled_from(("onflow-simplest", "onflow-R", "strong", "alt-strong")))
        integral = draw(st.one_of(st.sampled_from(integrals), exprs))
        # the options the mode reads; EXIT_TABLE holds the refusal of the others
        read = {"tau": ("--tau", exprs),
                "R": ("--R", st.lists(exprs, min_size=n, max_size=n + 1).map(";".join)),
                "c": ("--c", st.sampled_from(("0", "1", "-2.5")))}
        options = _options(draw, *(read[o] for o in sorted(cli.SOLVE_OPTIONS[mode])),
                           ("--triple-out", _paths(work)), *common)
        return ["solve", f"--mode={mode}", *options, "--", str(sys_path), integral]
    if command == "verify":
        forms = st.sampled_from(("strong", "onflow", "alt-strong", "alt-onflow"))
        options = _options(draw, ("--form", forms), *common)
        return ["verify", *options, "--", str(sys_path), str(tri_path)]
    if command == "integrate":
        size = draw(st.sampled_from((1 + 2 * n, 1 + 2 * n, 2 * n)))
        numbers = st.one_of(st.sampled_from(("0", ".5", "1", "-1")), st.sampled_from(NUMBERS))
        state = ",".join(["0", *draw(st.lists(numbers, min_size=size - 1, max_size=size - 1))])
        options = _options(draw, ("--dt", st.sampled_from(("0.01", "0.1", "1e-300"))),
                           ("--monitor", st.sampled_from(integrals + ("x",))),
                           ("--csv", _paths(work)), ("--out", _paths(work)))
        t1 = draw(st.sampled_from(("0", "0.5", "1", "-1", "nan", "inf")))
        return ["integrate", f"--t1={t1}", *options, "--", str(sys_path), state]
    return ["corpus", "export", name, f"--out={draw(_paths(work))}"]


class _Appended:
    """An explicit example in place of ``data``: ``verify`` with ``options``
    on the exported free-particle files, ``line`` appended to the triple file."""

    def __init__(self, line, *options):
        self.line, self.options = line, options

    def argv(self, exports):
        work, texts = exports
        system, triples = texts["freeparticle"]
        _write(work / "fuzz.sys", system)
        _write(work / "fuzz.tri", f"{triples}{self.line}\n")
        return ["verify", *self.options, "--", str(work / "fuzz.sys"), str(work / "fuzz.tri")]


# the profile's settings, with more examples: one costs a few milliseconds
@settings(max_examples=300)
@given(data=st.data())
# an exclusion that names an acceleration, given to the last triple (onflow)
@example(data=_Appended("singular = qddot - 5"))
@example(data=_Appended("singular = qddot - 5", "--form=strong"))
def test_mutated_inputs_keep_the_exit_code_contract(exports, data):
    if isinstance(data, _Appended):
        argv = data.argv(exports)
    else:
        argv = data.draw(_argv(exports), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in range(7), (code, err.getvalue())
    if cli.EXIT_PARSE <= code <= cli.EXIT_SINGULAR:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
