"""Line-oriented definition files: system files hold a system and its
integrals, triple files hold triples.

System file layout (key = value within ``[section]`` headers)::

    [system]
    name = kepler3d
    dim = 3
    coords = r1, r2, r3
    params = mu = 1.0, u1 = 0.3, u2 = -0.2, u3 = 0.5
    lagrangian = (r1dot^2 + r2dot^2 + r3dot^2)/2 + mu/sqrt(r1^2+r2^2+r3^2)
    singular = r1^2+r2^2+r3^2
    [integral]
    name = lrl_u
    expr = ...

Each ``singular`` entry is ``expr @ threshold`` (sampling rejects
|expr| < threshold), with a positive finite threshold; one without ``@``
takes the default of 1e-3.  Each ``params`` value is finite.
``range_<var> = lo, hi`` overrides the sampling box.  A system file holds
only ``[system]`` and ``[integral]`` sections.  Triples live in triple
files, read against a system's alphabet: one ``[triple]`` section per
triple, with ``tau``, ``xi`` (comma-separated components), ``f``, ``form``
and the ``singular`` entries of the margins its solver declared.  Every
expression is read by :mod:`noetherkit.dsl`, which refuses an
acceleration's name, and its parse error names the line.  A key that its
section does not read is an error, so a misspelt ``singualr`` or ``frm``
cannot drop what it was meant to say.  A file states each thing once: a key
repeated within a section, a parameter named twice, a second ``[system]``
section and a repeated integral or triple name are errors naming it and its
line, never a silent overwrite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import sympy as sp

from .dsl import ExprSyntaxError, parse, print_expr
from .expressions import Alphabet, Exclusion, UndeclaredSymbolError
from .mechanics import LagrangianSystem, build_system
from .noether import FORMS, Triple

__all__ = ["SystemFileError", "SystemFile", "read_system_file", "write_system_file",
           "read_triple_file", "write_triple_file"]


class SystemFileError(ValueError):
    """Malformed definition file; message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass
class SystemFile:
    system: LagrangianSystem
    integrals: dict[str, sp.Expr]


# the keys each section reads; [system] also reads range_<var>
_KEYS = {
    "system": {"name", "dim", "coords", "params", "lagrangian", "singular"},
    "integral": {"name", "expr"},
    "triple": {"name", "tau", "xi", "f", "form", "singular"},
}


def _split_top_level(text: str) -> list[str]:
    """Split on commas outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _sections(text: str) -> list[tuple[str, dict[str, tuple[str, int]], int]]:
    """The sections of ``text``: name, key -> (value, line), header line."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip().lower(), {})
            sections.append((*current, lineno))
            continue
        if "=" not in line:
            raise SystemFileError(f"expected key = value, got {line!r}", lineno)
        if current is None:
            raise SystemFileError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        section, body = current
        if section in _KEYS and key not in _KEYS[section] and not (
                section == "system" and key.startswith("range_")):
            raise SystemFileError(f"unknown key {key!r} in [{section}] section", lineno)
        if key in body:
            raise SystemFileError(f"key {key!r} given twice in [{section}] section", lineno)
        body[key] = (value.strip(), lineno)
    return sections


def _get(body: dict, key: str, default=None):
    if key in body:
        return body[key][0]
    return default


def _require(body: dict, key: str, section: str):
    if key not in body:
        raise SystemFileError(f"missing key {key!r} in [{section}] section")
    return body[key][0]


def _number(kind, text: str, lineno: int | None = None):
    try:
        return kind(text)
    except ValueError as err:
        raise SystemFileError(f"not a number: {text.strip()!r}", lineno) from err


def _read_exclusions(body: dict, alphabet: Alphabet) -> tuple[Exclusion, ...]:
    """The ``singular`` entries of a [system] or [triple] section."""
    text, lineno = body.get("singular", ("", None))
    exclusions = []
    for item in filter(None, _split_top_level(text)):
        expr, at, threshold = item.partition("@")
        threshold = _threshold(threshold, lineno) if at else Exclusion.threshold
        exclusions.append(Exclusion(_parse(expr, alphabet, lineno), threshold))
    return tuple(exclusions)


def _parse(text: str, alphabet: Alphabet, lineno: int | None) -> sp.Expr:
    """``text`` parsed, a parse error raised as a SystemFileError naming the line."""
    try:
        return parse(text, alphabet)
    except (ExprSyntaxError, UndeclaredSymbolError) as err:
        raise SystemFileError(str(err), lineno) from err


def _expressions(body: dict, key: str, section: str, alphabet: Alphabet) -> list:
    """The expressions of ``key``, comma-separated in [triple] xi."""
    text = _require(body, key, section)
    return [_parse(s, alphabet, body[key][1])
            for s in (_split_top_level(text) if key == "xi" else [text])]


def _threshold(text: str, lineno: int | None) -> float:
    value = _number(float, text, lineno)
    if not 0 < value < math.inf:
        raise SystemFileError(f"exclusion threshold must be positive and finite, "
                              f"got {text.strip()}", lineno)
    return value


def _exclusion_lines(exclusions) -> list[str]:
    entries = ", ".join(f"{print_expr(ex.expr)} @ {ex.threshold!r}" for ex in exclusions)
    return [f"singular = {entries}"] if entries else []


def _read_ranges(body: dict, alphabet: Alphabet) -> dict[str, tuple[float, float]]:
    """The ``range_<var> = lo, hi`` entries of a [system] section: <var> is t,
    a coordinate, a velocity or an acceleration, and lo <= hi are a finite
    width apart, which numpy's uniform draw needs."""
    names = {s.name for s in alphabet.variables(include_acc=True)}
    ranges = {}
    for key, (value, lineno) in body.items():
        var = key.removeprefix("range_")
        if var == key:
            continue
        if var not in names:
            raise SystemFileError(f"{key}: {var!r} is not a variable of the system", lineno)
        bounds = tuple(_number(float, b, lineno) for b in _split_top_level(value))
        if len(bounds) != 2 or not 0 <= bounds[1] - bounds[0] < math.inf:
            raise SystemFileError(f"{key} needs two bounds lo <= hi a finite width apart, "
                                  f"got {value}", lineno)
        ranges[var] = bounds
    return ranges


def _parse_params(text: str, lineno: int | None) -> dict[str, float]:
    values = {}
    if not text:
        return values
    for item in _split_top_level(text):
        name, _, val = item.partition("=")
        name = name.strip()
        if not name or not val.strip():
            raise SystemFileError(f"malformed parameter entry {item!r}", lineno)
        if name in values:
            raise SystemFileError(f"parameter {name} given twice", lineno)
        values[name] = _number(float, val, lineno)
        if not math.isfinite(values[name]):
            raise SystemFileError(f"parameter {name} must be finite, got {val.strip()}", lineno)
    return values


def read_system_file(path) -> SystemFile:
    """Parse a system definition file and build the system it describes."""
    text = Path(path).read_text()
    system = None
    integrals = {}
    alphabet = None
    for section, body, lineno in _sections(text):
        if section == "system":
            if system is not None:
                raise SystemFileError("a second [system] section", lineno)
            name = _get(body, "name", Path(path).stem)
            dim = _number(int, _require(body, "dim", section), body["dim"][1])
            coords = tuple(_split_top_level(_require(body, "coords", section)))
            if len(coords) != dim:
                raise SystemFileError(
                    f"dim = {dim} but {len(coords)} coordinate name(s) given"
                )
            params = _parse_params(*body.get("params", ("", None)))
            alphabet = Alphabet(coords=coords, params=tuple(params))
            L, = _expressions(body, "lagrangian", section, alphabet)
            system = build_system(
                L, alphabet, name=name, param_values=params,
                exclusions=_read_exclusions(body, alphabet),
                var_ranges=_read_ranges(body, alphabet),
            )
        elif section == "integral":
            if alphabet is None:
                raise SystemFileError("[integral] section before [system]", lineno)
            name = _require(body, "name", section)
            if name in integrals:
                raise SystemFileError(f"integral {name!r} given twice", body["name"][1])
            integrals[name], = _expressions(body, "expr", section, alphabet)
        elif section == "triple":
            raise SystemFileError("a [triple] section belongs in a triple file, "
                                  "which verify reads", lineno)
        else:
            raise SystemFileError(f"unknown section [{section}]", lineno)
    if system is None:
        raise SystemFileError("no [system] section found")
    return SystemFile(system=system, integrals=integrals)


def _triple_from_body(body: dict, alphabet: Alphabet) -> Triple:
    tau, = _expressions(body, "tau", "triple", alphabet)
    xi = tuple(_expressions(body, "xi", "triple", alphabet))
    if len(xi) != alphabet.n:
        raise SystemFileError(f"xi has {len(xi)} component(s), the system has "
                              f"dim = {alphabet.n}", body["xi"][1])
    f, = _expressions(body, "f", "triple", alphabet)
    form = _require(body, "form", "triple")
    if form not in FORMS:
        raise SystemFileError(f"unknown form {form!r}, expected one of "
                              f"{', '.join(FORMS)}", body["form"][1])
    return Triple(tau=tau, xi=xi, f=f, form=form,
                  exclusions=_read_exclusions(body, alphabet))


def read_triple_file(path, alphabet: Alphabet) -> dict[str, Triple]:
    """Parse a standalone triple file against a known alphabet."""
    return _read_triples(Path(path).read_text(), alphabet)


def _read_triples(text: str, alphabet: Alphabet) -> dict[str, Triple]:
    """The triples of a triple file's text, read as ``read_triple_file`` reads them."""
    triples = {}
    for section, body, lineno in _sections(text):
        if section != "triple":
            raise SystemFileError(f"unexpected section [{section}] in triple file", lineno)
        name = _get(body, "name", f"triple{len(triples) + 1}")
        if name in triples:
            raise SystemFileError(f"triple {name!r} given twice",
                                  body.get("name", (name, lineno))[1])
        triples[name] = _triple_from_body(body, alphabet)
    if not triples:
        raise SystemFileError("no [triple] section found")
    return triples


def write_system_file(
    path,
    system: LagrangianSystem,
    integrals: dict | None = None,
) -> None:
    """Emit a definition file that round-trips through read_system_file."""
    lines = ["[system]", f"name = {system.name or Path(path).stem}"]
    lines.append(f"dim = {system.n}")
    lines.append("coords = " + ", ".join(system.alphabet.coords))
    if system.param_values:
        lines.append(
            "params = "
            + ", ".join(f"{k} = {v!r}" for k, v in system.param_values.items())
        )
    lines.append(f"lagrangian = {print_expr(system.L)}")
    lines += _exclusion_lines(system.exclusions)
    for var, (lo, hi) in system.var_ranges.items():
        lines.append(f"range_{var} = {lo!r}, {hi!r}")
    for name, expr in (integrals or {}).items():
        lines += ["[integral]", f"name = {name}", f"expr = {print_expr(expr)}"]
    Path(path).write_text("\n".join(lines) + "\n")


def _triple_lines(name: str, tr: Triple) -> list[str]:
    return [
        "[triple]",
        f"name = {name}",
        f"tau = {print_expr(tr.tau)}",
        "xi = " + ", ".join(print_expr(x) for x in tr.xi),
        f"f = {print_expr(tr.f)}",
        f"form = {tr.form}",
        *_exclusion_lines(tr.exclusions),
    ]


def write_triple_file(path, triples: dict[str, Triple]) -> None:
    """Write ``triples`` as a triple file.  The text is not read back:
    ``solve --triple-out``, whose triple may nest past ``dsl.MAX_DEPTH``,
    reads its ``_triple_text`` back with ``_read_triples`` before writing it."""
    Path(path).write_text(_triple_text(triples))


def _triple_text(triples: dict[str, Triple]) -> str:
    lines = [line for name, tr in triples.items() for line in _triple_lines(name, tr)]
    return "\n".join(lines) + "\n"
