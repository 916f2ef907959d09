"""Print the line split of Python source files: lines, code, docstring,
comment-only and blank, per file and in total.

Usage: ``python tools/size.py [PATH ...]``; with no path it reads
``src/noetherkit/*.py`` of the repository that holds this script.

Each physical line counts once, read from its ``tokenize`` tokens.  A string
that is a whole statement counts as a docstring, wherever it stands, and so
does every line it spans, blank ones included.  A line that holds any other
token counts as code, and so does every line that a multi-line token of code
spans.  A line that holds only a comment counts as comment-only, and a line
that holds nothing as blank.  The four parts sum to the line count.
"""

from __future__ import annotations

import io
import itertools
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("lines", "code", "docstring", "comment", "blank")
# tokens that make no line code and leave a statement where it is
_LAYOUT = {tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT}


def _ends_statement(tokens: list, i: int) -> bool:
    """Whether tokens[i] is the last token of its statement."""
    following = (tok.type for tok in itertools.islice(tokens, i + 1, None))
    return next((t for t in following if t not in _LAYOUT), tokenize.NEWLINE) == tokenize.NEWLINE


def split(text: str) -> dict[str, int]:
    """The line split of one module's source text."""
    lines = text.splitlines()
    kind = [None] * (len(lines) + 1)  # by line number, from 1
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    at_start = True  # no token of the current statement seen yet
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.COMMENT:
            kind[tok.start[0]] = kind[tok.start[0]] or "comment"
        elif tok.type not in _LAYOUT and tok.type not in (tokenize.NEWLINE, tokenize.ENDMARKER):
            whole = at_start and tok.type == tokenize.STRING and _ends_statement(tokens, i)
            for line in range(tok.start[0], tok.end[0] + 1):
                kind[line] = "docstring" if whole and kind[line] != "code" else "code"
        if tok.type not in _LAYOUT:
            at_start = tok.type == tokenize.NEWLINE or tok.string == ";"
    out = dict.fromkeys(PARTS, 0)
    out["lines"] = len(lines)
    for k in kind[1:]:
        out[k or "blank"] += 1
    return out


def main(argv: list[str]) -> int:
    if argv:
        files = [(p, Path(p)) for p in argv]
    else:
        files = [(str(p.relative_to(ROOT)), p)
                 for p in sorted((ROOT / "src" / "noetherkit").glob("*.py"))]
    width = max([len("total"), *(len(name) for name, _ in files)])

    def row(name, counts):
        print(f"{name:<{width}}" + "".join(f"{counts[part]:>11}" for part in PARTS))

    print(f"{'file':<{width}}" + "".join(f"{part:>11}" for part in PARTS))
    total = dict.fromkeys(PARTS, 0)
    for name, path in files:
        counts = split(path.read_text())
        total = {part: total[part] + counts[part] for part in PARTS}
        row(name, counts)
    row("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
