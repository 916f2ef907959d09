"""Record the line coverage of a package under a pytest run, and print the
executable lines that never ran.

Usage::

    python3 tools/linecov.py [PYTEST_ARG ...]

The package is ``src/noetherkit`` of the repository that holds this script,
and the arguments go to pytest unchanged.  pytest runs
in this process under ``sys.settrace`` (no coverage package is needed), so a
line that only a subprocess reaches, such as a console entry point that the
tests run with ``subprocess``, counts as never run.

A line is executable when the compiled code of its module, or of a function
or class nested in it, holds an instruction on it; a line ran when the
tracer saw a frame on it.  The report names each file with its never-run
lines, as ranges, then the totals.  The exit code is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "noetherkit"


def executable_lines(path: Path) -> set[int]:
    """The line numbers on which the compiled code of ``path`` holds an
    instruction, nested code objects included."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace(files: set[str], pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with a tracer on the frames of ``files``: pytest's exit code
    and, per file, the lines on which a frame of it was seen."""
    seen = {name: set() for name in files}

    def local(frame, event, arg):
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def outer(frame, event, arg):
        if frame.f_code.co_filename not in seen:
            return None
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(outer)
    sys.settrace(outer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def _ranges(lines: list[int], executable: list[int]) -> str:
    """``lines`` as ranges over the sorted ``executable`` lines, so that a
    run of never-run lines with only blank or comment lines between them
    prints as one range."""
    at = {line: i for i, line in enumerate(executable)}
    runs = []
    for line in lines:
        if runs and at[line] == at[runs[-1][1]] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str] | None = None) -> int:
    pytest_args = sys.argv[1:] if argv is None else argv
    paths = {str(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    # read before the run, from the sources that the run imports
    executables = {name: sorted(executable_lines(path)) for name, path in paths.items()}
    code, seen = trace(set(paths), pytest_args)

    total = ran = 0
    print(f"# never-run lines of {PACKAGE.relative_to(ROOT).as_posix()}")
    for name, path in paths.items():
        executable = executables[name]
        missed = [line for line in executable if line not in seen[name]]
        total += len(executable)
        ran += len(executable) - len(missed)
        if missed:
            print(f"{path.relative_to(PACKAGE).as_posix()}: {_ranges(missed, executable)}")
    print(f"# {ran} of {total} executable lines ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
