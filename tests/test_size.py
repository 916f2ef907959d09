import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("size", ROOT / "tools" / "size.py")
size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size)

SAMPLE = '''"""A module docstring

over three lines, one of them blank."""

import os  # a comment after code is code

# a comment-only line


def f(x):
    """One line."""
    y = """a string assigned
is code on every line it spans

"""
    "a string that is a whole statement, anywhere"
    return (x,
            # a comment inside a bracket
            y)
'''


def test_the_split_of_a_small_module():
    # code: lines 5, 10, 12-15, 17 and 19; docstring: 1-3, 11 and 16;
    # comment-only: 7 and 18; blank: 4, 6, 8 and 9
    assert size.split(SAMPLE) == {"lines": 19, "code": 8, "docstring": 5, "comment": 2,
                                  "blank": 4}


def test_a_module_without_a_final_newline_or_with_a_bare_string():
    assert size.split('"""doc"""') == {"lines": 1, "code": 0, "docstring": 1, "comment": 0,
                                       "blank": 0}
    assert size.split("x = 1\n'a' 'b'\nf('c')\n")["code"] == 3


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "noetherkit").glob("*.py")),
                         ids=lambda p: p.name)
def test_the_parts_sum_to_the_line_count(path):
    text = path.read_text()
    counts = size.split(text)
    assert counts["lines"] == len(text.splitlines())
    assert counts["lines"] == sum(counts[part] for part in size.PARTS[1:])


def test_the_command_prints_a_row_per_file_and_the_total(tmp_path, capsys):
    module = tmp_path / "m.py"
    module.write_text(SAMPLE)
    assert size.main([str(module), str(module)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["file", *size.PARTS]
    assert [row.split() for row in rows] == [[str(module), "19", "8", "5", "2", "4"]] * 2 + [
        ["total", "38", "16", "10", "4", "8"]]
