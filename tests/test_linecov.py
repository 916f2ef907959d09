import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PACKAGE = '''def used(x):
    if x > 0:
        return "positive"
    return "other"


def unused(x):
    y = x + 1
    # a comment
    return y
'''

TESTS = '''from noetherkit import used


def test_used():
    assert used(1) == "positive"
'''


def test_linecov_prints_the_lines_that_never_ran(tmp_path):
    # a copy of the tool traces the synthetic src/noetherkit beside it
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "linecov.py", tmp_path / "tools")
    package = tmp_path / "src" / "noetherkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(PACKAGE)
    (package / "empty.py").write_text("")
    (tmp_path / "test_pkg.py").write_text(TESTS)
    (tmp_path / "pytest.ini").write_text("[pytest]\npythonpath = src\n")
    proc = subprocess.run(
        [sys.executable, "tools/linecov.py", "-q", "-p", "no:cacheprovider", "test_pkg.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = proc.stdout.splitlines()
    assert "1 passed" in proc.stdout
    # line 9 is a comment, so 8 and 10 are one range
    assert report[-3:] == ["# never-run lines of src/noetherkit", "__init__.py: 4, 8-10",
                           "# 4 of 7 executable lines ran"]
