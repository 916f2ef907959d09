import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noetherkit

# Every name the package exports, with the submodule that defines it.
EXPORTS = {
    **dict.fromkeys([
        "Alphabet", "DomainViolation", "Exclusion", "IdentityReport", "SampleDomain",
        "SamplingError", "TotalDerivative", "UndeclaredSymbolError", "diff",
        "equal_numeric", "evaluate", "tidy", "total_dt",
    ], "expressions"),
    **dict.fromkeys(["ExprSyntaxError", "parse", "print_expr"], "dsl"),
    **dict.fromkeys(["LagrangianSystem", "RegularityError", "build_system", "el_residual",
                     "invert_g_apply"], "mechanics"),
    **dict.fromkeys([
        "FORMS", "FirstIntegral", "NotConservedError", "Triple", "VerificationReport",
        "check_conserved", "convert_standard_alternative", "killing_lhs",
        "multiplicity_transform", "noether_integral", "solve_alt_strong_trivial_gauge",
        "solve_onflow", "solve_onflow_simplest", "solve_onflow_with_R", "solve_strong",
        "trivialize", "velocity_independence_check", "verify_triple",
    ], "noether"),
    **dict.fromkeys(["DriftReport", "Trajectory", "functional_independence_rank",
                     "integrate", "monitor_drift"], "dynamics"),
    **dict.fromkeys(["CORPUS_NAMES", "CorpusEntry", "check_G_ode", "load"], "corpus"),
}


def test_import_loads_neither_sympy_nor_numpy():
    script = (
        "import sys\n"
        "import noetherkit\n"
        "print(*(m for m in ('sympy', 'numpy') if m in sys.modules))\n"
        "print(noetherkit.corpus.__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(noetherkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "noetherkit.corpus"]


@pytest.mark.parametrize("name", EXPORTS)
def test_exported_names_are_their_submodules_objects(name):
    module = importlib.import_module(f"noetherkit.{EXPORTS[name]}")
    assert getattr(noetherkit, name) is getattr(module, name)


def test_star_import_and_dir_list_the_exported_names():
    assert len(EXPORTS) == 48
    namespace = {}
    exec("from noetherkit import *", namespace)
    assert set(EXPORTS) <= namespace.keys()
    assert set(EXPORTS) <= set(dir(noetherkit))
    assert sorted(noetherkit.__all__) == sorted(EXPORTS)


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        noetherkit.no_such_name
    with pytest.raises(ImportError):
        exec("from noetherkit import no_such_name", {})
