import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path
from types import SimpleNamespace

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
    **dict.fromkeys(["LagrangianSystem", "RegularityError", "build_system",
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
    assert len(EXPORTS) == 47
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


MODULES = [m.name for m in pkgutil.iter_modules(noetherkit.__path__)]


def _defined(namespace, module_name):
    """The functions and classes in namespace that module_name defines, with
    memoizing wrappers unwrapped and properties as their getters."""
    for value in namespace.values():
        value = value.fget if isinstance(value, property) else value
        value = inspect.unwrap(getattr(value, "__func__", value))
        if (inspect.isfunction(value) or inspect.isclass(value)) \
                and value.__module__ == module_name:
            yield value


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(f"noetherkit.{name}")
    for obj in _defined(vars(module), module.__name__):
        if inspect.isfunction(obj):
            typing.get_type_hints(obj)
            continue
        # a class's own annotations only: sympy leaves some inherited ones unresolved
        own = SimpleNamespace(__annotations__=vars(obj).get("__annotations__", {}))
        typing.get_type_hints(own, vars(module), dict(vars(obj)))
        for method in _defined(vars(obj), module.__name__):
            typing.get_type_hints(method)


SOURCES = sorted(Path(noetherkit.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert {name: line for name, line in imported.items() if name not in read} == {}


def test_only_derived_writes_into_a_frozen_value():
    # a frozen dataclass is set at construction only: noether._derived adds
    # the eta it was built with, and nothing else writes into one later
    sites = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            sites |= {(path.name, getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and node.attr == "__setattr__"}
    assert sites <= {("noether.py", "_derived")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_alphabet_spells_the_velocity_and_acceleration_suffixes(path):
    # a name such as qdot or qddot is the Alphabet's to form; every other
    # module asks it for the symbols
    tree = ast.parse(path.read_text())
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "Alphabet"
              for node in ast.walk(cls)}
    spelled = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and node.value in ("dot", "ddot")
               and id(node) not in inside]
    assert spelled == []
