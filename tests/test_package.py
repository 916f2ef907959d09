import ast
import dataclasses
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


# The optional settings of every exported name that has one: the defaulted
# parameters and **kwargs of a function, the defaulted init fields of a
# dataclass.  A name that is not listed has none.
OPTIONS = {
    "Alphabet": ("params",),
    "Exclusion": ("threshold",),
    "SampleDomain": ("var_ranges", "exclusions"),
    "equal_numeric": ("param_values", "domain", "k", "tol", "seed", "include_acc", "label"),
    "total_dt": ("lam",),
    "build_system": ("name", "param_values", "exclusions", "var_ranges"),
    "invert_g_apply": ("seed",),
    "Triple": ("exclusions",),
    "check_conserved": ("k", "tol", "seed", "extra_exclusions", "name"),
    "multiplicity_transform": ("c",),
    "noether_integral": ("k", "tol", "seed"),
    "solve_alt_strong_trivial_gauge": ("c", "seed"),
    "solve_onflow": ("seed",),
    "solve_onflow_simplest": ("c", "seed"),
    "solve_onflow_with_R": ("c", "seed"),
    "solve_strong": ("tau", "seed"),
    "verify_triple": ("integral", "form", "k", "tol", "seed"),
    "integrate": ("dt",),
    "monitor_drift": ("name",),
    "load": ("**kwargs",),
}


def _options(obj) -> tuple[str, ...]:
    if dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj) if f.init and (
            f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING))
    if inspect.isfunction(obj):
        params = inspect.signature(obj).parameters.values()
        return tuple(f"**{p.name}" if p.kind is p.VAR_KEYWORD else p.name for p in params
                     if p.default is not p.empty or p.kind is p.VAR_KEYWORD)
    return ()


def test_every_optional_setting_of_the_exported_names_is_listed():
    found = {name: _options(getattr(noetherkit, name)) for name in noetherkit.__all__}
    assert {name: opts for name, opts in found.items() if opts} == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 44


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        noetherkit.no_such_name
    with pytest.raises(ImportError):
        exec("from noetherkit import no_such_name", {})


MODULES = [m.name for m in pkgutil.iter_modules(noetherkit.__path__)]
PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _assigned(path, name):
    """The literal that ``path`` assigns to ``name`` at its top level."""
    for node in ast.parse(path.read_text()).body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if targets == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def _traced(name):
    """Whether the benchmark's tracer wraps ``name``, ``layer.function``: a
    public function that its noetherkit module defines."""
    layer, _, attr = name.partition(".")
    module = importlib.import_module(f"noetherkit.{layer}")
    obj = getattr(module, attr, None)
    return (not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__)


def test_the_traced_benchmarks_dominant_metrics_read_traced_functions():
    # a traced run is refused when a metric of DOMINANT reads zero; the tracer
    # counts calls of a group's first member and sums the other figures over
    # its members, so a rename or an inlining fails here, not at benchmark time
    dominant = _assigned(PERFBENCH / "run.py", "DOMINANT")
    groups = _assigned(PERFBENCH / "layertrace.py", "GROUPS")
    unread = []
    for metric in sorted({m for metrics in dominant.values() for m in metrics}):
        prefix, _, key = metric.rpartition(".")
        members = groups.get(prefix, (prefix,))
        if metric != "cli.import_s" and not any(
                map(_traced, members[:1] if key == "calls" else members)):
            unread.append(metric)
    assert unread == []


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
# the package's modules, then the scripts beside it
IMPORTERS = SOURCES + sorted(p for d in ("tools", "demos")
                             for p in (Path(__file__).parents[1] / d).glob("*.py"))


@pytest.mark.parametrize("path", IMPORTERS,
                         ids=lambda p: p.name if p in SOURCES else f"{p.parent.name}/{p.name}")
def test_no_module_imports_a_name_it_never_reads(path):
    # a name counts as used when the module reads it or lists it in __all__
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
    read |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
             for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)}
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
