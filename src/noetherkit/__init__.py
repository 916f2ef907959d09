"""Symbolic-numeric toolkit for Killing-type equations of Lagrangian ODE
systems: given L and a first integral N, build and verify solution triples
(tau, xi, f) in the on-flow, strong, and alternative interpretations.

The names below are re-exported lazily (PEP 562): ``import noetherkit``
loads neither sympy nor numpy, and the first access to a name, or to a
submodule such as ``noetherkit.corpus``, imports the submodule that defines
it.  So ``python -m noetherkit.cli`` can set up its process before they load.
"""

import importlib

_EXPORTS = {
    "expressions": (
        "Alphabet",
        "DomainViolation",
        "Exclusion",
        "IdentityReport",
        "SampleDomain",
        "SamplingError",
        "TotalDerivative",
        "UndeclaredSymbolError",
        "diff",
        "equal_numeric",
        "evaluate",
        "tidy",
        "total_dt",
    ),
    "dsl": ("ExprSyntaxError", "parse", "print_expr"),
    "mechanics": (
        "LagrangianSystem",
        "RegularityError",
        "build_system",
        "el_residual",
        "invert_g_apply",
    ),
    "noether": (
        "FORMS",
        "FirstIntegral",
        "NotConservedError",
        "Triple",
        "VerificationReport",
        "check_conserved",
        "convert_standard_alternative",
        "killing_lhs",
        "multiplicity_transform",
        "noether_integral",
        "solve_alt_strong_trivial_gauge",
        "solve_onflow",
        "solve_onflow_simplest",
        "solve_onflow_with_R",
        "solve_strong",
        "trivialize",
        "velocity_independence_check",
        "verify_triple",
    ),
    "dynamics": (
        "DriftReport",
        "Trajectory",
        "functional_independence_rank",
        "integrate",
        "monitor_drift",
    ),
    "corpus": ("CORPUS_NAMES", "CorpusEntry", "check_G_ode", "load"),
}
# exported name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_ORIGIN, *_EXPORTS})
