"""Symbolic-numeric toolkit for Killing-type equations of Lagrangian ODE
systems: given L and a first integral N, build and verify solution triples
(tau, xi, f) in the on-flow, strong, and alternative interpretations."""

from .expressions import (
    Alphabet,
    DomainViolation,
    Exclusion,
    IdentityReport,
    SampleDomain,
    SamplingError,
    TotalDerivative,
    UndeclaredSymbolError,
    diff,
    equal_numeric,
    evaluate,
    substitute,
    tidy,
    total_dt,
)
from .dsl import ExprSyntaxError, parse, print_expr
from .mechanics import LagrangianSystem, RegularityError, build_system, el_residual, invert_g_apply
from .noether import (
    FORMS,
    FirstIntegral,
    NotConservedError,
    Triple,
    VerificationReport,
    check_conserved,
    convert_standard_alternative,
    killing_lhs,
    multiplicity_transform,
    noether_integral,
    solve_alt_strong_trivial_gauge,
    solve_onflow,
    solve_onflow_simplest,
    solve_onflow_with_R,
    solve_strong,
    trivialize,
    velocity_independence_check,
    verify_triple,
)
from .dynamics import (
    DriftReport,
    Trajectory,
    functional_independence_rank,
    integrate,
    monitor_drift,
)
from .corpus import CORPUS_NAMES, CorpusEntry, check_G_ode, load

__version__ = "0.1.0"
