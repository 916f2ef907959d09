"""Drawn Lagrangians, n = 1 to 4, each answer built by hand in sympy.

L = qdot.g.qdot/2 - V with g = diag(1 + a_i q_i^2) + b q q^T (a_i, b > 0, so
g is positive definite and the system regular) and V a sum of cos q_i,
exp(q_i q_j)/c, q_i^2 and 1/(1 + q_i^2).  L does not read t, so its energy
p.qdot - L is conserved.
"""

import numpy as np
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from noetherkit.dynamics import integrate
from noetherkit.expressions import Alphabet
from noetherkit.mechanics import build_system
from noetherkit.noether import check_conserved, solve_strong, verify_triple

from conftest import _exact_residual

_R = sp.Rational
_rational = st.builds(sp.Rational, st.integers(1, 4), st.integers(1, 4))
_POTENTIAL = {
    "cos": lambda qi, qj, c: sp.cos(qi),
    "exp": lambda qi, qj, c: sp.exp(qi * qj) / c,
    "square": lambda qi, qj, c: qi**2,
    "lorentz": lambda qi, qj, c: 1 / (1 + qi**2),
}


@st.composite
def _specs(draw):
    """(n, a, b, terms), each term (kind, i, j, c) of the potential."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    a = tuple(draw(st.lists(_rational, min_size=n, max_size=n)))
    term = st.tuples(st.sampled_from(sorted(_POTENTIAL)), index, index, _rational)
    return n, a, draw(_rational), tuple(draw(st.lists(term, min_size=1, max_size=3)))


def _lagrangian(spec):
    n, a, b, terms = spec
    ab = Alphabet(coords=tuple(f"q{i + 1}" for i in range(n)))
    q, v = sp.Matrix(ab.coord_symbols), sp.Matrix(ab.velocity_symbols)
    g = sp.diag(*[1 + ai * qi**2 for ai, qi in zip(a, q)]) + b * q * q.T
    V = sp.Add(*[_POTENTIAL[kind](q[i], q[j], c) for kind, i, j, c in terms])
    return ab, g, (v.T * g * v)[0] / 2 - V


# this draw and its @example cases take about 3 s together (2 vCPU)
@settings(max_examples=12)
@given(spec=_specs(), eps=st.sampled_from((1e-3, 1.0)))
@example(spec=(4, (_R(1), _R(1, 2), _R(3, 4), _R(2)), _R(1, 3),
               (("exp", 0, 3, _R(2)), ("lorentz", 1, 1, _R(1)), ("square", 2, 2, _R(1)))),
         eps=1e-3)
@example(spec=(2, (_R(1, 4), _R(3)), _R(2),
               (("cos", 0, 0, _R(1)), ("exp", 0, 1, _R(3, 2)), ("cos", 1, 1, _R(1)))),
         eps=1.0)
def test_a_drawn_lagrangian_conserves_its_energy(spec, eps):
    ab, g, L = _lagrangian(spec)
    sysdef = build_system(L, ab, name="drawn")
    q, v = ab.coord_symbols, ab.velocity_symbols
    p = [sp.diff(L, vi) for vi in v]
    E = sp.Add(*[pi * vi for pi, vi in zip(p, v)]) - L
    assert check_conserved(sysdef, E).verified

    # a perturbed energy fails, and its witness fails in exact arithmetic:
    # N_dot = dN/dq.qdot + dN/dqdot.Lam, with Lam sympy's solve of
    # g.Lam = rhs at the witness
    N = E + eps * q[0] * v[-1]
    rep = check_conserved(sysdef, N).conservation
    assert not rep.passed
    at = {s: sp.Float(rep.worst_point[s.name], 30) for s in (*q, *v)}
    rhs = sp.Matrix([sp.diff(L, qi) - sum(sp.diff(pi, qj) * vj for qj, vj in zip(q, v))
                     for qi, pi in zip(q, p)])
    lam = g.xreplace(at).LUsolve(rhs.xreplace(at))
    n_dot = sum(sp.diff(N, qi) * vi + sp.diff(N, vi) * li for qi, vi, li in zip(q, v, lam))
    assert _exact_residual(n_dot, 0, rep.worst_point) > rep.tol

    assert verify_triple(sysdef, solve_strong(sysdef, E), E).passed

    n = len(q)
    run = integrate(sysdef, (0.0, [0.3] * n, [0.1] * n), t1=1.0)
    assert len(run.t) == 1001 and not run.truncated
    energy = sp.lambdify([*q, *v], E)
    values = np.array([energy(*row) for row in np.hstack([run.q, run.qdot])])
    assert np.abs(values / values[0] - 1).max() < 1e-6
