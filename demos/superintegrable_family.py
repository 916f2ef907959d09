"""The superintegrable family behind isochronous oscillations.

The planar system with L = xdot*ydot - G(x)*y has equations of motion
xddot = -G(x), yddot = -G'(x)*y.  Whenever G solves the linear ODE
(c + x^2) G'' + 3x G' - 3G = 0 the system carries a third independent first
integral N3 on top of the obvious N1 and N2.  This script checks the ODE for
several members of the family, verifies the associated triples, and watches
the drift of all three integrals along an RK4 trajectory.
"""

import sympy as sp

from noetherkit import corpus
from noetherkit.dsl import print_expr
from noetherkit.dynamics import functional_independence_rank, integrate, monitor_drift
from noetherkit.noether import verify_triple

x = sp.Symbol("x", real=True)
candidates = [
    (x, 0.0),
    (x**-3, 0.0),
    ((1 + 2 * x**2) / sp.sqrt(1 + x**2), 1.0),
    (x**2, 1.0),  # not a member
]
print("G-ODE membership check, (c + x^2) G'' + 3x G' - 3G = 0:")
for G, c in candidates:
    rep = corpus.check_G_ode(G, c)
    print(f"  G = {print_expr(G)}, c = {c}: {rep.verdict}")
print()

entry = corpus.load("isochrony", G="1/x^3", c=0.0)
sysdef = entry.system
print(f"system: {sysdef.name}")
for label in ("strong_N1", "onflow_N3", "strong_N3"):
    tr = entry.triples[label]
    rep = verify_triple(sysdef, tr, entry.triple_integrals[label])
    print(f"  triple {label} [{tr.form}]: {rep.verdict}")
print()

traj = integrate(sysdef, (0.0, [1.0, 1.0], [0.3, 0.0]), 10.0, dt=1e-3)
note = " (truncated at the x = 0 singular zone)" if traj.truncated else ""
print(f"trajectory: {len(traj.t)} nodes, t in [0, {traj.t[-1]:.3f}]{note}")
for label in ("N1", "N2", "N3"):
    rep = monitor_drift(sysdef, traj, entry.integrals[label], label)
    print(f"  {label}: initial {rep.initial:+.6f}, "
          f"max relative drift {rep.max_rel_drift:.2e}")

rank, per_point = functional_independence_rank(
    sysdef, [entry.integrals[n] for n in ("N1", "N2", "N3")]
)
print(f"functional independence rank of (N1, N2, N3): {rank} "
      f"({per_point.count(rank)}/{len(per_point)} sample points)")
