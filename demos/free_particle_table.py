"""Walk through the eight point symmetries of the 1-d free particle.

Five of them complete to strong solutions of the Killing-type equation and
reproduce the classical integrals (momentum, boost, energy, dilation, squared
boost).  The remaining three admit no strong completion: the check fails with
a concrete acceleration witness, but each still solves the equation on-flow
with a suitable boundary term.
"""

from noetherkit import corpus
from noetherkit.dsl import print_expr
from noetherkit.noether import noether_integral, verify_triple

entry = corpus.load("freeparticle")
sysdef = entry.system
print(f"system: {sysdef.name}, L = {print_expr(sysdef.L)}")
print()

for name in sorted(entry.triples):
    tr = entry.triples[name]
    print(f"{name}: tau = {print_expr(tr.tau)}, xi = {print_expr(tr.xi[0])}, "
          f"f = {print_expr(tr.f)}")
    strong = verify_triple(sysdef, tr, form="strong")
    print(f"  strong: {strong.verdict}", end="")
    if not strong.passed:
        w = strong.worst_point
        print(f"  (witness qddot = {w['qddot']:.4f}, "
              f"residual {strong.max_residual:.2e})")
        onflow = verify_triple(sysdef, tr, form="onflow")
        print(f"  on-flow: {onflow.verdict}")
    else:
        print()
    fi = noether_integral(sysdef, tr)
    print(f"  Noether integral: {print_expr(fi.expr)}"
          f"  (conserved: {fi.verified})")
    print()
