"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line with capture suspended, so the
verdicts are visible inline in the pytest log.
"""

import random
import time

import pytest
import sympy as sp

from noetherkit.corpus import check_G_ode, kepler_family_triple
from noetherkit.dynamics import functional_independence_rank, integrate, monitor_drift
from noetherkit.noether import (
    check_conserved,
    convert_standard_alternative,
    multiplicity_transform,
    noether_integral,
    solve_alt_strong_trivial_gauge,
    solve_onflow_simplest,
    solve_onflow_with_R,
    solve_strong,
    velocity_independence_check,
    verify_triple,
)

K = 100
TOL = 1e-9


class _Reporter:
    def __init__(self, capfd):
        self._capfd = capfd

    def note(self, line: str) -> None:
        with self._capfd.disabled():
            print(line, flush=True)

    def __call__(self, num: int, name: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {num} ({name}): {verdict}"
        if detail:
            line += f"  [{detail}]"
        self.note(line)
        assert ok, line


@pytest.fixture()
def report(capfd):
    return _Reporter(capfd)


def _pool(sysdef):
    ab = sysdef.alphabet
    q1, v1 = ab.coord_symbols[0], ab.velocity_symbols[0]
    return [sp.Integer(0), sp.Integer(1), ab.t, q1 * v1, sp.sin(ab.t)]


def test_criterion_1_kepler_onflow_family(kepler, report):
    sysdef = kepler.system
    ab = sysdef.alphabet
    hs = [sp.Integer(0), ab.t, ab.coord_symbols[0] * ab.velocity_symbols[0]]
    ok = True
    for h in hs:
        tr = kepler_family_triple(sysdef, h)
        rep = verify_triple(sysdef, tr, kepler.integrals["lrl_u"], k=K, tol=TOL)
        ok = ok and rep.passed
    report(1, "kepler on-flow family h in {0, t, q1*q1dot}", ok)


def test_criterion_2_kepler_strong(kepler, report):
    sysdef = kepler.system
    tr = kepler.triples["strong_b"]
    rep = verify_triple(sysdef, tr, k=K, tol=TOL)
    fi = noether_integral(sysdef, tr, k=K, tol=TOL)
    match = sysdef.check(fi.expr, kepler.integrals["lrl_u"], k=K, tol=TOL)
    report(2, "kepler strong b-vector triple and integral -u.A",
            rep.passed and fi.verified and match.passed)


def test_criterion_3_free_particle_table(fp, report):
    sysdef = fp.system
    strong_names = ("gamma1", "gamma2", "gamma3", "gamma4", "gamma5")
    ok = True
    for name in strong_names:
        rep = verify_triple(sysdef, fp.triples[name], k=K, tol=TOL)
        fi = noether_integral(sysdef, fp.triples[name], k=K, tol=TOL)
        match = sysdef.check(fi.expr, fp.triple_integrals[name], k=K, tol=TOL)
        ok = ok and rep.passed and fi.verified and match.passed
    for name in ("gamma6", "gamma7", "gamma8"):
        tr = fp.triples[name]
        strong = verify_triple(sysdef, tr, form="strong", k=K, tol=TOL)
        ok = ok and not strong.passed and "qddot" in strong.worst_point
        if not strong.passed:
            report.note(f"  {name} strong witness: qddot = "
                        f"{strong.worst_point['qddot']:.6f}, residual "
                        f"{strong.max_residual:.3e}")
        onflow = verify_triple(sysdef, tr, fp.triple_integrals[name],
                               form="onflow", k=K, tol=TOL)
        ok = ok and onflow.passed
    report(3, "free particle table: gamma1-5 strong, gamma6-8 on-flow only", ok)


def test_criterion_4_reverse_noether_round_trip(fp, iso, kepler, report):
    rng = random.Random(0)
    ok = True
    for entry in (fp, iso, kepler):
        sysdef = entry.system
        pool = _pool(sysdef)
        for label, N in entry.integrals.items():
            fi = check_conserved(sysdef, N, k=K, tol=TOL, name=label)
            assert fi.verified, label
            for tau in rng.sample(pool, 5):
                tr = solve_strong(sysdef, fi, tau)
                out = noether_integral(sysdef, tr, k=K, tol=TOL)
                same = sysdef.check(out.expr, N, k=K, tol=TOL,
                                    extra_exclusions=tr.exclusions)
                ok = ok and out.verified and same.passed
            for tr in (
                solve_onflow_simplest(sysdef, fi),
                solve_onflow_with_R(sysdef, fi, rng.sample(pool, sysdef.n)),
            ):
                out = noether_integral(sysdef, tr, k=K, tol=TOL)
                same = sysdef.check(out.expr, N, k=K, tol=TOL,
                                    extra_exclusions=tr.exclusions)
                ok = ok and out.verified and same.passed
    report(4, "reverse-Noether round trips over the corpus", ok)


def test_criterion_5_multiplicity_invariance(fp, iso, kepler, report):
    cases = [
        (fp, "gamma5"),
        (iso, "strong_N1"),
        (kepler, "lrl_gauge"),
    ]
    ok = True
    for entry, label in cases:
        sysdef = entry.system
        N = entry.triple_integrals[label]
        for h in _pool(sysdef):
            tr = multiplicity_transform(sysdef, entry.triples[label], h)
            rep = verify_triple(sysdef, tr, N, k=K, tol=TOL)
            ok = ok and rep.passed and tr.form == entry.triples[label].form
    report(5, "multiplicity transform preserves form and integral", ok)


def test_criterion_6_superintegrable_family(iso_steep, report):
    x = sp.Symbol("x", real=True)
    ode_ok = (
        check_G_ode(x, 0.0).passed
        and check_G_ode(x**-3, 0.0).passed
        and check_G_ode((1 + 2 * x**2) / sp.sqrt(1 + x**2), 1.0).passed
        and not check_G_ode(x**2, 1.0).passed
    )
    sysdef = iso_steep.system
    traj = integrate(sysdef, (0.0, [1.0, 1.0], [0.3, 0.0]), 10.0, dt=1e-3)
    drift = monitor_drift(sysdef, traj, iso_steep.integrals["N3"], "N3")
    drift_ok = drift.max_rel_drift < 1e-6
    rank, per_point = functional_independence_rank(
        sysdef, [iso_steep.integrals[n] for n in ("N1", "N2", "N3")]
    )
    rank_ok = rank == 3 and per_point.count(3) >= 9
    report(6, "superintegrable family: G-ode, N3 drift, rank 3",
            ode_ok and drift_ok and rank_ok,
            f"drift {drift.max_rel_drift:.2e}, rank {rank}")


def test_criterion_7_velocity_independence(fp, iso, kepler, report):
    admissible = velocity_independence_check(iso.system, iso.integrals["N1"])
    ab = fp.system.alphabet
    q, qd, t = ab.coord_symbols[0], ab.velocity_symbols[0], ab.t
    cubic = velocity_independence_check(fp.system, (q - t * qd) ** 3)
    lrl = velocity_independence_check(kepler.system, kepler.integrals["lrl_u"])
    ok = (
        admissible.admissible
        and admissible.triple is not None
        and not cubic.admissible and cubic.witness is not None
        and not lrl.admissible and lrl.witness is not None
    )
    report(7, "velocity-independence verdicts", ok)


def test_criterion_8_alternative_form(fp, kepler, report):
    ok = True
    for tr in list(fp.triples.values()) + [kepler.triples["strong_b"]]:
        home = fp.system if len(tr.xi) == 1 else kepler.system
        back = convert_standard_alternative(home, convert_standard_alternative(home, tr))
        ok = ok and back.form == tr.form
        ok = ok and sp.simplify(back.tau - tr.tau) == 0
        ok = ok and all(sp.simplify(a - b) == 0 for a, b in zip(back.xi, tr.xi))
        ok = ok and sp.simplify(back.f - tr.f) == 0
    # L is bounded away from zero on the kepler sampling domain
    sysdef = kepler.system
    for label, N in kepler.integrals.items():
        tr = solve_alt_strong_trivial_gauge(sysdef, N)
        rep = verify_triple(sysdef, tr, k=K, tol=TOL)
        fi = noether_integral(sysdef, tr, k=K, tol=TOL)
        same = sysdef.check(fi.expr, N, k=K, tol=TOL,
                            extra_exclusions=tr.exclusions)
        ok = ok and rep.passed and fi.verified and same.passed
    report(8, "alternative convention: conversion identity and solver", ok)


def test_criterion_9_integrator_order(kepler, report):
    sysdef = kepler.system
    start = time.monotonic()
    drifts = {}
    for dt in (2e-3, 1e-3):
        traj = integrate(sysdef, (0.0, [1.0, 0.0, 0.0], [0.0, 1.2, 0.1]),
                         10.0, dt=dt)
        assert not traj.truncated
        drifts[dt] = monitor_drift(sysdef, traj, kepler.integrals["energy"],
                                   "energy").max_abs_drift
    elapsed = time.monotonic() - start
    ratio = drifts[2e-3] / drifts[1e-3]
    report(9, "RK4 order-4 energy drift ratio on an eccentric orbit",
            ratio >= 8 and elapsed < 60.0,
            f"ratio {ratio:.1f}, {elapsed:.1f}s")
