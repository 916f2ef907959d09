"""Operation lists and their expected answers, as pure functions of the seed.

Nothing here imports noetherkit: every expected answer comes from the corpus
notes, the acceptance criteria, Kepler orbital elements and the README's
exit-code table, so the code under test cannot agree with itself by
construction.  Operation ``i`` of a workload is ``Ops(workload, seed)[i]``;
the list is cut into cycles so that any prefix a timed run reaches holds
each kind of operation in fixed proportion.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("roundtrip", "verify_dense", "integrate", "cli_kepler")

TOL = 1e-9
ROUNDTRIP_K = 100
VERIFY_K = 2000
DRIFT_TOL = 1e-6

# README: 0 PASS, 1 verification FAIL, 4 conservation precheck failure,
# 6 trajectory truncated.  Codes 2, 3 and 5 never answer a valid operation.
EXIT_PASS, EXIT_FAIL, EXIT_NOT_CONSERVED, EXIT_TRUNCATED = 0, 1, 4, 6
VERDICT_EXITS = (EXIT_PASS, EXIT_FAIL, EXIT_NOT_CONSERVED, EXIT_TRUNCATED)

# Corpus integrals; each is a first integral of its system (corpus module
# docstring, acceptance criterion 4).
INTEGRALS = {
    "freeparticle": ("momentum", "boost", "energy", "dilation", "boost_squared"),
    "isochrony": ("N1", "N2", "N3"),
    "kepler3d": ("energy", "angmom1", "angmom2", "angmom3",
                 "lrl1", "lrl2", "lrl3", "lrl_u"),
}

# Corpus triples with the form they claim.  Criterion 3 and the corpus notes:
# gamma1-5 are strong, gamma6-8 on-flow only; onflow_N3 is "not a strong
# solution"; criteria 1-2 and the kepler notes give the kepler triples.
TRIPLES = {
    "freeparticle": {
        "gamma1": "strong", "gamma2": "strong", "gamma3": "strong",
        "gamma4": "strong", "gamma5": "strong",
        "gamma6": "onflow", "gamma7": "onflow", "gamma8": "onflow",
    },
    "isochrony": {"strong_N1": "strong", "onflow_N3": "onflow", "strong_N3": "strong"},
    "kepler3d": {
        "onflow_simple": "onflow", "levy_leblond": "onflow", "lrl_gauge": "onflow",
        "family_h0": "onflow", "strong_b": "strong",
    },
}
# On-flow triples known to fail the strong equation, with an acceleration
# coordinate in the witness.
NOT_STRONG = {("freeparticle", "gamma6"), ("freeparticle", "gamma7"),
              ("freeparticle", "gamma8"), ("isochrony", "onflow_N3")}

# Factors of the seeded polynomials: time, first coordinate, first velocity.
FACTORS = ("t", "q1", "v1")

KEPLER_MU = 1.0
# Kepler trajectories truncate once |r|^2 < 0.5, i.e. |r| < 0.707.
PERIHELION_MIN = 0.9
ORBIT_STEPS = 10_000
ORBIT_DT = 1e-3
# Starts known to truncate: radial infall onto the Kepler centre, and the
# criterion-6 isochrony orbit with G = 1/x^3, whose x falls into 0.
INFALL = ([1.0, 0.0, 0.0], [-0.5, 0.0, 0.0])
ISOCHRONY_FALL = ([1.0, 1.0], [0.3, 0.0])

KEPLER_TRIPLE_FILES = ("onflow_simple", "levy_leblond", "lrl_gauge", "family_h0", "strong_b")

# Run length: a run makes seconds * rate operations, at least MIN_OPS.  The
# rate is the seed commit's throughput at nominal speed (see below).  A
# fixed count, not a deadline, so both sides of a comparison make the same
# operations and every run of a workload ends on the same kinds of operation.
NOMINAL_OPS_PER_S = {"roundtrip": 10.0, "verify_dense": 5.0, "integrate": 1.0, "cli_kepler": 0.65}
# The host's speed drifts by a third within minutes, for noetherkit and a
# plain interpreter loop alike (their times correlate at 0.84 per operation
# and agree within a few percent over a second).  So every time is reported
# at nominal speed: multiplied by REFERENCE_NOMINAL_S, the reference loop's
# time (worker.reference_seconds) on the VM above, over the mean of the two
# reference times taken just before and after it.  Across six seeds this
# cut the spread of integrate's ops_per_s from 19% to 5%; wider windows of
# reference times did no better.
REFERENCE_NOMINAL_S = 0.008


def nominal_scales(references: list[float]) -> list[float]:
    """Scale of operation i, run between references[i] and references[i + 1]."""
    return [2 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(references, references[1:])]


# Enough operations for a latency percentile with ten samples beyond it.
MIN_OPS = 11


def planned_ops(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(seconds * NOMINAL_OPS_PER_S[workload]))


def kepler_elements(r, v, mu=KEPLER_MU):
    """Energy, eccentricity and semi-major axis of a Kepler state."""
    rn = math.sqrt(sum(x * x for x in r))
    energy = sum(x * x for x in v) / 2 - mu / rn
    h = (r[1] * v[2] - r[2] * v[1], r[2] * v[0] - r[0] * v[2], r[0] * v[1] - r[1] * v[0])
    vxh = (v[1] * h[2] - v[2] * h[1], v[2] * h[0] - v[0] * h[2], v[0] * h[1] - v[1] * h[0])
    ecc = math.sqrt(sum((vxh[i] - mu * r[i] / rn) ** 2 for i in range(3))) / mu
    a = -mu / (2 * energy) if energy < 0 else math.inf
    return energy, ecc, a


def _unit(rng, n=3):
    while True:
        x = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(c * c for c in x))
        if norm > 1e-3:
            return [c / norm for c in x]


def bound_orbit(rng):
    """A bound Kepler start whose perihelion a(1-e) exceeds PERIHELION_MIN."""
    while True:
        r = [c * rng.uniform(1.0, 1.6) for c in _unit(rng)]
        v = [c * rng.uniform(0.6, 1.2) for c in _unit(rng)]
        energy, ecc, a = kepler_elements(r, v)
        if energy < 0 and a * (1 - ecc) > PERIHELION_MIN:
            return r, v


def _poly(rng, terms):
    """Random polynomial in FACTORS: [coefficient, [factor, ...]] terms."""
    return [
        [rng.choice((-2, -1, 1, 2)), sorted(rng.sample(FACTORS, rng.randint(0, 2)))]
        for _ in range(terms)
    ]


def _cycle_rng(workload, seed, cycle):
    return random.Random(f"{workload}:{seed}:{cycle}")


_PAIRS = [(s, n) for s, names in INTEGRALS.items() for n in names]
_SOLVERS = ("strong", "onflow_simplest", "strong", "onflow_R") * 4


def _roundtrip_cycle(rng, cycle):
    # Every cycle holds each (system, integral) pair once.  Solvers and the
    # non-conserved perturbation rotate over the pairs from cycle to cycle,
    # so any run holds the same pair-solver mix whatever the seed; the seed
    # draws the order, tau, R, the perturbation and the oracle seeds.
    out = []
    for j, (system, integral) in enumerate(_PAIRS):
        solver = _SOLVERS[(j + cycle) % len(_SOLVERS)]
        op = {"system": system, "integral": integral, "solver": solver,
              "seed": rng.randrange(10**6), "expect": "PASS"}
        if solver == "strong":
            op["tau"] = _poly(rng, rng.randint(1, 2))
        elif solver == "onflow_R":
            op["R"] = [_poly(rng, 1) for _ in range(3 if system == "kepler3d" else
                                                    2 if system == "isochrony" else 1)]
        if (j - 2 * cycle) % len(_PAIRS) < 2:  # one operation in eight
            # c*q1 has on-flow derivative c*q1dot, nonzero off q1dot = 0
            op["perturb"] = rng.choice((-1, 1)) * rng.uniform(0.5, 2.0)
            op["expect"] = "NOT_CONSERVED"
        out.append(op)
    rng.shuffle(out)
    return out


def _verify_cycle(rng, cycle):
    # fixed interleaving of cheap and expensive checks, new oracle seed each time
    combos = []
    for system, triples in TRIPLES.items():
        for name, form in triples.items():
            combos.append((system, name, form, "PASS"))
            if form == "strong":  # a strong solution also solves on-flow
                combos.append((system, name, "onflow", "PASS"))
            if (system, name) in NOT_STRONG:
                combos.append((system, name, "strong", "FAIL"))
    kepler = [c for c in combos if c[0] == "kepler3d"]
    rest = [c for c in combos if c[0] != "kepler3d"]
    stride = len(rest) // len(kepler)
    order = []
    for j, c in enumerate(kepler):
        order.append(c)
        order.extend(rest[j * stride:(j + 1) * stride])
    order.extend(rest[len(kepler) * stride:])
    return [
        {"system": s, "triple": n, "form": f, "expect": e, "seed": rng.randrange(10**6)}
        for s, n, f, e in order
    ]


def _integrate_cycle(rng, cycle):
    out = []
    for _ in range(7):
        r, v = bound_orbit(rng)
        out.append({"start": "kepler_bound", "q0": r, "qd0": v, "expect_truncated": False})
    # one start in eight truncates; at a fixed place, so every run of a given
    # length holds the same number of them
    start = rng.choice(("kepler_infall", "isochrony_fall"))
    q0, qd0 = INFALL if start == "kepler_infall" else ISOCHRONY_FALL
    out.insert(4, {"start": start, "q0": list(q0), "qd0": list(qd0),
                   "expect_truncated": True})
    return out


def _cli_cycle(rng, cycle):
    def seed():
        return str(rng.randrange(10**6))

    r, v = bound_orbit(rng)
    state = ",".join(repr(float(x)) for x in [0.0, *r, *v])
    coord = rng.choice(("r1", "r2", "r3"))
    coef = rng.choice((-1, 1)) * round(rng.uniform(0.5, 2.0), 3)
    energy_text = "(r1dot^2+r2dot^2+r3dot^2)/2 - mu/sqrt(r1^2+r2^2+r3^2)"
    # A fixed order, so every run of a given length holds the same kinds.
    return [
        {"argv": ["solve", "kepler.sys", "lrl_u", "--mode", "strong", "--seed", seed()],
         "expect_exit": EXIT_PASS},
        {"argv": ["integrate", "kepler.sys", state, "--t1", str(ORBIT_STEPS * ORBIT_DT),
                  "--monitor", "energy", "lrl_u"],
         "expect_exit": EXIT_PASS, "expect_nodes": ORBIT_STEPS + 1},
        {"argv": ["verify", "kepler.sys", "onflow_simple.tri", "--seed", seed()],
         "expect_exit": EXIT_PASS},
        # tau = u.(v x (r x v))/L, xi = tau*v, f = f(r): the acceleration
        # coefficient of the strong residual is d_v(u.(v x (r x v))) != 0
        {"argv": ["verify", "kepler.sys", "onflow_simple.tri", "--form", "strong",
                  "--seed", seed()],
         "expect_exit": EXIT_FAIL, "witness": {"triple": "onflow_simple", "form": "strong"}},
        {"argv": ["verify", "kepler.sys", "levy_leblond.tri", "--seed", seed()],
         "expect_exit": EXIT_PASS},
        {"argv": ["solve", "kepler.sys", "lrl_u", "--mode", "onflow-simplest", "--seed", seed()],
         "expect_exit": EXIT_PASS},
        {"argv": ["verify", "kepler.sys", "lrl_gauge.tri", "--seed", seed()],
         "expect_exit": EXIT_PASS},
        {"argv": ["verify", "kepler.sys", "family_h0.tri", "--seed", seed()],
         "expect_exit": EXIT_PASS},
        {"argv": ["solve", "kepler.sys", f"{energy_text} + {coef!r}*{coord}",
                  "--mode", "strong", "--seed", seed()],
         "expect_exit": EXIT_NOT_CONSERVED,
         "witness": {"energy_plus": [coef, coord]}},
        {"argv": ["verify", "kepler.sys", "strong_b.tri", "--seed", seed()],
         "expect_exit": EXIT_PASS},
    ]


_CYCLES = {
    "roundtrip": _roundtrip_cycle,
    "verify_dense": _verify_cycle,
    "integrate": _integrate_cycle,
    "cli_kepler": _cli_cycle,
}


class Ops:
    """Lazy, unbounded operation list of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in _CYCLES:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self._ops: list[dict] = []
        self._cycles = 0

    def __getitem__(self, i: int) -> dict:
        while len(self._ops) <= i:
            rng = _cycle_rng(self.workload, self.seed, self._cycles)
            self._ops.extend(_CYCLES[self.workload](rng, self._cycles))
            self._cycles += 1
        return self._ops[i]

    def digest(self, n: int = 64) -> str:
        """Hash of the first n operations; equal across processes and runs."""
        ops = [self[i] for i in range(n)]
        return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()[:16]
