"""Workload executors: set-up, one operation, and the check of its answer.

``run(op)`` returns the operation's outcome (JSON data, compared across
processes for determinism) and a context kept for ``check``.  ``check``
compares the outcome with the answer ``spec`` expects and re-evaluates the
residual at every FAIL witness; it runs untimed and untraced.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import sympy as sp

import spec
import witness
from spec import TOL

# Calls go through module attributes so that the tracer's wrappers see them.
from noetherkit import corpus, dynamics, expressions, noether, sysfile


@dataclass
class Check:
    """Result of checking one operation against its expected answer."""

    failed: bool = False  # raised, or exited with a code that is no verdict
    wrong: bool = False  # verdict, exit code or truncation flag differs
    bad_witness: bool = False  # a FAIL whose witness does not reproduce it
    note: str = ""


def _poly(terms, alphabet):
    factors = {
        "t": alphabet.t,
        "q1": alphabet.coord_symbols[0],
        "v1": alphabet.velocity_symbols[0],
    }
    return sum((c * sp.Mul(*(factors[f] for f in fs)) for c, fs in terms), sp.Integer(0))


def _has_acceleration(point, alphabet):
    return any(s.name in point for s in alphabet.acceleration_symbols)


def _confirm(a, b, point, alphabet):
    return witness.confirms(a, b, point, alphabet, expressions.evaluate)


def _load_corpus():
    return {name: corpus.load(name) for name in spec.INTEGRALS}


class Roundtrip:
    """check_conserved, one reverse-Noether solver, noether_integral, identity."""

    def __init__(self):
        self.entries = _load_corpus()

    def run(self, op):
        entry = self.entries[op["system"]]
        sysdef = entry.system
        ab = sysdef.alphabet
        N = entry.integrals[op["integral"]]
        if "perturb" in op:
            N = N + op["perturb"] * ab.coord_symbols[0]
        seed, k = op["seed"], spec.ROUNDTRIP_K
        fi = noether.check_conserved(sysdef, N, k=k, tol=TOL, seed=seed, name=op["integral"])
        ctx = {"N": N, "fi": fi}
        try:
            if op["solver"] == "strong":
                tr = noether.solve_strong(sysdef, fi, _poly(op["tau"], ab), seed=seed)
            elif op["solver"] == "onflow_simplest":
                tr = noether.solve_onflow_simplest(sysdef, fi, seed=seed)
            else:
                R = [_poly(terms, ab) for terms in op["R"]]
                tr = noether.solve_onflow_with_R(sysdef, fi, R, seed=seed)
        except noether.NotConservedError as err:
            ctx["not_conserved"] = err.report
            return {"verdict": "NOT_CONSERVED", "witness": err.report.worst_point}, ctx
        out = noether.noether_integral(sysdef, tr, k=k, tol=TOL, seed=seed)
        same = sysdef.check(out.expr, N, k=k, tol=TOL, seed=seed,
                            extra_exclusions=tr.exclusions)
        ctx.update(out=out, same=same)
        passed = fi.verified and out.verified and same.passed
        outcome = {"verdict": "PASS" if passed else "FAIL"}
        if not passed:
            failing = next(r for r in (fi.conservation, out.conservation, same) if not r.passed)
            outcome["witness"] = failing.worst_point
        return outcome, ctx

    def check(self, op, outcome, ctx):
        system = op["system"]
        ab = self.entries[system].system.alphabet
        res = Check(wrong=outcome["verdict"] != op["expect"])
        if outcome["verdict"] == "NOT_CONSERVED":
            if ctx["fi"].verified:
                res.wrong = True
            w = ctx["not_conserved"].worst_point
            res.bad_witness = not _confirm(witness.d_dt(ctx["N"], system), 0, w, ab)
        elif outcome["verdict"] == "FAIL":
            fi, out, same = ctx["fi"], ctx["out"], ctx["same"]
            if not fi.verified:
                pair = (witness.d_dt(ctx["N"], system), 0, fi.conservation.worst_point)
            elif not out.verified:
                pair = (witness.d_dt(out.expr, system), 0, out.conservation.worst_point)
            else:
                pair = (out.expr, ctx["N"], same.worst_point)
            res.bad_witness = not _confirm(pair[0], pair[1], pair[2], ab)
        return res


class VerifyDense:
    """verify_triple on the corpus triples at k = 2000, own and crossed forms."""

    def __init__(self):
        self.entries = _load_corpus()

    def run(self, op):
        entry = self.entries[op["system"]]
        tr = entry.triples[op["triple"]]
        rep = noether.verify_triple(entry.system, tr, entry.triple_integrals[op["triple"]],
                                    form=op["form"], k=spec.VERIFY_K, tol=TOL, seed=op["seed"])
        outcome = {"verdict": rep.verdict}
        if not rep.passed:
            outcome["witness"] = rep.worst_point
        return outcome, {"rep": rep}

    def check(self, op, outcome, ctx):
        rep = ctx["rep"]
        entry = self.entries[op["system"]]
        sysdef, tr = entry.system, entry.triples[op["triple"]]
        ab = sysdef.alphabet
        res = Check(wrong=outcome["verdict"] != op["expect"])
        if rep.passed:
            return res
        strong = op["form"] == "strong"
        if op["expect"] == "FAIL" and not _has_acceleration(rep.worst_point, ab):
            res.wrong = True
        if rep.max_residual > rep.tol:
            lhs, rhs = witness.killing_sides(op["system"], sysdef.L, tr.tau, tr.xi, tr.f, strong)
            res.bad_witness = not _confirm(lhs, rhs, rep.worst_point, ab)
        else:  # only the Noether-integral identity failed
            ic = rep.integral_check
            L, vs = sysdef.L, ab.velocity_symbols
            cand = tr.f - L * tr.tau - sum(
                sp.diff(L, v) * (x - v * tr.tau) for v, x in zip(vs, tr.xi))
            N = entry.triple_integrals[op["triple"]]
            res.bad_witness = not _confirm(cand, N, ic.worst_point, ab)
        return res


class Integrate:
    """RK4 integrate plus monitor_drift on Kepler orbits and falling starts."""

    def __init__(self):
        self.kepler = corpus.load("kepler3d")
        self.steep = corpus.load("isochrony", G="1/x^3", c=0.0)

    def run(self, op):
        if op["start"] == "isochrony_fall":
            entry, monitors = self.steep, ("N3",)
        else:
            entry, monitors = self.kepler, ("energy", "lrl_u")
        sysdef = entry.system
        traj = dynamics.integrate(sysdef, (0.0, op["q0"], op["qd0"]),
                                  spec.ORBIT_STEPS * spec.ORBIT_DT, dt=spec.ORBIT_DT)
        drifts = [dynamics.monitor_drift(sysdef, traj, entry.integrals[m], m) for m in monitors]
        return {
            "verdict": "TRUNCATED" if traj.truncated else "COMPLETE",
            "steps": len(traj.t) - 1,
            "drift": [d.max_rel_drift for d in drifts],
        }, {}

    def check(self, op, outcome, ctx):
        res = Check(wrong=(outcome["verdict"] == "TRUNCATED") != op["expect_truncated"])
        if not op["expect_truncated"]:
            res.wrong |= outcome["steps"] != spec.ORBIT_STEPS
            res.wrong |= not all(d < spec.DRIFT_TOL for d in outcome["drift"])
        return res


class CliKepler:
    """One ``python -m noetherkit.cli`` process per operation on kepler3d files."""

    def __init__(self, root, work, traced):
        self.root = Path(root)
        self.work = Path(work)
        self.traced = traced
        self.entry = corpus.load("kepler3d")
        sysfile.write_system_file(self.work / "kepler.sys", self.entry.system,
                                  integrals=self.entry.integrals)
        for name in spec.KEPLER_TRIPLE_FILES:
            sysfile.write_triple_file(self.work / f"{name}.tri",
                                      {name: self.entry.triples[name].simplified()})
        self.env = dict(os.environ)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.child_stats: list[dict] = []
        self._n = 0

    def run(self, op):
        self._n += 1
        if self.traced:
            trace_out = self.work / f"trace-{self._n}.json"
            cmd = [sys.executable, str(self.root / "perfbench" / "traced_cli.py"),
                   str(trace_out), *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "noetherkit.cli", *op["argv"]]
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                              timeout=60)
        if self.traced and trace_out.exists():
            self.child_stats.append(json.loads(trace_out.read_text()))
            trace_out.unlink()
        outcome = {"exit": proc.returncode,
                   "report_sha256": hashlib.sha256(proc.stdout).hexdigest()}
        return outcome, {"stdout": proc.stdout, "stderr": proc.stderr.decode(errors="replace")}

    def check(self, op, outcome, ctx):
        code, err = outcome["exit"], ctx["stderr"]
        if "Traceback" in err or code not in spec.VERDICT_EXITS:
            lines = err.strip().splitlines()
            return Check(failed=True, note=lines[-1] if lines else f"exit {code}")
        res = Check(wrong=code != op["expect_exit"])
        if res.wrong:
            return res
        ab = self.entry.system.alphabet
        report = json.loads(ctx["stdout"]) if ctx["stdout"].strip() else {}
        cmd = op["argv"][0]
        if cmd == "solve" and code == spec.EXIT_PASS:
            res.wrong = report["verification"]["verdict"] != "PASS"
        elif cmd == "verify":
            verdicts = {r["verdict"] for r in report["reports"]}
            res.wrong = verdicts != {"PASS" if code == spec.EXIT_PASS else "FAIL"}
        elif cmd == "integrate":
            res.wrong = (report["truncated"] or report["nodes"] != op["expect_nodes"]
                         or not all(d["max_rel_drift"] < spec.DRIFT_TOL for d in report["drift"]))
        if "witness" not in op:
            return res
        w = op["witness"]
        if "triple" in w:
            rep = report["reports"][0]
            if not _has_acceleration(rep["worst_point"], ab):
                res.wrong = True
            tr = self.entry.triples[w["triple"]]
            lhs, rhs = witness.killing_sides("kepler3d", self.entry.system.L,
                                             tr.tau, tr.xi, tr.f, strong=True)
            res.bad_witness = not _confirm(lhs, rhs, rep["worst_point"], ab)
        else:
            coef, coord = w["energy_plus"]
            point = ast.literal_eval(err[err.index("{"):err.rindex("}") + 1])
            N = self.entry.integrals["energy"] + coef * ab.lookup(coord)
            res.bad_witness = not _confirm(witness.d_dt(N, "kepler3d"), 0, point, ab)
        return res


def make(workload, root, work, traced):
    if workload == "roundtrip":
        return Roundtrip()
    if workload == "verify_dense":
        return VerifyDense()
    if workload == "integrate":
        return Integrate()
    if workload == "cli_kepler":
        return CliKepler(root, work, traced)
    raise ValueError(f"unknown workload {workload!r}")


def peak_rss_kb(wl):
    # the CLI workload measures its per-operation processes, not itself
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliKepler) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss
