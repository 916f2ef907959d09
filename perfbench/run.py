"""noetherkit benchmark: time to verdict on four seeded workloads.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Each workload runs in its own process as a closed loop with one client,
making the operations the seed commit completes in --seconds at nominal
speed (spec.planned_ops).  Times are reported at nominal machine speed
(spec.nominal_scales); the time_scale line gives the factor applied.  The
operations are a pure function of --seed, and every verdict, exit code and
truncation flag is checked against an answer known without the code under
test (spec.py); every FAIL witness is re-evaluated.

--trace 0 prints the end-to-end metrics; --trace 1 wraps noetherkit's public
functions from this directory (layertrace.py) and prints per-layer metrics.
``--workload all`` runs every workload untraced and traced, and also prints
the tracing overhead.  Output: ``name value unit`` lines, then one JSON line
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every
answer is correct, 1 when not, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layertrace
import spec

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 1  # set-up-only processes; the replay and run processes add two samples
PROBE_TIMEOUT = 30.0
RUN_GRACE = 40.0  # beyond the worker's own time limit
TAIL_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics named in each workload's reason for being in the
# benchmark; a traced run in which one of them reads zero is refused.
DOMINANT = {
    "roundtrip": ("expressions.compile_fn.calls", "expressions.compile_fn.self_s",
                  "expressions.total_dt.self_s", "noether.solve.calls"),
    "verify_dense": ("expressions.compile_fn.self_s", "expressions.draw_points.self_s",
                     "expressions.draw_points.attempts", "expressions.equal_numeric.self_s",
                     "expressions.equal_numeric.points"),
    "integrate": ("dynamics.integrate.self_s", "dynamics.integrate.steps",
                  "expressions.compile_fn.self_s", "dynamics.monitor_drift.nodes"),
    "cli_kepler": ("cli.import_s", "cli.main.self_s", "dsl.parse.calls", "dsl.parse.self_s",
                   "mechanics.build_system.calls", "expressions.tidy.self_s"),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(cmd, timeout):
    """Run a worker in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(cmd[2:])}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(cmd[2:])}")
    return json.loads(out.strip().splitlines()[-1])


def _worker(workload, seed, role, seconds=0.0, trace=0, timeout=PROBE_TIMEOUT):
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--role", role, "--seconds", repr(seconds),
           "--trace", str(trace)]
    return _child(cmd + ["--spawned-at", repr(time.monotonic())], timeout)


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  With too few samples for any such
    percentile, the smallest latency stands in and the percentile is 0.
    """
    xs = sorted(latencies)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[i], 100.0 * i / len(xs)


def run_workload(workload, seed, seconds, trace):
    """One benchmark run of one workload; returns (record, text lines, problems)."""
    expected_digest = spec.Ops(workload, seed).digest()
    replay = _worker(workload, seed, "replay")
    probes = [_worker(workload, seed, "probe") for _ in range(SETUP_PROBES)]
    run = _worker(workload, seed, "run", seconds, trace,
                  timeout=2.5 * seconds + RUN_GRACE)

    problems = []
    for r in [replay, *probes, run]:
        if r["digest"] != expected_digest:
            problems.append(f"operation list differs across processes for seed {seed}")
    common = min(len(replay["keys"]), len(run["keys"]))
    mismatched = sum(a != b for a, b in zip(replay["keys"][:common], run["keys"][:common]))
    if mismatched:
        problems.append(f"{mismatched} of {common} replayed operations gave another answer")
    problems += replay["notes"] + run["notes"]

    # times at nominal machine speed (spec.REFERENCE_NOMINAL_S)
    scales = spec.nominal_scales(run["references"])
    lat = [t * k for t, k in zip(run["latencies"], scales)]
    speed = statistics.median(scales)
    busy = sum(lat)
    n = len(lat)
    tail_value, tail_pct = tail(lat)
    e2e = {
        "setup_s": statistics.median(r["ready_s"] * spec.nominal_scales(r["ready_references"])[0]
                                     for r in [replay, *probes, run]),
        "ops_per_s": n / busy,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_value,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }
    lines = [
        ("ops_planned", run["planned"], "count"),
        ("latency_samples", n, "count"),
        ("failed_ratio", run["failed"] / n, "ratio"),
        ("wrong_verdicts", run["wrong"], "count"),
        ("bad_witnesses", run["bad_witness"], "count"),
        ("replayed_identical", common - mismatched, "count"),
        ("time_scale", speed, "ratio"),
    ]
    correct = not problems and run["wrong"] == 0 and run["bad_witness"] == 0
    if not trace:
        lines += [(name, e2e[name], unit) for name, unit in END_TO_END]
        lines.append(("latency_tail_pct", tail_pct, "%"))
        if workload == "integrate":
            lines.append(("steps_per_s", run["steps"] / busy, "1/s"))
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layer = layertrace.layer_metrics(run["stats"], run["import_s"], n / busy, speed)
        zero = [m for m in DOMINANT[workload] if not layer[m] > 0]
        if zero:
            problems.append(f"dominant per-layer metrics read zero: {', '.join(zero)}")
            correct = False
        units = {m: u for m, u, _ in layertrace.PER_LAYER}
        lines += [(m, layer[m], units[m]) for m in layer]
        metrics = {m: {"value": layer[m], "unit": units[m]} for m in layer}
    record = {"correct": correct, "attempted": n, "failed": run["failed"], "metrics": metrics}
    return record, lines, problems


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "unknown"

    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else ""
    if not commit:  # not a git checkout of its own: identify the source by content
        h = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
        commit = "src-sha256:" + h.hexdigest()[:16]
    return {"python": platform.python_version(), "sympy": version("sympy"),
            "numpy": version("numpy"), "nproc": os.cpu_count(), "commit": commit}


def _print_lines(prefix, lines):
    for name, value, unit in lines:
        print(f"{prefix}{name} {value!r} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*spec.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12,
                    help="run length: the operations the seed commit makes in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "noetherkit" / "__init__.py").is_file():
        print(f"error: no noetherkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    env = environment()
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        if args.workload != "all":
            record, lines, problems = run_workload(args.workload, args.seed, args.seconds,
                                                   args.trace)
            print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
                  f"trace={args.trace}")
            _print_lines("", lines)
            for p in problems:
                print(f"# problem: {p}")
            print(json.dumps(record))
            return 0 if record["correct"] else 1

        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in spec.WORKLOADS:
            untraced, lines, problems = run_workload(workload, args.seed, args.seconds, 0)
            traced, tlines, tproblems = run_workload(workload, args.seed, args.seconds, 1)
            _print_lines(f"{workload}.", lines)
            _print_lines(f"{workload}.traced.", tlines)
            overhead = (untraced["metrics"]["ops_per_s"]["value"]
                        - traced["metrics"]["trace.ops_per_s"]["value"])
            print(f"{workload}.trace_overhead_ops_per_s {overhead!r} 1/s")
            for p in problems + tproblems:
                print(f"# problem: {workload}: {p}")
            for rec in (untraced, traced):
                combined["correct"] &= rec["correct"]
                combined["attempted"] += rec["attempted"]
                combined["failed"] += rec["failed"]
            for name, m in {**untraced["metrics"], **traced["metrics"]}.items():
                combined["metrics"][f"{workload}.{name}"] = m
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
