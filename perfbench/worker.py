"""One workload process: set up, then probe, replay or run the timed loop.

Started by run.py, never by hand.  Prints one JSON line on stdout.

roles:
  probe   set up and report the set-up time only
  replay  set up, run the first operations untraced for determinism checks
  run     set up, run the planned operations in a closed loop
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPLAY_SECONDS = 1.0  # operations replayed for the determinism check, at nominal rate

# A fixed reference loop runs before every operation and after the last one
# so that run.py can report times at nominal machine speed.  The loop lasts
# about REFERENCE_SHARE of a workload's nominal operation time, and no less
# than one repeat, so that it samples long operations' speed too.
REFERENCE_ITERATIONS = 60_000
REFERENCE_SHARE = 0.02


def reference_seconds(repeats: int = 1) -> float:
    """Time of the fixed interpreter-bound reference loop, per repeat."""
    start = time.perf_counter()
    table = {}
    for j in range(REFERENCE_ITERATIONS * repeats):
        table[j & 255] = table.get(j & 255, 0) + j * j % 7
    return (time.perf_counter() - start) / repeats


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("probe", "replay", "run"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args()

    # set-up starts at process start; the package import is part of it
    reference_before = reference_seconds()
    sys.path.insert(0, str(ROOT / "src"))
    import noetherkit

    if not Path(noetherkit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: noetherkit imported from {noetherkit.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    import spec
    import workloads

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        wl = workloads.make(args.workload, ROOT, work, traced=bool(args.trace))
        ready_s = time.monotonic() - args.spawned_at - reference_before
        ops = spec.Ops(args.workload, args.seed)
        nominal_op_s = 1 / spec.NOMINAL_OPS_PER_S[args.workload]
        repeats = max(1, round(REFERENCE_SHARE * nominal_op_s / spec.REFERENCE_NOMINAL_S))
        result = {"ready_s": ready_s, "ready_references": [reference_before, reference_seconds()],
                  "digest": ops.digest()}
        if args.role == "replay":
            count = max(1, round(REPLAY_SECONDS * spec.NOMINAL_OPS_PER_S[args.workload]))
            result.update(_loop(wl, ops, count, 60.0, tracer, repeats))
        elif args.role == "run":
            count = spec.planned_ops(args.workload, args.seconds)
            result.update(_loop(wl, ops, count, time_limit(args.seconds), tracer, repeats))
            result["peak_rss_kb"] = workloads.peak_rss_kb(wl)
            if tracer is not None:
                stats = tracer.snapshot()
                import_s = 0.0
                for child in getattr(wl, "child_stats", []):
                    import_s += child["import_s"]
                    layertrace.merge(stats, child["stats"])
                result["stats"] = stats
                result["import_s"] = import_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def time_limit(seconds):
    """No operation starts later than this into a run, however slow it is."""
    return 2.5 * seconds + 10.0


def _loop(wl, ops, count, limit, tracer, repeats):
    """Closed loop, one client: the next operation starts when one ends."""
    import workloads

    latencies, keys, steps = [], [], 0
    references = [reference_seconds(repeats)]
    failed = wrong = bad_witness = 0
    notes = []
    deadline = time.monotonic() + limit
    for i in range(count):
        if i and time.monotonic() > deadline:
            break
        if i:
            references.append(reference_seconds(repeats))
        op = ops[i]
        start = time.perf_counter()
        try:
            outcome, ctx = wl.run(op)
        except Exception as err:  # an operation that raises counts as failed
            latencies.append(time.perf_counter() - start)
            failed += 1
            notes.append(f"op {i}: {type(err).__name__}: {err}"[:300])
            keys.append(json.dumps({"error": type(err).__name__}))
            continue
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        try:
            res = wl.check(op, outcome, ctx)
        except (KeyError, IndexError, TypeError, ValueError, SyntaxError) as err:
            # output the check cannot read is an unexpected answer
            res = workloads.Check(failed=True, note=f"unreadable answer: {err!r}")
        finally:
            if tracer is not None:
                tracer.enabled = True
        failed += res.failed
        wrong += res.wrong
        bad_witness += res.bad_witness
        if res.failed or res.wrong or res.bad_witness:
            notes.append(f"op {i}: {op} -> {outcome} {res.note}"[:500])
        keys.append(json.dumps(outcome, sort_keys=True))
        steps += outcome.get("steps", 0)  # RK4 steps, integrate only
    references.append(reference_seconds(repeats))
    return {"planned": count, "latencies": latencies, "references": references, "keys": keys,
            "steps": steps,
            "failed": failed, "wrong": wrong, "bad_witness": bad_witness, "notes": notes[:20]}


if __name__ == "__main__":
    raise SystemExit(main())
