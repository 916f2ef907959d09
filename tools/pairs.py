"""Run alternating pairs of the benchmark in a parent tree and a child tree,
and compare their end-to-end metrics.

Usage::

    python3 tools/pairs.py --parent DIR [--child DIR] --workload W [W ...]
        [--pairs N] [--seed S] [--seconds T] [--out FILE]

The child tree is by default the repository that holds this script; the
parent is any other tree with ``perfbench/run.py``, for example a
``git archive`` of the parent commit.  Pair i of a workload runs
``perfbench/run.py --workload W --seed S+i --seconds T --trace 0`` once in
each tree, from that tree's directory: the parent first in even pairs, the
child first in odd ones.  ``--pairs`` and ``--seconds`` are integers of at
least 1; a smaller one is refused before any run.

For every end-to-end metric that the child's ``BENCHMARK.json`` names, it
prints the parent's median [quartiles], the child's median, the child's
wins out of N, a win being a pair in which the child's value is better in
the metric's direction, and a verdict, the metric's ``bound`` read as a
fraction of the parent's median:

- ``gain``: the child is better in at least 9 of 10 pairs (ties count for
  neither side), and its median is better by more than the parent's
  quartile spread;
- ``worse``: the child's median is worse than the parent's by more than
  the bound;
- ``unresolved``: the parent's quartile spread is wider than the bound, and
  not every child run beats every parent run;
- ``within bound``: anything else.

Each tree is named by the sha256 of its ``src/**/*.py`` files, as run.py
names a tree that is not a git checkout, so an uncommitted child is not
reported under its parent's commit.  ``--out`` writes the same as JSON,
each metric's row with its verdict, and the seeds, each tree's name and
environment line (the first comment line of run.py's output) and every
run's record.  The exit code is 1 if any run is not ``correct``,
a run that prints no record included, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "child")


def source_name(tree: Path) -> str:
    """``src-sha256:`` and the first 16 hex digits of the sha256 over the
    sorted ``src/**/*.py`` files, each as its POSIX path relative to the tree,
    a NUL byte and its bytes."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> tuple[str, dict]:
    """One untraced benchmark run in ``tree``: its environment line and its
    record, the final JSON line of run.py's output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    env, record = "", None
    for line in proc.stdout.splitlines():
        if line.startswith("# ") and not env:
            env = line[2:]
        elif line.startswith("{"):
            record = json.loads(line)
    if record is None:
        record = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": proc.stderr.strip()[-2000:]}
    return env, record


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0], xs[0]] if xs else []
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def _verdict(parent: list[float], child: list[float], wins: int, pairs: int, sign: int,
             bound: float) -> str:
    """One metric's verdict, as the module docstring states it; ``sign`` is
    1 where higher is better and -1 where lower is."""
    median, (q1, q3) = statistics.median(parent), _quartiles(parent)
    better_by = sign * (statistics.median(child) - median)
    if 10 * wins >= 9 * pairs > 0 and better_by > q3 - q1:
        return "gain"
    if -better_by > bound * abs(median):
        return "worse"
    if (q3 - q1 > bound * abs(median)
            and min(sign * c for c in child) <= max(sign * p for p in parent)):
        return "unresolved"
    return "within bound"


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: the medians and quartiles of both sides, the child's
    wins over the pairs in which both sides report it, and the verdict."""
    out = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        values = {side: [r[side]["metrics"].get(name, {}).get("value") for r in runs]
                  for side in SIDES}
        pairs = [(p, c) for p, c in zip(values["parent"], values["child"])
                 if p is not None and c is not None]
        row = {"unit": m["unit"], "better": m["better"]}
        xs = {side: [x for x in values[side] if x is not None] for side in SIDES}
        for side in SIDES:
            row[f"{side}_median"] = statistics.median(xs[side]) if xs[side] else None
            row[f"{side}_quartiles"] = _quartiles(xs[side])
        row["child_wins"] = sum(sign * (c - p) > 0 for p, c in pairs)
        row["pairs"] = len(pairs)
        row["verdict"] = (_verdict(xs["parent"], xs["child"], row["child_wins"], len(pairs),
                                   sign, m["bound"]) if all(xs.values()) else None)
        out[name] = row
    return out


def _print_workload(workload: str, seeds: list[int], table: dict, runs: list[dict]) -> None:
    print(f"{workload}: {len(seeds)} pairs, seeds {seeds[0]}..{seeds[-1]}")
    width = max(len(name) for name in table)
    for name, row in table.items():
        if row["parent_median"] is None or row["child_median"] is None:
            print(f"  {name:<{width}}  no value")
            continue
        q1, q3 = row["parent_quartiles"]
        change = row["child_median"] / row["parent_median"] - 1 if row["parent_median"] else 0
        print(f"  {name:<{width}}  parent {row['parent_median']:.6g} [{q1:.6g}-{q3:.6g}]"
              f"  child {row['child_median']:.6g} ({change:+.1%})"
              f"  child better in {row['child_wins']}/{row['pairs']}  {row['verdict']}")
    for side in SIDES:
        records = [r[side] for r in runs]
        bad = sum(not rec["correct"] for rec in records)
        failed = sum(rec["failed"] for rec in records)
        print(f"  {side}: {len(records) - bad}/{len(records)} correct, {failed} failed operations")


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--child", type=Path, default=ROOT)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=_at_least_one, default=10)
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    ap.add_argument("--seconds", type=_at_least_one, default=12)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "child": args.child.resolve()}
    metrics = json.loads((trees["child"] / "BENCHMARK.json").read_text())["end_to_end"]

    environment = dict.fromkeys(SIDES, "")
    source = {side: source_name(tree) for side, tree in trees.items()}
    report = {"pairs": args.pairs, "seconds": args.seconds,
              "trees": {side: str(tree) for side, tree in trees.items()},
              "source": source, "environment": environment, "workloads": {}}
    correct = True
    for workload in args.workload:
        seeds = [args.seed + i for i in range(args.pairs)]
        runs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "first": order[0]}
            for side in order:
                env, run[side] = run_once(trees[side], workload, seed, args.seconds)
                environment[side] = environment[side] or env
                correct &= bool(run[side]["correct"])
            runs.append(run)
        table = compare(runs, metrics)
        _print_workload(workload, seeds, table, runs)
        report["workloads"][workload] = {"seeds": seeds, "metrics": table, "runs": runs}
    report["correct"] = correct
    for side in SIDES:
        print(f"# {side}: {source[side]} {environment[side]}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
