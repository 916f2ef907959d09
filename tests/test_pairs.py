import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# a run.py that logs its side and seed and prints canned result lines: the
# parent's ops_per_s is 100 + seed and its setup_s 1.0; the child's ops_per_s
# 100 + seed + shift (3 by default), and its setup_s 0.9 at even seeds and 1.1
# at odd ones
STUB = '''import argparse, json
from pathlib import Path

ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
args = ap.parse_args()
side = Path(__file__).resolve().parents[1].name
seed = int(args.seed)
with open(Path(__file__).resolve().parents[2] / "order.log", "a") as log:
    log.write(f"{side} {args.workload} {seed} {args.seconds} {args.trace}\\n")
if side == "child" and seed == {crash}:
    raise SystemExit("no record")
ops = 100.0 + seed + ({shift} if side == "child" else 0.0)
setup = 1.0 if side == "parent" else (0.9 if seed % 2 == 0 else 1.1)
print(f"# python=3 side={side}")
print(f"# workload={args.workload} seed={seed}")
print(f"ops_per_s {ops!r} 1/s")
correct = not (side == "child" and seed == {wrong})
print(json.dumps({"correct": correct, "attempted": 10, "failed": 0,
                  "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                              "setup_s": {"value": setup, "unit": "s"}}}))
'''

BENCHMARK = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]}


def _trees(tmp_path, crash=-1, wrong=-1, shift=3.0):
    for side in ("parent", "child"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            STUB.replace("{crash}", str(crash)).replace("{wrong}", str(wrong))
            .replace("{shift}", repr(shift)))
    (tmp_path / "child" / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return ["--parent", str(tmp_path / "parent"), "--child", str(tmp_path / "child")]


def test_pairs_alternate_and_compare(tmp_path, capsys):
    out = tmp_path / "pairs.json"
    argv = _trees(tmp_path) + ["--workload", "roundtrip", "--pairs", "4", "--seed", "7",
                               "--seconds", "3", "--out", str(out)]
    assert pairs.main(argv) == 0
    log = (tmp_path / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in log] == ["parent", "child", "child", "parent"] * 2
    assert [int(line.split()[2]) for line in log] == [7, 7, 8, 8, 9, 9, 10, 10]
    assert {tuple(line.split()[1::2]) for line in log} == {("roundtrip", "3")}
    assert {line.split()[4] for line in log} == {"0"}

    report = json.loads(out.read_text())
    assert report["environment"] == {"parent": "python=3 side=parent",
                                     "child": "python=3 side=child"}
    assert report["correct"] is True
    rt = report["workloads"]["roundtrip"]
    assert rt["seeds"] == [7, 8, 9, 10]
    assert [run["first"] for run in rt["runs"]] == ["parent", "child"] * 2
    ops = rt["metrics"]["ops_per_s"]
    assert ops["parent_median"] == 108.5 and ops["child_median"] == 111.5
    assert ops["parent_quartiles"] == [107.75, 109.25]
    assert ops["child_wins"] == 4 and ops["pairs"] == 4 and ops["verdict"] == "gain"
    setup = rt["metrics"]["setup_s"]
    assert setup["parent_median"] == 1.0 and setup["parent_quartiles"] == [1.0, 1.0]
    assert setup["child_wins"] == 2  # lower is better: the even seeds
    assert setup["verdict"] == "within bound"
    assert list(rt["metrics"]) == ["setup_s", "ops_per_s"]

    printed = capsys.readouterr().out
    assert "ops_per_s  parent 108.5 [107.75-109.25]  child 111.5 (+2.8%)  " \
           "child better in 4/4  gain" in printed
    assert "child: 4/4 correct, 0 failed operations" in printed


def test_a_child_beyond_the_bound_reads_worse(tmp_path, capsys):
    # the child's ops_per_s is 100 + seed - 40, beyond the bound of 20% below
    # the parent's
    out = tmp_path / "pairs.json"
    argv = _trees(tmp_path, shift=-40.0) + ["--workload", "integrate", "--pairs", "4",
                                            "--seed", "7", "--out", str(out)]
    assert pairs.main(argv) == 0
    metrics = json.loads(out.read_text())["workloads"]["integrate"]["metrics"]
    assert metrics["ops_per_s"]["verdict"] == "worse"
    assert metrics["setup_s"]["verdict"] == "within bound"
    assert "child 68.5 (-36.9%)  child better in 0/4  worse" in capsys.readouterr().out


@pytest.mark.parametrize("parent, child, wins, sign, verdict", [
    # the parent's spread, 1.75-3.25, is wider than 20% of its median, 2.5
    ([1.0, 2.0, 3.0, 4.0], [2.0, 2.5, 3.0, 3.5], 2, 1, "unresolved"),
    # lower is better, and the child's median is 80% above the parent's
    ([1.0, 2.0, 3.0, 4.0], [4.5, 4.5, 4.5, 4.5], 4, -1, "worse"),
    # every child run beats every parent run, but in 3 pairs of 4 only
    ([1.0, 2.0, 3.0, 4.0], [4.5, 4.5, 4.5, 4.5], 3, 1, "within bound"),
    ([1.0, 2.0, 3.0, 4.0], [4.5, 4.5, 4.5, 4.5], 4, 1, "gain"),
])
def test_the_verdict_of_one_metric(parent, child, wins, sign, verdict):
    assert pairs._verdict(parent, child, wins, 4, sign, 0.2) == verdict


def test_a_run_that_is_not_correct_fails_the_comparison(tmp_path, capsys):
    argv = _trees(tmp_path, wrong=2) + ["--workload", "integrate", "--pairs", "2",
                                        "--seed", "1"]
    assert pairs.main(argv) == 1
    assert "child: 1/2 correct" in capsys.readouterr().out


def test_a_run_that_prints_no_record_fails_the_comparison(tmp_path, capsys):
    out = tmp_path / "pairs.json"
    argv = _trees(tmp_path, crash=1) + ["--workload", "integrate", "--pairs", "2",
                                        "--seed", "1", "--out", str(out)]
    assert pairs.main(argv) == 1
    run = json.loads(out.read_text())["workloads"]["integrate"]["runs"][0]
    assert run["child"]["correct"] is False and "no record" in run["child"]["error"]
    # the pair without a child value is left out of the comparison
    ops = json.loads(out.read_text())["workloads"]["integrate"]["metrics"]["ops_per_s"]
    assert ops["pairs"] == 1 and ops["child_median"] == 105.0


@pytest.mark.parametrize("count", ["0", "-3"])
def test_fewer_than_one_pair_is_refused(count, tmp_path, capsys):
    argv = _trees(tmp_path) + ["--workload", "integrate", "--pairs", count]
    with pytest.raises(SystemExit) as exit_:
        pairs.main(argv)
    assert exit_.value.code == 2
    assert f"argument --pairs: must be at least 1, not {int(count)}" in capsys.readouterr().err
    assert not (tmp_path / "order.log").exists()


def test_trees_are_named_by_their_sources(tmp_path, capsys):
    out = tmp_path / "pairs.json"
    argv = _trees(tmp_path) + ["--workload", "integrate", "--pairs", "1", "--out", str(out)]
    for side, text in (("parent", "x = 1\n"), ("child", "x = 2\n")):
        (tmp_path / side / "src" / "pkg").mkdir(parents=True)
        (tmp_path / side / "src" / "pkg" / "mod.py").write_text(text)
    names = {side: pairs.source_name(tmp_path / side) for side in ("parent", "child")}
    assert names["parent"] != names["child"]
    assert all(name.startswith("src-sha256:") and len(name) == 27 for name in names.values())
    # the name reads the files' bytes only, not the tree's place
    (tmp_path / "copy" / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "copy" / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    assert pairs.source_name(tmp_path / "copy") == names["parent"]

    assert pairs.main(argv) == 0
    assert json.loads(out.read_text())["source"] == names
    printed = capsys.readouterr().out
    assert f"# parent: {names['parent']} python=3 side=parent" in printed
    assert f"# child: {names['child']} python=3 side=child" in printed
