"""tools/bench_pairs.py's summary of a workload's runs, with an A/A control side."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(pair, side, op_ms, acc, failed=0):
    metrics = {"op_ms_p50": {"value": op_ms, "unit": "ms"},
               "holdout_accuracy": {"value": acc, "unit": "fraction"}}
    return {"pair": pair, "side": side, "rc": 0, "env": None, "wall.op_ms_p50": 2 * op_ms,
            "result": {"attempted": 10, "failed": failed, "metrics": metrics}}


def test_summary_writes_the_control_beside_the_change():
    op_ms = {"parent": [100.0, 104.0, 102.0], "change": [90.0, 95.0, 92.0],
             "control": [101.0, 103.0]}
    runs = [_run(pair, side, value, 0.9) for side, ms in op_ms.items()
            for pair, value in enumerate(ms, start=1)]
    # the control's third run printed no result
    runs.append({"pair": 3, "side": "control", "rc": 1, "env": None,
                 "wall.op_ms_p50": None, "result": None})
    out = bench_pairs.summary(runs, 3, {"op_ms_p50": "lower", "holdout_accuracy": "higher",
                                        "wall.op_ms_p50": "lower"})
    op = out["metrics"]["op_ms_p50"]
    assert op["parent"] == {"median": 102.0, "q1": 101.0, "q3": 103.0}
    assert op["change_over_parent"] == pytest.approx(92.0 / 102.0)
    assert op["change_better_in_pairs"] == 3
    # against the parent the control loses pair 1 and wins pair 2
    assert op["control"]["median"] == 102.0
    assert op["control_over_parent"] == 1.0
    assert op["control_better_in_pairs"] == 1
    # a tie counts for neither side
    acc = out["metrics"]["holdout_accuracy"]
    assert acc["change_better_in_pairs"] == acc["control_better_in_pairs"] == 0
    assert out["metrics"]["wall.op_ms_p50"]["control_over_parent"] == 1.0
    assert out["attempted"] == {"parent": 30, "change": 30, "control": 20}
    assert out["runs_without_result"] == 1


def test_summary_without_a_control_has_no_control_entries():
    runs = [_run(pair, side, 100.0 - pair, 0.9) for side in ("parent", "change")
            for pair in (1, 2)]
    out = bench_pairs.summary(runs, 2, {"op_ms_p50": "lower"})
    op = out["metrics"]["op_ms_p50"]
    assert set(op) == {"unit", "parent", "change", "change_over_parent",
                       "change_better_in_pairs"}
    assert op["change_better_in_pairs"] == 0
    assert set(out["failed"]) == {"parent", "change"}


def test_pad_lengths_repeat_for_one_seed_and_differ_across_runs():
    def first(seed, n=24):
        lengths = bench_pairs.pad_lengths(seed)
        return [next(lengths) for _ in range(n)]

    assert first(7) == first(7)
    assert len(set(first(7))) > 12
    assert first(7) != first(8)
    assert all(0 <= n < bench_pairs.PAD_MAX for n in first(7, 1000))


def test_two_sides_alternate_and_three_rotate_over_each_block_of_three_pairs():
    two = ("parent", "change")
    assert [bench_pairs.side_order(two, pair) for pair in (1, 2, 3)] == [
        two, two[::-1], two]
    orders = [bench_pairs.side_order(bench_pairs.SIDES, pair) for pair in range(1, 7)]
    assert orders[:3] == [("parent", "change", "control"), ("change", "control", "parent"),
                          ("control", "parent", "change")]
    assert orders[3:] == orders[:3]
    for position in range(3):  # each side takes each position once per block
        assert {order[position] for order in orders[:3]} == set(bench_pairs.SIDES)


def _checkout(root, side):
    """A checkout whose perfbench/run.py prints a result naming its side and
    the directory it ran from."""
    (root / "src" / "marginadapt" / "__pycache__").mkdir(parents=True)
    (root / "src" / "marginadapt" / "__pycache__" / "stale.pyc").write_text("")
    (root / "src" / "marginadapt" / "side.txt").write_text(side)
    (root / ".git").mkdir()
    (root / "tools").mkdir()
    (root / "tools" / "other.py").write_text("")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(
        "import json, os\n"
        "side = open('src/marginadapt/side.txt').read()\n"
        "metrics = {'op_ms_p50': {'value': 1.0, 'unit': 'ms'}}\n"
        "print('wall.op_ms_p50 2.0')\n"
        "print(json.dumps({'attempted': 1, 'failed': 0, 'metrics': metrics,\n"
        "                  'side': side, 'cwd': os.getcwd()}))\n")
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "op_ms_p50", "better": "lower"}]}))
    return str(root)


def test_stage_copies_a_runs_files_and_nothing_else(tmp_path):
    staging = tmp_path / "stage"
    bench_pairs.stage(_checkout(tmp_path / "parent", "parent"), str(staging))
    bench_pairs.stage(_checkout(tmp_path / "change", "change"), str(staging))
    files = sorted(str(p.relative_to(staging)) for p in staging.rglob("*") if p.is_file())
    assert files == ["BENCHMARK.json", "perfbench/run.py", "src/marginadapt/side.txt"]
    assert (staging / "src" / "marginadapt" / "side.txt").read_text() == "change"


def test_every_side_runs_from_the_one_staging_path(tmp_path):
    roots = {side: _checkout(tmp_path / side, side) for side in bench_pairs.SIDES}
    out = tmp_path / "bench.json"
    rc = bench_pairs.main(["--parent", roots["parent"], "--change", roots["change"],
                           "--control", roots["control"], "--out", str(out),
                           "--pairs", "3"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["roots"] == roots
    assert [tuple(r["side"] for r in doc["runs"] if r["pair"] == pair) for pair in (1, 2, 3)] \
        == [bench_pairs.side_order(bench_pairs.SIDES, pair) for pair in (1, 2, 3)]
    assert all(r["result"]["side"] == r["side"] for r in doc["runs"])
    assert {r["result"]["cwd"] for r in doc["runs"]} == {doc["stage"]}
    assert not os.path.exists(os.path.dirname(doc["stage"]))
