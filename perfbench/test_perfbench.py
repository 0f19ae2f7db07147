"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import marginadapt as ma
from layers import per_layer_metrics, targets
from run import timed_ops
from tracer import Tracer, self_times
from workloads import STREAM_SEEDS, StreamBaselines, StreamUnidg, make_task, task_digest

HERE = Path(__file__).resolve().parent


def test_self_time_of_hand_built_span_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8]; 4 is a second root
    start = [0.0, 1.0, 5.0, 6.0, 20.0]
    end = [10.0, 4.0, 9.0, 8.0, 21.5]
    parent = [-1, 0, 0, 2, -1]
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0, 1.5]


def test_tracer_records_nested_spans_and_self_time():
    tracer = Tracer(targets())
    tracer.op = 7
    outer = tracer.open_span(0)
    inner = tracer.open_span(1)
    tracer.close_span(inner)
    tracer.close_span(outer)
    spans = tracer.arrays()
    assert spans["parent"].tolist() == [-1, 0]
    assert spans["op"].tolist() == [7, 7]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    assert own[0] == pytest.approx(spans["end"][0] - spans["start"][0] - own[1])


def _small_pass():
    sources, target = make_task(0)
    enc = ma.MlpEncoder.create([16, 8, 8], use_norm=True, seed=0)
    clf = ma.LinearClassifier.create(8, 4, seed=1)
    pair = ma.clone_for_adaptation(enc, clf)
    return ma.run_method(pair, target, ma.AdaptConfig(steps=3))


def test_traced_run_restores_every_patched_attribute():
    originals = {}
    for t in targets():
        module = sys.modules[t.module]
        owner_path, _, attr = t.qualname.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        originals[t.name] = (owner, attr, vars(owner)[attr])
    tracer = Tracer(targets())
    with tracer:
        patched = list(tracer._patched)
        # the caller-side binding made by `from .memory import insert_and_select`
        assert ma.adapt.insert_and_select is not originals["memory.insert_and_select"][2]
        _small_pass()
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    for owner, attr, original in originals.values():
        assert vars(owner)[attr] is original
    metrics = per_layer_metrics(tracer, 1, 1.0)
    assert metrics["adapt.run_method.calls"][0] == 1
    assert metrics["memory.insert_and_select.calls"][0] == 3
    assert metrics["adapt.batches"][0] == 63
    assert 0.0 < metrics["memory.insert_kept_frac"][0] <= 1.0


@pytest.fixture(scope="module")
def unidg(tmp_path_factory):
    workload = StreamUnidg(0, str(tmp_path_factory.mktemp("w")))
    workload.setup()
    return workload


def test_clean_passes_do_not_fail(unidg):
    _, _, attempted, failed, _ = timed_ops(unidg, 0.0, STREAM_SEEDS + 1, 0)
    assert (attempted, failed) == (STREAM_SEEDS + 1, 0)


def test_perturbed_adapted_fingerprint_is_a_failed_operation(unidg, monkeypatch):
    honest = type(unidg).op

    def corrupted(self, i):
        out = honest(self, i)
        if i == STREAM_SEEDS:  # the same stream seed as op 0
            out[0][1].adapted_encoder.weights[0][0, 0] += 1e-12
        return out

    monkeypatch.setattr(type(unidg), "op", corrupted)
    unidg.repeats.first.clear()
    samples, _, attempted, failed, _ = timed_ops(unidg, 0.0, STREAM_SEEDS + 1, 0)
    assert (attempted, failed) == (STREAM_SEEDS + 1, 1)
    assert len(samples) == STREAM_SEEDS + 1


def test_none_that_moves_the_model_fails(tmp_path):
    workload = StreamBaselines(0, str(tmp_path))
    workload.setup()
    honest = workload.op(0)
    method, pair, curve, seconds = honest[0]
    assert method == "none" and workload.check(0, honest, 1.0) == []
    pair.adapted_classifier.omega[0, 0] += 1.0
    problems = workload.check(0, honest, 1.0)
    assert len(problems) == 1 and "none" in problems[0]


def test_seed_changes_the_task_and_reproduces_it():
    assert task_digest(*make_task(3)) == task_digest(*make_task(3))
    assert task_digest(*make_task(3)) != task_digest(*make_task(4))
    assert StreamUnidg(3, "").stream_seeds == StreamUnidg(3, "").stream_seeds
    assert StreamUnidg(3, "").stream_seeds != StreamUnidg(4, "").stream_seeds


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "erm_train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
