"""The benchmark's four workloads, driven through marginadapt's public API.

Every workload is a closed loop: one caller issues the next training run,
stream pass or CLI pipeline only after the previous one returned. A workload
builds all of its inputs from one seed. The runner times `op(i)` and then
calls `check(i, result, factor)`, which checks the op's outputs, returns one
message per failed operation, and keeps the figures the workload reports;
`factor` turns the op's wall seconds into reference seconds (see run.py).

Package functions are called through module attributes (`ma.run_method`,
`cli.main`) so that the tracer's patched bindings are the ones resolved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import time

import numpy as np

import marginadapt as ma
from marginadapt import cli

ENCODER_DIMS = [16, 48, 48]
TRAIN = dict(lr=3e-3, epochs=15)
MODEL_SEEDS = 3
STREAM_SEEDS = 4
TASK_SEEDS = 3
BASELINES = ("none", "entropy_norm", "pseudo_label")


def derived_seeds(seed: int, count: int) -> list[int]:
    """`count` model, stream or task seeds drawn from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def make_task(seed: int):
    """(sources, target) of the default shift task under `seed`."""
    return ma.gen_synthetic_shift(ma.ShiftSpec(seed=seed))


def task_digest(sources, target) -> str:
    h = hashlib.sha256()
    for d in [*sources, target]:
        h.update(d.features.tobytes())
        h.update(d.labels.tobytes())
    return h.hexdigest()


def train_norm_model(sources, model_seed: int):
    enc = ma.MlpEncoder.create(ENCODER_DIMS, use_norm=True, seed=model_seed)
    clf = ma.LinearClassifier.create(ENCODER_DIMS[-1], 4, seed=model_seed + 1)
    report = ma.train_source_erm(enc, clf, sources, ma.TrainConfig(seed=model_seed, **TRAIN))
    return enc, clf, report


def expected_batches(n: int, batch_size: int, has_norm_layers: bool) -> int:
    """Batches a loop over `n` rows runs: consecutive batches of `batch_size`;
    with norm layers a last batch of one row is skipped."""
    full, rest = divmod(n, batch_size)
    return full + (rest >= (2 if has_norm_layers else 1))


def accuracy_problem(name: str, value) -> list[str]:
    if not (isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0):
        return [f"{name} {value!r} is not a finite value in [0, 1]"]
    return []


def mean(values) -> float:
    return float(np.mean(list(values)))


class Repeats:
    """First value seen per key, for checks that a repeat reproduces it."""

    def __init__(self):
        self.first: dict = {}

    def problem(self, key, value) -> list[str]:
        first = self.first.setdefault(key, value)
        return [] if first == value else [f"{key}: repeat gave {value!r}, first run {first!r}"]


class Workload:
    """`setup()` is timed `setup_repeats` times and returns a value that every
    repeat must reproduce. Each `op(i)` attempts `ops_per_op` operations.
    Workloads whose ops last a second or more set `long_ops`, so the host
    speed is sampled during each op and not only around it."""

    name = ""
    setup_repeats = 3
    ops_per_op = 1
    min_ops = 1
    long_ops = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.repeats = Repeats()
        self.op_ref_s: list[float] = []  # reference seconds of each timed op, kept by the runner

    def setup(self):
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result, factor: float) -> list[str]:
        raise NotImplementedError

    def accuracies(self) -> tuple[float, float]:
        """(holdout_accuracy, target_accuracy), each a mean over distinct seeds."""
        raise NotImplementedError

    def report(self) -> list[tuple[str, float, str]]:
        """Workload-specific figures, in reference units."""
        return []

    def close(self):
        pass


class ErmTrain(Workload):
    name = "erm_train"
    setup_repeats = 21
    min_ops = MODEL_SEEDS
    long_ops = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model_seeds = derived_seeds(seed, MODEL_SEEDS)
        self.holdout: dict = {}
        self.target_acc: dict = {}

    def setup(self):
        self.sources, self.target = make_task(self.seed)
        n_train = sum(d.n - round(0.2 * d.n) for d in self.sources)
        self.steps = TRAIN["epochs"] * expected_batches(n_train, 32, True)
        return task_digest(self.sources, self.target)

    def op(self, i):
        return train_norm_model(self.sources, self.model_seeds[i % MODEL_SEEDS])

    def check(self, i, result, factor):
        enc, clf, report = result
        m = self.model_seeds[i % MODEL_SEEDS]
        problems = accuracy_problem("holdout accuracy", report.val_accuracy)
        if len(report.loss_history) != self.steps:
            problems.append(f"training ran {len(report.loss_history)} of {self.steps} Adam steps")
        problems += self.repeats.problem(("model", m), ma.model_fingerprint(enc, clf))
        target_acc = ma.classification_accuracy(enc, clf, self.target.features, self.target.labels)
        problems += accuracy_problem("target accuracy", target_acc)
        self.holdout[m] = report.val_accuracy
        self.target_acc[m] = target_acc
        return ["; ".join(problems)] if problems else []

    def accuracies(self):
        return mean(self.holdout.values()), mean(self.target_acc.values())

    def report(self):
        return [("train_steps_per_s", self.steps / float(np.median(self.op_ref_s)), "1/s")]


class _Stream(Workload):
    """Passes over the target stream from a source model trained in set-up.
    Each method's pass starts from a fresh `clone_for_adaptation`; op i uses
    stream seed i mod STREAM_SEEDS, so repeats of a seed are checked."""

    methods: tuple = ()
    min_ops = STREAM_SEEDS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model_seed = derived_seeds(seed, 1)[0]
        self.stream_seeds = derived_seeds(seed + 1, STREAM_SEEDS)
        self.ops_per_op = len(self.methods)
        self.final: dict = {}
        self.batch_ref_s: dict = {m: [] for m in self.methods}

    def setup(self):
        self.sources, self.target = make_task(self.seed)
        self.encoder, self.classifier, self.train_report = train_norm_model(
            self.sources, self.model_seed)
        self.source_fp = ma.model_fingerprint(self.encoder, self.classifier)
        self.batches = expected_batches(self.target.n, ma.AdaptConfig().batch_size,
                                        self.encoder.has_norm_layers)
        return task_digest(self.sources, self.target), self.source_fp

    def op(self, i):
        out = []
        for method in self.methods:
            t0 = time.perf_counter()
            pair = ma.clone_for_adaptation(self.encoder, self.classifier)
            cfg = ma.AdaptConfig(method=method, seed=self.stream_seeds[i % STREAM_SEEDS])
            pair, curve, _ = ma.run_method(pair, self.target, cfg)
            out.append((method, pair, curve, time.perf_counter() - t0))
        return out

    def check(self, i, result, factor):
        s = self.stream_seeds[i % STREAM_SEEDS]
        problems = []
        for method, pair, curve, seconds in result:
            fails = []
            if len(curve.cumulative) != self.batches:
                fails.append(f"scored {len(curve.cumulative)} of {self.batches} batches")
            fails += accuracy_problem("final accuracy", curve.final_accuracy)
            if pair.source_fingerprint() != self.source_fp:
                fails.append("the frozen source model changed")
            fp = pair.adapted_fingerprint()
            if method == "none" and fp != self.source_fp:
                fails.append("the adapted model differs from the source model")
            fails += self.repeats.problem((method, s), (fp, curve.final_accuracy))
            if fails:
                problems.append(f"{method}: " + "; ".join(fails))
            self.final[(method, s)] = curve.final_accuracy
            self.batch_ref_s[method].append(seconds * factor / self.batches)
        return problems

    def accuracies(self):
        return self.train_report.val_accuracy, mean(self.final.values())

    def report(self):
        rows = []
        for method, per_batch in self.batch_ref_s.items():
            us = np.asarray(per_batch) * 1e6
            rows.append((f"{method}.batch_us_p50", float(np.median(us)), "us"))
            rows.append((f"{method}.batch_us_p90", float(np.quantile(us, 0.9)), "us"))
        return rows


class StreamUnidg(_Stream):
    name = "stream_unidg"
    methods = ("unidg",)


class StreamBaselines(_Stream):
    name = "stream_baselines"
    methods = BASELINES


_HOLDOUT = re.compile(r"holdout accuracy: ([0-9.]+)")


class CliPipeline(Workload):
    """The README workflow, one pipeline per op, in one reused directory (run
    records hold their paths, so the canonical bytes compare across repeats).
    Op i uses task seed i mod TASK_SEEDS."""

    name = "cli_pipeline"
    setup_repeats = 21
    ops_per_op = 5
    min_ops = TASK_SEEDS
    long_ops = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.task_seeds = derived_seeds(seed, TASK_SEEDS)
        self.holdout: dict = {}
        self.target_acc: dict = {}

    def setup(self):
        self.targets = {s: make_task(s)[1] for s in self.task_seeds}
        return [task_digest([], t) for t in self.targets.values()]

    def _paths(self):
        task = os.path.join(self.workdir, "task")
        run = os.path.join(self.workdir, "run")
        return task, run, os.path.join(run, "checkpoint.json")

    def commands(self, seed: int):
        task, run, ckpt = self._paths()
        target = os.path.join(task, "target.csv")
        return [
            ["gen-data", "--out", task, "--seed", str(seed)],
            ["train-source", "--data", task, "--out", run, "--seed", str(seed),
             "--epochs", "12", "--lr", "0.01", "--hidden-dims", "32", "--feature-dim", "32"],
            ["adapt", "--checkpoint", ckpt, "--target", target, "--source-data", task,
             "--out", run],
            ["ablate", "--checkpoint", ckpt, "--target", target, "--source-data", task,
             "--out", run, "--trials", "3"],
            ["diagnose", "--checkpoint", ckpt, "--out", run],
        ]

    def op(self, i):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        out = []
        for argv in self.commands(self.task_seeds[i % TASK_SEEDS]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = cli.main(argv)
                except SystemExit as e:  # argparse rejects a command line this way
                    rc = e.code
            out.append((argv[0], rc, stdout.getvalue(), stderr.getvalue()))
        return out

    def _record(self, n, kind):
        path = os.path.join(self._paths()[1], f"run_{n:04d}.json")
        if not os.path.exists(path):
            return None, f"no run record {path}"
        with open(path) as fh:
            record = json.load(fh)
        if record.get("kind") != kind:
            return None, f"{path} holds kind {record.get('kind')!r}, expected {kind!r}"
        return record, None

    def check(self, i, result, factor):
        commands = result
        seed = self.task_seeds[i % TASK_SEEDS]
        task, _, ckpt = self._paths()
        problems = {name: [] for name, *_ in commands}
        for name, rc, _, err in commands:
            if rc != 0:
                problems[name].append(f"exit code {rc}: {err.strip()[-200:]}")
        target = self.targets[seed]
        loaded = ma.load_csv(os.path.join(task, "target.csv"), num_classes=4)
        if not (np.array_equal(loaded.features, target.features)
                and np.array_equal(loaded.labels, target.labels)):
            problems["gen-data"].append("target.csv does not round-trip the generated task")
        match = _HOLDOUT.search(commands[1][2])
        if match is None or not os.path.exists(ckpt):
            problems["train-source"].append("no holdout accuracy or no checkpoint")
        else:
            self.holdout[seed] = float(match.group(1))
            problems["train-source"] += accuracy_problem("holdout accuracy", self.holdout[seed])
        adapt, err = self._record(1, "adapt")
        if adapt is None:
            problems["adapt"].append(err)
        else:
            self.target_acc[seed] = adapt["curve"]["final_accuracy"]
            problems["adapt"] += accuracy_problem("final accuracy", self.target_acc[seed])
            problems["adapt"] += self.repeats.problem(
                ("adapt canonical record", seed), cli.canonical_record_bytes(adapt))
        ablate, err = self._record(2, "ablation")
        if ablate is None:
            problems["ablate"].append(err)
        else:
            for row in ablate["rows"]:
                problems["ablate"] += accuracy_problem(row["variant"], row["mean_final_accuracy"])
        _, err = self._record(3, "diagnostics")
        if err:
            problems["diagnose"].append(err)
        return [f"{name}: {'; '.join(p)}" for name, p in problems.items() if p]

    def accuracies(self):
        return mean(self.holdout.values()), mean(self.target_acc.values())

    def report(self):
        return [("pipeline_s", float(np.median(self.op_ref_s)), "s")]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ErmTrain, StreamUnidg, StreamBaselines, CliPipeline)}
