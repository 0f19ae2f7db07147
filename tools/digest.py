"""Print three sha256 lines over the values a bit-for-bit change must keep.

Usage: python tools/digest.py SRC_ROOT

SRC_ROOT is the directory that holds the `marginadapt` package of the
checkout to digest (its `src/`). Run it on two checkouts, say the parent
commit's and a change's; equal first lines mean equal bits in:
  - ERM: the trained model's fingerprint and the float-hex loss and
    holdout histories, for a linear and a norm encoder on two seeds;
  - `run_method` over both encoders, lr 5e-5 and 5e-3, every method and
    every combination of the unidg switches, steps 0, 5 and None: float-hex
    cumulative curves and loss reports, the adapted fingerprint and the
    source accuracies before and after;
  - the README workflow (gen-data, train-source, adapt, ablate) run through
    the CLI in a temporary directory: the bytes of `checkpoint.json` and the
    `canonical_record_bytes` of the adapt and ablate records.

Equal second lines mean equal failures, the error class and its message
(step and op included), for each failure recipe: a NaN weight in the
adapted encoder, a NaN target row and, with the first layer's weights all
1.0, a target row of 1e308, for both encoders and every method; ERM of the
linear encoder at lr 1e300; ERM of both encoders with a NaN in one
training row, and with a classifier of 3 classes on 4-class labels; and a
norm encoder with eps=0 whose first layer has a constant column, in ERM
and in every method.

Equal third lines mean equal `canonical_record_bytes` of the `diagnose`
records of two checkpoints of the README workflow's task: the trained one
above and an untrained one (`train-source --epochs 0`, the same seed and
architecture).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import warnings

import numpy as np


def _import_package(src_root):
    src_root = os.path.abspath(src_root)
    if not os.path.isdir(os.path.join(src_root, "marginadapt")):
        sys.exit(f"digest: {src_root} holds no marginadapt package")
    sys.path.insert(0, src_root)
    import marginadapt

    if not os.path.abspath(marginadapt.__file__).startswith(src_root + os.sep):
        sys.exit(f"digest: imported marginadapt from {marginadapt.__file__}, not {src_root}")
    return marginadapt


def _hex(values):
    return [None if v is None else float(v).hex() for v in values]


def _erm_lines(ma):
    """ERM values, and each encoder's seed-0 model and task for the grid."""
    lines, trained = [], {}
    for use_norm, seed in itertools.product((False, True), (0, 1)):
        spec = ma.ShiftSpec(samples_per_domain=1200, num_source_domains=2, seed=seed)
        sources, target = ma.gen_synthetic_shift(spec)
        dims = [16, 24, 24] if use_norm else [16, 24]
        enc = ma.MlpEncoder.create(dims, use_norm=use_norm, seed=seed)
        clf = ma.LinearClassifier.create(dims[-1], 4, seed=seed + 1)
        report = ma.train_source_erm(enc, clf, sources, ma.TrainConfig(lr=1e-2, epochs=3, seed=seed))
        lines.append(("erm", use_norm, seed, ma.model_fingerprint(enc, clf),
                      report.best_epoch, _hex(report.loss_history), _hex(report.val_history)))
        if seed == 0:
            trained[use_norm] = (enc, clf, sources[0], target)
    return lines, trained


def _run_method_lines(ma, trained):
    switches = [dict(zip(("enable_lm", "enable_le", "enable_bank"), s))
                for s in itertools.product((True, False), repeat=3)]
    lines = []
    for use_norm, (enc, clf, source_eval, target) in trained.items():
        methods = [dict(method="none"), dict(method="pseudo_label")]
        if use_norm:
            methods.append(dict(method="entropy_norm"))
        methods += [dict(method="unidg", **s) for s in switches]
        for settings, lr, steps in itertools.product(methods, (5e-5, 5e-3), (0, 5, None)):
            cfg = ma.AdaptConfig(lr=lr, steps=steps, seed=3, **settings)
            pair = ma.clone_for_adaptation(enc, clf)
            _, curve, reports = ma.run_method(pair, target, cfg, source_eval=source_eval)
            lines.append((
                "run_method", use_norm, sorted(settings.items()), lr, steps,
                _hex(curve.cumulative), float(curve.final_accuracy).hex(),
                _hex([curve.source_before, curve.source_after]),
                [(*_hex([r.l_m, r.l_e, r.total]), r.hinge_rows) for r in reports],
                pair.adapted_fingerprint(),
            ))
    return lines


_WORKFLOW = (
    ["gen-data", "--out", "task", "--seed", "0"],
    ["train-source", "--data", "task", "--out", "run", "--seed", "0",
     "--epochs", "12", "--lr", "0.01", "--hidden-dims", "32", "--feature-dim", "32"],
    ["adapt", "--checkpoint", "run/checkpoint.json", "--target", "task/target.csv",
     "--source-data", "task", "--out", "run"],
    ["ablate", "--checkpoint", "run/checkpoint.json", "--target", "task/target.csv",
     "--out", "run", "--trials", "3"],
    ["train-source", "--data", "task", "--out", "init", "--seed", "0",
     "--epochs", "0", "--hidden-dims", "32", "--feature-dim", "32"],
    ["diagnose", "--checkpoint", "run/checkpoint.json", "--out", "diag"],
    ["diagnose", "--checkpoint", "init/checkpoint.json", "--out", "diag"],
)


def _records(out_dir):
    """A ("record", name, kind, sha256 of its canonical bytes) line per run
    record in `out_dir`."""
    from marginadapt import cli

    lines = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("run_"):
            with open(os.path.join(out_dir, name)) as fh:
                record = json.load(fh)
            digest = hashlib.sha256(cli.canonical_record_bytes(record)).hexdigest()
            lines.append(("record", name, record["kind"], digest))
    return lines


def _workflow_lines():
    """The README workflow's lines, and the diagnose records' lines."""
    from marginadapt import cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        os.chdir(tmp)  # the records hold the paths as given, so keep them relative
        try:
            for argv in _WORKFLOW:
                if cli.main(argv) != 0:
                    sys.exit(f"digest: marginadapt {argv[0]} failed")
            with open("run/checkpoint.json", "rb") as fh:
                lines = [("checkpoint", hashlib.sha256(fh.read()).hexdigest())]
            return lines + _records("run"), _records("diag")
        finally:
            os.chdir(cwd)


def _failure_lines(ma, trained):
    """The error class and message of each failure recipe (see the module
    docstring), or None where a recipe does not fail."""
    from marginadapt.adapt import METHODS

    def message(run):
        try:
            run()
        except ma.MarginAdaptError as e:
            return f"{type(e).__name__}: {e}"
        return None

    def passes(enc, clf, target, methods, plant):
        out = []
        for method in methods:
            pair = ma.clone_for_adaptation(enc, clf)
            plant(pair.adapted_encoder)
            cfg = ma.AdaptConfig(method=method, seed=3)
            out.append((method, message(lambda: ma.run_method(pair, target, cfg))))
        return out

    def erm(enc, cfg, data=None, classes=4):
        clf = ma.LinearClassifier.create(enc.feature_dim, classes, seed=1)
        return message(lambda: ma.train_source_erm(enc, clf, data or sources, cfg))

    def nan_weight(enc):
        enc.weights[-1][0, 0] = np.nan

    def ones_first_layer(enc):  # so that a row of 1e308 overflows every column
        enc.weights[0][...] = 1.0

    def planted(ds, row, value):  # a dataset refuses non-finite rows, so plant after
        out = ma.DomainDataset(ds.features.copy(), ds.labels, ds.num_classes, ds.domain_id)
        out.features[row] = value
        return out

    sources, _ = ma.gen_synthetic_shift(
        ma.ShiftSpec(samples_per_domain=1200, num_source_domains=2, seed=0))
    # a row of the first domain's training split under TrainConfig(seed=0),
    # whose holdout fraction is 0.2
    train, _ = ma.split_holdout(sources[0], 0.2, seed=0)
    row = np.flatnonzero((sources[0].features == train.features[100]).all(axis=1))
    nan_sources = [planted(sources[0], row, np.nan), *sources[1:]]
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a scanned op warns before it fails
        for use_norm, (enc, clf, _, target) in trained.items():
            methods = [m for m in METHODS if use_norm or m != "entropy_norm"]
            huge, nan = planted(target, 5, 1e308), planted(target, 5, np.nan)
            lines += [("nan weight", use_norm, passes(enc, clf, target, methods, nan_weight)),
                      ("1e308 row", use_norm, passes(enc, clf, huge, methods, ones_first_layer)),
                      ("nan target row", use_norm, passes(enc, clf, nan, methods, lambda enc: None))]
            dims = [16, 24, 24] if use_norm else [16, 24]
            cfg = ma.TrainConfig(lr=1e-2, epochs=2, seed=0)
            lines += [("erm nan row", use_norm,
                       erm(ma.MlpEncoder.create(dims, use_norm=use_norm, seed=0), cfg, nan_sources)),
                      ("erm 3 classes", use_norm,
                       erm(ma.MlpEncoder.create(dims, use_norm=use_norm, seed=0), cfg, classes=3))]
        lines.append(("erm lr 1e300", erm(ma.MlpEncoder.create([16, 24], seed=0),
                                          ma.TrainConfig(lr=1e300, epochs=2, seed=0))))
        # a constant pre-norm column has variance 0, and with eps=0 so has its denominator
        enc = ma.MlpEncoder.create([16, 24, 24], use_norm=True, seed=0, eps=0.0)
        enc.weights[0][:, 0] = enc.biases[0][0] = 0.0
        lines.append(("eps 0 erm", erm(enc.copy(), ma.TrainConfig(lr=1e-2, epochs=1, seed=0))))
        clf = ma.LinearClassifier.create(24, 4, seed=1)
        lines.append(("eps 0", passes(enc, clf, trained[True][3], METHODS, lambda enc: None)))
    return lines


def _sha256(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__.strip().splitlines()[2])
    ma = _import_package(argv[0])
    erm, trained = _erm_lines(ma)
    workflow, diagnose = _workflow_lines()
    print(_sha256(erm + _run_method_lines(ma, trained) + workflow))
    print(_sha256(_failure_lines(ma, trained)))
    print(_sha256(diagnose))


if __name__ == "__main__":
    main(sys.argv[1:])
