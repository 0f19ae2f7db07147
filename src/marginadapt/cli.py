"""Command-line front end.

Subcommands: gen-data, train-source, adapt, ablate, diagnose. Reports go to
stdout, diagnostics and errors to stderr, and every failure exits nonzero.
The fields of AdaptConfig, TrainConfig and ShiftSpec, plus the encoder's
architecture keys, are the one list of settings: each is a config-file key
under its field name and a `--field-name` flag, both typed by its annotation.
Run records are JSON, written append-only (run_0001.json, run_0002.json, ...);
reruns never overwrite an existing record. Records are byte-reproducible for
a fixed seed once the wall-clock field is stripped (see
canonical_record_bytes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .adapt import METHODS, AdaptConfig, run_method
from .data import ShiftSpec, gen_synthetic_shift, load_csv, load_csv_files, write_csv
from .diagnostics import kernel_comparison_sweep, verify_bn_gradient
from .errors import ConfigError, DataError, MarginAdaptError
from .model import (
    LinearClassifier,
    MlpEncoder,
    CHECKPOINT_VERSION,
    classification_accuracy,
    clone_for_adaptation,
    load_checkpoint,
    model_fingerprint,
    save_checkpoint,
)
from .numeric import NormLayerState
from .train import TrainConfig, train_source_erm

RESULTS_SCHEMA_VERSION = 1
OUT_ENV_VAR = "MARGINADAPT_OUT"
NONDETERMINISTIC_KEYS = ("wall_clock_seconds",)

# the architecture of train-source's fresh encoder: keys of no config's field
_ARCHITECTURE = {"hidden_dims": "str", "feature_dim": "int", "use_norm": "bool"}
# every config key, typed by its field's annotation (a string under
# `from __future__ import annotations`)
_KEY_TYPES = {f.name: f.type for cls in (AdaptConfig, TrainConfig, ShiftSpec)
              for f in fields(cls)} | _ARCHITECTURE
# the flag and value parser of each annotation but "bool"
_PARSERS = {"float": float, "int": int, "int | None": int, "str": str}
# the adapt switches, each a `--X/--no-X` flag setting `enable_X`
_SWITCHES = tuple(f.name[len("enable_"):] for f in fields(AdaptConfig)
                  if f.name.startswith("enable_"))


def _switches(*on) -> dict:
    return {f"enable_{name}": name in on for name in _SWITCHES}


# the component grid cmd_ablate sweeps: endpoints, each single component
# that can move a fresh clone, and the two natural pairs; `lm` alone is not
# a row, as the hinge is zero on a fresh clone and nothing else moves it;
# rows with the bank are named after its only effect on the model, the
# classifier refresh
ABLATION_GRID = [
    ("none", _switches()),
    ("le", _switches("le")),
    ("refresh", _switches("bank")),
    ("lm+le", _switches("lm", "le")),
    ("le+refresh", _switches("le", "bank")),
    ("all", _switches("lm", "le", "bank")),
]
# each row without the hinge and its twin with it: while no step of the twin
# has a row outside the margin, the hinge adds no gradient and l_m is 0.0, so
# the twin takes this row's steps bit for bit
_MARGIN_TWINS = {"le": "lm+le", "le+refresh": "all"}

_BOOL_TRUE = {"true", "1", "yes", "on"}
_BOOL_FALSE = {"false", "0", "no", "off"}


def parse_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment. Keys must be known config
    fields; values are converted to the field's type."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            out[key] = _convert(key, value, f"{path}: line {lineno}")
    return out


def _convert(key, value, where):
    kind = _KEY_TYPES[key]
    try:
        if kind == "int | None" and value.lower() == "none":
            return None
        if kind == "bool":
            low = value.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(f"not a boolean: {value!r}")
        return _PARSERS[kind](value)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key}: {e}") from None


def _setting(args, file_cfg: dict, name, default):
    """The flag when it is set, else the --config file's value, else default."""
    flag = getattr(args, name, None)
    return flag if flag is not None else file_cfg.get(name, default)


def _settings(args, cls):
    """A validated `cls` config: each field's flag, else its --config file
    value, else its default. Also returns the file's values, for keys that
    are not fields of `cls`."""
    file_cfg = parse_config_file(args.config) if args.config else {}
    base = cls()
    values = {f.name: _setting(args, file_cfg, f.name, getattr(base, f.name))
              for f in fields(cls)}
    return replace(base, **values).validate(), file_cfg


def canonical_record_bytes(record: dict) -> bytes:
    """Serialized record with volatile (timing) fields removed; two runs of
    the same seed must agree on these bytes exactly."""
    trimmed = {k: v for k, v in record.items() if k not in NONDETERMINISTIC_KEYS}
    return json.dumps(trimmed, sort_keys=True, separators=(",", ":")).encode()


def write_run_record(out_dir, record: dict) -> str:
    """Append-only writer: picks the next free run_NNNN.json."""
    os.makedirs(out_dir, exist_ok=True)
    n = 1
    while True:
        path = os.path.join(out_dir, f"run_{n:04d}.json")
        try:
            with open(path, "x") as fh:
                json.dump(record, fh, sort_keys=True, indent=1)
                fh.write("\n")
            return path
        except FileExistsError:
            n += 1


def _write_record(args, kind: str, started: float, **body) -> str:
    """Writes a `kind` run record with the common header, versions and wall
    clock since `started` to the output directory; returns its path."""
    return write_run_record(_out_dir(args), {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "kind": kind,
        **body,
        "versions": {
            "package": __version__,
            "results_schema": RESULTS_SCHEMA_VERSION,
            "checkpoint_format": CHECKPOINT_VERSION,
        },
        "wall_clock_seconds": time.perf_counter() - started,
    })


def _out_dir(args) -> str:
    if args.out is not None:
        return args.out
    return os.environ.get(OUT_ENV_VAR, "marginadapt_out")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    spec, _ = _settings(args, ShiftSpec)
    sources, target = gen_synthetic_shift(spec)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    paths = []
    for k, ds in enumerate(sources):
        paths.append(write_csv(ds, os.path.join(out, f"source_{k}.csv")))
    paths.append(write_csv(target, os.path.join(out, "target.csv")))
    sidecar = os.path.join(out, "shift_spec.json")
    with open(sidecar, "w") as fh:
        json.dump({"schema_version": RESULTS_SCHEMA_VERSION, "spec": spec.to_dict()},
                  fh, sort_keys=True, indent=1)
        fh.write("\n")
    paths.append(sidecar)
    print(f"task: {spec.num_classes} classes, dim {spec.input_dim}, "
          f"shift rotation ({spec.angle_deg} deg)")
    for p in paths:
        print(f"wrote {p}")
    return 0


def _load_sources(data_dir, num_classes=None):
    names = sorted(
        f for f in os.listdir(data_dir)
        if f.startswith("source_") and f.endswith(".csv")
    )
    if not names:
        raise DataError(f"{data_dir}: no source_*.csv files")
    paths = [os.path.join(data_dir, name) for name in names]
    out = []
    # without num_classes, one class count for every file: the largest label + 1
    for path, domains in zip(paths, load_csv_files(paths, num_classes=num_classes)):
        out.extend(domains[d] for d in sorted(domains))
        width, first = out[-1].features.shape[1], out[0].features.shape[1]
        if width != first:
            raise DataError(f"{path}: {width} feature columns, but {names[0]} has {first}")
    return out


def cmd_train_source(args) -> int:
    cfg, file_cfg = _settings(args, TrainConfig)
    sources = _load_sources(args.data)
    hidden = _setting(args, file_cfg, "hidden_dims", "64,64")
    try:
        dims = [sources[0].features.shape[1], *(int(h) for h in hidden.split(",") if h),
                _setting(args, file_cfg, "feature_dim", 32)]
    except ValueError as e:
        raise ConfigError(f"bad value for hidden_dims: {e}") from None
    use_norm = _setting(args, file_cfg, "use_norm", False)
    encoder = MlpEncoder.create(dims, use_norm=use_norm, seed=cfg.seed)
    classifier = LinearClassifier.create(dims[-1], sources[0].num_classes, seed=cfg.seed + 1)
    _log(f"training on {sum(d.n for d in sources)} rows across {len(sources)} domains")
    report = train_source_erm(encoder, classifier, sources, cfg)

    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    path = args.checkpoint or os.path.join(out, "checkpoint.json")
    save_checkpoint(path, encoder, classifier, seed=cfg.seed)
    print(f"holdout accuracy: {report.val_accuracy:.4f} (best epoch {report.best_epoch})")
    print(f"wrote {path}")
    return 0


def _load_adapt_inputs(args):
    """(encoder, classifier, target, source_accuracy): the checkpoint's model,
    the target stream, and `source_accuracy(enc, clf)`, a model's accuracy
    on the rows of every --source-data file pooled, or None without
    --source-data. Each model state is scored once, keyed by its
    fingerprint: a pass that moves nothing, like `none` on a fresh clone,
    reuses the score of the model it started from."""
    encoder, classifier, _ = load_checkpoint(args.checkpoint)
    target = load_csv(args.target, num_classes=classifier.num_classes)
    pool = None
    if args.source_data:
        sources = _load_sources(args.source_data, num_classes=classifier.num_classes)
        pool = (np.vstack([d.features for d in sources]),
                np.concatenate([d.labels for d in sources]))
    scores = {}

    def source_accuracy(enc, clf):
        if pool is None:
            return None
        key = model_fingerprint(enc, clf)
        if key not in scores:
            scores[key] = classification_accuracy(enc, clf, *pool)
        return scores[key]

    return encoder, classifier, target, source_accuracy


def _data_paths(args) -> dict:
    return {"checkpoint": args.checkpoint, "target": args.target,
            "source_data": args.source_data}


def cmd_adapt(args) -> int:
    cfg, _ = _settings(args, AdaptConfig)
    encoder, classifier, target, source_accuracy = _load_adapt_inputs(args)
    pair = clone_for_adaptation(encoder, classifier)
    started = time.perf_counter()
    pair, curve, reports = run_method(pair, target, cfg)
    # the pass moves only the adapted copy: the frozen source scores as before it
    source_before = source_accuracy(encoder, classifier)
    source_after = source_accuracy(pair.adapted_encoder, pair.adapted_classifier)
    path = _write_record(
        args, "adapt", started, method=cfg.method, config=cfg.to_dict(),
        data=_data_paths(args),
        curve={**curve.to_dict(), "source_before": source_before, "source_after": source_after},
        loss_trace={key: [getattr(r, key) for r in reports]
                    for key in ("l_m", "l_e", "total")},
    )
    print(f"method {cfg.method}: final target accuracy {curve.final_accuracy:.4f} "
          f"over {len(curve.cumulative)} batches")
    if source_before is not None:
        print(f"source accuracy: {source_before:.4f} -> {source_after:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_ablate(args) -> int:
    trials = args.trials
    if trials < 1:
        raise ConfigError(f"ablate needs --trials >= 1, got {trials}")
    base, _ = _settings(args, AdaptConfig)
    if base.method != "unidg":
        raise ConfigError("ablate sweeps the combined method; do not set method")
    encoder, classifier, target, source_accuracy = _load_adapt_inputs(args)
    started = time.perf_counter()
    # one source pass per distinct model state (see _load_adapt_inputs), and
    # a row that repeats its margin twin is not run at all
    source_before = source_accuracy(encoder, classifier)
    switches_of = dict(ABLATION_GRID)

    def run(name, trial):
        """(final accuracy, source drop, whether the hinge bound) of a run."""
        cfg = replace(base, seed=base.seed + trial, **switches_of[name])
        pair = clone_for_adaptation(encoder, classifier)
        pair, curve, reports = run_method(pair, target, cfg)
        drop = None if source_before is None else source_before - source_accuracy(
            pair.adapted_encoder, pair.adapted_classifier)
        return curve.final_accuracy, drop, any(r.hinge_rows for r in reports)

    runs = {}  # (variant, trial) -> run(variant, trial)
    rows = []
    for name, switches in ABLATION_GRID:
        twin = _MARGIN_TWINS.get(name)
        for trial in range(trials):
            if twin is not None and (twin, trial) not in runs:
                runs[twin, trial] = run(twin, trial)
            if (name, trial) not in runs:
                idle = twin is not None and not runs[twin, trial][2]
                runs[name, trial] = runs[twin, trial] if idle else run(name, trial)
        finals, drops, _ = zip(*(runs[name, trial] for trial in range(trials)))
        rows.append({
            "variant": name,
            "switches": switches,
            "mean_final_accuracy": float(np.mean(finals)),
            "final_accuracies": list(finals),
            "mean_source_drop": None if source_before is None else float(np.mean(drops)),
        })
    baseline = rows[0]["mean_final_accuracy"]
    print(f"{'variant':<12} {'accuracy':>9} {'gain':>8}")
    for row in rows:
        gain = row["mean_final_accuracy"] - baseline
        print(f"{row['variant']:<12} {row['mean_final_accuracy']:>9.4f} {gain:>+8.4f}")
    path = _write_record(args, "ablation", started, config=base.to_dict(),
                         trials=trials, data=_data_paths(args), rows=rows)
    print(f"wrote {path}")
    return 0


def cmd_diagnose(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"diagnose needs --trials >= 1, got {args.trials}")
    if args.batch_rows < 2:
        raise ConfigError(f"diagnose needs --batch-rows >= 2, got {args.batch_rows}")
    file_cfg = parse_config_file(args.config) if args.config else {}
    seed = _setting(args, file_cfg, "seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    encoder, _, _ = load_checkpoint(args.checkpoint)
    started = time.perf_counter()

    dim = encoder.input_dim
    state = NormLayerState.create(dim)
    state.gamma[...] = rng.uniform(0.5, 1.5, size=dim)
    state.beta[...] = rng.uniform(-0.5, 0.5, size=dim)
    batch = rng.standard_normal((args.batch_rows, dim))
    bn_error = verify_bn_gradient(batch, state, trials=args.trials, seed=seed)
    print(f"norm backward vs finite differences: max relative error {bn_error:.3e}")

    samples_a = rng.standard_normal((max(args.trials, 4), dim))
    samples_b = rng.standard_normal((max(args.trials, 4), dim))
    sweep = kernel_comparison_sweep(
        encoder, samples_a, samples_b, trials=args.trials, seed=seed + 1
    )
    for subset, st in sweep.stats.items():
        if st["count"]:
            print(f"kernel[{subset}]: cosine mean {st['cosine_mean']:+.4f} "
                  f"range [{st['cosine_min']:+.4f}, {st['cosine_max']:+.4f}] "
                  f"over {st['count']} pairs ({sweep.skipped[subset]} degenerate skipped)")
        else:
            print(f"kernel[{subset}]: all {sweep.trials} pairs degenerate")
    path = _write_record(args, "diagnostics", started, checkpoint=args.checkpoint,
                         seed=seed, bn_max_relative_error=bn_error,
                         kernel_sweep=sweep.to_dict())
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


# flag extras of a config key: aliases and help text
_ALIASES = {"lambda_weight": ("--lambda",)}
_HELP = {"hidden_dims": "comma-separated hidden sizes, e.g. 64,64"}


def _value_fields(cls) -> list:
    """Fields of `cls` with a plain value flag: all but the hand-written
    --seed, --method and switch pairs."""
    return [f.name for f in fields(cls)
            if f.name not in ("seed", "method") and not f.name.startswith("enable_")]


def _add_value_flags(p, names) -> None:
    """One `--name-with-dashes` flag per config key, None when not given."""
    for name in names:
        flags = (f"--{name.replace('_', '-')}", *_ALIASES.get(name, ()))
        kind = _KEY_TYPES[name]
        if kind == "bool":
            p.add_argument(*flags, dest=name, action="store_true", default=None)
        else:
            p.add_argument(*flags, dest=name, type=_PARSERS[kind], default=None,
                           help=_HELP.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginadapt",
        description="Margin-constrained test-time adaptation at desk scale",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./marginadapt_out)")
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--seed", type=int, default=None)

    g = sub.add_parser("gen-data", help="generate a synthetic shift task")
    add_common(g)
    _add_value_flags(g, _value_fields(ShiftSpec))
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train-source", help="train the source model")
    add_common(t)
    t.add_argument("--data", required=True, help="directory with source_*.csv")
    t.add_argument("--checkpoint", help="checkpoint path (default <out>/checkpoint.json)")
    _add_value_flags(t, [*_value_fields(TrainConfig), *_ARCHITECTURE])
    t.set_defaults(func=cmd_train_source)

    def add_adapt_flags(p):
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--target", required=True, help="target-domain csv")
        p.add_argument("--source-data", dest="source_data",
                       help="source csv directory for preservation metrics")
        _add_value_flags(p, _value_fields(AdaptConfig))

    a = sub.add_parser("adapt", help="adapt to a target stream")
    add_common(a)
    add_adapt_flags(a)
    a.add_argument("--method", choices=METHODS, default=None)
    for switch in _SWITCHES:
        group = a.add_mutually_exclusive_group()
        group.add_argument(f"--{switch}", dest=f"enable_{switch}",
                           action="store_true", default=None)
        group.add_argument(f"--no-{switch}", dest=f"enable_{switch}",
                           action="store_false", default=None)
    a.set_defaults(func=cmd_adapt)

    b = sub.add_parser("ablate", help="component grid over the combined method")
    add_common(b)
    add_adapt_flags(b)
    b.add_argument("--trials", type=int, default=1, help="seeds per grid row")
    b.set_defaults(func=cmd_ablate)

    d = sub.add_parser("diagnose", help="gradient and kernel diagnostics")
    add_common(d)
    d.add_argument("--checkpoint", required=True,
                   help="the model whose encoder the kernel sweep measures, at its "
                   "saved weights (train-source --epochs 0 saves an untrained one)")
    d.add_argument("--trials", type=int, default=10)
    d.add_argument("--batch-rows", type=int, dest="batch_rows", default=8)
    d.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MarginAdaptError, OSError) as e:
        _log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
