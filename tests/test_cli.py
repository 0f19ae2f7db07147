"""Command-line workflow: subcommands, config files, run records."""

import argparse
import json
import os
import re
import shutil
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from marginadapt import (
    AdaptConfig,
    ConfigError,
    DomainDataset,
    MlpEncoder,
    SchemaError,
    ShiftSpec,
    TrainConfig,
    classification_accuracy,
    clone_for_adaptation,
    load_checkpoint,
    load_csv,
    load_csv_domains,
    model_fingerprint,
    run_method,
    write_csv,
)
from marginadapt import cli
from marginadapt.cli import (
    ABLATION_GRID,
    OUT_ENV_VAR,
    build_parser,
    canonical_record_bytes,
    main,
    parse_config_file,
    write_run_record,
)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _gen(tmp_path, seed=0):
    data = str(tmp_path / "data")
    rc = main([
        "gen-data", "--out", data, "--seed", str(seed),
        "--samples-per-domain", "120", "--num-source-domains", "2",
    ])
    assert rc == 0
    return data


def _train(tmp_path, data, seed=0, extra=()):
    run = str(tmp_path / "run")
    rc = main([
        "train-source", "--data", data, "--out", run, "--seed", str(seed),
        "--epochs", "2", "--lr", "0.01", "--hidden-dims", "16",
        "--feature-dim", "16", *extra,
    ])
    assert rc == 0
    return run, os.path.join(run, "checkpoint.json")


def test_end_to_end_workflow(tmp_path, capsys):
    data = _gen(tmp_path)
    names = sorted(os.listdir(data))
    assert names == ["shift_spec.json", "source_0.csv", "source_0.csv.npy",
                     "source_1.csv", "source_1.csv.npy", "target.csv",
                     "target.csv.npy"]
    run, ckpt = _train(tmp_path, data)
    assert os.path.exists(ckpt)
    out = capsys.readouterr().out
    assert "holdout accuracy" in out

    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--source-data", data,
        "--out", run, "--steps", "3", "--lr", "0.001",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final target accuracy" in out and "source accuracy" in out
    record = json.loads(_read(os.path.join(run, "run_0001.json")))
    assert record["kind"] == "adapt" and record["method"] == "unidg"
    assert len(record["curve"]["cumulative"]) > 0
    assert len(record["loss_trace"]["total"]) == 3

    rc = main([
        "ablate", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run,
        "--steps", "2", "--trials", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "variant" in out
    record = json.loads(_read(os.path.join(run, "run_0002.json")))
    assert [row["variant"] for row in record["rows"]] == [
        "none", "le", "refresh", "lm+le", "le+refresh", "all",
    ]

    rc = main([
        "diagnose", "--checkpoint", ckpt, "--out", run,
        "--trials", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel[all]" in out
    record = json.loads(_read(os.path.join(run, "run_0003.json")))
    assert record["kind"] == "diagnostics"


def test_config_file_parsing(tmp_path):
    path = tmp_path / "adapt.cfg"
    path.write_text(
        "# adaptation settings\n"
        "sigma = 0.3   # margin\n"
        "lr=1e-3\n"
        "\n"
        "enable_lm = off\n"
        "steps = none\n"
        "method = unidg\n"
        "top_k=5\n"
    )
    cfg = parse_config_file(str(path))
    assert cfg == {
        "sigma": 0.3, "lr": 1e-3, "enable_lm": False,
        "steps": None, "method": "unidg", "top_k": 5,
    }


def test_config_file_rejects_bad_lines(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("not_a_field = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(str(bad_key))
    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("lr = fast\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_file(str(bad_value))
    no_eq = tmp_path / "c.cfg"
    no_eq.write_text("just a line\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(str(no_eq))
    bad_bool = tmp_path / "d.cfg"
    bad_bool.write_text("use_norm = maybe\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_file(str(bad_bool))


@pytest.mark.parametrize("key", ["enable_li", "enable_refresh", "capacity_per_class",
                                 "shift_kind", "weight_decay", "holdout_fraction",
                                 "class_separation", "within_class_std", "translation_std",
                                 "source_angle_max_deg"])
def test_config_file_setting_a_deleted_setting_exits_with_unknown_key(tmp_path, capsys, key):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    cfg = tmp_path / "adapt.cfg"
    cfg.write_text(f"enable_bank = on\n{key} = on\n")
    capsys.readouterr()
    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run,
        "--config", str(cfg), "--steps", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"unknown key {key!r}" in err
    assert not [f for f in os.listdir(run) if f.startswith("run_")]


def test_flags_override_config_file(tmp_path, capsys):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    cfg = tmp_path / "adapt.cfg"
    cfg.write_text("lr = 0.1\nsigma = 0.9\n")
    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run,
        "--config", str(cfg), "--lr", "0.0005", "--steps", "1",
    ])
    assert rc == 0
    record = json.loads(_read(os.path.join(run, "run_0001.json")))
    assert record["config"]["lr"] == 0.0005  # flag wins
    assert record["config"]["sigma"] == 0.9  # file fills the rest


def test_lambda_flag_alias(tmp_path, capsys):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run,
        "--lambda", "0.5", "--steps", "1",
    ])
    assert rc == 0
    record = json.loads(_read(os.path.join(run, "run_0001.json")))
    assert record["config"]["lambda_weight"] == 0.5


def test_method_none_reports_frozen_accuracy(tmp_path, capsys):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run, "--method", "none",
    ])
    assert rc == 0
    record = json.loads(_read(os.path.join(run, "run_0001.json")))
    assert record["method"] == "none"
    assert record["loss_trace"]["total"] == []


def test_rerun_with_same_seed_is_byte_reproducible(tmp_path, capsys):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    argv = [
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--source-data", data,
        "--out", run, "--steps", "4", "--seed", "3",
    ]
    assert main(argv) == 0
    assert main(argv) == 0
    rec1 = json.loads(_read(os.path.join(run, "run_0001.json")))
    rec2 = json.loads(_read(os.path.join(run, "run_0002.json")))
    assert canonical_record_bytes(rec1) == canonical_record_bytes(rec2)
    # volatile timing stays out of the canonical form
    assert b"wall_clock" not in canonical_record_bytes(rec1)
    assert "wall_clock_seconds" in rec1


def test_out_env_var_supplies_the_output_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "from_env"))
    rc = main([
        "gen-data", "--samples-per-domain", "120",
        "--num-source-domains", "1", "--seed", "0",
    ])
    assert rc == 0
    assert os.path.exists(tmp_path / "from_env" / "target.csv")


def test_missing_inputs_exit_nonzero_with_stderr(tmp_path, capsys):
    rc = main([
        "adapt", "--checkpoint", str(tmp_path / "nope.json"),
        "--target", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_run_records_never_overwrite(tmp_path):
    out = str(tmp_path / "records")
    p1 = write_run_record(out, {"x": 1})
    p2 = write_run_record(out, {"x": 2})
    assert p1.endswith("run_0001.json") and p2.endswith("run_0002.json")
    assert json.loads(_read(p1)) == {"x": 1}
    assert json.loads(_read(p2)) == {"x": 2}


def test_ablate_rejects_explicit_method(tmp_path, capsys):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    cfg = tmp_path / "m.cfg"
    cfg.write_text("method = entropy_norm\n")
    rc = main([
        "ablate", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run,
        "--config", str(cfg), "--steps", "1",
    ])
    assert rc == 1
    assert "do not set method" in capsys.readouterr().err


def test_adapt_rejects_a_non_finite_checkpoint(tmp_path, capsys):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    doc = json.loads(_read(ckpt))
    doc["encoder"]["weights"][1][0][0] = float("nan")
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run,
    ])
    assert rc == 1
    assert "encoder.weights[1] contains NaN or Inf" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("layer_dims", "abc"),
    ("weights", [[[1.0, 2.0], [3.0]]]),
    ("weights", ["x"]),
    ("layer_dims", [16, 7, 5]),
], ids=["dims-string", "ragged-weights", "weights-string", "dims-not-the-weights"])
@pytest.mark.parametrize("command", ["adapt", "diagnose"])
def test_adapt_names_a_malformed_checkpoint_field(tmp_path, capsys, field, value, command):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    doc = json.loads(_read(ckpt))
    doc["encoder"][field] = value
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    target = ["--target", os.path.join(data, "target.csv")] if command == "adapt" else []
    rc = main([command, "--checkpoint", ckpt, *target, "--out", run])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ckpt in err and "malformed field" in err
    assert not [f for f in os.listdir(run) if f.startswith("run_")]


def test_gen_data_shift_kind_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--out", str(out), "--shift-kind", "rotation"])
    assert exc.value.code == 2
    assert "--shift-kind" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_refuses_a_huge_input_dim_before_allocating(tmp_path, capsys):
    # refused by ShiftSpec.validate, so no d x d matrix is ever requested
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--input-dim", "100000"]) == 1
    assert capsys.readouterr().err == (
        "error: input_dim must be <= 1024, got 100000: each rotation is a dense "
        "100000 x 100000 matrix of 80000000000 bytes\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["ablate", "diagnose"])
def test_ablate_rejects_zero_trials_before_loading(tmp_path, capsys, command):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)

    def argv(checkpoint, trials):
        inputs = ["--target", os.path.join(data, "target.csv")] if command == "ablate" else []
        return [command, "--checkpoint", checkpoint, *inputs, "--out", run,
                "--trials", trials]

    capsys.readouterr()
    rc = main(argv(ckpt, "0"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "--trials >= 1" in err
    assert "Mean of empty slice" not in err
    assert not [f for f in os.listdir(run) if f.startswith("run_")]
    # nothing is read first: a missing checkpoint is not what fails
    rc = main(argv(str(tmp_path / "nope.json"), "-1"))
    assert rc == 1
    assert "--trials >= 1" in capsys.readouterr().err


def test_train_source_takes_its_class_count_from_the_labels_not_the_shift_spec(
        tmp_path, capsys):
    # gen-data's spec is not read: a hand-edited count that disagrees with
    # the labels does not size the classifier
    data = _gen(tmp_path)
    sidecar = os.path.join(data, "shift_spec.json")
    doc = json.loads(_read(sidecar))
    assert doc["spec"]["num_classes"] == 4
    doc["spec"]["num_classes"] = 6
    with open(sidecar, "w") as fh:
        json.dump(doc, fh)
    run, ckpt = _train(tmp_path, data)
    _, clf, _ = load_checkpoint(ckpt)
    assert clf.omega.shape == (16, 4)


def test_train_source_names_a_label_past_int64_without_a_shift_spec(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    path = data / "source_0.csv"
    path.write_text("f0,label,domain\n2.0,1,d\n2.0,100000000000000000000000,d\n")
    rc = main(["train-source", "--data", str(data), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: line 3: label 100000000000000000000000 exceeds int64\n"


# the first file lacks class 3, which only the second holds; with only
# label 0, alone its count would be 1, which is refused
@pytest.mark.parametrize("first_classes", [3, 1], ids=["lacks-class-3", "only-label-0"])
def test_train_source_without_a_shift_spec_counts_classes_over_every_source_file(
        tmp_path, capsys, first_classes):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(5)
    for i, classes in enumerate((first_classes, 4)):
        labels = np.arange(40) % classes
        features = rng.standard_normal((40, 6)) + labels[:, None]
        write_csv(DomainDataset(features, labels, 4, f"s{i}"), data / f"source_{i}.csv")
    run = tmp_path / "run"
    rc = main(["train-source", "--data", str(data), "--out", str(run), "--epochs", "1",
               "--hidden-dims", "8", "--feature-dim", "8"])
    assert rc == 0, capsys.readouterr().err
    _, clf, _ = load_checkpoint(str(run / "checkpoint.json"))
    assert clf.omega.shape == (8, 4)


@pytest.mark.parametrize("content, why", [
    (b"[]", "expected a JSON object, got list"),
    (b"\xff\xfe{", "not valid JSON"),
], ids=["array", "not-utf8"])
def test_adapt_names_a_checkpoint_that_is_not_a_json_object(tmp_path, capsys, content, why):
    data = _gen(tmp_path)
    ckpt = str(tmp_path / "checkpoint.json")
    with open(ckpt, "wb") as fh:
        fh.write(content)
    capsys.readouterr()
    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", str(tmp_path / "run"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ckpt in err and why in err


def test_adapt_exits_1_on_a_stream_with_nothing_to_score(tmp_path, capsys):
    # a norm encoder scores batches of 2 rows or more; this target has 1
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data, extra=("--use-norm",))
    one_row = tmp_path / "one_row.csv"
    one_row.write_text("".join(_read(os.path.join(data, "target.csv")).splitlines(True)[:2]))
    capsys.readouterr()
    rc = main(["adapt", "--checkpoint", ckpt, "--target", str(one_row), "--out", run])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: run_method: the 1-row target has no batch of the 2 rows norm layers need")
    assert not [f for f in os.listdir(run) if f.startswith("run_")]


@pytest.mark.parametrize("extra", [(), ("--use-norm",)], ids=["linear", "norm"])
def test_ablate_scores_each_model_state_once(tmp_path, capsys, monkeypatch, extra):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data, extra=extra)
    target_path = os.path.join(data, "target.csv")

    # reference: the source pool scored before and after every trial's pass
    encoder, classifier, _ = load_checkpoint(ckpt)
    target = load_csv(target_path, num_classes=classifier.num_classes)
    pool = _source_pool(data, classifier.num_classes)
    expected = {}
    for name, switches in ABLATION_GRID:
        finals, drops = [], []
        for trial in range(2):
            cfg = replace(AdaptConfig(), seed=trial, **switches)
            pair = clone_for_adaptation(encoder.copy(), classifier.copy())
            before = classification_accuracy(pair.adapted_encoder, pair.adapted_classifier, *pool)
            _, curve, _ = run_method(pair, target, cfg)
            finals.append(curve.final_accuracy)
            drops.append(before - classification_accuracy(
                pair.adapted_encoder, pair.adapted_classifier, *pool))
        expected[name] = (finals, float(np.mean(drops)))

    # spy: attribute each source-pool pass to the grid row being run
    passes = {"before any run": 0}
    running = ["before any run"]

    def spy_run_method(pair, target, cfg):
        running[0] = next(name for name, sw in ABLATION_GRID
                          if all(getattr(cfg, k) == v for k, v in sw.items()))
        passes.setdefault(running[0], 0)
        return run_method(pair, target, cfg)

    monkeypatch.setattr(cli, "run_method", spy_run_method)
    _count_pool_passes(monkeypatch, pool, lambda: running[0], passes)
    rc = main([
        "ablate", "--checkpoint", ckpt, "--target", target_path,
        "--source-data", data, "--out", run, "--trials", "2",
    ])
    assert rc == 0
    record = json.loads(_read(os.path.join(run, "run_0001.json")))
    for row in record["rows"]:
        finals, drop = expected[row["variant"]]
        assert row["final_accuracies"] == finals
        assert row["mean_source_drop"] == drop
    # `none` never moves the frozen model, which is scored once
    assert passes["none"] == 0
    assert passes["before any run"] == 1


def _source_pool(data, num_classes):
    """(features, labels) of every source file of `data`, in file order."""
    sources = []
    for name in ("source_0.csv", "source_1.csv"):
        sources.extend(load_csv_domains(os.path.join(data, name),
                                        num_classes=num_classes).values())
    return (np.vstack([d.features for d in sources]),
            np.concatenate([d.labels for d in sources]))


def _count_pool_passes(monkeypatch, pool, key, passes):
    """Counts in passes[key()] each call of the CLI's accuracy on the pool's rows."""
    def spy_accuracy(encoder, classifier, features, labels):
        if features.shape[0] == pool[0].shape[0]:
            passes[key()] += 1
        return real_accuracy(encoder, classifier, features, labels)

    real_accuracy = cli.classification_accuracy
    monkeypatch.setattr(cli, "classification_accuracy", spy_accuracy)


@pytest.mark.parametrize("method, passes", [("none", 1), ("unidg", 2)])
def test_adapt_scores_the_source_pool_once_per_model_state(
        trained_task, tmp_path, capsys, monkeypatch, method, passes):
    # `none` leaves the model as it was, so its score after the pass is the
    # one before it
    data, ckpt = trained_task
    pool = _source_pool(data, 4)
    encoder, classifier, _ = load_checkpoint(ckpt)
    before = classification_accuracy(encoder, classifier, *pool)
    counted = {"adapt": 0}
    _count_pool_passes(monkeypatch, pool, lambda: "adapt", counted)
    run = str(tmp_path / "run")
    rc = main(["adapt", "--checkpoint", ckpt, "--target", os.path.join(data, "target.csv"),
               "--source-data", data, "--out", run, "--method", method, "--steps", "4",
               "--lr", "5e-3"])
    assert rc == 0
    assert counted["adapt"] == passes
    curve = json.loads(_read(os.path.join(run, "run_0001.json")))["curve"]
    assert sorted(curve) == ["cumulative", "final_accuracy", "per_domain",
                             "source_after", "source_before"]
    assert curve["source_before"] == before
    assert (curve["source_after"] == before) == (method == "none")
    assert f"source accuracy: {before:.4f} -> " in capsys.readouterr().out


@pytest.mark.parametrize("sigma", [None, "0"], ids=["idle", "binding"])
def test_ablate_runs_a_margin_twin_only_where_its_hinge_bound(tmp_path, capsys,
                                                             monkeypatch, sigma):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    target_path = os.path.join(data, "target.csv")
    sigma_flag = [] if sigma is None else ["--sigma", sigma]
    base = AdaptConfig() if sigma is None else AdaptConfig(sigma=float(sigma))

    # reference: every row and trial run on its own
    encoder, classifier, _ = load_checkpoint(ckpt)
    target = load_csv(target_path, num_classes=classifier.num_classes)
    expected, bound = {}, {}
    for name, switches in ABLATION_GRID:
        expected[name] = []
        for trial in range(2):
            cfg = replace(base, seed=trial, **switches)
            pair = clone_for_adaptation(encoder.copy(), classifier.copy())
            _, curve, reports = run_method(pair, target, cfg)
            expected[name].append(curve.final_accuracy)
            bound[name, trial] = any(r.hinge_rows for r in reports)

    ran = []

    def spy_run_method(pair, target, cfg, **kwargs):
        ran.append((next(name for name, sw in ABLATION_GRID
                         if all(getattr(cfg, k) == v for k, v in sw.items())), cfg.seed))
        return run_method(pair, target, cfg, **kwargs)

    monkeypatch.setattr(cli, "run_method", spy_run_method)
    rc = main(["ablate", "--checkpoint", ckpt, "--target", target_path,
               "--out", run, "--trials", "2", *sigma_flag])
    assert rc == 0
    record = json.loads(_read(os.path.join(run, "run_0001.json")))
    assert [row["variant"] for row in record["rows"]] == [n for n, _ in ABLATION_GRID]
    for row in record["rows"]:
        assert row["final_accuracies"] == expected[row["variant"]]
        assert row["mean_source_drop"] is None

    # each twin with the hinge runs once; the row without it runs only
    # where the twin's hinge bound
    twins = {"le": "lm+le", "le+refresh": "all"}
    assert sorted(ran) == sorted(
        (name, trial) for name, _ in ABLATION_GRID for trial in range(2)
        if name not in twins or bound[twins[name], trial])
    if sigma is None:
        # at the default margin `all` never binds on this task
        assert not any(bound["all", trial] for trial in range(2))
        assert ("le+refresh", 0) not in ran and ("le+refresh", 1) not in ran
    else:
        assert all(bound[twin, trial] for twin in twins.values() for trial in range(2))


def test_adapt_record_loss_trace_keeps_its_three_keys(trained_task, tmp_path, capsys):
    data, ckpt = trained_task
    run = str(tmp_path / "run")
    rc = main(["adapt", "--checkpoint", ckpt, "--target", os.path.join(data, "target.csv"),
               "--out", run, "--steps", "4", "--lr", "5e-3", "--sigma", "0"])
    assert rc == 0
    record = json.loads(_read(os.path.join(run, "run_0001.json")))
    assert sorted(record["loss_trace"]) == ["l_e", "l_m", "total"]
    assert all(len(trace) == 4 for trace in record["loss_trace"].values())


def test_adapt_with_a_top_k_past_the_stream_runs_like_one_equal_to_it(
        trained_task, tmp_path, capsys):
    data, ckpt = trained_task
    target = os.path.join(data, "target.csv")
    run = str(tmp_path / "run")
    for top_k in (10**9, load_csv(target).n):
        rc = main(["adapt", "--checkpoint", ckpt, "--target", target, "--out", run,
                   "--steps", "4", "--lr", "5e-3", "--top-k", str(top_k)])
        assert rc == 0
    records = [json.loads(_read(os.path.join(run, f"run_000{n}.json"))) for n in (1, 2)]
    for record in records:
        del record["config"]["top_k"]
    assert canonical_record_bytes(records[0]) == canonical_record_bytes(records[1])


@pytest.mark.parametrize("field, value", [
    ("eps", "x"), ("eps", -1.0), ("eps", float("inf")), ("eps", float("nan")),
    ("momentum", 2.0), ("momentum", "y"),
], ids=["eps-string", "eps-negative", "eps-infinity", "eps-nan", "momentum-above-one",
        "momentum-string"])
@pytest.mark.parametrize("extra", [(), ("--use-norm",)], ids=["linear", "norm"])
def test_adapt_refuses_bad_norm_settings_for_both_encoder_kinds(
        tmp_path, capsys, extra, field, value):
    # every norm runs with NORM_EPS and NORM_MOMENTUM, so a checkpoint that
    # sets either one, to any value, is refused rather than run without it
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data, extra=extra)
    doc = json.loads(_read(ckpt))
    doc["encoder"][field] = value
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(SchemaError, match=f"unknown field encoder.{field}$"):
        load_checkpoint(ckpt)
    capsys.readouterr()
    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run,
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: checkpoint {ckpt}: unknown field encoder.{field}\n"
    assert not [f for f in os.listdir(run) if f.startswith("run_")]


@pytest.mark.parametrize("extra", [(), ("--use-norm",)], ids=["linear", "norm"])
def test_adapt_refuses_a_version_1_checkpoint_for_both_encoder_kinds(tmp_path, capsys, extra):
    # version 1 kept the default eps and momentum in the encoder
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data, extra=extra)
    doc = json.loads(_read(ckpt))
    doc["format_version"] = 1
    doc["encoder"].update(eps=1e-5, momentum=0.1)
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run,
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: checkpoint {ckpt}: format_version 1 not supported\n"
    assert not [f for f in os.listdir(run) if f.startswith("run_")]


def test_gen_data_config_file_fills_in_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("num_classes = 3\nangle_deg = 45\nsamples_per_domain = 60\n")
    out = str(tmp_path / "task")
    rc = main(["gen-data", "--out", out, "--config", str(cfg), "--num-classes", "5",
               "--num-source-domains", "1"])
    assert rc == 0
    spec = json.loads(_read(os.path.join(out, "shift_spec.json")))["spec"]
    assert spec["num_classes"] == 5  # flag wins
    assert spec["angle_deg"] == 45.0 and spec["samples_per_domain"] == 60  # file
    assert spec["input_dim"] == ShiftSpec().input_dim  # default


def test_train_source_config_file_fills_in_and_flags_win(tmp_path, capsys, monkeypatch):
    data = _gen(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nlr = 0.5\nhidden_dims = 12,8\nsigma = 0.3\n")
    seen = []

    def spy_train(encoder, classifier, sources, train_cfg):
        seen.append(train_cfg)
        return real_train(encoder, classifier, sources, train_cfg)

    real_train = cli.train_source_erm
    monkeypatch.setattr(cli, "train_source_erm", spy_train)
    rc = main(["train-source", "--data", data, "--out", str(tmp_path / "run"),
               "--config", str(cfg), "--lr", "0.02"])
    assert rc == 0
    assert seen == [replace(TrainConfig(), epochs=1, lr=0.02)]
    encoder, classifier, _ = load_checkpoint(str(tmp_path / "run" / "checkpoint.json"))
    assert encoder.layer_dims == [16, 12, 8, 32] and not encoder.has_norm_layers


def _diagnose(tmp_path, ckpt, *argv):
    out = str(tmp_path / "diag")
    rc = main(["diagnose", "--checkpoint", ckpt, "--out", out, "--trials", "2", *argv])
    records = sorted(f for f in os.listdir(out) if f.startswith("run_")) if rc == 0 else []
    return rc, (json.loads(_read(os.path.join(out, records[-1]))) if records else None)


def test_diagnose_config_file_fills_in_and_flags_win(tmp_path, capsys, trained_task):
    # diagnose reads only `seed`; the architecture keys, which train-source
    # reads, change nothing: the checkpoint is the model
    _, ckpt = trained_task
    cfg = tmp_path / "diag.cfg"
    cfg.write_text("seed = 5\ninput_dim = 6\nhidden_dims = 8\nfeature_dim = 5\n"
                   "use_norm = true\n")
    _, from_file = _diagnose(tmp_path, ckpt, "--config", str(cfg))
    assert from_file["seed"] == 5
    assert list(from_file["kernel_sweep"]["stats"]) == ["all"]  # the checkpoint has no norm
    _, from_flag = _diagnose(tmp_path, ckpt, "--seed", "5")
    assert canonical_record_bytes(from_file) == canonical_record_bytes(from_flag)
    _, flag_wins = _diagnose(tmp_path, ckpt, "--config", str(cfg), "--seed", "7")
    assert flag_wins["seed"] == 7
    _, defaults = _diagnose(tmp_path, ckpt)
    _, explicit = _diagnose(tmp_path, ckpt, "--seed", "0")
    assert defaults["seed"] == 0
    assert canonical_record_bytes(defaults) == canonical_record_bytes(explicit)
    assert canonical_record_bytes(defaults) != canonical_record_bytes(from_file)


def test_diagnose_measures_the_weights_of_the_checkpoint_it_is_given(tmp_path, capsys):
    # an --epochs 0 checkpoint (the seeded initialisation) and a trained one
    # of the same task and architecture: same rows, different kernels
    data = _gen(tmp_path)
    norm = ("--use-norm",)
    init = str(tmp_path / "init.json")
    _train(tmp_path, data, extra=(*norm, "--epochs", "0", "--checkpoint", init))
    _, trained = _train(tmp_path, data, extra=norm)
    encoder, _, _ = load_checkpoint(init)
    assert model_fingerprint(encoder) == model_fingerprint(
        MlpEncoder.create([16, 16, 16], use_norm=True, seed=0))
    sweeps = []
    for ckpt in (init, trained):
        _, record = _diagnose(tmp_path, ckpt)
        _, again = _diagnose(tmp_path, ckpt)
        assert canonical_record_bytes(record) == canonical_record_bytes(again)
        assert record["checkpoint"] == ckpt
        reports = record["kernel_sweep"]["reports"]
        fingerprint = model_fingerprint(load_checkpoint(ckpt)[0])
        assert {r["model_fingerprint"] for r in reports} == {fingerprint}
        sweeps.append(record["kernel_sweep"])
    samples = [[(r["sample_fingerprint_a"], r["sample_fingerprint_b"]) for r in sweep["reports"]]
               for sweep in sweeps]
    assert samples[0] == samples[1]
    for subset in ("all", "norm_only"):
        assert sweeps[0]["stats"][subset] != sweeps[1]["stats"][subset]


def test_diagnose_prints_and_records_only_the_kernel_sweep_of_either_encoder(tmp_path, capsys):
    # a linear checkpoint and a --use-norm one of the same task: neither
    # prints a norm-gradient line, and their records hold the same keys
    data = _gen(tmp_path)
    linear = str(tmp_path / "linear.json")
    _train(tmp_path, data, extra=("--checkpoint", linear))
    _, norm = _train(tmp_path, data, extra=("--use-norm",))
    for ckpt, subsets in ((linear, ["all"]), (norm, ["all", "norm_only"])):
        capsys.readouterr()
        rc, record = _diagnose(tmp_path, ckpt)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "finite differences" not in "\n".join(lines)
        assert [line.split(":")[0] for line in lines[:-1]] == [f"kernel[{s}]" for s in subsets]
        assert lines[-1].startswith("wrote ")
        assert sorted(record) == ["checkpoint", "kernel_sweep", "kind", "schema_version",
                                  "seed", "versions", "wall_clock_seconds"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", "--checkpoint", linear, "--out", str(out), "--batch-rows", "4"])
    assert exc.value.code == 2
    assert "--batch-rows" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_without_a_checkpoint_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", "--out", str(out)])
    assert exc.value.code == 2
    assert "--checkpoint" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [None, "seed = five\n", "depth = 3\n"],
                         ids=["missing", "bad-value", "unknown-key"])
def test_diagnose_refuses_a_missing_or_malformed_config_file(tmp_path, capsys, trained_task,
                                                             content):
    cfg = tmp_path / "diag.cfg"
    if content is not None:
        cfg.write_text(content)
    rc, record = _diagnose(tmp_path, trained_task[1], "--config", str(cfg))
    assert rc == 1 and record is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err


@pytest.mark.parametrize("cls", [AdaptConfig, TrainConfig, ShiftSpec])
def test_every_config_field_is_a_config_file_key(cls):
    defaults = cls()
    for f in fields(cls):
        assert f.name in cli._KEY_TYPES
        default = getattr(defaults, f.name)
        assert cli._convert(f.name, str(default), "default") == default


def test_every_config_file_key_is_a_setting():
    names = {f.name for cls in (AdaptConfig, TrainConfig, ShiftSpec) for f in fields(cls)}
    names |= {"hidden_dims", "feature_dim", "use_norm"}
    assert set(cli._KEY_TYPES) <= names


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["train-source"])
def test_non_integer_hidden_dims_entry_is_a_config_error(tmp_path, capsys, command, source):
    out = str(tmp_path / "run")
    argv = [command, "--out", out, "--data", _gen(tmp_path)]
    if source == "flag":
        argv += ["--hidden-dims", "8,x"]
    else:
        cfg = tmp_path / "dims.cfg"
        cfg.write_text("hidden_dims = 8,x\n")
        argv += ["--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "hidden_dims" in err and "'x'" in err
    assert not os.path.exists(out) or not os.listdir(out)


def test_readme_switches_match_the_adapt_parser():
    readme = _read(os.path.join(os.path.dirname(__file__), "..", "README.md"))
    named = set(re.findall(r"`--([a-z-]+)/--no-\1`", readme))
    required = ["adapt", "--checkpoint", "c.json", "--target", "t.csv"]
    for switch in named:
        assert getattr(build_parser().parse_args(required + [f"--{switch}"]),
                       f"enable_{switch}") is True
        assert getattr(build_parser().parse_args(required + [f"--no-{switch}"]),
                       f"enable_{switch}") is False
    assert set(cli._SWITCHES) <= named


def test_readme_adapt_value_flags_parse_on_adapt():
    readme = _read(os.path.join(os.path.dirname(__file__), "..", "README.md"))
    sentence = readme[readme.index("`adapt` selects the method"):]
    sentence = sentence[:sentence.index("\n\n")]
    flags = re.findall(r"`--([a-z-]+)`", sentence)
    assert "top-k" in flags
    required = ["adapt", "--checkpoint", "c.json", "--target", "t.csv"]
    for flag in flags:
        build_parser().parse_args(required + [f"--{flag}", "1"])


@pytest.fixture(scope="module")
def trained_task(tmp_path_factory):
    """A generated task and a linear checkpoint trained on it; read only."""
    root = tmp_path_factory.mktemp("trained")
    data = _gen(root)
    _, ckpt = _train(root, data)
    return data, ckpt


@pytest.mark.parametrize("command, flag, value, field", [
    ("adapt", "--lr", "nan", "lr"),
    ("adapt", "--lambda-weight", "inf", "lambda_weight"),
    ("ablate", "--sigma", "nan", "sigma"),
    ("train-source", "--lr", "inf", "lr"),
    ("gen-data", "--angle-deg", "nan", "angle_deg"),
])
def test_non_finite_setting_is_refused_before_any_file_is_read(
        tmp_path, capsys, trained_task, command, flag, value, field):
    def inputs(data, ckpt):
        if command == "gen-data":
            return []
        if command == "train-source":
            return ["--data", data]
        return ["--checkpoint", ckpt, "--target", os.path.join(data, "target.csv")]

    out = tmp_path / "out"
    missing = str(tmp_path / "missing")
    # the second run's inputs do not exist: nothing is read before the check
    for args in (inputs(*trained_task), inputs(missing, missing)):
        capsys.readouterr()
        rc = main([command, *args, "--out", str(out), f"{flag}={value}"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {field} must be finite, got {float(value)}\n"
        assert not out.exists()


@pytest.mark.parametrize("source", ["flags", "config"])
def test_train_source_refuses_one_row_batches_for_a_norm_encoder(tmp_path, capsys, source):
    data = _gen(tmp_path)
    if source == "flags":
        settings = ["--batch-size", "1", "--use-norm"]
    else:
        cfg = tmp_path / "train.cfg"
        cfg.write_text("batch_size = 1\nuse_norm = true\n")
        settings = ["--config", str(cfg)]
    run = tmp_path / "run"
    capsys.readouterr()
    rc = main(["train-source", "--data", data, "--out", str(run), "--epochs", "1", *settings])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        "error: batch_size must be >= 2 for an encoder with norm layers, got 1")
    assert not run.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["gen-data", "train-source", "adapt", "diagnose"])
def test_negative_seed_is_refused_before_any_file_is_read(
        tmp_path, capsys, trained_task, command, source):
    data, ckpt = trained_task
    inputs = {
        "gen-data": [],
        "train-source": ["--data", data],
        "adapt": ["--checkpoint", ckpt, "--target", os.path.join(data, "target.csv")],
        "diagnose": ["--checkpoint", ckpt],
    }[command]
    if source == "flag":
        settings = ["--seed", "-1"]
    else:
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -1\n")
        settings = ["--config", str(cfg)]
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main([command, *inputs, "--out", str(out), *settings])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-source", "adapt"])
def test_source_csvs_of_different_widths_are_a_data_error(tmp_path, capsys, trained_task, command):
    data, ckpt = trained_task
    mixed = tmp_path / "mixed"
    shutil.copytree(data, mixed)
    narrow = str(tmp_path / "narrow")
    assert main(["gen-data", "--out", narrow, "--input-dim", "8",
                 "--samples-per-domain", "40", "--num-source-domains", "1"]) == 0
    shutil.copy(os.path.join(narrow, "source_0.csv"), mixed / "source_1.csv")
    if command == "train-source":
        argv = ["train-source", "--data", str(mixed)]
    else:
        argv = ["adapt", "--checkpoint", ckpt, "--target", os.path.join(data, "target.csv"),
                "--source-data", str(mixed)]
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main([*argv, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {mixed / 'source_1.csv'}: 8 feature columns, but source_0.csv has 16\n")
    assert not out.exists()


_OPTION_STRINGS = {
    "gen-data": "--angle-deg --config --help --input-dim --num-classes "
                "--num-source-domains --out --samples-per-domain --seed -h",
    "train-source": "--batch-size --checkpoint --config --data --epochs --feature-dim --help "
                    "--hidden-dims --lr --out --seed --use-norm -h",
    "adapt": "--bank --batch-size --checkpoint --config --help --lambda --lambda-weight --le "
             "--lm --lr --method --no-bank --no-le --no-lm --out --seed --sigma "
             "--source-data --steps --target --top-k -h",
    "ablate": "--batch-size --checkpoint --config --help --lambda --lambda-weight --lr --out "
              "--seed --sigma --source-data --steps --target --top-k --trials -h",
    "diagnose": "--checkpoint --config --help --out --seed --trials -h",
}
_REQUIRED = {"train-source": ["--data", "d"],
             "adapt": ["--checkpoint", "c.json", "--target", "t.csv"],
             "ablate": ["--checkpoint", "c.json", "--target", "t.csv"],
             "diagnose": ["--checkpoint", "c.json"]}


@pytest.mark.parametrize("command", sorted(_OPTION_STRINGS))
def test_each_subcommand_has_its_flags_and_each_setting_flag_parses_its_type(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    assert sorted(s for a in actions for s in a.option_strings) == \
        _OPTION_STRINGS[command].split()

    defaults = {"hidden_dims": "64,64", "feature_dim": 32}
    for cls in (AdaptConfig, TrainConfig, ShiftSpec):
        defaults.update(asdict(cls()))
    required = [command, *_REQUIRED.get(command, [])]
    unset = parser.parse_args(required)
    settings = [a for a in actions if a.dest in cli._KEY_TYPES]
    assert settings and all(getattr(unset, a.dest) is None for a in settings)
    for action in settings:
        flag = action.option_strings[0]
        if isinstance(action, argparse._StoreAction):
            # `steps` defaults to None, which is the unset flag itself
            default = 0 if defaults[action.dest] is None else defaults[action.dest]
            parsed = getattr(parser.parse_args(required + [flag, str(default)]), action.dest)
            assert parsed == default and type(parsed) is type(default), flag
        else:
            parsed = getattr(parser.parse_args(required + [flag]), action.dest)
            assert parsed is (not flag.startswith("--no-")), flag
