"""Command-line workflow: subcommands, config files, run records."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from marginadapt import (
    AdaptConfig,
    ConfigError,
    DomainDataset,
    clone_for_adaptation,
    load_checkpoint,
    load_csv,
    load_csv_domains,
    run_method,
)
from marginadapt import adapt as adapt_module
from marginadapt import cli
from marginadapt.cli import (
    ABLATION_GRID,
    OUT_ENV_VAR,
    canonical_record_bytes,
    main,
    parse_config_file,
    write_run_record,
)


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
    assert names == ["shift_spec.json", "source_0.csv", "source_1.csv",
                     "target.csv"]
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
    record = json.load(open(os.path.join(run, "run_0001.json")))
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
    record = json.load(open(os.path.join(run, "run_0002.json")))
    assert [row["variant"] for row in record["rows"]] == [
        "none", "lm", "le", "bank", "refresh", "lm+le", "le+refresh", "all",
    ]

    rc = main([
        "diagnose", "--checkpoint", ckpt, "--out", run,
        "--trials", "3", "--batch-rows", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "finite differences" in out and "kernel[all]" in out
    record = json.load(open(os.path.join(run, "run_0003.json")))
    assert record["kind"] == "diagnostics"
    assert record["bn_max_relative_error"] <= 1e-6


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
    record = json.load(open(os.path.join(run, "run_0001.json")))
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
    record = json.load(open(os.path.join(run, "run_0001.json")))
    assert record["config"]["lambda_weight"] == 0.5


def test_method_none_reports_frozen_accuracy(tmp_path, capsys):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run, "--method", "none",
    ])
    assert rc == 0
    record = json.load(open(os.path.join(run, "run_0001.json")))
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
    rec1 = json.load(open(os.path.join(run, "run_0001.json")))
    rec2 = json.load(open(os.path.join(run, "run_0002.json")))
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
    assert json.load(open(p1)) == {"x": 1}
    assert json.load(open(p2)) == {"x": 2}


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
    doc = json.load(open(ckpt))
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
], ids=["dims-string", "ragged-weights", "weights-string"])
def test_adapt_names_a_malformed_checkpoint_field(tmp_path, capsys, field, value):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    doc = json.load(open(ckpt))
    doc["encoder"][field] = value
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    rc = main([
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ckpt in err and "malformed field" in err


def test_ablate_rejects_zero_trials_before_loading(tmp_path, capsys):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data)
    capsys.readouterr()
    rc = main([
        "ablate", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--out", run, "--trials", "0",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "--trials >= 1" in err
    assert "Mean of empty slice" not in err
    assert not [f for f in os.listdir(run) if f.startswith("run_")]
    # nothing is read first: a missing checkpoint is not what fails
    rc = main([
        "ablate", "--checkpoint", str(tmp_path / "nope.json"), "--target",
        str(tmp_path / "nope.csv"), "--out", run, "--trials", "-1",
    ])
    assert rc == 1
    assert "--trials >= 1" in capsys.readouterr().err


def test_train_source_names_a_malformed_shift_spec(tmp_path, capsys):
    data = _gen(tmp_path)
    sidecar = os.path.join(data, "shift_spec.json")
    with open(sidecar, "w") as fh:
        fh.write('{"spec": {"num_classes": 4,')
    capsys.readouterr()
    rc = main(["train-source", "--data", data, "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and sidecar in err and "not valid JSON" in err


@pytest.mark.parametrize("content, why", [
    (b"[]", "JSON object"),
    (b'{"spec": 3}', "JSON object"),
    (b'{"spec": {"num_classes": "4"}}', "spec.num_classes '4' is not an integer"),
], ids=["array", "spec-number", "count-string"])
def test_train_source_names_a_shift_spec_of_the_wrong_shape(tmp_path, capsys, content, why):
    data = _gen(tmp_path)
    sidecar = os.path.join(data, "shift_spec.json")
    with open(sidecar, "wb") as fh:
        fh.write(content)
    capsys.readouterr()
    rc = main(["train-source", "--data", data, "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and sidecar in err and why in err


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


@pytest.mark.parametrize("extra", [(), ("--use-norm",)], ids=["linear", "norm"])
def test_ablate_scores_each_model_state_once(tmp_path, capsys, monkeypatch, extra):
    data = _gen(tmp_path)
    run, ckpt = _train(tmp_path, data, extra=extra)
    target_path = os.path.join(data, "target.csv")

    # reference: run_method scores the source pool before and after every trial
    encoder, classifier, _ = load_checkpoint(ckpt)
    target = load_csv(target_path, num_classes=classifier.num_classes)
    sources = []
    for name in ("source_0.csv", "source_1.csv"):
        sources.extend(load_csv_domains(os.path.join(data, name),
                                        num_classes=classifier.num_classes).values())
    pool = DomainDataset(
        features=np.vstack([d.features for d in sources]),
        labels=np.concatenate([d.labels for d in sources]),
        num_classes=classifier.num_classes, domain_id="source_pool",
    )
    expected = {}
    for name, switches in ABLATION_GRID:
        finals, drops = [], []
        for trial in range(2):
            cfg = replace(AdaptConfig(), seed=trial, **switches)
            pair = clone_for_adaptation(encoder.copy(), classifier.copy())
            _, curve, _ = run_method(pair, target, cfg, source_eval=pool)
            finals.append(curve.final_accuracy)
            drops.append(curve.source_before - curve.source_after)
        expected[name] = (finals, float(np.mean(drops)))

    # spy: attribute each source-pool pass to the grid row being run
    passes = {"before any run": 0}
    running = ["before any run"]

    def spy_run_method(pair, target, cfg, **kwargs):
        running[0] = next(name for name, sw in ABLATION_GRID
                          if all(getattr(cfg, k) == v for k, v in sw.items()))
        passes.setdefault(running[0], 0)
        return run_method(pair, target, cfg, **kwargs)

    def spy_accuracy(encoder, classifier, features, labels, **kwargs):
        if features.shape[0] == pool.n:
            passes[running[0]] += 1
        return real_accuracy(encoder, classifier, features, labels, **kwargs)

    real_accuracy = adapt_module.classification_accuracy
    monkeypatch.setattr(cli, "run_method", spy_run_method)
    monkeypatch.setattr(adapt_module, "classification_accuracy", spy_accuracy)
    monkeypatch.setattr(cli, "classification_accuracy", spy_accuracy, raising=False)
    rc = main([
        "ablate", "--checkpoint", ckpt, "--target", target_path,
        "--source-data", data, "--out", run, "--trials", "2",
    ])
    assert rc == 0
    record = json.load(open(os.path.join(run, "run_0001.json")))
    for row in record["rows"]:
        finals, drop = expected[row["variant"]]
        assert row["final_accuracies"] == finals
        assert row["mean_source_drop"] == drop
    # `none` and `bank` never move the frozen model, which is scored once
    assert passes["none"] == 0 and passes["bank"] == 0
    assert passes["before any run"] == 1
