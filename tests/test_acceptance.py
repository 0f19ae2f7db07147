"""Acceptance suite: one test per shipped guarantee.

Each test prints a single summary line on success (visible with -s); the
pytest -v status line is the pass/fail record. Numbers quoted in the pinned
assertions were established by pilot runs through this same code path and are
frozen; a drift outside the stated window is a regression, not noise.
"""

import json
import math
import os
import time
import zlib
from dataclasses import replace

import numpy as np
import numpy.testing as npt

from fixtures import linear_fixture, norm_fixture
from gradcheck import numeric_grad, rel_error
from test_memory import OracleBank
from marginadapt import (
    AdaptConfig,
    LinearClassifier,
    MlpEncoder,
    NormLayerState,
    batchnorm_backward,
    batchnorm_forward,
    classification_accuracy,
    clone_for_adaptation,
    cross_entropy_loss,
    empirical_ntk,
    entropy_loss,
    kernel_comparison_sweep,
    linear_backward,
    linear_forward,
    marginal_loss,
    relu_backward,
    relu_forward,
    run_method,
    softmax_rows,
    verify_bn_gradient,
)
from marginadapt.cli import canonical_record_bytes, main
from marginadapt.memory import (
    compute_prototypes,
    init_from_classifier,
    insert_and_select,
    refresh_classifier,
)

TRIALS = 100


# -- criterion 1: analytic gradients vs central finite differences ----------


def _check_linear(rng):
    x = rng.standard_normal((5, 4))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    r = rng.standard_normal((5, 3))

    def f():
        return float((linear_forward(x, w, b) * r).sum())

    gx, gw, gb = linear_backward(x, w, r)
    return max(
        rel_error(gx, numeric_grad(f, x)),
        rel_error(gw, numeric_grad(f, w)),
        rel_error(gb, numeric_grad(f, b)),
    )


def _check_relu(rng):
    x = rng.standard_normal((6, 5))
    x += np.where(x >= 0.0, 1e-2, -1e-2)  # keep clear of the kink
    r = rng.standard_normal(x.shape)

    def f():
        return float((relu_forward(x) * r).sum())

    return rel_error(relu_backward(x, r), numeric_grad(f, x))


def _check_norm(rng):
    x = rng.standard_normal((5, 4))
    state = NormLayerState(
        gamma=rng.uniform(0.5, 1.5, 4), beta=rng.standard_normal(4)
    )
    r = rng.standard_normal(x.shape)

    def f():
        return float((batchnorm_forward(x, state, mode="train")[0] * r).sum())

    _, stats = batchnorm_forward(x, state, mode="train")
    gx, gg, gb = batchnorm_backward(state, stats, r)
    return max(
        rel_error(gx, numeric_grad(f, x)),
        rel_error(gg, numeric_grad(f, state.gamma)),
        rel_error(gb, numeric_grad(f, state.beta)),
    )


def _check_margin(rng):
    sigma = 0.15
    a = rng.standard_normal((6, 5))
    s = rng.standard_normal((6, 5))
    a[:2] = s[:2] + 0.01 * rng.standard_normal((2, 5))  # inside the margin
    d2 = ((a - s) ** 2).sum(axis=1)
    near = np.abs(d2 - sigma) < 0.05
    a[near] = s[near] + 2.0 * (a[near] - s[near])  # push off the hinge kink

    def f():
        return marginal_loss(a, s, sigma)[0]

    _, grad = marginal_loss(a, s, sigma)
    return rel_error(grad, numeric_grad(f, a), atol=1e-9)


def _check_entropy(rng):
    logits = rng.standard_normal((6, 4))

    def f():
        return entropy_loss(softmax_rows(logits))[0]

    _, grad = entropy_loss(softmax_rows(logits))
    return rel_error(grad, numeric_grad(f, logits))


def _check_cross_entropy(rng):
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)

    def f():
        return cross_entropy_loss(softmax_rows(logits), labels)[0]

    _, grad = cross_entropy_loss(softmax_rows(logits), labels)
    return rel_error(grad, numeric_grad(f, logits))


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    families = [
        ("linear", _check_linear, 1e-6),
        ("relu", _check_relu, 1e-6),
        ("norm", _check_norm, 1e-6),
        ("margin", _check_margin, 1e-4),
        ("entropy", _check_entropy, 1e-4),
        ("cross_entropy", _check_cross_entropy, 1e-4),
    ]
    worst = {}
    for name, check, tol in families:
        # a per-family seed that is the same in every process
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        errs = [check(rng) for _ in range(TRIALS)]
        worst[name] = max(errs)
        assert worst[name] <= tol, f"{name}: worst rel error {worst[name]:.3e} > {tol}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"criterion 1 PASS: {len(families)} gradient families x {TRIALS} trials, "
        f"worst rel error {max(worst.values()):.2e}, {elapsed:.1f}s"
    )


# -- criterion 2: the margin contract ----------------------------------------


def test_criterion_2_margin_contract():
    rng = np.random.default_rng(2)
    sigma = 0.15
    for _ in range(50):
        s = rng.standard_normal((8, 6))
        delta = rng.standard_normal((8, 6))
        delta *= np.sqrt(sigma * rng.uniform(0.0, 0.99, (8, 1))) / np.linalg.norm(
            delta, axis=1, keepdims=True
        )
        value, grad = marginal_loss(s + delta, s, sigma)
        assert value == 0.0
        assert np.count_nonzero(grad) == 0

    sources, target, enc, clf = linear_fixture(0)
    pair_a = clone_for_adaptation(enc, clf)
    _, curve_a, rep_a = run_method(pair_a, target, AdaptConfig(sigma=1e6))
    enc2, clf2 = linear_fixture(0)[2:]
    pair_b = clone_for_adaptation(enc2, clf2)
    _, curve_b, rep_b = run_method(pair_b, target, AdaptConfig(enable_lm=False))
    assert all(r.l_m == 0.0 for r in rep_a)
    assert [r.l_e for r in rep_a] == [r.l_e for r in rep_b]
    assert [r.total for r in rep_a] == [r.total for r in rep_b]
    assert curve_a.cumulative == curve_b.cumulative
    assert pair_a.adapted_fingerprint() == pair_b.adapted_fingerprint()
    print(
        "criterion 2 PASS: in-margin batches give exact zeros; sigma=1e6 run "
        f"tracks the margin-free variant over {len(rep_a)} steps"
    )


# -- criterion 3: memory bank vs full-sort oracle -----------------------------


def test_criterion_3_memory_bank_oracle():
    rng = np.random.default_rng(3)
    clf = LinearClassifier.create(6, 4, seed=3)
    # the oracle keeps 17 rows per class, the bank top_k = 5: rows past
    # top_k are never read, ties included
    bank = init_from_classifier(clf, top_k=5)
    oracle = OracleBank(4, capacity=17, top_k=5)

    step = 0
    for _ in range(100):  # 100 batches x 10 rows = 1e3 insertions
        feats = rng.standard_normal((10, 6))
        labels = rng.integers(0, 4, size=10)
        # coarse entropies force ties so the deterministic tie-breaks matter
        entropies = np.round(rng.uniform(0.0, 1.0, size=10), 1)
        insert_and_select(bank, feats, labels, entropies)
        protos = compute_prototypes(bank)
        for i in range(10):
            oracle.insert(feats[i], int(labels[i]), float(entropies[i]), step)
            step += 1
        for j in range(4):
            k = bank.counts[j]
            want = oracle.top_k_rows(j)
            got = list(zip(bank.entropies[j, :k].tolist(), bank.steps[j, :k].tolist()))
            assert got == [w[:2] for w in want]
            for f, w in zip(bank.features[j, :k], want):
                npt.assert_array_equal(f, w[2])
            proto = oracle.prototype(j)
            if proto is not None:
                npt.assert_array_equal(protos[j], proto)

    # refresh idempotence: a second refresh with no new inserts is a no-op
    refresh_classifier(bank, clf)
    omega_1 = clf.omega.copy()
    bias_1 = clf.bias.copy()
    refresh_classifier(bank, clf)
    npt.assert_array_equal(clf.omega, omega_1)
    npt.assert_array_equal(clf.bias, bias_1)

    # init fixed point: refreshing straight after init leaves omega unchanged
    clf2 = LinearClassifier.create(6, 4, seed=9)
    omega_0 = clf2.omega.copy()
    fresh = init_from_classifier(clf2, top_k=5)
    refresh_classifier(fresh, clf2)
    npt.assert_array_equal(clf2.omega, omega_0)
    print("criterion 3 PASS: 1000 insertions match the full-sort oracle exactly")


# -- criterion 4: no-op contracts ---------------------------------------------


def test_criterion_4_no_op_contracts():
    for fixture in (linear_fixture, norm_fixture):
        sources, target, enc, clf = fixture(0)
        pair = clone_for_adaptation(enc, clf)
        before = pair.adapted_fingerprint()
        assert before == pair.source_fingerprint()

        _, curve_zero, _ = run_method(pair, target, AdaptConfig(steps=0))
        assert pair.adapted_fingerprint() == before

        all_off = AdaptConfig(enable_lm=False, enable_le=False, enable_bank=False)
        _, curve_off, _ = run_method(pair, target, all_off)
        assert pair.adapted_fingerprint() == before
        assert curve_off.cumulative == curve_zero.cumulative

        if not enc.has_norm_layers:
            frozen = classification_accuracy(
                enc, clf, target.features, target.labels
            )
            assert curve_zero.final_accuracy == frozen
    print("criterion 4 PASS: T=0 and all-off leave parameters bit-identical")


# -- criterion 5: directional improvement on the default shift ---------------


def test_criterion_5_directional_improvement():
    started = time.perf_counter()
    gains = []
    for seed in range(10):
        _, target, enc, clf = linear_fixture(seed)
        frozen_pair = clone_for_adaptation(enc, clf)
        _, frozen, _ = run_method(frozen_pair, target, AdaptConfig(method="none"))
        enc2, clf2 = linear_fixture(seed)[2:]
        pair = clone_for_adaptation(enc2, clf2)
        _, curve, _ = run_method(pair, target, AdaptConfig())
        gains.append(100.0 * (curve.final_accuracy - frozen.final_accuracy))
    mean_gain = float(np.mean(gains))
    elapsed = time.perf_counter() - started
    assert mean_gain >= 5.0, f"mean gain {mean_gain:.2f} < 5 points (gains {gains})"
    assert abs(mean_gain - 6.415) <= 2.0, f"mean gain {mean_gain:.2f} drifted from pin"
    assert elapsed < 300.0
    print(
        f"criterion 5 PASS: mean gain {mean_gain:+.2f} points over 10 seeds "
        f"(min {min(gains):+.2f}), {elapsed:.1f}s"
    )


# -- criterion 6: source preservation -----------------------------------------


def _source_drop(enc, clf, target, cfg, sources):
    """Points of accuracy on the pooled source rows that a pass of cfg over
    the target costs a fresh clone of (enc, clf)."""
    pool = (np.vstack([d.features for d in sources]),
            np.concatenate([d.labels for d in sources]))
    pair = clone_for_adaptation(enc, clf)
    before = classification_accuracy(pair.adapted_encoder, pair.adapted_classifier, *pool)
    run_method(pair, target, cfg)
    after = classification_accuracy(pair.adapted_encoder, pair.adapted_classifier, *pool)
    return 100.0 * (before - after)


def test_criterion_6_source_preservation():
    drops = {"unidg": [], "entropy_norm": []}
    for seed in range(10):
        sources, target, _, _ = norm_fixture(seed)
        for method in drops:
            enc, clf = norm_fixture(seed)[2:]
            drops[method].append(
                _source_drop(enc, clf, target, AdaptConfig(method=method), sources))
    ours = float(np.mean(drops["unidg"]))
    baseline = float(np.mean(drops["entropy_norm"]))
    assert ours <= baseline, f"source drop {ours:.2f} > baseline {baseline:.2f}"
    assert abs(ours - 1.700) <= 2.0, f"unidg drop {ours:.2f} drifted from pin"
    assert abs(baseline - 4.028) <= 2.0, f"baseline drop {baseline:.2f} drifted from pin"
    print(
        f"criterion 6 PASS: mean source drop {ours:+.2f} points vs "
        f"entropy-norm baseline {baseline:+.2f} over 10 paired seeds"
    )


# -- criterion 7: ablation monotonicity ---------------------------------------


def test_criterion_7_ablation_monotonicity():
    variants = {
        "none": dict(enable_lm=False, enable_le=False, enable_bank=False),
        "lm": dict(enable_lm=True, enable_le=False, enable_bank=False),
        "le": dict(enable_lm=False, enable_le=True, enable_bank=False),
        "refresh": dict(enable_lm=False, enable_le=False, enable_bank=True),
        "all": dict(enable_lm=True, enable_le=True, enable_bank=True),
    }
    finals = {name: [] for name in variants}
    for seed in range(10):
        for name, switches in variants.items():
            _, target, enc, clf = linear_fixture(seed)
            pair = clone_for_adaptation(enc, clf)
            cfg = replace(AdaptConfig(), **switches)
            _, curve, _ = run_method(pair, target, cfg)
            finals[name].append(100.0 * curve.final_accuracy)
    means = {name: float(np.mean(vals)) for name, vals in finals.items()}
    for single in ("lm", "le", "refresh"):
        assert means["all"] >= means[single] - 1.0, (
            f"all-on {means['all']:.2f} fell below {single} {means[single]:.2f} - 1"
        )
    # contract fact: an inactive hinge changes nothing
    assert finals["lm"] == finals["none"]
    summary = ", ".join(f"{k} {v:.2f}" for k, v in means.items())
    print(f"criterion 7 PASS: {summary}")


# -- criterion 8: diagnostics --------------------------------------------------


def test_criterion_8_diagnostics():
    rng = np.random.default_rng(8)
    state = NormLayerState(
        gamma=rng.uniform(0.5, 1.5, 6), beta=rng.standard_normal(6)
    )
    bn_err = verify_bn_gradient(rng.standard_normal((8, 6)), state, trials=10, seed=0)
    assert bn_err <= 1e-6

    model = MlpEncoder.create([8, 10, 5], use_norm=True, seed=8)
    model.encode(rng.standard_normal((32, 8)), mode="train")
    model.update_running_stats()
    for _ in range(TRIALS):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        ab = empirical_ntk(model, a, b)
        ba = empirical_ntk(model, b, a)
        assert abs(ab.raw_kernel - ba.raw_kernel) <= 1e-12 * max(1.0, abs(ab.raw_kernel))
        assert abs(ab.cosine_kernel - ba.cosine_kernel) <= 1e-12

    sweep = kernel_comparison_sweep(
        model,
        rng.standard_normal((20, 8)),
        rng.standard_normal((20, 8)) + 0.5,
        trials=TRIALS,
        seed=1,
    )
    assert len(sweep.reports) == TRIALS * 2  # both parameter subsets
    for rep in sweep.reports:
        bound = math.sqrt(rep.self_a * rep.self_b)
        assert abs(rep.raw_kernel) <= bound + 1e-12 * max(1.0, bound)
        assert -1.0 <= rep.cosine_kernel <= 1.0

    xs = rng.standard_normal((8, 8))
    gram = np.empty((8, 8))
    for i in range(8):
        for j in range(i, 8):
            gram[i, j] = gram[j, i] = empirical_ntk(model, xs[i], xs[j]).raw_kernel
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-8 * max(1.0, eigs.max())
    print(
        f"criterion 8 PASS: bn rel error {bn_err:.2e}, symmetry/CS/cosine over "
        f"{TRIALS} pairs, Gram min eig {eigs.min():.2e}"
    )


# -- criterion 9: byte-level determinism of result records --------------------


def test_criterion_9_determinism(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main([
        "gen-data", "--out", data, "--seed", "0",
        "--samples-per-domain", "160", "--num-source-domains", "2",
    ]) == 0
    data2 = str(tmp_path / "data2")
    assert main([
        "gen-data", "--out", data2, "--seed", "0",
        "--samples-per-domain", "160", "--num-source-domains", "2",
    ]) == 0
    for name in sorted(os.listdir(data)):
        with open(os.path.join(data, name), "rb") as fa:
            with open(os.path.join(data2, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    run = str(tmp_path / "run")
    assert main([
        "train-source", "--data", data, "--out", run, "--seed", "1",
        "--epochs", "2", "--lr", "0.01", "--hidden-dims", "16",
        "--feature-dim", "16",
    ]) == 0
    ckpt = os.path.join(run, "checkpoint.json")

    adapt_argv = [
        "adapt", "--checkpoint", ckpt, "--target",
        os.path.join(data, "target.csv"), "--source-data", data,
        "--out", run, "--seed", "2", "--steps", "4",
    ]
    diag_argv = [
        "diagnose", "--checkpoint", ckpt, "--out", run, "--seed", "3",
        "--trials", "3", "--batch-rows", "4",
    ]
    pairs = []
    for argv in (adapt_argv, diag_argv):
        assert main(argv) == 0
        assert main(argv) == 0
    records = sorted(
        f for f in os.listdir(run) if f.startswith("run_") and f.endswith(".json")
    )
    assert records == [f"run_{n:04d}.json" for n in range(1, 5)]
    loaded = []
    for f in records:
        with open(os.path.join(run, f)) as fh:
            loaded.append(json.load(fh))
    pairs = [(loaded[0], loaded[1]), (loaded[2], loaded[3])]
    for first, second in pairs:
        assert canonical_record_bytes(first) == canonical_record_bytes(second)
    print("criterion 9 PASS: reruns reproduce adapt and diagnose records byte-for-byte")


# -- criterion 10: the margin limits forgetting --------------------------------


def test_criterion_10_margin_limits_forgetting():
    # at lr 5e-3 the hinge binds on the 45-degree task; at the default lr it
    # never does, and the two rows score the same
    started = time.perf_counter()
    gaps = []
    for seed in range(100, 110):
        sources, target, _, _ = norm_fixture(seed, angle_deg=45.0)
        drops = []
        for switches in (dict(enable_lm=False), {}):  # le+refresh, then all
            enc, clf = norm_fixture(seed, angle_deg=45.0)[2:]
            drops.append(_source_drop(enc, clf, target,
                                      AdaptConfig(lr=5e-3, **switches), sources))
        gaps.append(drops[0] - drops[1])
    assert min(gaps) >= 4.0, f"the margin saved under 4 source points on a seed: {gaps}"
    print(
        f"criterion 10 PASS: the margin cuts the source drop by {np.mean(gaps):+.2f} "
        f"points (min {min(gaps):+.2f}) over 10 seeds, {time.perf_counter() - started:.1f}s"
    )
