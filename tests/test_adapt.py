"""Streaming adaptation protocol: pairing, switch semantics, label hygiene."""

import numpy as np
import numpy.testing as npt
import pytest

from marginadapt import (
    Adam,
    AdaptConfig,
    ConfigError,
    DomainDataset,
    LinearClassifier,
    MlpEncoder,
    NumericalFailure,
    ShiftSpec,
    TrainConfig,
    classification_accuracy,
    clone_for_adaptation,
    gen_synthetic_shift,
    run_method,
    softmax_rows,
    stream_batches,
    train_source_erm,
)
from marginadapt import adapt
from marginadapt.adapt import METHODS


def _tiny(seed, use_norm=False):
    """Small briefly-trained model pair plus its shifted target stream."""
    spec = ShiftSpec(samples_per_domain=240, num_source_domains=2, seed=seed)
    sources, target = gen_synthetic_shift(spec)
    dims = [16, 24, 24] if use_norm else [16, 24]
    enc = MlpEncoder.create(dims, use_norm=use_norm, seed=seed)
    clf = LinearClassifier.create(dims[-1], 4, seed=seed + 1)
    train_source_erm(enc, clf, sources, TrainConfig(lr=1e-2, epochs=3, seed=seed))
    return clone_for_adaptation(enc, clf), target


def test_stream_batches_partition_the_index_range():
    batches = stream_batches(103, 10, seed=5)
    assert [b.shape[0] for b in batches] == [10] * 10 + [3]
    npt.assert_array_equal(np.sort(np.concatenate(batches)), np.arange(103))
    again = stream_batches(103, 10, seed=5)
    assert all(np.array_equal(a, b) for a, b in zip(batches, again))
    other = stream_batches(103, 10, seed=6)
    assert not np.array_equal(batches[0], other[0])


def test_first_batch_predictions_come_from_the_frozen_parameters():
    # predict-then-adapt: step t's predictions precede step t's update
    pair, target = _tiny(0)
    cfg = AdaptConfig(lr=1e-2, batch_size=32, seed=7)
    batch0 = stream_batches(target.n, cfg.batch_size, cfg.seed)[0]
    feats = pair.adapted_encoder.encode(target.features[batch0], mode="eval")
    frozen_probs = softmax_rows(pair.adapted_classifier.logits(feats))
    frozen_acc = float(
        (np.argmax(frozen_probs, axis=1) == target.labels[batch0]).mean()
    )
    _, curve, _ = run_method(pair, target, cfg)
    assert curve.cumulative[0] == frozen_acc


def test_zero_steps_is_pure_evaluation():
    pair, target = _tiny(1)
    before = pair.adapted_fingerprint()
    _, curve, reports = run_method(pair, target, AdaptConfig(steps=0, seed=3))
    assert pair.adapted_fingerprint() == before
    assert reports == []
    # every sample scored once, so the cumulative end point is plain accuracy
    expected = classification_accuracy(
        pair.adapted_encoder, pair.adapted_classifier, target.features, target.labels
    )
    assert curve.final_accuracy == expected
    assert curve.per_domain == {target.domain_id: expected}


@pytest.mark.parametrize("method", METHODS)
def test_zero_steps_is_pure_evaluation_for_every_method(method):
    pair, target = _tiny(1, use_norm=True)
    before = pair.adapted_fingerprint()
    _, curve, reports = run_method(pair, target, AdaptConfig(method=method, steps=0, seed=3))
    assert pair.adapted_fingerprint() == before
    assert reports == []
    _, plain, _ = run_method(pair, target, AdaptConfig(method="none", seed=3))
    assert curve.cumulative == plain.cumulative


@pytest.mark.parametrize("method", ["unidg", "entropy_norm", "pseudo_label"])
def test_backward_failure_names_the_step(method, monkeypatch):
    pair, target = _tiny(5, use_norm=True)

    def fail(self, upstream, names=None):
        raise NumericalFailure("backward: non-finite gradient")

    monkeypatch.setattr(MlpEncoder, "backward", fail)
    with pytest.raises(NumericalFailure, match="adaptation aborted at step 0"):
        run_method(pair, target, AdaptConfig(method=method, seed=1))


@pytest.mark.parametrize("method", METHODS)
def test_scoring_failure_names_the_step(method):
    # a bad weight is caught by the op that uses it, while the batch is scored
    pair, target = _tiny(5, use_norm=True)
    pair.adapted_encoder.weights[0][0, 0] = np.nan
    with pytest.raises(NumericalFailure,
                       match="aborted at step 0: linear_forward: produced non-finite"):
        run_method(pair, target, AdaptConfig(method=method, seed=1))


def _per_batch_run(pair, target, cfg):
    """run_method's protocol one batch at a time: score the batch alone, then
    step on it while the budget lasts."""
    enc, clf = pair.adapted_encoder, pair.adapted_classifier
    batches = stream_batches(target.n, cfg.batch_size, cfg.seed)
    if enc.has_norm_layers:
        batches = [b for b in batches if b.shape[0] >= 2]
    mode = "train" if enc.has_norm_layers else "eval"
    limit = len(batches) if cfg.steps is None else cfg.steps
    step = adapt._make_step(pair, cfg, mode, min(cfg.top_k, target.n)) if limit > 0 else None
    cumulative, reports, correct, seen = [], [], 0, 0
    for t, idx in enumerate(batches):
        xb = target.features[idx]
        feats = enc.encode(xb, mode=mode, retain_cache=True)
        probs = softmax_rows(clf.logits(feats))
        preds = np.argmax(probs, axis=1)
        if step is not None and t < limit:
            reports.append(step(xb, feats, probs, preds))
        correct += int((preds == target.labels[idx]).sum())
        seen += idx.shape[0]
        cumulative.append(correct / seen)
    return cumulative, [r for r in reports if r is not None]


@pytest.mark.parametrize("cap", [80, adapt._STACK_ROWS], ids=["two-batch-calls", "default"])
@pytest.mark.parametrize("settings", [
    dict(method="none"),
    dict(method="none", batch_size=37),
    dict(steps=0),
    dict(steps=5),
    dict(steps=5, batch_size=37),
    dict(method="entropy_norm", steps=5),
    dict(method="pseudo_label", steps=3),
    dict(enable_lm=False, enable_le=False, enable_bank=False),
], ids=["none", "none-b37", "steps0", "steps5", "steps5-b37", "tent-steps5", "pl-steps3",
        "switches-off"])
def test_stacked_scoring_equals_a_per_batch_loop(settings, cap, monkeypatch):
    monkeypatch.setattr(adapt, "_STACK_ROWS", cap)
    cfg = AdaptConfig(lr=1e-2, seed=4, **settings)
    for use_norm in (False, True):
        if cfg.method == "entropy_norm" and not use_norm:
            continue
        pair, target = _tiny(7, use_norm=use_norm)
        _, curve, reports = run_method(pair, target, cfg)
        ref_pair, _ = _tiny(7, use_norm=use_norm)
        cumulative, ref_reports = _per_batch_run(ref_pair, target, cfg)
        assert curve.cumulative == cumulative
        assert reports == ref_reports
        assert pair.adapted_fingerprint() == ref_pair.adapted_fingerprint()


def test_entropy_norm_steps_only_on_the_gradients_adam_holds(monkeypatch):
    pair, target = _tiny(3, use_norm=True)
    seen = []
    original = Adam.step

    def spy(self, grads):
        seen.append(sorted(grads))
        return original(self, grads)

    monkeypatch.setattr(Adam, "step", spy)
    run_method(pair, target, AdaptConfig(method="entropy_norm", lr=1e-2, steps=4, seed=1))
    assert seen == [sorted(n for n, _ in pair.adapted_encoder.norm_parameters())] * 4


@pytest.mark.parametrize("cap", [64, adapt._STACK_ROWS], ids=["two-batch-calls", "default"])
def test_an_overflow_in_a_later_stacked_batch_names_its_step(cap, monkeypatch):
    monkeypatch.setattr(adapt, "_STACK_ROWS", cap)
    pair, target = _tiny(5)
    pair.adapted_encoder.weights[0][...] = 1.0
    cfg = AdaptConfig(method="none", seed=1)
    row = stream_batches(target.n, cfg.batch_size, cfg.seed)[5][3]
    target.features[row] = 1e308  # finite, but its row sum is not
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalFailure,
            match="^adaptation aborted at step 5: linear_forward: produced non-finite"):
        run_method(pair, target, cfg)


def test_all_switches_off_is_pure_evaluation():
    pair, target = _tiny(1)
    before = pair.adapted_fingerprint()
    cfg = AdaptConfig(enable_lm=False, enable_le=False, enable_bank=False, seed=3)
    _, curve, reports = run_method(pair, target, cfg)
    assert pair.adapted_fingerprint() == before
    assert reports == []
    assert len(curve.cumulative) == len(stream_batches(target.n, cfg.batch_size, 3))


def test_labels_never_reach_the_update():
    # replacing every label with a constant must leave the learned parameters
    # bit-identical; only the reported accuracy may change
    pair_a, target = _tiny(2)
    pair_b, _ = _tiny(2)
    blanked = DomainDataset(
        features=target.features.copy(),
        labels=np.zeros_like(target.labels),
        num_classes=target.num_classes,
        domain_id=target.domain_id,
    )
    cfg = AdaptConfig(lr=1e-3, seed=11)
    _, curve_a, reports_a = run_method(pair_a, target, cfg)
    _, curve_b, reports_b = run_method(pair_b, blanked, cfg)
    assert pair_a.adapted_fingerprint() == pair_b.adapted_fingerprint()
    assert [r.total for r in reports_a] == [r.total for r in reports_b]
    assert curve_a.final_accuracy != curve_b.final_accuracy


@pytest.mark.parametrize("use_norm", [False, True])
def test_margin_alone_cannot_move_a_fresh_clone(use_norm):
    # at start the adapted copy sits exactly on the source, inside the margin,
    # so the hinge and its gradient are exactly zero on every batch
    pair, target = _tiny(4, use_norm=use_norm)
    before = pair.adapted_fingerprint()
    cfg = AdaptConfig(lr=1e-2, seed=5, enable_lm=True, enable_le=False, enable_bank=False)
    _, _, reports = run_method(pair, target, cfg)
    assert pair.adapted_fingerprint() == before
    assert all(r.l_m == 0.0 for r in reports)


def test_bankless_unidg_builds_no_bank_and_pseudo_labels_nothing(monkeypatch):
    # with the bank off nothing reads the pseudo-labels, so the step neither
    # builds a bank nor pseudo-labels the batch
    cfg = AdaptConfig(lr=1e-2, steps=5, seed=3, enable_bank=False)

    def observed(cfg):
        pair, target = _tiny(6)
        _, curve, reports = run_method(pair, target, cfg)
        return pair.adapted_fingerprint(), curve, reports

    expected = observed(cfg)
    assert len(expected[2]) == 5

    calls = []
    for name in ("pseudo_label", "init_from_classifier"):
        original = getattr(adapt, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(adapt, name, counted)
    assert observed(cfg) == expected
    assert calls == []


def test_huge_sigma_reduces_to_entropy_with_refresh_step_for_step():
    # a margin the stream can never reach contributes zero loss and zero
    # gradient, so the full method must track the lm-disabled run exactly
    pair_a, target = _tiny(6)
    pair_b, _ = _tiny(6)
    base = dict(lr=1e-3, seed=9)
    _, curve_a, rep_a = run_method(pair_a, target, AdaptConfig(sigma=1e6, **base))
    _, curve_b, rep_b = run_method(
        pair_b, target, AdaptConfig(enable_lm=False, **base)
    )
    assert pair_a.adapted_fingerprint() == pair_b.adapted_fingerprint()
    assert all(r.l_m == 0.0 for r in rep_a)
    assert [r.l_e for r in rep_a] == [r.l_e for r in rep_b]
    assert curve_a.cumulative == curve_b.cumulative


def test_hinge_rows_counts_the_rows_outside_the_margin(monkeypatch):
    # an lr large enough for the adapted features to leave the margin on
    # some steps and not on others
    outside = []

    def spy(adapted, source, sigma):
        diff = adapted - source
        outside.append(int(np.count_nonzero((diff * diff).sum(axis=1) > sigma)))
        return real(adapted, source, sigma)

    real = adapt.marginal_loss
    monkeypatch.setattr(adapt, "marginal_loss", spy)
    pair, target = _tiny(6)
    _, _, reports = run_method(pair, target, AdaptConfig(lr=1e-2, sigma=0.05, seed=2))
    assert [r.hinge_rows for r in reports] == outside
    assert 0 < sum(outside) and 0 in outside
    assert all((r.hinge_rows == 0) == (r.l_m == 0.0) for r in reports)

    # no margin, no hinge rows
    for cfg in (AdaptConfig(lr=1e-2, sigma=0.0, enable_lm=False),
                AdaptConfig(lr=1e-2, method="pseudo_label")):
        pair, target = _tiny(6)
        _, _, reports = run_method(pair, target, cfg)
        assert reports and all(r.hinge_rows == 0 for r in reports)


@pytest.mark.parametrize("use_norm", [False, True], ids=["linear", "norm"])
def test_a_top_k_past_the_stream_runs_like_one_equal_to_it(use_norm, monkeypatch):
    # no class can hold more rows than the stream has, so the bank is sized
    # by the stream and top_k = 10**12 allocates no more than top_k = n
    sizes = []

    def spy(classifier, top_k):
        sizes.append(top_k)
        return init(classifier, top_k)

    init = adapt.init_from_classifier
    monkeypatch.setattr(adapt, "init_from_classifier", spy)
    runs = []
    for top_k in (10**12, None):
        pair, target = _tiny(5, use_norm=use_norm)
        cfg = AdaptConfig(lr=1e-2, seed=3, top_k=top_k or target.n)
        _, curve, reports = run_method(pair, target, cfg)
        hexed = [(r.l_m.hex(), r.l_e.hex(), r.total.hex(), r.hinge_rows) for r in reports]
        runs.append((curve.to_dict(), hexed, pair.adapted_fingerprint()))
    assert sizes == [target.n, target.n]
    assert runs[0] == runs[1]


def test_entropy_norm_requires_norm_layers():
    pair, target = _tiny(0)
    with pytest.raises(ConfigError):
        run_method(pair, target, AdaptConfig(method="entropy_norm"))


def test_entropy_norm_touches_only_normalization_state():
    pair, target = _tiny(3, use_norm=True)
    before = {n: a.copy() for n, a in pair.adapted_encoder.state_arrays()}
    before.update({n: a.copy() for n, a in pair.adapted_classifier.parameters()})
    cfg = AdaptConfig(method="entropy_norm", lr=1e-2, steps=5, seed=1)
    run_method(pair, target, cfg)
    after = dict(pair.adapted_encoder.state_arrays())
    after.update(pair.adapted_classifier.parameters())
    for name in before:
        frozen = name.endswith((".w", ".b")) and not name.startswith("enc.0.running")
        if frozen:
            assert np.array_equal(before[name], after[name]), name
        else:
            assert not np.array_equal(before[name], after[name]), name


def test_pseudo_label_method_runs_and_reports():
    pair, target = _tiny(8)
    cfg = AdaptConfig(method="pseudo_label", lr=1e-3, seed=2)
    _, curve, reports = run_method(pair, target, cfg)
    n_batches = len(stream_batches(target.n, cfg.batch_size, cfg.seed))
    assert len(curve.cumulative) == n_batches
    assert len(reports) == n_batches
    assert 0.0 <= curve.final_accuracy <= 1.0


def test_run_method_none_never_adapts_even_without_step_cap():
    pair, target = _tiny(8)
    before = pair.adapted_fingerprint()
    _, curve, reports = run_method(pair, target, AdaptConfig(method="none", steps=None))
    assert pair.adapted_fingerprint() == before
    assert reports == []


def test_source_before_and_after_are_recorded():
    pair, target = _tiny(9)
    spec = ShiftSpec(samples_per_domain=240, num_source_domains=2, seed=9)
    sources, _ = gen_synthetic_shift(spec)
    _, curve, _ = run_method(
        pair, target, AdaptConfig(lr=1e-3, seed=0), source_eval=sources[0]
    )
    assert curve.source_before is not None and curve.source_after is not None
    _, plain, _ = run_method(pair, target, AdaptConfig(steps=0, seed=0))
    assert plain.source_before is None and plain.source_after is None


def test_adapt_config_validation():
    with pytest.raises(ConfigError):
        AdaptConfig(sigma=-0.1).validate()
    with pytest.raises(ConfigError):
        AdaptConfig(lambda_weight=-1.0).validate()
    with pytest.raises(ConfigError):
        AdaptConfig(top_k=0).validate()
    with pytest.raises(ConfigError):
        AdaptConfig(lr=0.0).validate()
    with pytest.raises(ConfigError):
        AdaptConfig(batch_size=1).validate()
    with pytest.raises(ConfigError):
        AdaptConfig(steps=-1).validate()
    with pytest.raises(ConfigError):
        AdaptConfig(method="bogus").validate()
