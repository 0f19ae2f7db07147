"""Streaming adaptation protocol: pairing, switch semantics, label hygiene."""

import itertools
from functools import lru_cache

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import backward_grads
from marginadapt import (
    Adam,
    AdaptConfig,
    ConfigError,
    DataError,
    DomainDataset,
    LinearClassifier,
    MlpEncoder,
    ModelPair,
    NumericalFailure,
    ShiftSpec,
    TrainConfig,
    classification_accuracy,
    clone_for_adaptation,
    gen_synthetic_shift,
    model_fingerprint,
    run_method,
    softmax_rows,
    stream_batches,
    train_source_erm,
)
from marginadapt import adapt
from marginadapt.adapt import METHODS
from marginadapt.numeric import NORM_EPS, NORM_MOMENTUM
from fixtures import linear_fixture, norm_fixture
from test_memory import OracleBank
from test_train import PerArrayAdam


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

    def fail(self, upstream, norm_only=False):
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


@pytest.mark.parametrize("fixture, l_m", [(linear_fixture, "2.31"), (norm_fixture, "49.67")],
                         ids=["linear", "norm"])
def test_an_overflowing_objective_is_named_before_the_step_arithmetic(fixture, l_m):
    # lambda * l_m overflows while both losses are finite: the objective check
    # names it before the scaled hinge gradient could
    _, target, enc, clf = fixture(0)
    cfg = AdaptConfig(lr=5e-2, sigma=0.0, steps=20, seed=0, lambda_weight=1e308)
    with pytest.raises(NumericalFailure, match=r"^adaptation aborted at step 1: "
                       rf"non-finite objective \(l_e=\S+, l_m={l_m}"):
        run_method(clone_for_adaptation(enc, clf), target, cfg)


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
    dict(sigma=0.0),
    dict(steps=5, sigma=0.0),
    dict(enable_le=False, sigma=0.0),
], ids=["none", "none-b37", "steps0", "steps5", "steps5-b37", "tent-steps5", "pl-steps3",
        "switches-off", "hinge", "hinge-steps5", "hinge-no-le"])
def test_stacked_scoring_equals_a_per_batch_loop(settings, cap, monkeypatch):
    monkeypatch.setattr(adapt, "_STACK_ROWS", cap)
    cfg = AdaptConfig(lr=1e-2, seed=4, **settings)
    for use_norm in (False, True):
        if cfg.method == "entropy_norm" and not use_norm:
            continue
        pair, target = _tiny(7, use_norm=use_norm)
        _, curve, reports = run_method(pair, target, cfg)
        ref_pair, _ = _tiny(7, use_norm=use_norm)
        cumulative, ref_reports = reference_run(ref_pair, target, cfg)
        assert curve.cumulative == cumulative
        assert pair.adapted_fingerprint() == ref_pair.adapted_fingerprint()
        assert _hexed(_rows(reports)) == _hexed(ref_reports)
        if cfg.sigma == 0.0 and cfg.enable_le:
            assert any(r.hinge_rows for r in reports)  # the hinge binds


def _rows(reports):
    return [(r.l_m, r.l_e, r.total, r.hinge_rows) for r in reports]


def _hexed(rows):
    """(l_m, l_e, total, hinge rows) rows with the floats as hex, so that
    -0.0 against 0.0 shows."""
    return [(float(l_m).hex(), float(l_e).hex(), float(total).hex(), hinge)
            for l_m, l_e, total, hinge in rows]


def reference_run(pair, target, cfg):
    """run_method's protocol written plainly, one batch at a time, in place
    on the pair: score the batch alone, then, while the step budget lasts,
    take cfg.method's reference step on it, written from its equations with
    per-array gradients and PerArrayAdam; no pack, stacking or checked step.
    Returns (cumulative accuracies, [(l_m, l_e, total, hinge rows) per step])."""
    enc, clf = pair.adapted_encoder, pair.adapted_classifier
    mode = "train" if enc.has_norm_layers else "eval"
    order = np.random.default_rng(cfg.seed).permutation(target.n)
    batches = [order[i : i + cfg.batch_size] for i in range(0, target.n, cfg.batch_size)]
    if enc.has_norm_layers:
        batches = [b for b in batches if b.size >= 2]
    limit = len(batches) if cfg.steps is None else cfg.steps
    step = _REFERENCE_STEPS[cfg.method](pair, cfg, mode, min(cfg.top_k, target.n))
    cumulative, reports, correct, seen = [], [], 0, 0
    for t, idx in enumerate(batches):
        x, n = target.features[idx], idx.size
        feats = enc.encode(x, mode=mode, retain_cache=True)
        probs = softmax_rows(clf.logits(feats))
        preds = np.argmax(probs, axis=1)
        correct += int(np.count_nonzero(preds == target.labels[idx]))
        seen += n
        cumulative.append(correct / seen)
        if t < limit:
            report = step(x, feats, probs, preds, seen - n)
            if report is not None:
                reports.append(report)
    return cumulative, reports


def _entropies(probs):
    """log p (0 where p is 0) and each row's Shannon entropy."""
    logp = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    return logp, -(probs * logp).sum(axis=1)


def _mean_entropy(probs):
    """The mean row entropy and its gradient w.r.t. the logits."""
    logp, h = _entropies(probs)
    return h.mean(), -probs * (logp + h[:, None]) / probs.shape[0]


def _norm_statistics(enc, x):
    """(norm layer, batch mean, batch variance) of each norm layer's input in
    a train-mode forward of x, by np.mean and np.var."""
    out, h = [], x
    for w, b, norm in zip(enc.weights, enc.biases, enc.norms):
        a = h @ w + b
        if norm is not None:
            mean, var = a.mean(axis=0), a.var(axis=0)
            out.append((norm, mean, var))
            a = norm.gamma * ((a - mean) / np.sqrt(var + NORM_EPS)) + norm.beta
        h = np.maximum(a, 0.0)
    return out


def none_reference(pair, cfg, mode, rows):
    """No step: a pure evaluation pass."""
    return lambda x, feats, probs, preds, first: None


def entropy_norm_reference(pair, cfg, mode, rows):
    """Tent: one Adam step on the batch's mean entropy, over the norm layers'
    gamma and beta alone; then each norm layer's running statistics move
    NORM_MOMENTUM of the way to the batch's, those of the forward that
    scored it."""
    enc, clf = pair.adapted_encoder, pair.adapted_classifier
    opt = PerArrayAdam(enc.norm_parameters(), cfg.lr)

    def step(x, feats, probs, preds, first):
        stats = _norm_statistics(enc, x)
        l_e, g_logits = _mean_entropy(probs)
        g_feats, _ = backward_grads(clf, feats, g_logits)
        opt.step(backward_grads(enc, g_feats)[1])
        for norm, mean, var in stats:
            norm.running_mean[...] = (1.0 - NORM_MOMENTUM) * norm.running_mean + NORM_MOMENTUM * mean
            norm.running_var[...] = (1.0 - NORM_MOMENTUM) * norm.running_var + NORM_MOMENTUM * var
        return (0.0, float(l_e), float(l_e), 0)

    return step


def pseudo_label_reference(pair, cfg, mode, rows):
    """One Adam step on every parameter, on the mean cross-entropy against
    the batch's own argmax labels (log p floored at 1e-300)."""
    enc, clf = pair.adapted_encoder, pair.adapted_classifier
    opt = PerArrayAdam(enc.parameters() + clf.parameters(), cfg.lr)

    def step(x, feats, probs, preds, first):
        n, picked = preds.size, (np.arange(preds.size), preds)
        loss = -np.log(np.maximum(probs[picked], 1e-300)).sum() / n
        g_logits = probs.copy()
        g_logits[picked] -= 1.0
        g_logits /= n
        g_feats, grads = backward_grads(clf, feats, g_logits)
        grads.update(backward_grads(enc, g_feats)[1])
        opt.step(grads)
        return (0.0, 0.0, float(loss), 0)

    return step


def unidg_reference(pair, cfg, mode, rows):
    """unidg, with the full-sort OracleBank of `rows` rows per class and
    np.mean prototypes: insert the batch's pseudo-labelled rows into the
    bank, average each class's top rows into its prototype and write it into
    the classifier's column (bias zeroed), take the entropy through that
    refreshed classifier, add the hinge on the squared drift from the frozen
    source's features, and take one Adam step."""
    enc, clf = pair.adapted_encoder, pair.adapted_classifier
    bank = OracleBank(clf.num_classes, rows, rows)
    opt = PerArrayAdam(enc.parameters() + clf.parameters(), cfg.lr)

    def step(x, feats, probs, preds, first):
        n = preds.size
        if cfg.enable_bank:
            _, entropies = _entropies(probs)
            for i in range(n):  # a row's step is its place in the stream
                bank.insert(feats[i], int(preds[i]), float(entropies[i]), first + i)
            for j in range(clf.num_classes):
                if bank.rows[j]:
                    clf.omega[:, j] = bank.prototype(j)
                    clf.bias[j] = 0.0
        if not (cfg.enable_lm or cfg.enable_le):
            return None
        l_e = l_m = 0.0
        g_feats, grads = np.zeros_like(feats), {}
        if cfg.enable_le:
            l_e, g_logits = _mean_entropy(softmax_rows(clf.logits(feats)))
            g_feats, grads = backward_grads(clf, feats, g_logits)
        active = np.zeros(n, dtype=bool)
        if cfg.enable_lm:
            diff = feats - pair.source_encoder.encode(x, mode=mode, retain_cache=False)
            dist_sq = (diff * diff).sum(axis=1)
            active = dist_sq > cfg.sigma
            l_m = np.maximum(dist_sq - cfg.sigma, 0.0).mean()
            g_feats = g_feats + cfg.lambda_weight * np.where(active[:, None], 2.0 / n * diff, 0.0)
        grads.update(backward_grads(enc, g_feats)[1])
        opt.step(grads)
        return (float(l_m), float(l_e), float(l_e + cfg.lambda_weight * l_m),
                int(np.count_nonzero(active)))

    return step


_REFERENCE_STEPS = {"none": none_reference, "entropy_norm": entropy_norm_reference,
                    "pseudo_label": pseudo_label_reference, "unidg": unidg_reference}


@lru_cache(maxsize=None)
def _trained(use_norm):
    return _tiny(7, use_norm=use_norm)


def _fresh_pair(use_norm):
    """A fresh adapted copy of the trained pair of `_tiny(7, use_norm)`."""
    pair, target = _trained(use_norm)
    return clone_for_adaptation(pair.source_encoder.copy(), pair.source_classifier.copy()), target


_SWITCHES = list(itertools.product([True, False], repeat=3))


@pytest.mark.parametrize("use_norm", [False, True], ids=["linear", "norm"])
@pytest.mark.parametrize("lm, le, bank", _SWITCHES, ids=[
    "+".join(name for name, on in zip(("lm", "le", "bank"), switches) if on) or "off"
    for switches in _SWITCHES])
def test_unidg_equals_its_reference_written_from_the_equations(use_norm, lm, le, bank):
    # equal bits throughout: the reference sums in the package's order
    for steps, batch_size, sigma in itertools.product([None, 5], [32, 37],
                                                      [0.0, AdaptConfig().sigma]):
        cfg = AdaptConfig(lr=1e-2, seed=4, steps=steps, batch_size=batch_size, sigma=sigma,
                          enable_lm=lm, enable_le=le, enable_bank=bank)
        pair, target = _fresh_pair(use_norm)
        source = pair.source_fingerprint()
        _, curve, reports = run_method(pair, target, cfg)
        ref_pair, _ = _fresh_pair(use_norm)
        cumulative, ref_reports = reference_run(ref_pair, target, cfg)
        where = f"steps={steps}, batch_size={batch_size}, sigma={sigma}"
        assert curve.cumulative == cumulative, where
        assert _rows(reports) == ref_reports, where
        assert pair.adapted_fingerprint() == ref_pair.adapted_fingerprint(), where
        # the pass moved the model, and with no margin the hinge bound
        assert (pair.adapted_fingerprint() != source) == (le or bank), where
        if lm and le and sigma == 0.0:
            assert any(r.hinge_rows for r in reports), where


@pytest.mark.parametrize("method, use_norm", [
    ("pseudo_label", False), ("pseudo_label", True), ("entropy_norm", True),
], ids=["pseudo_label-linear", "pseudo_label-norm", "entropy_norm-norm"])
def test_each_baseline_equals_its_reference_written_from_the_equations(method, use_norm):
    for steps, batch_size in itertools.product([None, 5], [32, 37]):
        cfg = AdaptConfig(method=method, lr=1e-2, seed=4, steps=steps, batch_size=batch_size)
        pair, target = _fresh_pair(use_norm)
        start = pair.adapted_fingerprint()
        _, curve, reports = run_method(pair, target, cfg)
        ref_pair, _ = _fresh_pair(use_norm)
        cumulative, ref_reports = reference_run(ref_pair, target, cfg)
        where = f"steps={steps}, batch_size={batch_size}"
        assert curve.cumulative == cumulative, where
        assert _hexed(_rows(reports)) == _hexed(ref_reports), where
        assert len(reports) == (steps or len(curve.cumulative)), where
        assert pair.adapted_fingerprint() == ref_pair.adapted_fingerprint() != start, where


@pytest.mark.parametrize("use_norm", [False, True], ids=["linear", "norm"])
def test_unidg_reads_only_the_frozen_source_encoder(use_norm):
    # the bank is sized from the adapted classifier and the hinge reads the
    # source encoder: a pass never touches the frozen source classifier
    runs = []
    for source_classifier in (None, object()):
        pair, target = _fresh_pair(use_norm)
        if source_classifier is not None:
            pair.source_classifier = source_classifier
        cfg = AdaptConfig(lr=1e-2, seed=4, sigma=0.0)
        _, curve, reports = run_method(pair, target, cfg)
        runs.append((curve.to_dict(), _hexed(_rows(reports)), pair.adapted_fingerprint()))
    assert any(hinge for *_, hinge in runs[0][1])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("cap", [64, adapt._STACK_ROWS], ids=["two-batch-calls", "default"])
def test_a_source_failure_in_a_later_stacked_batch_names_its_step(cap, monkeypatch):
    # only the frozen source overflows, on one row of batch 5: its weights on
    # input 0 are huge and input 0 is zero on every other row
    monkeypatch.setattr(adapt, "_STACK_ROWS", cap)
    pair, target = _tiny(5)
    source = pair.adapted_encoder.copy()
    source.weights[0][0] = 1e300
    pair = ModelPair(source, pair.source_classifier,
                     pair.adapted_encoder, pair.adapted_classifier)
    cfg = AdaptConfig(seed=1)
    row = stream_batches(target.n, cfg.batch_size, cfg.seed)[5][3]
    target.features[:, 0] = 0.0
    target.features[row, 0] = 1e10
    steps = []
    original = Adam.step

    def spy(self):
        steps.append(self.t)
        return original(self)

    monkeypatch.setattr(Adam, "step", spy)
    with np.errstate(over="ignore"), pytest.raises(
            NumericalFailure,
            match="^adaptation aborted at step 5: linear_forward: produced non-finite"):
        run_method(pair, target, cfg)
    assert len(steps) == 5  # every step before the failing one ran


def _held_by_steps(pair, target, cfg, monkeypatch):
    """Per Adam step of a pass: (the parameter and gradient vectors Adam
    holds, as array interfaces, and the names of the adapted model's
    gradient arrays that lie in its gradient vector)."""
    seen = []
    original = Adam.step

    def spy(self):
        grads = pair.adapted_encoder.gradients() + pair.adapted_classifier.gradients()
        names = sorted(n for n, g in grads if np.shares_memory(g, self.grads))
        seen.append((self.params.__array_interface__, self.grads.__array_interface__, names))
        return original(self)

    monkeypatch.setattr(Adam, "step", spy)
    run_method(pair, target, cfg)
    return seen


def _spy_on_pack(monkeypatch):
    """The list that each `pack` the adapt module calls appends its packed
    vectors (FlatParameters) to."""
    packed = []
    original = adapt.pack

    def spy(encoder, classifier):
        packed.append(original(encoder, classifier))
        return packed[-1]

    monkeypatch.setattr(adapt, "pack", spy)
    return packed


def test_entropy_norm_steps_only_on_the_gradients_adam_holds(monkeypatch):
    # Tent's Adam holds exactly the norm slice of the pass's packed vectors,
    # and the norm gradient arrays tile it
    pair, target = _tiny(3, use_norm=True)
    packed = _spy_on_pack(monkeypatch)
    cfg = AdaptConfig(method="entropy_norm", lr=1e-2, steps=4, seed=1)
    held = _held_by_steps(pair, target, cfg, monkeypatch)
    [flat] = packed  # the pass packs once, when it starts
    names = sorted(n for n, _ in pair.adapted_encoder.norm_parameters())
    assert flat.norm.stop == sum(p.size for _, p in pair.adapted_encoder.norm_parameters())
    want = (flat.values[flat.norm].__array_interface__,
            flat.grads[flat.norm].__array_interface__, names)
    assert held == [want] * 4


@pytest.mark.parametrize("settings", [
    dict(method="pseudo_label"),
    dict(method="unidg"),
    dict(method="unidg", enable_lm=False),
    dict(method="unidg", enable_le=False),
], ids=["pseudo_label", "unidg", "unidg-no-lm", "unidg-no-le"])
def test_each_step_holds_one_slice_of_the_packed_vectors(settings, monkeypatch):
    # every stepping method but entropy_norm holds all of the packed vectors
    pair, target = _tiny(3, use_norm=True)
    packed = _spy_on_pack(monkeypatch)
    cfg = AdaptConfig(lr=1e-2, steps=3, seed=1, **settings)
    held = _held_by_steps(pair, target, cfg, monkeypatch)
    [flat] = packed  # the pass packs once, when it starts
    params = pair.adapted_encoder.parameters() + pair.adapted_classifier.parameters()
    names = sorted(n for n, _ in params)
    want = (flat.values.__array_interface__, flat.grads.__array_interface__, names)
    assert held == [want] * 3


@pytest.mark.parametrize("use_norm", [False, True])
def test_without_the_entropy_term_adam_leaves_the_classifier_as_it_is(use_norm):
    # no backward reaches the classifier, so its gradients stay pack's zeros
    # and the Adam that holds the whole vector moves it by exactly 0.0, while
    # the hinge of an adapted copy off its source moves the encoder
    pair, target = _tiny(8, use_norm=use_norm)
    pair.adapted_encoder.weights[-1] *= 1.5
    omega, bias = pair.adapted_classifier.omega.copy(), pair.adapted_classifier.bias.copy()
    encoder = pair.adapted_encoder.copy()
    cfg = AdaptConfig(lr=1e-2, steps=5, seed=2, sigma=0.0, enable_le=False, enable_bank=False)
    _, _, reports = run_method(pair, target, cfg)
    assert all(r.hinge_rows for r in reports) and len(reports) == 5
    assert model_fingerprint(pair.adapted_encoder) != model_fingerprint(encoder)
    assert pair.adapted_classifier.omega.tobytes() == omega.tobytes()
    assert pair.adapted_classifier.bias.tobytes() == bias.tobytes()


@pytest.mark.parametrize("settings", [
    dict(method=m) for m in METHODS] + [dict(enable_le=False), dict(enable_lm=False)],
    ids=[*METHODS, "unidg-no-le", "unidg-no-lm"])
def test_a_pass_leaves_the_source_unchanged_and_read_only(settings, monkeypatch):
    pair, target = _tiny(4, use_norm=True)
    fingerprint = pair.source_fingerprint()
    packed = _spy_on_pack(monkeypatch)
    run_method(pair, target, AdaptConfig(lr=1e-2, seed=2, **settings))
    assert pair.source_fingerprint() == fingerprint
    source = [a for _, a in pair.source_encoder.state_arrays() + pair.source_classifier.parameters()]
    assert not any(a.flags.writeable for a in source)
    adapted = [p for _, p in pair.adapted_encoder.parameters() + pair.adapted_classifier.parameters()]
    if settings.get("method") == "none":
        assert packed == []  # a pass that never steps packs nothing
    else:
        # the adapted model's learnable arrays are views of the pass's packed vector
        [flat] = packed
        assert all(np.shares_memory(p, flat.values) for p in adapted)
        assert not any(np.shares_memory(a, flat.values) for a in source)
    assert not any(np.shares_memory(a, p) for a in source for p in adapted)


def test_a_pass_steps_what_the_adapted_model_holds_after_it_was_trained():
    # ERM on the adapted halves packs them into a vector of its own; the next
    # pass must step the arrays they hold then, not a vector packed earlier
    pair, target = _tiny(6)
    sources, _ = gen_synthetic_shift(ShiftSpec(samples_per_domain=240, num_source_domains=2, seed=6))
    train_source_erm(pair.adapted_encoder, pair.adapted_classifier, sources,
                     TrainConfig(lr=1e-2, epochs=1, seed=6))
    before = pair.adapted_fingerprint()
    _, _, reports = run_method(pair, target, AdaptConfig(method="pseudo_label", lr=1e-2, seed=1))
    assert reports
    assert pair.adapted_fingerprint() != before


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


@pytest.mark.parametrize("method", METHODS)
def test_a_stream_with_nothing_to_score_is_refused_before_anything_is_packed(
        method, monkeypatch):
    # a norm encoder scores batches of 2 rows or more, so a 1-row target
    # leaves nothing to score
    _, target = gen_synthetic_shift(ShiftSpec(samples_per_domain=40, seed=0))
    one_row = DomainDataset(target.features[:1], target.labels[:1], 4, "target")
    pair = clone_for_adaptation(MlpEncoder.create([16, 8, 8], use_norm=True, seed=0),
                                LinearClassifier.create(8, 4, seed=1))
    before = pair.adapted_fingerprint()

    def no_pack(*models):
        raise AssertionError("packed")

    monkeypatch.setattr(adapt, "pack", no_pack)
    with pytest.raises(DataError, match="^run_method: the 1-row target has no batch of "
                                        "the 2 rows norm layers need"):
        run_method(pair, one_row, AdaptConfig(method=method))
    assert pair.adapted_fingerprint() == before


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


def test_run_method_scores_only_the_target_stream():
    # what a pass did to the source is measured by the caller, on the model
    # the pass adapted in place
    pair, target = _tiny(9)
    spec = ShiftSpec(samples_per_domain=240, num_source_domains=2, seed=9)
    source = gen_synthetic_shift(spec)[0][0]

    def source_accuracy():
        return classification_accuracy(pair.adapted_encoder, pair.adapted_classifier,
                                       source.features, source.labels)

    before = source_accuracy()
    _, curve, _ = run_method(pair, target, AdaptConfig(lr=1e-3, seed=0))
    assert sorted(curve.to_dict()) == ["cumulative", "final_accuracy", "per_domain"]
    assert source_accuracy() != before


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


def test_a_switch_that_is_not_a_bool_is_refused_before_the_pass():
    # "no" is truthy, so taken as it is it would switch the hinge on
    pair, target = _fresh_pair(use_norm=False)
    with pytest.raises(ConfigError, match="^enable_lm must be a bool, got 'no'$"):
        run_method(pair, target, AdaptConfig(enable_lm="no"))
