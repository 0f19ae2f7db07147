"""Optimizer and source-training loop: reference Adam, loss oracle, degenerate runs."""

import math
import os
import subprocess
import sys
import warnings
import weakref
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import backward_grads, numeric_grad, rel_error
import marginadapt
from marginadapt import train as train_module
from marginadapt import (
    Adam,
    ConfigError,
    DataError,
    DimensionError,
    DomainDataset,
    LinearClassifier,
    MlpEncoder,
    NumericalFailure,
    ShiftSpec,
    TrainConfig,
    classification_accuracy,
    clone_for_adaptation,
    cross_entropy_loss,
    gen_synthetic_shift,
    model_fingerprint,
    softmax_rows,
    split_holdout,
    train_source_erm,
)
from marginadapt.numeric import checked_step
from marginadapt.train import HOLDOUT_FRACTION


def reference_adam(p0, grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam with bias correction, written independently of the package."""
    p = p0.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grad_seq, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def _adam(p, lr):
    """Adam over the vector p, with its own gradient vector."""
    return Adam(p, np.zeros_like(p), lr)


def test_adam_first_step_moves_each_coordinate_by_lr():
    # at t=1 the bias corrections cancel the (1-beta) factors exactly,
    # so the update is lr * g / (|g| + eps) ~ lr * sign(g)
    rng = np.random.default_rng(0)
    for lr in (1e-1, 1e-3, 5e-5):
        p = rng.standard_normal(12)
        before = p.copy()
        g = rng.uniform(0.5, 2.0, size=p.shape) * rng.choice([-1.0, 1.0], size=p.shape)
        opt = _adam(p, lr)
        opt.grads[...] = g
        opt.step()
        npt.assert_allclose(np.abs(before - p), lr, rtol=1e-6)
        npt.assert_array_equal(np.sign(before - p), np.sign(g))


def test_adam_matches_reference_over_many_steps():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p0 = rng.standard_normal(17)
        grads = [rng.standard_normal(17) for _ in range(9)]
        p = p0.copy()
        opt = _adam(p, 3e-3)
        for g in grads:
            opt.grads[...] = g
            opt.step()
        npt.assert_allclose(p, reference_adam(p0, grads, 3e-3), rtol=1e-12)


def test_adam_over_a_slice_leaves_the_rest_untouched():
    # an optimiser holding part of a vector: the rest never moves; and a
    # zero gradient on fresh moments is an exactly-zero update
    rng = np.random.default_rng(1)
    values, grads = rng.standard_normal(12), rng.standard_normal(12)
    before = values.copy()
    opt = Adam(values[3:8], grads[3:8], lr=1e-2)
    opt.step()
    npt.assert_array_equal(values[:3], before[:3])
    npt.assert_array_equal(values[8:], before[8:])
    assert not (values[3:8] == before[3:8]).any()
    assert opt.t == 1
    zero = _adam(values, 1e-2)
    now = values.copy()
    zero.step()
    npt.assert_array_equal(values, now)


class PerArrayAdam:
    """Adam with one moment pair per named array, updated in a loop over the
    arrays: the oracle the flat-vector optimizer must match bit for bit."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {n: np.zeros_like(p) for n, p in params}
        self.v = {n: np.zeros_like(p) for n, p in params}
        self.t = 0

    def step(self, grads):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            g = grads.get(name)
            if g is None:
                continue
            g = np.asarray(g, dtype=np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def test_flat_adam_is_bit_identical_to_per_array_adam():
    rng = np.random.default_rng(4)
    shapes = {"a": (5, 2), "b": (7,), "c": (3, 3)}
    # each array's fixed slice of the flat vectors, in the order given
    slices = {"a": slice(0, 10), "b": slice(10, 17), "c": slice(17, 26)}
    init = {n: rng.standard_normal(shape) for n, shape in shapes.items()}
    values, grads = np.empty(26), np.empty(26)
    flat = [(n, values[slices[n]].reshape(shapes[n])) for n in shapes]
    for n, p in flat:
        p[...] = init[n]
    ref = [(n, init[n].copy()) for n in shapes]
    opt = Adam(values, grads, lr=3e-2)
    oracle = PerArrayAdam(ref, lr=3e-2)
    for t in range(12):
        step_grads = {n: rng.standard_normal(shape) for n, shape in shapes.items()}
        for n, g in step_grads.items():
            grads[slices[n]] = g.ravel()
        opt.step()
        oracle.step(step_grads)
        assert opt.t == oracle.t == t + 1
        for (name, p), (_, p_ref) in zip(flat, ref):
            sl = slices[name]
            npt.assert_array_equal(p, p_ref)
            npt.assert_array_equal(opt.m[sl].reshape(p.shape), oracle.m[name])
            npt.assert_array_equal(opt.v[sl].reshape(p.shape), oracle.v[name])
    assert opt.m.shape == opt.v.shape == (26,)


def test_adam_without_parameters_only_counts_steps():
    opt = _adam(np.zeros(0), 1e-3)
    opt.step()
    assert opt.t == 1
    assert opt.m.size == opt.v.size == 0


@pytest.mark.parametrize("params, grads", [
    (np.zeros(3), np.zeros(4)),
    (np.zeros((3, 1)), np.zeros((3, 1))),
    (np.zeros(3), np.zeros(3, dtype=np.float32)),
    (np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)),
    ([0.0, 0.0], np.zeros(2)),
], ids=["lengths", "2-D", "float32-grads", "int-params", "list"])
def test_adam_refuses_anything_but_two_float64_vectors_of_one_shape(params, grads):
    with pytest.raises(DimensionError, match="^Adam: parameters and gradients must be 1-D"):
        Adam(params, grads, lr=1e-3)


def test_adam_rejects_a_negative_lr():
    with pytest.raises(ConfigError):
        _adam(np.zeros(3), -1e-3)


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_adam_refuses_a_non_finite_lr(lr):
    with pytest.raises(ConfigError, match="^Adam lr must be finite and >= 0"):
        _adam(np.ones(3), lr)


def test_cross_entropy_on_uniform_probs_is_log_num_classes():
    for c in (2, 4, 11):
        probs = np.full((6, c), 1.0 / c)
        labels = np.arange(6) % c
        value, grad = cross_entropy_loss(probs, labels)
        npt.assert_allclose(value, math.log(c), rtol=1e-14)
        assert grad.shape == (6, c)


def test_cross_entropy_fused_gradient_matches_difference_quotient():
    # gradient is taken w.r.t. logits, through the softmax
    for seed in range(4):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)

        def f():
            value, _ = cross_entropy_loss(softmax_rows(logits), labels)
            return value

        _, analytic = cross_entropy_loss(softmax_rows(logits), labels)
        numeric = numeric_grad(f, logits)
        assert rel_error(analytic, numeric) < 1e-6


def test_cross_entropy_rejects_bad_labels():
    probs = np.full((4, 3), 1.0 / 3)
    with pytest.raises(DataError):
        cross_entropy_loss(probs, np.array([0, 1, 2, 3]))
    with pytest.raises(DataError):
        cross_entropy_loss(probs, np.array([0, -1, 2, 1]))
    with pytest.raises(DimensionError):
        cross_entropy_loss(probs, np.array([0, 1, 2]))


def _cross_entropy_by_index(probs, labels):
    """cross_entropy_loss as it was written with fancy indexing."""
    n = probs.shape[0]
    rows = np.arange(n)
    log_picked = np.log(np.maximum(probs[rows, labels], 1e-300))
    value = float(-(np.add.reduce(log_picked) / n))
    grad_logits = probs.copy()
    grad_logits[rows, labels] -= 1.0
    grad_logits /= n
    return value, grad_logits


@st.composite
def _scored_batches(draw):
    """Softmax rows over 2-10 classes, with logits spread far enough that
    some probabilities are exactly 0 or 1, some rows exactly one-hot (on
    the label or off it), and labels of either integer dtype."""
    c = draw(st.integers(2, 10))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = softmax_rows(rng.standard_normal((n, c)) * 10.0 ** rng.uniform(-2, 3))
    labels = rng.integers(0, c, n).astype(draw(st.sampled_from([np.int64, np.intp, np.uint8])))
    hot = rng.random(n) < 0.3
    probs[hot] = 0.0
    probs[hot, rng.integers(0, c, n)[hot]] = 1.0
    return probs, labels


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_scored_batches())
def test_one_hot_cross_entropy_equals_the_fancy_index_form_bit_for_bit(batch):
    probs, labels = batch
    value, grad = cross_entropy_loss(probs, labels)
    want_value, want_grad = _cross_entropy_by_index(probs, labels)
    assert value.hex() == want_value.hex()
    assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
    assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 2.0, 0.0]),
                                    np.array([True, False, True, False])],
                         ids=["float", "bool"])
@pytest.mark.parametrize("context", [nullcontext, checked_step], ids=["direct", "checked"])
def test_cross_entropy_refuses_labels_that_are_not_integers(labels, context):
    probs = np.full((4, 3), 1.0 / 3)
    with context(), pytest.raises(DataError, match="^cross_entropy_loss: labels must be integers"):
        cross_entropy_loss(probs, labels)


def test_cross_entropy_refuses_an_empty_batch():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^cross_entropy_loss: empty batch$"):
            cross_entropy_loss(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


def _tiny_task(seed):
    spec = ShiftSpec(samples_per_domain=200, num_source_domains=2, seed=seed)
    sources, _ = gen_synthetic_shift(spec)
    enc = MlpEncoder.create([16, 16], seed=seed)
    clf = LinearClassifier.create(16, 4, seed=seed + 1)
    return sources, enc, clf


def test_zero_lr_training_restores_initial_parameters_bit_for_bit():
    sources, enc, clf = _tiny_task(2)
    before = [(n, a.copy()) for n, a in enc.parameters() + clf.parameters()]
    report = train_source_erm(enc, clf, sources, TrainConfig(lr=0.0, epochs=3, seed=2))
    for (name, old), (_, new) in zip(before, enc.parameters() + clf.parameters()):
        assert np.array_equal(old, new), name
    assert report.best_epoch == -1
    assert len(report.val_history) == 3


def test_zero_epochs_is_a_no_op():
    sources, enc, clf = _tiny_task(3)
    before = [(n, a.copy()) for n, a in enc.parameters() + clf.parameters()]
    cfg = TrainConfig(lr=1e-2, epochs=0, seed=3)
    report = train_source_erm(enc, clf, sources, cfg)
    for (name, old), (_, new) in zip(before, enc.parameters() + clf.parameters()):
        assert np.array_equal(old, new), name
    assert report.best_epoch == -1
    assert report.loss_history == [] and report.val_history == []
    # reported accuracy is just the initialization scored on the pooled holdout
    vals = [
        split_holdout(ds, HOLDOUT_FRACTION, seed=cfg.seed + 1000 * k)[1]
        for k, ds in enumerate(sources)
    ]
    x_val = np.vstack([v.features for v in vals])
    y_val = np.concatenate([v.labels for v in vals])
    assert report.val_accuracy == classification_accuracy(enc, clf, x_val, y_val)


def test_training_improves_holdout_accuracy():
    sources, enc, clf = _tiny_task(4)
    cfg = TrainConfig(lr=1e-2, epochs=8, seed=4)
    vals = [
        split_holdout(ds, HOLDOUT_FRACTION, seed=cfg.seed + 1000 * k)[1]
        for k, ds in enumerate(sources)
    ]
    x_val = np.vstack([v.features for v in vals])
    y_val = np.concatenate([v.labels for v in vals])
    acc0 = classification_accuracy(enc, clf, x_val, y_val)
    report = train_source_erm(enc, clf, sources, cfg)
    assert report.val_accuracy > acc0
    assert report.val_accuracy > 0.9
    assert len(report.val_history) == 8 and len(report.loss_history) > 0
    # the parameters left in the model are the ones the report scored
    assert classification_accuracy(enc, clf, x_val, y_val) == report.val_accuracy


def test_training_leaves_no_forward_cache_behind():
    sources, _, _ = _tiny_task(5)
    enc = MlpEncoder.create([16, 12, 12, 16], use_norm=True, seed=5)
    clf = LinearClassifier.create(16, 4, seed=6)
    for epochs in (0, 2):
        train_source_erm(enc, clf, sources, TrainConfig(lr=1e-2, epochs=epochs, seed=5))
        assert enc._cache is None


def test_training_frees_the_per_domain_splits_once_pooled(monkeypatch):
    sources, enc, clf = _tiny_task(6)
    splits, alive = [], []
    split, loss = train_module.split_holdout, train_module.cross_entropy_loss

    def spy_split(ds, fraction, seed=0):
        parts = split(ds, fraction, seed=seed)
        splits.extend(weakref.ref(part.features) for part in parts)
        return parts

    def spy_loss(probs, y):
        alive.append(sum(ref() is not None for ref in splits))
        return loss(probs, y)

    monkeypatch.setattr(train_module, "split_holdout", spy_split)
    monkeypatch.setattr(train_module, "cross_entropy_loss", spy_loss)
    train_source_erm(enc, clf, sources, TrainConfig(lr=1e-2, epochs=1, seed=6))
    assert len(splits) == 2 * len(sources)
    assert alive and not any(alive)


@pytest.mark.parametrize("hidden, use_norm", [([], False), ([8], True)], ids=["linear", "norm"])
def test_training_batches_are_slices_of_each_epoch_permutation(monkeypatch, hidden, use_norm):
    sources, _, _ = _tiny_task(7)
    enc = MlpEncoder.create([16, *hidden, 16], use_norm=use_norm, seed=7)
    clf = LinearClassifier.create(16, 4, seed=8)
    cfg = TrainConfig(lr=1e-2, epochs=2, batch_size=29, seed=7)
    batches, labels = [], []
    encode, loss = MlpEncoder.encode, train_module.cross_entropy_loss

    def spy_encode(self, x, mode="train", retain_cache=None):
        if mode == "train":  # accuracy passes encode in eval mode
            batches.append(np.array(x))
        return encode(self, x, mode=mode, retain_cache=retain_cache)

    def spy_loss(probs, y):
        labels.append(np.array(y))
        return loss(probs, y)

    monkeypatch.setattr(MlpEncoder, "encode", spy_encode)
    monkeypatch.setattr(train_module, "cross_entropy_loss", spy_loss)
    train_source_erm(enc, clf, sources, cfg)

    trains = [split_holdout(ds, HOLDOUT_FRACTION, seed=cfg.seed + 1000 * k)[0]
              for k, ds in enumerate(sources)]
    x_train = np.vstack([t.features for t in trains])
    y_train = np.concatenate([t.labels for t in trains])
    n, bs = x_train.shape[0], cfg.batch_size
    assert n % bs == 1  # each epoch ends on a one-row batch
    rng = np.random.default_rng(cfg.seed)
    want = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            if use_norm and idx.shape[0] < 2:
                continue  # batch statistics need two rows
            want.append(idx)
    assert len(batches) == len(labels) == len(want)
    for xb, yb, idx in zip(batches, labels, want):
        npt.assert_array_equal(xb, x_train[idx])
        npt.assert_array_equal(yb, y_train[idx])


def test_norm_training_rejects_one_row_batches():
    sources, _, _ = _tiny_task(8)
    enc = MlpEncoder.create([16, 8, 16], use_norm=True, seed=8)
    clf = LinearClassifier.create(16, 4, seed=9)
    before = [(n, a.copy()) for n, a in enc.parameters() + clf.parameters()]
    with pytest.raises(ConfigError, match="^batch_size must be >= 2 for an encoder with norm"):
        train_source_erm(enc, clf, sources, TrainConfig(batch_size=1, epochs=1, seed=8))
    for (name, old), (_, new) in zip(before, enc.parameters() + clf.parameters()):
        assert np.array_equal(old, new), name


def test_train_rejects_empty_source_list():
    _, enc, clf = _tiny_task(5)
    with pytest.raises(DataError):
        train_source_erm(enc, clf, [], TrainConfig())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1).validate()


def erm_reference(encoder, classifier, sources, cfg):
    """train_source_erm written per array, in place on the model: the public
    forward, cross_entropy_loss, each backward's gradients copied out, and
    PerArrayAdam. Returns the loss history."""
    pools = [split_holdout(ds, HOLDOUT_FRACTION, seed=cfg.seed + 1000 * k)
             for k, ds in enumerate(sources)]
    x_train, x_val = (np.vstack([p[j].features for p in pools]) for j in (0, 1))
    y_train, y_val = (np.concatenate([p[j].labels for p in pools]) for j in (0, 1))
    opt = PerArrayAdam(encoder.parameters() + classifier.parameters(), cfg.lr)
    rng = np.random.default_rng(cfg.seed)

    def snapshot():
        return [a.copy() for _, a in encoder.state_arrays() + classifier.parameters()]

    best_acc = classification_accuracy(encoder, classifier, x_val, y_val)
    best = snapshot()
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(x_train.shape[0])
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if encoder.has_norm_layers and idx.size < 2:
                continue
            feats = encoder.encode(x_train[idx], mode="train")
            probs = softmax_rows(classifier.logits(feats))
            loss, g_logits = cross_entropy_loss(probs, y_train[idx])
            gz, cgrads = backward_grads(classifier, feats, g_logits)
            _, egrads = backward_grads(encoder, gz)
            encoder.update_running_stats()
            opt.step({**egrads, **cgrads})
            losses.append(loss)
        acc = classification_accuracy(encoder, classifier, x_val, y_val)
        if acc > best_acc:
            best_acc, best = acc, snapshot()
    for (_, live), arr in zip(encoder.state_arrays() + classifier.parameters(), best):
        live[...] = arr
    return losses


@pytest.mark.parametrize("hidden, use_norm", [([], False), ([12], False), ([12], True)],
                         ids=["one-layer", "linear", "norm"])
def test_training_equals_a_per_array_reference_loop(hidden, use_norm):
    sources, _, _ = _tiny_task(10)
    cfg = TrainConfig(lr=1e-2, epochs=3, batch_size=29, seed=10)
    n = sum(split_holdout(ds, HOLDOUT_FRACTION, seed=cfg.seed + 1000 * k)[0].n
            for k, ds in enumerate(sources))
    assert n % cfg.batch_size == 1  # each epoch ends on a one-row batch
    models = [(MlpEncoder.create([16, *hidden, 16], use_norm=use_norm, seed=10),
               LinearClassifier.create(16, 4, seed=11)) for _ in range(2)]
    report = train_source_erm(*models[0], sources, cfg)
    losses = erm_reference(*models[1], sources, cfg)
    assert report.best_epoch >= 0  # the kept state is a trained one
    assert model_fingerprint(*models[0]) == model_fingerprint(*models[1])
    assert [v.hex() for v in report.loss_history] == [v.hex() for v in losses]


def test_training_packs_the_callers_model_and_leaves_the_trained_state_in_it():
    # the caller's parameters become views of the one vector Adam stepped;
    # the running statistics, not parameters, stay the caller's arrays
    sources, _, _ = _tiny_task(11)
    enc = MlpEncoder.create([16, 12, 16], use_norm=True, seed=11)
    clf = LinearClassifier.create(16, 4, seed=12)
    stats = [norm.running_mean for norm in enc.norms] + [norm.running_var for norm in enc.norms]
    ref_enc, ref_clf = enc.copy(), clf.copy()
    cfg = TrainConfig(lr=1e-2, epochs=2, seed=11)
    train_source_erm(enc, clf, sources, cfg)
    erm_reference(ref_enc, ref_clf, sources, cfg)
    params = [p for _, p in enc.parameters() + clf.parameters()]
    vector = params[0].base
    assert vector.ndim == 1 and vector.size == sum(p.size for p in params)
    assert all(p.base is vector and p.flags.writeable for p in params)
    after = [norm.running_mean for norm in enc.norms] + [norm.running_var for norm in enc.norms]
    assert all(a is b for a, b in zip(after, stats))
    assert model_fingerprint(enc, clf) == model_fingerprint(ref_enc, ref_clf)


def test_training_ends_on_the_best_epochs_state():
    # seed 1 at lr 3e-2 peaks at epoch 1 of 6; training for 2 epochs ends there
    sources, _, _ = _tiny_task(1)
    runs = []
    for epochs in (6, 2):
        enc = MlpEncoder.create([16, 12, 16], seed=1)
        clf = LinearClassifier.create(16, 4, seed=2)
        report = train_source_erm(enc, clf, sources, TrainConfig(lr=3e-2, epochs=epochs, seed=1))
        runs.append((report.best_epoch, model_fingerprint(enc, clf)))
    assert runs[0] == runs[1] and runs[0][0] == 1


@pytest.mark.parametrize("use_norm", [False, True], ids=["linear", "norm"])
def test_training_refuses_a_frozen_source_and_leaves_it_frozen(use_norm):
    sources, _, _ = _tiny_task(12)
    enc = MlpEncoder.create([16, 12, 16], use_norm=use_norm, seed=12)
    clf = LinearClassifier.create(16, 4, seed=13)
    pair = clone_for_adaptation(enc, clf)
    fingerprint = pair.source_fingerprint()
    before = [a for _, a in enc.state_arrays() + clf.parameters()]
    with pytest.raises(ConfigError, match="^pack: enc.0.w is read-only"):
        train_source_erm(enc, clf, sources, TrainConfig(lr=1e-2, epochs=1, seed=12))
    assert pair.source_fingerprint() == fingerprint
    after = [a for _, a in enc.state_arrays() + clf.parameters()]
    assert all(a is b and not a.flags.writeable for a, b in zip(after, before))


def test_a_failed_training_leaves_the_state_it_failed_in():
    # the first step blows the weights up and the second one's forward
    # overflows: the caller's model holds what training in place leaves
    sources, _, _ = _tiny_task(6)
    enc = MlpEncoder.create([16, 12, 16], use_norm=True, seed=6)
    clf = LinearClassifier.create(16, 4, seed=7)
    ref_enc, ref_clf = enc.copy(), clf.copy()
    initial = model_fingerprint(enc, clf)
    cfg = TrainConfig(lr=1e300, epochs=2, seed=6)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match="^training aborted at epoch 0, step 1: "):
            train_source_erm(enc, clf, sources, cfg)
        with pytest.raises(NumericalFailure, match="produced non-finite values$"):
            erm_reference(ref_enc, ref_clf, sources, cfg)
    assert model_fingerprint(enc, clf) == model_fingerprint(ref_enc, ref_clf) != initial


@pytest.mark.parametrize("where, op", [
    ("gamma", "batchnorm_forward: produced non-finite values"),
    ("running_var", "batchnorm_forward: produced non-finite values"),
    ("omega", "logits: produced non-finite values"),
])
def test_a_non_finite_model_is_refused_by_the_first_holdout_pass(where, op):
    # before any step, so the failure names the op but no epoch or step
    sources, _, _ = _tiny_task(9)
    enc = MlpEncoder.create([16, 12, 16], use_norm=True, seed=9)
    clf = LinearClassifier.create(16, 4, seed=10)
    arrays = {"gamma": enc.norms[0].gamma, "running_var": enc.norms[0].running_var,
              "omega": clf.omega}
    arrays[where][0] = np.nan
    with pytest.raises(NumericalFailure, match=f"^{op}$"):
        train_source_erm(enc, clf, sources, TrainConfig(epochs=1, seed=9))


def test_training_failure_names_epoch_and_step(monkeypatch):
    sources, enc, clf = _tiny_task(6)
    # the first step blows the weights up; the second step's logits overflow
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericalFailure, match="training aborted at epoch 0, step 1: logits: produced"
    ):
        train_source_erm(enc, clf, sources, TrainConfig(lr=1e300, epochs=2, seed=6))

    def fail(self, upstream):
        raise NumericalFailure("backward: non-finite gradient")

    monkeypatch.setattr(MlpEncoder, "backward", fail)
    _, enc, clf = _tiny_task(6)
    with pytest.raises(NumericalFailure, match="training aborted at epoch 0, step 0: backward"):
        train_source_erm(enc, clf, sources, TrainConfig(epochs=2, seed=6))


def test_training_does_not_import_numpy_ma():
    # numpy.ma costs every training process import time and heap it keeps;
    # np.unique is one numpy call that imports it
    code = (
        "import sys\n"
        "from marginadapt import (LinearClassifier, MlpEncoder, ShiftSpec, TrainConfig,\n"
        "                         gen_synthetic_shift, train_source_erm)\n"
        "sources, _ = gen_synthetic_shift(ShiftSpec(samples_per_domain=60, seed=0))\n"
        "enc = MlpEncoder.create([16, 8], use_norm=True, seed=0)\n"
        "clf = LinearClassifier.create(8, 4, seed=1)\n"
        "train_source_erm(enc, clf, sources, TrainConfig(epochs=1))\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(marginadapt.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _with_a_fifth_class(ds, rows):
    """`ds` declared over 5 classes, with the given rows labelled 4."""
    labels = ds.labels.copy()
    labels[rows] = 4
    return DomainDataset(ds.features, labels, 5, ds.domain_id)


def test_erm_refuses_labels_outside_the_classifiers_classes_before_any_step():
    # two rows of a class the 4-class classifier lacks, the first of them
    # met at epoch 0, step 6: a check at the step that meets it would come
    # after six steps
    sources, enc, clf = _tiny_task(11)
    sources = [_with_a_fifth_class(sources[0], [150, 190]), sources[1]]
    initial = model_fingerprint(enc, clf)
    cfg = TrainConfig(lr=1e-2, epochs=2, seed=11)
    with pytest.raises(DataError, match=r"^cross_entropy_loss: labels outside \[0, 4\)$"):
        train_source_erm(enc, clf, sources, cfg)
    assert model_fingerprint(enc, clf) == initial
    # no step runs at epochs=0, so nothing is refused
    cfg.epochs = 0
    report = train_source_erm(enc, clf, sources, cfg)
    assert report.loss_history == [] and model_fingerprint(enc, clf) == initial
