"""Optimizer and source-training loop: reference Adam, loss oracle, degenerate runs."""

import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import numeric_grad, rel_error
from marginadapt import train as train_module
from marginadapt import (
    Adam,
    ConfigError,
    DataError,
    DimensionError,
    LinearClassifier,
    MlpEncoder,
    NumericalFailure,
    ShiftSpec,
    TrainConfig,
    classification_accuracy,
    cross_entropy_loss,
    gen_synthetic_shift,
    softmax_rows,
    split_holdout,
    train_source_erm,
)


def reference_adam(p0, grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0):
    """Textbook Adam with bias correction, written independently of the package."""
    p = p0.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grad_seq, start=1):
        if wd:
            g = g + wd * p
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def test_adam_first_step_moves_each_coordinate_by_lr():
    # at t=1 the bias corrections cancel the (1-beta) factors exactly,
    # so the update is lr * g / (|g| + eps) ~ lr * sign(g)
    rng = np.random.default_rng(0)
    for lr in (1e-1, 1e-3, 5e-5):
        p = rng.standard_normal((4, 3))
        before = p.copy()
        g = rng.uniform(0.5, 2.0, size=p.shape) * rng.choice([-1.0, 1.0], size=p.shape)
        opt = Adam([("p", p)], lr=lr)
        opt.step({"p": g})
        npt.assert_allclose(np.abs(before - p), lr, rtol=1e-6)
        npt.assert_array_equal(np.sign(before - p), np.sign(g))


def test_adam_matches_reference_over_many_steps():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        w0 = rng.standard_normal((5, 2))
        b0 = rng.standard_normal(7)
        grads_w = [rng.standard_normal((5, 2)) for _ in range(9)]
        grads_b = [rng.standard_normal(7) for _ in range(9)]
        for wd in (0.0, 0.01):
            w = w0.copy()
            b = b0.copy()
            opt = Adam([("w", w), ("b", b)], lr=3e-3, weight_decay=wd)
            for gw, gb in zip(grads_w, grads_b):
                opt.step({"w": gw, "b": gb})
            npt.assert_allclose(w, reference_adam(w0, grads_w, 3e-3, wd=wd), rtol=1e-12)
            npt.assert_allclose(b, reference_adam(b0, grads_b, 3e-3, wd=wd), rtol=1e-12)


def test_adam_missing_gradient_leaves_parameter_untouched():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    b_before = b.copy()
    opt = Adam([("w", w), ("b", b)], lr=1e-2)
    opt.step({"w": rng.standard_normal((3, 3))})
    assert np.array_equal(b, b_before)
    assert opt.state.t == 1
    # zero gradient on fresh moments is also an exactly-zero update
    w_now = w.copy()
    opt2 = Adam([("w", w)], lr=1e-2)
    opt2.step({"w": np.zeros((3, 3))})
    assert np.array_equal(w, w_now)


class PerArrayAdam:
    """Adam with one moment pair per named array, updated in a loop over the
    arrays: the oracle the flat-buffer optimizer must match bit for bit."""

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
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
            if self.weight_decay:
                g = g + self.weight_decay * p
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_flat_adam_is_bit_identical_to_per_array_adam(wd):
    rng = np.random.default_rng(4)
    shapes = {"a": (5, 2), "b": (7,), "c": (3, 3)}
    # each parameter's fixed slice of the flat moments, in the order given
    slices = {"a": slice(0, 10), "b": slice(10, 17), "c": slice(17, 26)}
    init = {n: rng.standard_normal(shape) for n, shape in shapes.items()}
    flat = [(n, init[n].copy()) for n in shapes]
    ref = [(n, init[n].copy()) for n in shapes]
    opt = Adam(flat, lr=3e-2, weight_decay=wd)
    oracle = PerArrayAdam(ref, lr=3e-2, weight_decay=wd)
    skips = [{"c"}, set(), {"a"}, {"b", "c"}, {"a", "b", "c"}, {"b"}]
    for t in range(12):
        skip = skips[t % len(skips)]
        grads = {n: rng.standard_normal(shape) for n, shape in shapes.items() if n not in skip}
        grads["not_held"] = rng.standard_normal(4)
        m_before = opt.state.m.copy()
        v_before = opt.state.v.copy()
        opt.step(grads)
        oracle.step(grads)
        assert opt.state.t == oracle.t == t + 1
        for (name, p), (_, p_ref) in zip(flat, ref):
            sl = slices[name]
            npt.assert_array_equal(p, p_ref)
            npt.assert_array_equal(opt.state.m[sl].reshape(p.shape), oracle.m[name])
            npt.assert_array_equal(opt.state.v[sl].reshape(p.shape), oracle.v[name])
            if name in skip:
                npt.assert_array_equal(opt.state.m[sl], m_before[sl])
                npt.assert_array_equal(opt.state.v[sl], v_before[sl])
    assert opt.state.m.shape == opt.state.v.shape == (26,)


def test_adam_without_parameters_only_counts_steps():
    opt = Adam([], lr=1e-3)
    opt.step({})
    assert opt.state.t == 1
    assert opt.state.m.size == opt.state.v.size == 0


def test_adam_shape_error_moves_nothing():
    w = np.ones((2, 2))
    b = np.ones(3)
    opt = Adam([("w", w), ("b", b)], lr=1e-2)
    with pytest.raises(DimensionError):
        opt.step({"w": np.ones((2, 2)), "b": np.ones((3, 1))})
    npt.assert_array_equal(w, np.ones((2, 2)))
    assert opt.state.t == 0
    assert not opt.state.m.any() and not opt.state.v.any()


def test_adam_rejects_bad_setups():
    p = np.zeros(3)
    with pytest.raises(ConfigError):
        Adam([("p", p), ("p", np.zeros(2))], lr=1e-3)
    with pytest.raises(ConfigError):
        Adam([("p", p)], lr=-1e-3)
    opt = Adam([("p", p)], lr=1e-3)
    with pytest.raises(DimensionError):
        opt.step({"p": np.zeros((3, 1))})


@pytest.mark.parametrize("setting, value", [
    ("lr", math.nan), ("lr", math.inf), ("weight_decay", math.nan),
    ("weight_decay", -math.inf), ("weight_decay", -5.0),
])
def test_adam_refuses_a_non_finite_or_negative_setting(setting, value):
    with pytest.raises(ConfigError, match=f"^Adam {setting} must be finite and >= 0"):
        Adam([("w", np.ones(3))], **{"lr": 1e-3, setting: value})


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
        split_holdout(ds, cfg.holdout_fraction, seed=cfg.seed + 1000 * k)[1]
        for k, ds in enumerate(sources)
    ]
    x_val = np.vstack([v.features for v in vals])
    y_val = np.concatenate([v.labels for v in vals])
    assert report.val_accuracy == classification_accuracy(enc, clf, x_val, y_val)


def test_training_improves_holdout_accuracy():
    sources, enc, clf = _tiny_task(4)
    cfg = TrainConfig(lr=1e-2, epochs=8, seed=4)
    vals = [
        split_holdout(ds, cfg.holdout_fraction, seed=cfg.seed + 1000 * k)[1]
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
        assert all(norm.cache is None for norm in enc.norms)


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

    trains = [split_holdout(ds, cfg.holdout_fraction, seed=cfg.seed + 1000 * k)[0]
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
        TrainConfig(holdout_fraction=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(weight_decay=-0.1).validate()


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
