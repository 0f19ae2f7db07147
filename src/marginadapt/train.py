"""Source-domain supervised training: Adam, cross-entropy, ERM loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .data import split_holdout
from .errors import ConfigError, DataError, DimensionError, NumericalFailure
from .model import classification_accuracy, pack, step_context
from .numeric import _CHECKED, Array, _finite, check_settings, non_finite, softmax_rows


# the share of each source domain that ERM holds out to pick its best epoch
HOLDOUT_FRACTION = 0.2


@dataclass
class TrainConfig:
    """ERM's settings. Each domain's holdout share is `HOLDOUT_FRACTION`."""

    lr: float = 5e-5
    batch_size: int = 32
    epochs: int = 40
    seed: int = 0

    def validate(self) -> "TrainConfig":
        check_settings(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # lr == 0 is allowed: it is the documented "no update" degenerate case
        if self.lr < 0.0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        return self


class Adam:
    """Adam with bias correction over one parameter vector, with the usual
    constants beta1 = 0.9, beta2 = 0.999 and eps = 1e-8, and no weight
    decay.

    `params` and `grads` are 1-D float64 arrays of one shape, in practice the
    same contiguous slice of a packed network's value and gradient vectors
    (see `model.pack`). The caller fills `grads` (a backward writes into it)
    and `step()` updates `params` in place from it. A step is whole-vector
    ufuncs only, in the formulas' usual order: the moment update and the
    step write through `out=` into two scratch buffers allocated with the
    moments, so a step allocates no temporaries (`numeric`'s ufunc rule).
    A zero gradient on fresh moments gives an exactly zero update. First
    step with constant gradient g moves by lr * g / (|g| + eps), i.e. ~lr
    per coordinate. `m` and `v` hold the first and second moments, one per
    coordinate, and `t` counts the steps taken. Outside a checked step (see
    numeric) a step scans the second moment and the updated parameters, so
    a gradient whose square overflows fails here, as in a checked step."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, grads, lr):
        if not 0.0 <= lr < math.inf:  # also refuses NaN
            raise ConfigError(f"Adam lr must be finite and >= 0, got {lr}")
        vectors = all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == np.float64
                      for a in (params, grads))
        if not (vectors and params.shape == grads.shape):
            raise DimensionError(
                "Adam: parameters and gradients must be 1-D float64 arrays of one "
                f"shape, got {np.shape(params)} and {np.shape(grads)}")
        self.params = params
        self.grads = grads
        self.lr = lr
        self.t = 0
        self.m, self.v = np.zeros(params.size), np.zeros(params.size)
        # scratch for the moment update and the step
        self._s, self._u = np.zeros(params.size), np.zeros(params.size)

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        s, u = self._s, self._u
        g = self.grads
        try:
            m, v = self.m, self.v
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, 1.0 - self.beta1, out=s)
            np.add(m, s, out=m)
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, g, out=s)
            np.multiply(s, 1.0 - self.beta2, out=s)
            _finite(np.add(v, s, out=v), "Adam.step")
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=s)
            np.multiply(s, self.lr, out=s)
            np.divide(v, c2, out=u)
            np.sqrt(u, out=u)
            np.add(u, self.eps, out=u)
            np.divide(s, u, out=s)
            _finite(np.subtract(self.params, s, out=self.params), "Adam.step")
        except FloatingPointError as e:
            raise non_finite("Adam.step") from e


def cross_entropy_loss(probs: Array, labels):
    """Mean negative log-likelihood of the labeled class, with the fused
    gradient w.r.t. logits: (p - onehot) / N.

    The labels must be integers, and a batch of no rows is refused. The
    labeled probabilities are `np.add.reduce(probs * onehot, axis=1)` and
    the gradient `probs - onehot`, with one row of a cached read-only
    identity per label as the one-hot row: p * 1 and exact zeros add to p,
    and p - 0.0 is p, so the values are those of indexing the labeled
    entries, bit for bit. Inside a checked step (see numeric) the labels are
    not range-checked, since the trainer checked them (ERM) or the step made
    them (argmax labels); the shape and dtype checks always run."""
    y = np.asarray(labels)
    n, c = probs.shape
    if n == 0:
        raise DataError("cross_entropy_loss: empty batch")
    if y.shape != (n,):
        raise DimensionError(f"cross_entropy_loss: labels shape {y.shape} != ({n},)")
    if y.dtype.kind not in "iu":
        raise DataError(f"cross_entropy_loss: labels must be integers, got dtype {y.dtype}")
    if not _CHECKED.get():
        _check_labels(y, c)
    onehot = _identity(c).take(y, axis=0)
    log_picked = np.log(np.maximum(np.add.reduce(probs * onehot, axis=1), 1e-300))
    value = float(-(np.add.reduce(log_picked) / n))
    grad_logits = probs - onehot
    grad_logits /= n
    if not math.isfinite(value):
        raise NumericalFailure("cross_entropy_loss: non-finite value")
    return value, grad_logits


def _check_labels(labels: Array, num_classes: int) -> None:
    if labels.size and (np.minimum.reduce(labels) < 0
                        or np.maximum.reduce(labels) >= num_classes):
        raise DataError(f"cross_entropy_loss: labels outside [0, {num_classes})")


@lru_cache
def _identity(c: int) -> Array:
    eye = np.eye(c)
    eye.flags.writeable = False
    return eye


@dataclass
class TrainReport:
    val_accuracy: float
    best_epoch: int
    loss_history: list = field(default_factory=list)
    val_history: list = field(default_factory=list)


def _pool(datasets):
    feats = np.vstack([d.features for d in datasets])
    labels = np.concatenate([d.labels for d in datasets])
    return feats, labels


def _pooled_splits(sources, cfg: TrainConfig):
    """Each domain's train/holdout split, pooled across domains as
    ((x_train, y_train), (x_val, y_val)). The per-domain splits are freed on
    return, so training holds only the pooled copies."""
    trains, vals = [], []
    for k, ds in enumerate(sources):
        tr, va = split_holdout(ds, HOLDOUT_FRACTION, seed=cfg.seed + 1000 * k)
        trains.append(tr)
        vals.append(va)
    return _pool(trains), _pool(vals)


def train_source_erm(encoder, classifier, sources, cfg: TrainConfig) -> TrainReport:
    """Pooled empirical-risk training over the source domains.

    Each domain is split into train/holdout; training minimizes softmax
    cross-entropy with Adam; the parameters kept at the end are from the
    epoch with the best holdout accuracy (ties keep the earlier epoch).
    epochs=0 leaves the model exactly at its initialization. Norm layers need
    batch statistics, so an encoder with them needs batch_size >= 2, and a
    one-row last batch of an epoch is skipped.

    Training checks what it steps on once, as it starts: the labels against
    the classifier's classes (DataError, before any parameter moves), when
    a step will run, and the pooled training rows and the parameters in
    `model.step_context`. Each epoch's steps then run in one checked step
    (see numeric), as `step_context` decides; a failure names its epoch and
    step.

    Training packs the model in place (see `model.pack`) and steps its
    whole vector with one Adam, so on return each learnable array of the
    caller's model is a view of that vector. A failed step leaves the model
    in the state it failed in. A frozen model (read-only arrays, as a
    `ModelPair`'s source) is refused (ConfigError) before anything moves.
    """
    cfg.validate()
    if not sources:
        raise DataError("train_source_erm: no source domains given")
    norm = encoder.has_norm_layers
    if norm and cfg.batch_size < 2:
        raise ConfigError(
            f"batch_size must be >= 2 for an encoder with norm layers, got {cfg.batch_size}"
        )
    (x_train, y_train), (x_val, y_val) = _pooled_splits(sources, cfg)
    flat = pack(encoder, classifier)
    opt = Adam(flat.values, flat.grads, lr=cfg.lr)
    checked = step_context(encoder, classifier, cfg.batch_size, x_train)
    rng = np.random.default_rng(cfg.seed)

    def state():
        return [a for _, a in encoder.state_arrays() + classifier.parameters()]

    best_acc = classification_accuracy(encoder, classifier, x_val, y_val)
    best = [a.copy() for a in state()]
    best_epoch = -1
    loss_history = []
    val_history = []

    n = x_train.shape[0]
    bs = cfg.batch_size
    if cfg.epochs and n >= (2 if norm else 1):  # a step will run
        _check_labels(y_train, classifier.num_classes)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        # one gather per epoch; each batch is then a contiguous slice of it
        x_epoch, y_epoch = x_train[order], y_train[order]
        try:
            with checked():
                for step, start in enumerate(range(0, n, bs)):
                    xb = x_epoch[start : start + bs]
                    if norm and xb.shape[0] < 2:
                        continue  # a single row cannot feed batch statistics
                    feats = encoder.encode(xb, mode="train")
                    probs = softmax_rows(classifier.logits(feats))
                    loss, g_logits = cross_entropy_loss(probs, y_epoch[start : start + bs])
                    encoder.backward(classifier.backward(feats, g_logits))
                    encoder.update_running_stats()
                    opt.step()
                    loss_history.append(loss)
        except NumericalFailure as e:
            msg = f"training aborted at epoch {epoch}, step {step}: {e}"
            raise NumericalFailure(msg) from e
        acc = classification_accuracy(encoder, classifier, x_val, y_val)
        val_history.append(acc)
        if acc > best_acc:
            best_acc = acc
            best = [a.copy() for a in state()]
            best_epoch = epoch
    for live, arr in zip(state(), best):
        live[...] = arr
    return TrainReport(
        val_accuracy=best_acc,
        best_epoch=best_epoch,
        loss_history=loss_history,
        val_history=val_history,
    )
