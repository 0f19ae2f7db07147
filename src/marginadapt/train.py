"""Source-domain supervised training: Adam, cross-entropy, ERM loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import split_holdout
from .errors import ConfigError, DataError, DimensionError, NumericalFailure
from .model import classification_accuracy
from .numeric import Array, check_finite_settings, softmax_rows


@dataclass
class TrainConfig:
    lr: float = 5e-5
    weight_decay: float = 0.0
    batch_size: int = 32
    epochs: int = 40
    holdout_fraction: float = 0.2
    seed: int = 0

    def validate(self) -> "TrainConfig":
        check_finite_settings(self, ("lr", "weight_decay"))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # lr == 0 is allowed: it is the documented "no update" degenerate case
        if self.lr < 0.0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError(
                f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction}"
            )
        return self


@dataclass
class AdamState:
    m: np.ndarray  # flat first moments, one fixed slice per parameter
    v: np.ndarray  # flat second moments, same slices
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class Adam:
    """Adam with bias correction over one flat moment buffer.

    Parameters are (name, array) pairs updated in place; the arrays stay
    owned by the caller. Each parameter holds a fixed slice of the flat
    moment buffers, in the order given. A step gathers the gradients into
    one flat buffer, runs the moment update and the step once over it, and
    scatters the step back into the parameters; gather and scatter go
    through views of each parameter's slice, shaped like it and made once,
    and the step lands in a flat buffer allocated with the moments (with
    weight decay it first gathers the parameters). The moment update and the
    step write through `out=` into two scratch buffers, also allocated with
    the moments, with the formulas' operations in their usual order, so a
    step allocates no temporaries and its values are bit for bit those of
    the out-of-place expressions. A parameter missing from the gradient dict
    is left untouched for that step, its moments included; a zero gradient
    on fresh moments gives an exactly zero update. Either way the step
    counter advances. A gradient of the wrong shape raises before anything
    moves. First step with constant gradient g moves by lr * g / (|g| + eps),
    i.e. ~lr per coordinate."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        for name, value in (("lr", lr), ("weight_decay", weight_decay)):
            if not 0.0 <= value < math.inf:  # also refuses NaN
                raise ConfigError(f"Adam {name} must be finite and >= 0, got {value}")
        self.params = list(params)
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate parameter names: {sorted(names)}")
        self.lr = lr
        self.weight_decay = weight_decay
        self._slices = []
        size = 0
        for _, p in self.params:
            self._slices.append(slice(size, size + p.size))
            size += p.size
        self._g = np.zeros(size)
        self._a = np.zeros(size)
        # scratch for the moment update and the step
        self._s = np.zeros(size)
        self._u = np.zeros(size)
        # each parameter's slice of _g and of _a, viewed in its own shape
        self._views = [(self._g[sl].reshape(p.shape), self._a[sl].reshape(p.shape))
                       for (_, p), sl in zip(self.params, self._slices)]
        self.state = AdamState(
            m=np.zeros(size), v=np.zeros(size), beta1=beta1, beta2=beta2, eps=eps,
        )

    def step(self, grads: dict) -> None:
        held = []
        for (name, p), (g_view, a_view), sl in zip(self.params, self._views, self._slices):
            g = grads.get(name)
            if g is None:
                continue
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.shape:
                raise DimensionError(
                    f"Adam: gradient for {name} has shape {g.shape}, param {p.shape}"
                )
            g_view[...] = g
            if self.weight_decay:
                a_view[...] = p
            held.append((p, a_view, sl))
        mask = True
        if len(held) < len(self.params):
            mask = np.zeros(self._g.shape, dtype=bool)
            for _, _, sl in held:
                mask[sl] = True

        st = self.state
        st.t += 1
        c1 = 1.0 - st.beta1 ** st.t
        c2 = 1.0 - st.beta2 ** st.t
        s, u = self._s, self._u
        g = self._g
        if self.weight_decay:
            # g + weight_decay * p, held in u until v is updated (_a holds p)
            np.multiply(self._a, self.weight_decay, out=u)
            g = np.add(g, u, out=u)
        m, v = st.m, st.v
        np.multiply(m, st.beta1, out=m, where=mask)
        np.multiply(g, 1.0 - st.beta1, out=s)
        np.add(m, s, out=m, where=mask)
        np.multiply(v, st.beta2, out=v, where=mask)
        np.multiply(g, g, out=s)
        np.multiply(s, 1.0 - st.beta2, out=s)
        np.add(v, s, out=v, where=mask)
        # lr * (m / c1) / (sqrt(v / c2) + eps), landing in _a, which the
        # per-parameter views read
        np.divide(m, c1, out=s)
        np.multiply(s, self.lr, out=s)
        np.divide(v, c2, out=u)
        np.sqrt(u, out=u)
        np.add(u, st.eps, out=u)
        np.divide(s, u, out=self._a)
        for p, a_view, _ in held:
            p -= a_view


def cross_entropy_loss(probs: Array, labels):
    """Mean negative log-likelihood of the labeled class, with the fused
    gradient w.r.t. logits: (p - onehot) / N."""
    y = np.asarray(labels)
    n, c = probs.shape
    if y.shape != (n,):
        raise DimensionError(f"cross_entropy_loss: labels shape {y.shape} != ({n},)")
    if y.size and (np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= c):
        raise DataError(f"cross_entropy_loss: labels outside [0, {c})")
    rows = np.arange(n)
    log_picked = np.log(np.maximum(probs[rows, y], 1e-300))
    value = float(-(np.add.reduce(log_picked) / n))
    grad_logits = probs.copy()
    grad_logits[rows, y] -= 1.0
    grad_logits /= n
    if not np.isfinite(value):
        raise NumericalFailure("cross_entropy_loss: non-finite value")
    return value, grad_logits


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


def train_source_erm(encoder, classifier, sources, cfg: TrainConfig) -> TrainReport:
    """Pooled empirical-risk training over the source domains.

    Each domain is split into train/holdout; training minimizes softmax
    cross-entropy with Adam; the parameters kept at the end are from the
    epoch with the best holdout accuracy (ties keep the earlier epoch).
    epochs=0 leaves the model exactly at its initialization. Norm layers need
    batch statistics, so an encoder with them needs batch_size >= 2, and a
    one-row last batch of an epoch is skipped.
    """
    cfg.validate()
    if not sources:
        raise DataError("train_source_erm: no source domains given")
    norm = encoder.has_norm_layers
    if norm and cfg.batch_size < 2:
        raise ConfigError(
            f"batch_size must be >= 2 for an encoder with norm layers, got {cfg.batch_size}"
        )
    trains, vals = [], []
    for k, ds in enumerate(sources):
        tr, va = split_holdout(ds, cfg.holdout_fraction, seed=cfg.seed + 1000 * k)
        trains.append(tr)
        vals.append(va)
    x_train, y_train = _pool(trains)
    x_val, y_val = _pool(vals)

    params = encoder.parameters() + classifier.parameters()
    opt = Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)

    def snapshot():
        return [(n, a.copy()) for n, a in encoder.state_arrays() + classifier.parameters()]

    def restore(snap):
        live = dict(encoder.state_arrays() + classifier.parameters())
        for name, arr in snap:
            live[name][...] = arr

    best_acc = classification_accuracy(encoder, classifier, x_val, y_val)
    best_snap = snapshot()
    best_epoch = -1
    loss_history = []
    val_history = []

    n = x_train.shape[0]
    bs = cfg.batch_size
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        # one gather per epoch; each batch is then a contiguous slice of it
        x_epoch, y_epoch = x_train[order], y_train[order]
        for step, start in enumerate(range(0, n, bs)):
            xb = x_epoch[start : start + bs]
            if norm and xb.shape[0] < 2:
                continue  # a single row cannot feed batch statistics
            yb = y_epoch[start : start + bs]
            try:
                feats = encoder.encode(xb, mode="train")
                probs = softmax_rows(classifier.logits(feats))
                loss, g_logits = cross_entropy_loss(probs, yb)
                gz, cgrads = classifier.backward(feats, g_logits)
                egrads = encoder.backward(gz)
                encoder.update_running_stats()
                opt.step({**egrads, **cgrads})
            except NumericalFailure as e:
                msg = f"training aborted at epoch {epoch}, step {step}: {e}"
                raise NumericalFailure(msg) from e
            loss_history.append(loss)
        acc = classification_accuracy(encoder, classifier, x_val, y_val)
        val_history.append(acc)
        if acc > best_acc:
            best_acc = acc
            best_snap = snapshot()
            best_epoch = epoch
    restore(best_snap)
    return TrainReport(
        val_accuracy=best_acc,
        best_epoch=best_epoch,
        loss_history=loss_history,
        val_history=val_history,
    )
