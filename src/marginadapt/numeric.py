"""Dense float64 array ops with hand-written gradients.

Plain numpy throughout; no graphs, no autodiff. Layers that need state for
their backward pass cache it explicitly.

Each value is checked for NaN/Inf once. Ops check what they produce (relu
maps finite to finite) and raise NumericalFailure naming themselves; they
check only the shapes of their inputs, so callers pass finite float64
arrays of the right rank. Values entering the package are checked at its
entry points: `DomainDataset`, `NormLayerState`, the `LinearClassifier`
constructor, `MlpEncoder.encode`'s input, `diagnostics`, `load_checkpoint`.

Batch normalization takes its statistics once per forward: the batch is
centred once and that centred batch gives both the variance and x_hat, by
the same reductions `np.mean` and `np.var` run, so the values are theirs
bit for bit. The forward caches `denom = sqrt(var + eps)` for the backward.

The hot ops call the ufuncs behind the array methods (`np.add.reduce` for
`.sum`, `np.maximum.reduce` for `.max`) and add biases in place; the values
are those of the method and out-of-place forms bit for bit.
`linear_backward` is `linear_param_grads` (the w and b gradients) plus
`linear_input_grad` (the x gradient); a backward that needs only some of
them calls only those, and a failure in either is reported as
linear_backward's. `batchnorm_param_grads` is likewise `batchnorm_backward`
without the input gradient.

The forward ops (`linear_forward`, `batchnorm_forward`, `relu_forward`,
`softmax_rows`) also take a (B, n, d) stack of B batches. Each slice gets
the value its own 2-D call would give, bit for bit: numpy's stacked matmul
runs the same product per slice, and reductions over the last two axes run
per slice in the same order. Train-mode normalization takes each slice's
own batch statistics.

A forward that does not retain caches nothing: `MlpEncoder.encode` without
`retain_cache` (eval mode by default, or a stacked input) leaves every norm
layer's `cache` at None and keeps no layer cache, so no array outlives the
layer that reads it. Only a retaining forward feeds a backward or
`update_running_stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BatchTooSmallError,
    ConfigError,
    DimensionError,
    NumericalFailure,
    StateError,
)

Array = np.ndarray


def as_matrix(x, name: str = "array", stacked: bool = False) -> Array:
    """Coerce a value entering the package to a 2-D float64 array, or with
    `stacked` also to a (B, n, d) stack of them; reject wrong rank and
    non-finite entries. Ops do not call it on their inputs."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 and not (stacked and a.ndim == 3):
        ranks = "2-D or 3-D" if stacked else "2-D"
        raise DimensionError(f"{name}: expected a {ranks} array, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise NumericalFailure(f"{name}: contains NaN or Inf")
    return a


def as_vector(x, name: str = "array") -> Array:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"{name}: expected a 1-D array, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise NumericalFailure(f"{name}: contains NaN or Inf")
    return a


def _finite(out: Array, op: str) -> Array:
    # count_nonzero has a Python-level wrapper and dispatcher too, but is still
    # cheaper than `.all()`: 1.5 vs 2.2 us on a 32x48 array (numpy 2.4.6)
    if np.count_nonzero(np.isfinite(out)) != out.size:
        raise NumericalFailure(f"{op}: produced non-finite values")
    return out


# ---------------------------------------------------------------------------
# linear / relu / softmax


def linear_forward(x: Array, w: Array, b: Array) -> Array:
    """x @ w + b for a batch of rows, or a stack of batches."""
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(
            f"linear_forward: x has {x.shape[-1]} features but w expects {w.shape[0]}"
        )
    if b.shape[0] != w.shape[1]:
        raise DimensionError(
            f"linear_forward: bias length {b.shape[0]} != output width {w.shape[1]}"
        )
    out = x @ w
    out += b
    return _finite(out, "linear_forward")


def linear_backward(x: Array, w: Array, upstream: Array):
    """Gradients of sum(upstream * (x @ w + b)) w.r.t. x, w, b."""
    gw, gb = linear_param_grads(x, w, upstream)
    return linear_input_grad(w, upstream), gw, gb


def linear_input_grad(w: Array, upstream: Array) -> Array:
    """The x gradient of `linear_backward`, without the w and b gradients.
    Failures are reported as linear_backward's."""
    if upstream.shape[-1] != w.shape[1]:
        raise DimensionError(
            f"linear_backward: upstream width {upstream.shape[-1]} != {w.shape[1]}"
        )
    return _finite(upstream @ w.T, "linear_backward")


def linear_param_grads(x: Array, w: Array, upstream: Array):
    """The w and b gradients of `linear_backward`, without the x gradient.
    Failures are reported as linear_backward's."""
    if upstream.shape != (x.shape[0], w.shape[1]):
        raise DimensionError(
            f"linear_backward: upstream shape {upstream.shape} != {(x.shape[0], w.shape[1])}"
        )
    gw = x.T @ upstream
    gb = np.add.reduce(upstream, axis=0)
    return _finite(gw, "linear_backward"), _finite(gb, "linear_backward")


def relu_forward(x: Array) -> Array:
    return np.maximum(x, 0.0)


def relu_backward(x: Array, upstream: Array) -> Array:
    """Subgradient 0 at exactly 0."""
    if upstream.shape != x.shape:
        raise DimensionError(
            f"relu_backward: upstream shape {upstream.shape} != input shape {x.shape}"
        )
    return np.where(x > 0.0, upstream, 0.0)


def softmax_rows(z: Array) -> Array:
    """Row-wise softmax with max subtraction for overflow safety."""
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return _finite(e / np.add.reduce(e, axis=-1, keepdims=True), "softmax_rows")


# ---------------------------------------------------------------------------
# batch normalization


@dataclass
class _NormCache:
    mode: str
    x_hat: Array
    mean: Array  # batch mean (train) or running mean (eval)
    var: Array  # batch variance (train) or running variance (eval)
    denom: Array  # sqrt(var + eps)
    m: int


def check_norm_settings(eps, momentum) -> None:
    """The norm layers' rule: eps >= 0 and momentum in [0, 1]. A non-numeric
    value raises TypeError."""
    if eps < 0.0:
        raise ConfigError(f"eps must be >= 0, got {eps}")
    if not 0.0 <= momentum <= 1.0:
        raise ConfigError(f"momentum must lie in [0, 1], got {momentum}")


def check_finite_settings(config, names) -> None:
    """Reject NaN or infinity in the named float fields of a config, naming
    the field, before any range check or computation sees the value."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


@dataclass
class NormLayerState:
    """Per-feature normalization state: affine params, running stats, cache."""

    gamma: Array
    beta: Array
    eps: float = 1e-5
    momentum: float = 0.1
    running_mean: Array = field(default=None)
    running_var: Array = field(default=None)
    cache: _NormCache | None = None

    def __post_init__(self):
        self.gamma = as_vector(self.gamma, "gamma")
        self.beta = as_vector(self.beta, "beta")
        if self.gamma.shape != self.beta.shape:
            raise DimensionError("gamma and beta must have the same length")
        check_norm_settings(self.eps, self.momentum)
        if self.running_mean is None:
            self.running_mean = np.zeros_like(self.gamma)
        else:
            self.running_mean = as_vector(self.running_mean, "running_mean")
        if self.running_var is None:
            self.running_var = np.ones_like(self.gamma)
        else:
            self.running_var = as_vector(self.running_var, "running_var")
            if (self.running_var < 0.0).any():
                raise ConfigError("running_var must be nonnegative")

    @classmethod
    def create(cls, dim: int, eps: float = 1e-5, momentum: float = 0.1):
        return cls(gamma=np.ones(dim), beta=np.zeros(dim), eps=eps, momentum=momentum)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def copy(self) -> "NormLayerState":
        """Deep copy of params and running stats; the cache is not carried over."""
        return NormLayerState(
            gamma=self.gamma.copy(),
            beta=self.beta.copy(),
            eps=self.eps,
            momentum=self.momentum,
            running_mean=self.running_mean.copy(),
            running_var=self.running_var.copy(),
        )


def batchnorm_forward(x: Array, state: NormLayerState, mode: str = "train") -> Array:
    """Normalize columns and apply the affine map.

    Train mode uses biased batch statistics (per slice of a stack) and
    stores the backward cache; eval mode uses the running statistics. A
    stacked forward stores no cache. Running statistics are never updated
    here; call update_running_stats explicitly.
    """
    if x.shape[-1] != state.dim:
        raise DimensionError(
            f"batchnorm_forward: {x.shape[-1]} columns but state has {state.dim}"
        )
    m = x.shape[-2]
    stacked = x.ndim == 3
    if mode == "train":
        if m < 2:
            raise BatchTooSmallError(
                f"batchnorm_forward: train mode needs >= 2 rows, got {m}"
            )
        # np.mean and np.var's own arithmetic, with the centring done once
        mu = np.add.reduce(x, axis=-2, keepdims=stacked) / m
        xc = x - mu
        var = np.add.reduce(xc * xc, axis=-2, keepdims=stacked) / m
        denom = np.sqrt(var + state.eps)
        x_hat = xc / denom
    elif mode == "eval":
        mu, var = state.running_mean, state.running_var
        denom = np.sqrt(var + state.eps)
        x_hat = (x - mu) / denom
    else:
        raise ConfigError(f"batchnorm_forward: unknown mode {mode!r}")
    state.cache = None if stacked else _NormCache(
        mode=mode, x_hat=x_hat, mean=mu, var=var, denom=denom, m=m)
    out = state.gamma * x_hat
    out += state.beta
    return _finite(out, "batchnorm_forward")


def update_running_stats(state: NormLayerState) -> None:
    """Fold the cached train-mode batch statistics into the running stats.

    Exponential moving average with the state's momentum. Kept separate from
    the forward pass so that inference-time adaptation can use batch
    statistics without silently drifting the stored ones. Only a retaining
    train-mode forward leaves the statistics to fold; after a forward that
    does not retain (see the module docstring) this raises StateError.
    """
    if state.cache is None or state.cache.mode != "train":
        raise StateError("update_running_stats: no train-mode forward cached")
    c = state.cache
    mom = state.momentum
    # in-place so frozen (read-only) stats raise instead of silently rebinding
    state.running_mean *= 1.0 - mom
    state.running_mean += mom * c.mean
    state.running_var *= 1.0 - mom
    state.running_var += mom * c.var


def batchnorm_backward(state: NormLayerState, upstream: Array):
    """Closed-form gradients through the cached normalization.

    For a train-mode cache with m rows:
      gx = (m*g - sum(g) - x_hat * sum(g*x_hat)) / (m*sqrt(var+eps))
    with g = upstream*gamma and sqrt(var+eps) read from the cache. Eval-mode
    caches reduce to the affine shortcut gx = g / sqrt(running_var + eps).
    ggamma/gbeta are the usual reductions.
    """
    ggamma, gbeta = batchnorm_param_grads(state, upstream)
    c = state.cache
    gxhat = upstream * state.gamma
    if c.mode == "train":
        gx = c.m * gxhat
        gx -= np.add.reduce(gxhat, axis=0)
        gx -= c.x_hat * np.add.reduce(gxhat * c.x_hat, axis=0)
        gx /= c.m * c.denom
    else:
        gx = gxhat / c.denom
    return _finite(gx, "batchnorm_backward"), ggamma, gbeta


def batchnorm_param_grads(state: NormLayerState, upstream: Array):
    """The gamma and beta gradients of `batchnorm_backward`, without the x
    gradient. Failures are reported as batchnorm_backward's."""
    if state.cache is None:
        raise StateError("batchnorm_backward: no forward cache present")
    c = state.cache
    if upstream.shape != c.x_hat.shape:
        raise DimensionError(
            f"batchnorm_backward: upstream shape {upstream.shape} != cached {c.x_hat.shape}"
        )
    ggamma = np.add.reduce(upstream * c.x_hat, axis=0)
    gbeta = np.add.reduce(upstream, axis=0)
    return _finite(ggamma, "batchnorm_backward"), _finite(gbeta, "batchnorm_backward")


def frobenius_distance_sq(a: Array, b: Array) -> float:
    """Squared Frobenius distance ||a - b||_F^2."""
    if a.shape != b.shape:
        raise DimensionError(
            f"frobenius_distance_sq: shapes differ, {a.shape} vs {b.shape}"
        )
    d = a - b
    out = float(np.sum(d * d))
    if not np.isfinite(out):
        raise NumericalFailure("frobenius_distance_sq: produced non-finite value")
    return out
