"""Dense float64 array ops with hand-written gradients.

Plain numpy throughout; no graphs, no autodiff.

What a forward leaves behind has one owner, its caller. The ops keep no
state: a `NormLayerState` is its four arrays, which `batchnorm_forward`
only reads, and a 2-D norm forward returns its `NormStats` beside its
output. `MlpEncoder.encode` keeps them, with each layer's input and
pre-relu activation, in its one layer cache when it retains (a 2-D
train-mode forward by default); `MlpEncoder.backward` and
`MlpEncoder.update_running_stats` read that cache and refuse to run
without it. A forward that does not retain keeps nothing.

Each value is checked for NaN/Inf once. Ops check what they produce (relu
maps finite to finite) and raise NumericalFailure naming themselves; they
check only the shapes of their inputs, so callers pass finite float64
arrays of the right rank. Values entering the package are checked at its
entry points: `DomainDataset`, `NormLayerState`, the `LinearClassifier`
constructor, `MlpEncoder.encode`'s input, `diagnostics`, `load_checkpoint`.

A trainer checks what it steps on once, as it starts: `model.step_context`
scans its parameters and the rows it will step on (ERM's pooled training
rows, a pass's target rows), and ERM checks its labels against the
classifier's classes. Its steps then run inside `checked_step`, which it
enters once per ERM epoch or once per run of batches that a pass steps on,
and a checked step skips the value checks of what the trainer checked or
the step made: `as_matrix` does not scan the rows `encode` is given, and
`cross_entropy_loss`, `entropy_loss` and `memory.insert_and_select` do not
check the labels, probabilities or entropies they are given. Shape checks
and the cheap label dtype check run in every call.

An op checks its output in one of two ways. Called on its own, it scans
the output (`_finite`). Inside `checked_step` it does not scan: the step
runs under `np.errstate(over="raise", invalid="raise", divide="raise")`,
so the first ufunc or product that makes an Inf or a NaN raises
FloatingPointError, and the op turns it into the NumericalFailure its scan
would raise. So do the other functions a step calls whose arithmetic can
overflow: `logits`, `marginal_loss`, `Adam.step` and `compute_prototypes`.
Any other FloatingPointError fails the step as `non-finite step
arithmetic`.

Flags see only what is computed, in the calling thread. A NaN already in a
parameter or a row spreads without a flag, and OpenBLAS runs a product of
more than `FLAGGED_PRODUCT_MAX` multiply-adds in worker threads, whose
flags numpy never reads. So a trainer enters `checked_step` only when
`model.step_context` finds the parameters and rows finite as it starts and
the step's largest product within that bound; otherwise every op scans,
and every input is checked, as when called on its own. Flags also fire on
an intermediate whose overflow the output would hide, so a scanning op
also scans that intermediate, and fails where a checked one fails:
`batchnorm_forward` its batch variance (an inf variance normalises the
column to 0), `Adam.step` its second moment (an inf moment freezes the
coordinate) and `compute_prototypes` its class sums. One difference is
left: a checked `softmax_rows` refuses a logit range past the float range,
where a scan sees finite probabilities (0 for the classes far below the
maximum).

Batch normalization takes its statistics once per forward: the batch is
centred once and that centred batch gives both the variance and x_hat, by
the same reductions `np.mean` and `np.var` run, so the values are theirs
bit for bit. Its statistics carry `denom = sqrt(var + NORM_EPS)` for the
backward. Every norm layer runs with `NORM_EPS` and `NORM_MOMENTUM`.

The ufunc rule, which every module keeps: code calls the ufuncs behind
the array methods (`np.add.reduce` for `.sum` and `.mean`'s sum,
`np.maximum.reduce` and `np.minimum.reduce` for `.max` and `.min`,
`arr.argsort` and `arr.argmax` for `np.argsort` and `np.argmax`) and writes
in place or through `out=` where that saves a temporary, and the values are
those of the method and out-of-place forms, bit for bit. A step's scalars
enter its ufuncs as read-only float64 0-d arrays (`operand`: constants built
once, a batch count once per value), with the values of the Python scalars
they stand for: numpy 2.4.6 converts a Python scalar operand on every call,
which on a 32x48 array costs 0.2-0.7 us a call (`np.maximum(x, 0.0)` 1.26
against 0.94 us, `x / 32` 2.28 against 1.61 us), and `np.argmax`'s wrapper
costs 1.4 us more than the method. The hot ops here add biases in place.
`linear_backward` is `linear_param_grads` (the w and b gradients) plus
`linear_input_grad` (the x gradient); a backward that needs only some of
them (the encoder's `norm_only` pass needs no w or b gradient) calls only
those, and a failure in either is reported as linear_backward's.
`batchnorm_param_grads` is likewise `batchnorm_backward` without the input
gradient. The parameter-gradient ops take an `out` pair of arrays, so a
model writes its gradients straight into its own gradient storage (see
`model.pack`); the values are those of the allocating calls bit for bit.

The forward ops (`linear_forward`, `batchnorm_forward`, `relu_forward`,
`softmax_rows`) also take a (B, n, d) stack of B batches. Each slice gets
the value its own 2-D call would give, bit for bit: numpy's stacked matmul
runs the same product per slice, and reductions over the last two axes run
per slice in the same order. Train-mode normalization takes each slice's
own batch statistics, and returns none.
"""

from __future__ import annotations

import math
import numbers
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BatchTooSmallError,
    ConfigError,
    DimensionError,
    NumericalFailure,
)

Array = np.ndarray

_CHECKED = ContextVar("marginadapt_checked_step", default=False)


def as_matrix(x, name: str = "array", stacked: bool = False) -> Array:
    """Coerce a value entering the package to a 2-D float64 array, or with
    `stacked` also to a (B, n, d) stack of them; reject wrong rank and
    non-finite entries. Ops do not call it on their inputs. Inside a
    checked step it checks the rank only: the trainer that entered the step
    scanned the rows it steps on (see the module docstring)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 and not (stacked and a.ndim == 3):
        ranks = "2-D or 3-D" if stacked else "2-D"
        raise DimensionError(f"{name}: expected a {ranks} array, got shape {a.shape}")
    if not _CHECKED.get() and np.count_nonzero(np.isfinite(a)) != a.size:
        raise NumericalFailure(f"{name}: contains NaN or Inf")
    return a


def as_vector(x, name: str = "array") -> Array:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"{name}: expected a 1-D array, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise NumericalFailure(f"{name}: contains NaN or Inf")
    return a


# OpenBLAS runs a product of at most 65536 * 4 multiply-adds (its
# SMP_THRESHOLD_MIN times the default GEMM_MULTITHREAD_THRESHOLD) in the
# calling thread; the floating-point flags of a larger one's worker threads
# are lost (an overflow in the last of 512 rows of a 48-wide product goes
# unflagged with 2 threads)
FLAGGED_PRODUCT_MAX = 65536 * 4

class checked_step:
    """Steps of a trainer whose every non-finite value raises a
    floating-point flag (see the module docstring), entered once per ERM
    epoch or run of steps: inside it ops do not scan their outputs, nor the
    values the trainer checked as it started, and a FloatingPointError that
    no op names becomes a NumericalFailure."""

    __slots__ = ("_errstate", "_token")

    def __enter__(self):
        self._errstate = np.errstate(over="raise", invalid="raise", divide="raise")
        self._errstate.__enter__()
        self._token = _CHECKED.set(True)

    def __exit__(self, kind, err, tb):
        _CHECKED.reset(self._token)
        self._errstate.__exit__(kind, err, tb)
        if isinstance(err, FloatingPointError):
            raise NumericalFailure(f"non-finite step arithmetic: {err}") from err


def non_finite(op: str) -> NumericalFailure:
    return NumericalFailure(f"{op}: produced non-finite values")


def _finite(out: Array, op: str) -> Array:
    # count_nonzero has a Python-level wrapper and dispatcher too, but is still
    # cheaper than `.all()`: 1.5 vs 2.2 us on a 32x48 array (numpy 2.4.6)
    if not _CHECKED.get() and np.count_nonzero(np.isfinite(out)) != out.size:
        raise non_finite(op)
    return out


def operand(value) -> Array:
    """`value` as a read-only float64 0-d array: what a ufunc takes in place
    of a Python scalar (the ufunc rule)."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


# `operand` built once per value, for values that change from call to call
# (batch counts) but are never zero: -0.0 and 0.0 would share one array
cached_operand = lru_cache(operand)


_ZERO, _TINY = operand(0.0), operand(1e-300)


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
    try:
        out = x @ w
        out += b
    except FloatingPointError as e:
        raise non_finite("linear_forward") from e
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
    try:
        return _finite(upstream @ w.T, "linear_backward")
    except FloatingPointError as e:
        raise non_finite("linear_backward") from e


def linear_param_grads(x: Array, w: Array, upstream: Array, out=None):
    """The w and b gradients of `linear_backward`, without the x gradient,
    written into `out`, a (gw, gb) pair of arrays, when given. Failures are
    reported as linear_backward's."""
    if upstream.shape != (x.shape[0], w.shape[1]):
        raise DimensionError(
            f"linear_backward: upstream shape {upstream.shape} != {(x.shape[0], w.shape[1])}"
        )
    gw, gb = (None, None) if out is None else out
    try:
        gw = np.matmul(x.T, upstream, out=gw)
        gb = np.add.reduce(upstream, axis=0, out=gb)
    except FloatingPointError as e:
        raise non_finite("linear_backward") from e
    return _finite(gw, "linear_backward"), _finite(gb, "linear_backward")


def relu_forward(x: Array) -> Array:
    return np.maximum(x, _ZERO)


def relu_backward(x: Array, upstream: Array) -> Array:
    """Subgradient 0 at exactly 0."""
    if upstream.shape != x.shape:
        raise DimensionError(
            f"relu_backward: upstream shape {upstream.shape} != input shape {x.shape}"
        )
    return np.where(x > _ZERO, upstream, _ZERO)


def softmax_rows(z: Array) -> Array:
    """Row-wise softmax with max subtraction for overflow safety."""
    try:
        shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
        e = np.exp(shifted)
        return _finite(e / np.add.reduce(e, axis=-1, keepdims=True), "softmax_rows")
    except FloatingPointError as err:
        raise non_finite("softmax_rows") from err


# ---------------------------------------------------------------------------
# batch normalization


# what a config field of each annotation (a string under `from __future__
# import annotations`) holds; numpy's numbers pass, and a bool is no number
_SETTING_KINDS = {"int": (numbers.Integral, "an integer"),
                  "int | None": ((numbers.Integral, type(None)), "an integer or None"),
                  "float": (numbers.Real, "a real number"),
                  "bool": (bool, "a bool"), "str": (str, "a string")}


def check_settings(config) -> None:
    """Refuse a field not of its annotated type, or a float field that is not
    finite, by name, before any range check or computation sees the value;
    then a negative seed, which every settings class has."""
    for f in fields(config):
        value = getattr(config, f.name)
        types, kind = _SETTING_KINDS[f.type]
        if not isinstance(value, types) or isinstance(value, bool) != (f.type == "bool"):
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")


# what every norm layer runs with
NORM_EPS = 1e-5
NORM_MOMENTUM = 0.1
_NORM_EPS, _NORM_MOMENTUM = operand(NORM_EPS), operand(NORM_MOMENTUM)
_NORM_KEEP = operand(1.0 - NORM_MOMENTUM)


@dataclass
class NormLayerState:
    """A norm layer's arrays: the affine params and the running statistics.
    What a forward leaves behind is its caller's (see the module
    docstring)."""

    gamma: Array
    beta: Array
    running_mean: Array = field(default=None)
    running_var: Array = field(default=None)

    def __post_init__(self):
        self.gamma = as_vector(self.gamma, "gamma")
        self.beta = as_vector(self.beta, "beta")
        if self.gamma.shape != self.beta.shape:
            raise DimensionError("gamma and beta must have the same length")
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
    def create(cls, dim: int):
        return cls(gamma=np.ones(dim), beta=np.zeros(dim))

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def copy(self) -> "NormLayerState":
        return NormLayerState(
            gamma=self.gamma.copy(),
            beta=self.beta.copy(),
            running_mean=self.running_mean.copy(),
            running_var=self.running_var.copy(),
        )


class NormStats(NamedTuple):
    """What a 2-D `batchnorm_forward` leaves for the backward and the fold:
    x_hat, the mean and var it normalized by (the batch's when `batch`,
    else the running ones) and denom = sqrt(var + NORM_EPS)."""

    x_hat: Array
    mean: Array
    var: Array
    denom: Array
    batch: bool


def batchnorm_forward(x: Array, state: NormLayerState, mode: str = "train"):
    """Normalize columns, dividing by sqrt(var + NORM_EPS), and apply the affine
    map. Return the output and the `NormStats` of a 2-D x (None for a stack).

    Train mode uses biased batch statistics (per slice of a stack); eval
    mode uses the running statistics. `state` is only read.
    """
    if x.shape[-1] != state.dim:
        raise DimensionError(
            f"batchnorm_forward: {x.shape[-1]} columns but state has {state.dim}"
        )
    m = x.shape[-2]
    stacked = x.ndim == 3
    try:
        if mode == "train":
            if m < 2:
                raise BatchTooSmallError(
                    f"batchnorm_forward: train mode needs >= 2 rows, got {m}"
                )
            # np.mean and np.var's own arithmetic, with the centring done once
            rows = cached_operand(m)
            mu = np.add.reduce(x, axis=-2, keepdims=stacked) / rows
            xc = x - mu
            var = _finite(np.add.reduce(xc * xc, axis=-2, keepdims=stacked) / rows,
                          "batchnorm_forward")
            denom = np.sqrt(var + _NORM_EPS)
            x_hat = xc / denom
        elif mode == "eval":
            mu, var = state.running_mean, state.running_var
            denom = np.sqrt(var + _NORM_EPS)
            x_hat = (x - mu) / denom
        else:
            raise ConfigError(f"batchnorm_forward: unknown mode {mode!r}")
        out = state.gamma * x_hat
        out += state.beta
    except FloatingPointError as e:
        raise non_finite("batchnorm_forward") from e
    stats = None if stacked else NormStats(x_hat, mu, var, denom, mode == "train")
    return _finite(out, "batchnorm_forward"), stats


def update_running_stats(state: NormLayerState, mean: Array, var: Array) -> None:
    """Fold a train-mode forward's batch `mean` and `var` into the running stats.

    Exponential moving average: running = (1 - NORM_MOMENTUM) * running +
    NORM_MOMENTUM * batch. Kept separate from the forward pass so that
    inference-time adaptation can use batch statistics without silently
    drifting the stored ones.
    """
    if mean.shape != (state.dim,) or var.shape != (state.dim,):
        raise DimensionError(f"update_running_stats: statistics of shapes {mean.shape} and "
                             f"{var.shape} for a state of {state.dim} features")
    # in-place so frozen (read-only) stats raise instead of silently rebinding
    try:
        state.running_mean *= _NORM_KEEP
        state.running_mean += _NORM_MOMENTUM * mean
        state.running_var *= _NORM_KEEP
        state.running_var += _NORM_MOMENTUM * var
    except FloatingPointError as e:
        raise non_finite("update_running_stats") from e


def batchnorm_backward(state: NormLayerState, stats: NormStats, upstream: Array, out=None):
    """Closed-form gradients through the normalization that left `stats`.

    For batch statistics over m rows:
      gx = (m*g - sum(g) - x_hat * sum(g*x_hat)) / (m*sqrt(var+NORM_EPS))
    with g = upstream*gamma and sqrt(var+NORM_EPS) read from `stats`. Running
    statistics reduce to the affine shortcut gx = g / sqrt(running_var + NORM_EPS).
    ggamma/gbeta are the usual reductions, written into `out`, a (ggamma,
    gbeta) pair of arrays, when given.
    """
    if stats.x_hat.shape[1] != state.dim:
        raise DimensionError(f"batchnorm_backward: statistics of {stats.x_hat.shape[1]} "
                             f"features for a state of {state.dim}")
    ggamma, gbeta = batchnorm_param_grads(stats, upstream, out)
    try:
        gxhat = upstream * state.gamma
        if stats.batch:
            rows = cached_operand(stats.x_hat.shape[0])
            gx = rows * gxhat
            gx -= np.add.reduce(gxhat, axis=0)
            gx -= stats.x_hat * np.add.reduce(gxhat * stats.x_hat, axis=0)
            gx /= rows * stats.denom
        else:
            gx = gxhat / stats.denom
    except FloatingPointError as e:
        raise non_finite("batchnorm_backward") from e
    return _finite(gx, "batchnorm_backward"), ggamma, gbeta


def batchnorm_param_grads(stats: NormStats, upstream: Array, out=None):
    """The gamma and beta gradients of `batchnorm_backward`, without the x
    gradient, written into `out` when given. Failures are reported as
    batchnorm_backward's."""
    if upstream.shape != stats.x_hat.shape:
        raise DimensionError(
            f"batchnorm_backward: upstream shape {upstream.shape} != cached {stats.x_hat.shape}"
        )
    ggamma, gbeta = (None, None) if out is None else out
    try:
        ggamma = np.add.reduce(upstream * stats.x_hat, axis=0, out=ggamma)
        gbeta = np.add.reduce(upstream, axis=0, out=gbeta)
    except FloatingPointError as e:
        raise non_finite("batchnorm_backward") from e
    return _finite(ggamma, "batchnorm_backward"), _finite(gbeta, "batchnorm_backward")
