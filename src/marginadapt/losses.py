"""Adaptation objectives and their analytic gradients.

Two terms, both computed per batch:

* marginal_loss -- hinge on the squared feature distance to the frozen
                   source representation; keeps the adapted encoder inside
                   a margin of the source.
* entropy_loss  -- mean Shannon entropy of the softmax predictions.

Each returns (value, gradient); gradients are exact, not estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InputError, NumericalFailure
from .numeric import Array


@dataclass
class LossReport:
    """Per-step record of the objective. `total` is whatever the step
    optimized; for the combined method it equals l_e + lambda_weight * l_m.
    `hinge_rows` counts the batch rows whose hinge gradient is nonzero, the
    rows outside the margin. It is 0 when the margin is off; when the margin
    is on and it is 0, l_m is 0.0 and the step added no hinge gradient."""

    l_m: float
    l_e: float
    total: float
    hinge_rows: int = 0


def marginal_loss(adapted: Array, source: Array, sigma: float):
    """Margin hinge on squared feature drift.

    value = mean_i max(||a_i - s_i||^2 - sigma, 0). Rows inside the margin
    contribute exactly zero loss and exactly zero gradient; active rows get
    gradient (2/N)(a_i - s_i) w.r.t. the adapted features.
    """
    if adapted.shape != source.shape:
        raise DimensionError(
            f"marginal_loss: shapes differ, {adapted.shape} vs {source.shape}"
        )
    if sigma < 0.0:
        raise ConfigError(f"marginal_loss: sigma must be >= 0, got {sigma}")
    n = adapted.shape[0]
    diff = adapted - source
    dist_sq = np.add.reduce(diff * diff, axis=1)
    active = dist_sq > sigma
    value = float(np.add.reduce(np.maximum(dist_sq - sigma, 0.0)) / n)
    grad = np.where(active[:, None], (2.0 / n) * diff, 0.0)
    if not math.isfinite(value):
        raise NumericalFailure("marginal_loss: non-finite value")
    return value, grad


def entropy_loss(probs: Array):
    """Mean Shannon entropy of prediction rows, with its gradient w.r.t. the
    logits that produced them (the fused softmax+entropy backward).

    value = -(1/N) sum_i sum_c p log p, with 0 log 0 = 0.
    dL/dz_ic = -(1/N) p_ic (log p_ic + H_i).
    """
    if (probs < 0.0).any():
        raise InputError("entropy_loss: probabilities must be nonnegative")
    row_sums = probs.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-6:
        raise InputError(
            "entropy_loss: rows must sum to 1 within 1e-6 "
            f"(worst deviation {np.abs(row_sums - 1.0).max():.3e})"
        )
    n = probs.shape[0]
    logp = np.where(probs > 0.0, np.log(np.maximum(probs, 1e-300)), 0.0)
    row_entropy = -(probs * logp).sum(axis=1)
    value = float(row_entropy.mean())
    grad_logits = -(probs * (logp + row_entropy[:, None])) / n
    if not np.isfinite(value):
        raise NumericalFailure("entropy_loss: non-finite value")
    return value, grad_logits
