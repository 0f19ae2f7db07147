"""Adaptation objectives and their analytic gradients.

Two terms, both computed per batch:

* marginal_loss -- hinge on the squared feature distance to the frozen
                   source representation; keeps the adapted encoder inside
                   a margin of the source.
* entropy_loss  -- mean Shannon entropy of the softmax predictions.

Each returns (value, gradient); gradients are exact, not estimated. Both
keep `numeric`'s ufunc rule. A batch with no row outside the margin
returns the hinge's (0.0, zeros) without computing it. Both refuse a batch
of no rows (DataError) before any arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError, InputError, NumericalFailure
from .numeric import _CHECKED, Array


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
    if n == 0:
        raise DataError("marginal_loss: empty batch")
    try:
        diff = adapted - source
        dist_sq = np.add.reduce(diff * diff, axis=1)
        if np.maximum.reduce(dist_sq) <= sigma:
            # no row outside the margin: the general form's exact (0.0, zeros);
            # a NaN distance fails the test and is caught below
            return 0.0, np.zeros(adapted.shape)
        active = dist_sq > sigma
        value = float(np.add.reduce(np.maximum(dist_sq - sigma, 0.0)) / n)
        grad = np.where(active[:, None], (2.0 / n) * diff, 0.0)
    except FloatingPointError as e:
        raise NumericalFailure("marginal_loss: non-finite value") from e
    if not math.isfinite(value):
        raise NumericalFailure("marginal_loss: non-finite value")
    return value, grad


def row_entropies(probs: Array):
    """(log p with 0 where p is 0, each row's Shannon entropy), 0 log 0 = 0."""
    logp = np.where(probs > 0.0, np.log(np.maximum(probs, 1e-300)), 0.0)
    return logp, -np.add.reduce(probs * logp, axis=1)


def entropy_loss(probs: Array):
    """Mean Shannon entropy of prediction rows, with its gradient w.r.t. the
    logits that produced them (the fused softmax+entropy backward).

    value = -(1/N) sum_i sum_c p log p, with 0 log 0 = 0.
    dL/dz_ic = -(1/N) p_ic (log p_ic + H_i).

    The rows must be nonnegative and sum to 1 within 1e-6; inside a checked
    step (see numeric) that is not checked, since the step's softmax made
    them.
    """
    n = probs.shape[0]
    if n == 0:
        raise DataError("entropy_loss: empty batch")
    if not _CHECKED.get():
        if np.minimum.reduce(probs, axis=None, initial=0.0) < 0.0:
            raise InputError("entropy_loss: probabilities must be nonnegative")
        worst = np.maximum.reduce(np.abs(np.add.reduce(probs, axis=1) - 1.0))
        if worst > 1e-6:
            raise InputError(
                f"entropy_loss: rows must sum to 1 within 1e-6 (worst deviation {worst:.3e})"
            )
    logp, row_entropy = row_entropies(probs)
    value = float(np.add.reduce(row_entropy) / n)
    grad_logits = -(probs * (logp + row_entropy[:, None])) / n
    if not math.isfinite(value):
        raise NumericalFailure("entropy_loss: non-finite value")
    return value, grad_logits
