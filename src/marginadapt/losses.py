"""Adaptation objectives and their analytic gradients.

Three terms, all computed per batch:

* marginal_loss   -- hinge on the squared feature distance to the frozen
                     source representation; keeps the adapted encoder inside
                     a margin of the source.
* entropy_loss    -- mean Shannon entropy of the softmax predictions.
* memory_term_loss -- confidence term on prototype/feature alignment scores,
                     standardized across the batch.

Each returns (value, gradients...); gradients are exact, not estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BatchTooSmallError,
    ConfigError,
    DimensionError,
    InputError,
    NumericalFailure,
    StateError,
)
from .numeric import Array


@dataclass
class LossReport:
    """Per-step record of the objective. `total` is whatever the step
    optimized; for the combined method it equals
    l_e + lambda_weight * l_m (+ l_i when that term is enabled)."""

    l_m: float
    l_e: float
    l_i: float
    total: float


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
    dist_sq = np.sum(diff * diff, axis=1)
    active = dist_sq > sigma
    value = float(np.sum(np.maximum(dist_sq - sigma, 0.0)) / n)
    grad = np.zeros_like(adapted)
    if active.any():
        grad[active] = (2.0 / n) * diff[active]
    if not np.isfinite(value):
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


def memory_term_loss(feats: Array, prototypes: Array, pseudo_labels, eps: float = 1e-5):
    """Alignment confidence between features and their pseudo-class prototype.

    Per row: gamma_i = f_i . (v_{y_i} / ||v_{y_i}||), where v_j is row j of
    `prototypes (C, d)`. The batch of scalars gamma is standardized
    (mean/variance over the batch, eps floor) and scored with
    -(1/N) sum_i gamma_i log softmax(gamma)_i.

    Returns (value, grad wrt feats, grad wrt prototypes as a (C, d) array
    whose rows for classes absent from the batch are zero).
    """
    labels = np.asarray(pseudo_labels)
    n, d = feats.shape
    if labels.shape != (n,):
        raise DimensionError(
            f"memory_term_loss: labels shape {labels.shape} != ({n},)"
        )
    if n < 2:
        raise BatchTooSmallError(
            "memory_term_loss: batch standardization needs >= 2 rows"
        )
    bad = (labels < 0) | (labels >= prototypes.shape[0])
    if bad.any():
        raise StateError(f"memory_term_loss: no prototype for class {int(labels[bad][0])}")
    # one 1-D norm per class: norm(P, axis=1) rounds differently
    class_norms = np.array([np.linalg.norm(v) for v in prototypes])
    norms = class_norms[labels]
    zero = norms == 0.0
    if zero.any():
        raise StateError(
            f"memory_term_loss: zero-norm prototype for class {int(labels[zero][0])}"
        )
    units = prototypes[labels] / norms[:, None]
    raw = np.sum(feats * units, axis=1)

    mu = raw.mean()
    var = raw.var()
    denom = np.sqrt(var + eps)
    g = (raw - mu) / denom

    m = g.max()
    logz = m + np.log(np.exp(g - m).sum())
    soft = np.exp(g - logz)
    value = float(-np.mean(g * (g - logz)))

    # d value / d g, then back through the standardization (same closed form
    # as a 1-feature batch norm), then through the dot products.
    dg = -(2.0 * g - soft * g.sum() - logz) / n
    draw = (n * dg - dg.sum() - g * (dg * g).sum()) / (n * denom)

    grad_feats = draw[:, None] * units
    grad_protos = np.zeros_like(prototypes)
    np.add.at(grad_protos, labels,
              draw[:, None] * (feats - units * raw[:, None]) / norms[:, None])
    if not np.isfinite(value):
        raise NumericalFailure("memory_term_loss: non-finite value")
    return value, grad_feats, grad_protos


def combined_loss(l_e: float, l_m: float, l_i: float, lambda_weight: float) -> float:
    """total = l_e + lambda * l_m + l_i; a term that is off enters as 0.0."""
    return float(l_e + lambda_weight * l_m + l_i)
