"""Online test-time adaptation over a target stream.

Protocol (per batch, in order): predict with the current adapted model and
record accuracy, then optionally take one adaptation step on that same batch.
Predictions therefore always come from parameters shaped only by earlier
batches. Labels are consumed exclusively by the accuracy bookkeeping; no
gradient ever sees them.

The combined method per adaptation step:
  1. pseudo-label the batch, push features into the memory bank, rebuild
     prototypes, refresh the classifier columns;
  2. margin hinge between adapted and frozen-source features;
  3. entropy of the refreshed predictions (+ optional memory alignment term);
  4. one Adam step on the summed objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericalFailure
from .losses import LossReport, combined_loss, entropy_loss, marginal_loss, memory_term_loss
from .memory import compute_prototypes, init_from_classifier, insert_and_select, pseudo_label, refresh_classifier
from .model import ModelPair, classification_accuracy
from .numeric import softmax_rows
from .train import Adam, cross_entropy_loss

METHODS = ("none", "entropy_norm", "pseudo_label", "unidg")


@dataclass
class AdaptConfig:
    sigma: float = 0.15
    lambda_weight: float = 1.0
    top_k: int = 20
    capacity_per_class: int = 64
    lr: float = 5e-5
    batch_size: int = 32
    steps: int | None = None  # None: adapt on every batch; 0: evaluate only
    seed: int = 0
    method: str = "unidg"
    enable_lm: bool = True
    enable_le: bool = True
    enable_li: bool = False
    enable_bank: bool = True
    enable_refresh: bool = True

    def validate(self) -> "AdaptConfig":
        if self.sigma < 0.0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if self.lambda_weight < 0.0:
            raise ConfigError(f"lambda_weight must be >= 0, got {self.lambda_weight}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.capacity_per_class < 1:
            raise ConfigError("capacity_per_class must be >= 1")
        if self.lr <= 0.0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.steps is not None and self.steps < 0:
            raise ConfigError(f"steps must be >= 0 or None, got {self.steps}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        return self

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "lambda_weight": self.lambda_weight,
            "top_k": self.top_k,
            "capacity_per_class": self.capacity_per_class,
            "lr": self.lr,
            "batch_size": self.batch_size,
            "steps": self.steps,
            "seed": self.seed,
            "method": self.method,
            "enable_lm": self.enable_lm,
            "enable_le": self.enable_le,
            "enable_li": self.enable_li,
            "enable_bank": self.enable_bank,
            "enable_refresh": self.enable_refresh,
        }


@dataclass
class AccuracyCurve:
    """Cumulative accuracy after each evaluated batch, plus summary values."""

    cumulative: list = field(default_factory=list)
    final_accuracy: float = 0.0
    per_domain: dict = field(default_factory=dict)
    source_before: float | None = None
    source_after: float | None = None

    def to_dict(self) -> dict:
        return {
            "cumulative": self.cumulative,
            "final_accuracy": self.final_accuracy,
            "per_domain": self.per_domain,
            "source_before": self.source_before,
            "source_after": self.source_after,
        }


def stream_batches(n: int, batch_size: int, seed: int):
    """One seeded shuffle of [0, n) split into consecutive batches. The same
    seed yields the same order for every method, so runs pair exactly."""
    order = np.random.default_rng(seed).permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _forward_mode(encoder) -> str:
    # norm layers use the batch's own statistics on the target stream
    return "train" if encoder.has_norm_layers else "eval"


def _curve(pair, target, cfg, cumulative, source_eval, source_before):
    final = cumulative[-1] if cumulative else 0.0
    source_after = None
    if source_eval is not None:
        source_after = classification_accuracy(
            pair.adapted_encoder, pair.adapted_classifier,
            source_eval.features, source_eval.labels,
        )
    return AccuracyCurve(
        cumulative=cumulative,
        final_accuracy=final,
        per_domain={target.domain_id: final},
        source_before=source_before,
        source_after=source_after,
    )


def _source_before(pair, source_eval):
    if source_eval is None:
        return None
    return classification_accuracy(
        pair.adapted_encoder, pair.adapted_classifier,
        source_eval.features, source_eval.labels,
    )


def adapt_stream(pair: ModelPair, target, cfg: AdaptConfig, source_eval=None):
    """Run the combined method over the target stream.

    Returns (pair, AccuracyCurve, [LossReport per adaptation step]). With
    steps=0 or every switch off this is a pure evaluation pass and the
    adapted parameters come back bit-identical.
    """
    cfg.validate()
    enc = pair.adapted_encoder
    clf = pair.adapted_classifier
    batches = _usable_batches(target, cfg, enc)
    limit = len(batches) if cfg.steps is None else min(cfg.steps, len(batches))
    any_gradients = cfg.enable_lm or cfg.enable_le or cfg.enable_li
    if not (any_gradients or cfg.enable_bank):
        limit = 0

    bank = opt = None
    if limit > 0:
        bank = init_from_classifier(
            pair.source_classifier, capacity_per_class=cfg.capacity_per_class,
            top_k=cfg.top_k,
        )
        if any_gradients:
            opt = Adam(pair.parameters(), lr=cfg.lr)
    mode = _forward_mode(enc)
    source_before = _source_before(pair, source_eval)

    cumulative = []
    correct = 0
    seen = 0
    reports = []
    for t, idx in enumerate(batches):
        xb = target.features[idx]
        feats = enc.encode(xb, mode=mode, retain_cache=True)
        probs = softmax_rows(clf.logits(feats))
        preds = np.argmax(probs, axis=1)
        correct += int((preds == target.labels[idx]).sum())
        seen += idx.shape[0]
        cumulative.append(correct / seen)

        if t >= limit:
            continue
        try:
            report, grads, proto_grads = _combined_step(
                pair, bank, xb, feats, probs, cfg
            )
        except NumericalFailure as e:
            raise NumericalFailure(f"adaptation aborted at step {t}: {e}") from e
        if grads is not None:
            if proto_grads and cfg.enable_bank and cfg.enable_refresh:
                _route_prototype_grads(grads, proto_grads, bank, clf)
            gx, egrads = enc.backward(grads.pop("_feats"))
            egrads.update(grads)
            opt.step(egrads)
        if report is not None:
            reports.append(report)

    curve = _curve(pair, target, cfg, cumulative, source_eval, source_before)
    return pair, curve, reports


def _combined_step(pair, bank, xb, feats, probs, cfg):
    """Losses and gradients for one batch. Returns (LossReport, grads, proto
    grads); grads is None when no loss term is enabled (bank-only step)."""
    clf = pair.adapted_classifier
    labels_hat, entropies = pseudo_label(probs)
    if cfg.enable_bank:
        insert_and_select(bank, feats, labels_hat, entropies)
        compute_prototypes(bank)
        if cfg.enable_refresh:
            refresh_classifier(bank, clf)

    if not (cfg.enable_lm or cfg.enable_le or cfg.enable_li):
        return None, None, None

    l_m = l_e = l_i = 0.0
    g_feats = np.zeros_like(feats)
    grads = {}
    if cfg.enable_le:
        # entropy is taken through the refreshed classifier
        probs_post = softmax_rows(clf.logits(feats))
        l_e, g_logits = entropy_loss(probs_post)
        gz, cgrads = clf.backward(feats, g_logits)
        grads.update(cgrads)
        g_feats += gz
    if cfg.enable_lm:
        source_feats = pair.source_encoder.encode(xb, mode="eval", retain_cache=False)
        l_m, g_lm = marginal_loss(feats, source_feats, cfg.sigma)
        g_feats += cfg.lambda_weight * g_lm
    proto_grads = None
    if cfg.enable_li:
        l_i, g_li, proto_grads = memory_term_loss(feats, bank.prototypes, labels_hat)
        g_feats += g_li
    total = combined_loss(l_e, l_m, l_i, cfg.lambda_weight, include_li=cfg.enable_li)
    if not np.isfinite(total):
        raise NumericalFailure(f"non-finite objective (l_e={l_e}, l_m={l_m}, l_i={l_i})")
    grads["_feats"] = g_feats
    report = LossReport(
        l_m=l_m, l_e=l_e, l_i=l_i, total=total,
        sigma=cfg.sigma, lambda_weight=cfg.lambda_weight,
    )
    return report, grads, proto_grads


def _route_prototype_grads(grads, proto_grads, bank, clf):
    """After a refresh the prototypes ARE the classifier columns, so their
    gradient lands on omega. Without refresh the prototypes are not part of
    any learnable parameter and the gradient is dropped."""
    target = grads.get("clf.w")
    if target is None:
        target = np.zeros_like(clf.omega)
        grads["clf.w"] = target
    for class_id, g in proto_grads.items():
        if bank.counts[class_id]:
            target[:, class_id] += g


def _usable_batches(target, cfg, encoder):
    batches = stream_batches(target.n, cfg.batch_size, cfg.seed)
    if encoder.has_norm_layers:
        batches = [b for b in batches if b.shape[0] >= 2]
    return batches


def adapt_entropy_norm(pair: ModelPair, target, cfg: AdaptConfig, source_eval=None):
    """Entropy minimization over the normalization affine parameters only,
    with batch statistics recomputed per batch and folded into the running
    estimates, so the adapted model keeps the stream's normalization
    statistics afterwards. The classifier and all linear weights stay
    fixed."""
    cfg.validate()
    enc = pair.adapted_encoder
    clf = pair.adapted_classifier
    if not enc.has_norm_layers:
        raise ConfigError("entropy_norm needs an encoder with norm layers")
    norm_names = {n for n, _ in enc.norm_parameters()}
    batches = _usable_batches(target, cfg, enc)
    limit = len(batches) if cfg.steps is None else min(cfg.steps, len(batches))
    opt = Adam(enc.norm_parameters(), lr=cfg.lr)
    source_before = _source_before(pair, source_eval)

    cumulative = []
    correct = 0
    seen = 0
    reports = []
    for t, idx in enumerate(batches):
        xb = target.features[idx]
        feats = enc.encode(xb, mode="train", retain_cache=True)
        probs = softmax_rows(clf.logits(feats))
        preds = np.argmax(probs, axis=1)
        correct += int((preds == target.labels[idx]).sum())
        seen += idx.shape[0]
        cumulative.append(correct / seen)

        if t >= limit:
            continue
        try:
            l_e, g_logits = entropy_loss(probs)
            gz, _ = clf.backward(feats, g_logits)
            _, egrads = enc.backward(gz)
        except NumericalFailure as e:
            raise NumericalFailure(f"adaptation aborted at step {t}: {e}") from e
        opt.step({k: v for k, v in egrads.items() if k in norm_names})
        enc.update_running_stats()
        reports.append(
            LossReport(l_m=0.0, l_e=l_e, l_i=0.0, total=l_e,
                       sigma=cfg.sigma, lambda_weight=cfg.lambda_weight)
        )
    curve = _curve(pair, target, cfg, cumulative, source_eval, source_before)
    return pair, curve, reports


def adapt_pseudo_label(pair: ModelPair, target, cfg: AdaptConfig, source_eval=None):
    """Self-training baseline: cross-entropy against the batch's own argmax
    labels, updating the full adapted model."""
    cfg.validate()
    enc = pair.adapted_encoder
    clf = pair.adapted_classifier
    batches = _usable_batches(target, cfg, enc)
    limit = len(batches) if cfg.steps is None else min(cfg.steps, len(batches))
    opt = Adam(pair.parameters(), lr=cfg.lr)
    mode = _forward_mode(enc)
    source_before = _source_before(pair, source_eval)

    cumulative = []
    correct = 0
    seen = 0
    reports = []
    for t, idx in enumerate(batches):
        xb = target.features[idx]
        feats = enc.encode(xb, mode=mode, retain_cache=True)
        probs = softmax_rows(clf.logits(feats))
        preds = np.argmax(probs, axis=1)
        correct += int((preds == target.labels[idx]).sum())
        seen += idx.shape[0]
        cumulative.append(correct / seen)

        if t >= limit:
            continue
        try:
            loss, g_logits = cross_entropy_loss(probs, preds)
            gz, cgrads = clf.backward(feats, g_logits)
            _, egrads = enc.backward(gz)
        except NumericalFailure as e:
            raise NumericalFailure(f"adaptation aborted at step {t}: {e}") from e
        opt.step({**egrads, **cgrads})
        reports.append(
            LossReport(l_m=0.0, l_e=0.0, l_i=0.0, total=loss,
                       sigma=cfg.sigma, lambda_weight=cfg.lambda_weight)
        )
    curve = _curve(pair, target, cfg, cumulative, source_eval, source_before)
    return pair, curve, reports


def run_method(pair: ModelPair, target, cfg: AdaptConfig, source_eval=None):
    """Dispatch on cfg.method. `none` evaluates the frozen clone without
    touching a parameter."""
    cfg.validate()
    if cfg.method == "none":
        return adapt_stream(pair, target, replace(cfg, steps=0), source_eval)
    if cfg.method == "unidg":
        return adapt_stream(pair, target, cfg, source_eval)
    if cfg.method == "entropy_norm":
        return adapt_entropy_norm(pair, target, cfg, source_eval)
    if cfg.method == "pseudo_label":
        return adapt_pseudo_label(pair, target, cfg, source_eval)
    raise ConfigError(f"unknown method {cfg.method!r}")
