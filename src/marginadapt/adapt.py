"""Online test-time adaptation over a target stream.

One loop, `run_method`, serves every method. Per batch, in order: predict
with the current adapted model and record accuracy, then, while the step
budget lasts, hand the scored batch to the method's step for one update.
Predictions therefore always come from parameters shaped only by earlier
batches. Labels are consumed exclusively by the accuracy bookkeeping; no
gradient ever sees them. A NumericalFailure while scoring or stepping on a
batch names that batch's step.

Batches that no step follows (every batch of a pass that never steps, and
those after the step budget) see fixed parameters, so they are scored in
stacked calls: one (B, n, d) encode, logits and softmax per run of
equal-sized batches, at most _STACK_ROWS rows per call. Each slice gets the
predictions its own call would give, bit for bit (see numeric). A failing
stacked call is scored again one batch at a time, so that the failure names
the first failing batch's step.

The steps (`_make_step`), and what each backpropagates:
  none          no step; a pure evaluation pass.
  entropy_norm  Tent: entropy on the norm-layer affine parameters, with the
                batch statistics folded into the running estimates. The
                backward computes only the gradients Adam holds: through the
                classifier and the layers above the lowest norm to that
                norm's gamma and beta, and no weight gradient.
  pseudo_label  cross-entropy against the batch's own argmax labels; every
                parameter's gradient.
  unidg         pseudo-label the batch, push features into the memory bank,
                rebuild prototypes and refresh the classifier columns; then
                one Adam step on the entropy of the refreshed predictions
                plus the margin hinge between adapted and frozen-source
                features, both encoded in the stream's mode; every
                parameter's gradient.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, NumericalFailure
from .losses import LossReport, entropy_loss, marginal_loss
from .memory import compute_prototypes, init_from_classifier, insert_and_select, pseudo_label, refresh_classifier
from .model import ModelPair, classification_accuracy
from .numeric import check_finite_settings, softmax_rows
from .train import Adam, cross_entropy_loss

METHODS = ("none", "entropy_norm", "pseudo_label", "unidg")
_STACK_ROWS = 1024  # target rows per stacked scoring call; bounds its peak


@dataclass
class AdaptConfig:
    sigma: float = 0.15
    lambda_weight: float = 1.0
    top_k: int = 20
    lr: float = 5e-5
    batch_size: int = 32
    steps: int | None = None  # None: adapt on every batch; 0: evaluate only
    seed: int = 0
    method: str = "unidg"
    enable_lm: bool = True
    enable_le: bool = True
    enable_bank: bool = True

    def validate(self) -> "AdaptConfig":
        check_finite_settings(self, ("sigma", "lambda_weight", "lr"))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.sigma < 0.0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if self.lambda_weight < 0.0:
            raise ConfigError(f"lambda_weight must be >= 0, got {self.lambda_weight}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
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
        return asdict(self)


@dataclass
class AccuracyCurve:
    """Cumulative accuracy after each evaluated batch, plus summary values."""

    cumulative: list = field(default_factory=list)
    final_accuracy: float = 0.0
    per_domain: dict = field(default_factory=dict)
    source_before: float | None = None
    source_after: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def stream_batches(n: int, batch_size: int, seed: int):
    """One seeded shuffle of [0, n) split into consecutive batches. The same
    seed yields the same order for every method, so runs pair exactly."""
    order = np.random.default_rng(seed).permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _source_accuracy(pair, source_eval):
    if source_eval is None:
        return None
    return classification_accuracy(
        pair.adapted_encoder, pair.adapted_classifier,
        source_eval.features, source_eval.labels,
    )


def run_method(pair: ModelPair, target, cfg: AdaptConfig, source_eval=None):
    """Run cfg.method over the target stream.

    Returns (pair, AccuracyCurve, [LossReport per adaptation step]). With
    method `none`, steps=0 or every unidg switch off this is a pure
    evaluation pass and the adapted parameters come back bit-identical.
    """
    cfg.validate()
    enc = pair.adapted_encoder
    clf = pair.adapted_classifier
    if cfg.method == "entropy_norm" and not enc.has_norm_layers:
        raise ConfigError("entropy_norm needs an encoder with norm layers")
    batches = stream_batches(target.n, cfg.batch_size, cfg.seed)
    if enc.has_norm_layers:
        batches = [b for b in batches if b.shape[0] >= 2]
    limit = len(batches) if cfg.steps is None else min(cfg.steps, len(batches))
    # norm layers use the batch's own statistics on the target stream
    mode = "train" if enc.has_norm_layers else "eval"
    # a class never holds more rows than the stream has, so a bank of
    # min(top_k, n) rows per class keeps and skips exactly what top_k would
    step = _make_step(pair, cfg, mode, min(cfg.top_k, target.n)) if limit > 0 else None
    if step is None:
        limit = 0
    source_before = _source_accuracy(pair, source_eval)

    hits = []  # correct predictions per batch
    reports = []
    for t, idx in enumerate(batches[:limit]):
        xb = target.features[idx]
        try:
            feats = enc.encode(xb, mode=mode, retain_cache=True)
            probs = softmax_rows(clf.logits(feats))
            preds = np.argmax(probs, axis=1)
            report = step(xb, feats, probs, preds)
        except NumericalFailure as e:
            raise NumericalFailure(f"adaptation aborted at step {t}: {e}") from e
        hits.append(int((preds == target.labels[idx]).sum()))
        if report is not None:
            reports.append(report)
    hits += _stacked_hits(pair, target, batches, limit, mode)

    cumulative = []
    correct = 0
    seen = 0
    for idx, hit in zip(batches, hits):
        correct += hit
        seen += idx.shape[0]
        cumulative.append(correct / seen)
    final = cumulative[-1] if cumulative else 0.0
    curve = AccuracyCurve(
        cumulative=cumulative,
        final_accuracy=final,
        per_domain={target.domain_id: final},
        source_before=source_before,
        source_after=_source_accuracy(pair, source_eval),
    )
    return pair, curve, reports


def _stacked_hits(pair, target, batches, start, mode):
    """Correct predictions of each of batches[start:], which no step
    follows, scored in stacked calls (see the module docstring)."""
    enc = pair.adapted_encoder
    clf = pair.adapted_classifier

    def predict(idx, t):
        try:
            feats = enc.encode(target.features[idx], mode=mode, retain_cache=False)
            return np.argmax(softmax_rows(clf.logits(feats)), axis=-1)
        except NumericalFailure as e:
            raise NumericalFailure(f"adaptation aborted at step {t}: {e}") from e

    hits = []
    t = start
    while t < len(batches):
        n = batches[t].shape[0]
        end = t + 1
        while (end < len(batches) and batches[end].shape[0] == n
               and (end - t + 1) * n <= _STACK_ROWS):
            end += 1
        idx = np.stack(batches[t:end])
        try:
            preds = predict(idx, t)
        except NumericalFailure:
            for s in range(t, end):
                predict(batches[s], s)  # raises at the first failing batch
            raise
        hits += np.add.reduce(preds == target.labels[idx], axis=-1).tolist()
        t = end
    return hits


def _make_step(pair: ModelPair, cfg: AdaptConfig, mode: str, bank_rows: int):
    """The update `step(xb, feats, probs, preds)` that cfg.method takes on a
    batch it has just scored in encoder `mode`, or None when the method never
    adapts. A step returns the batch's LossReport, or None when it optimised
    nothing. A unidg bank holds `bank_rows` rows per class."""
    enc = pair.adapted_encoder
    clf = pair.adapted_classifier

    if cfg.method == "entropy_norm":
        # Adam holds only the norm affine parameters, and the backward
        # computes no other gradient, so the linear weights and the
        # classifier stay fixed
        opt = Adam(enc.norm_parameters(), lr=cfg.lr)
        held = frozenset(n for n, _ in opt.params)

        def entropy_norm_step(xb, feats, probs, preds):
            l_e, g_logits = entropy_loss(probs)
            gz, _ = clf.backward(feats, g_logits, held)
            egrads = enc.backward(gz, held)
            opt.step(egrads)
            # the adapted model keeps the stream's normalization afterwards
            enc.update_running_stats()
            return LossReport(l_m=0.0, l_e=l_e, total=l_e)

        return entropy_norm_step

    if cfg.method == "pseudo_label":
        opt = Adam(pair.parameters(), lr=cfg.lr)

        def pseudo_label_step(xb, feats, probs, preds):
            loss, g_logits = cross_entropy_loss(probs, preds)
            gz, cgrads = clf.backward(feats, g_logits)
            egrads = enc.backward(gz)
            opt.step({**egrads, **cgrads})
            return LossReport(l_m=0.0, l_e=0.0, total=loss)

        return pseudo_label_step

    any_gradients = cfg.enable_lm or cfg.enable_le
    if cfg.method == "none" or not (any_gradients or cfg.enable_bank):
        return None
    bank = init_from_classifier(pair.source_classifier, bank_rows) if cfg.enable_bank else None
    opt = Adam(pair.parameters(), lr=cfg.lr) if any_gradients else None

    def unidg_step(xb, feats, probs, preds):
        if cfg.enable_bank:
            labels_hat, entropies = pseudo_label(probs)
            insert_and_select(bank, feats, labels_hat, entropies)
            compute_prototypes(bank)
            refresh_classifier(bank, clf)
        if opt is None:
            return None  # bank-only step

        l_m = l_e = 0.0
        hinge_rows = 0
        g_feats = np.zeros_like(feats)
        grads = {}
        if cfg.enable_le:
            # entropy is taken through the refreshed classifier
            probs_post = softmax_rows(clf.logits(feats))
            l_e, g_logits = entropy_loss(probs_post)
            gz, grads = clf.backward(feats, g_logits)
            g_feats += gz
        if cfg.enable_lm:
            # like for like: the source sees the batch in the adapted copy's
            # mode, so the hinge measures parameter drift, not a mode gap
            source_feats = pair.source_encoder.encode(xb, mode=mode, retain_cache=False)
            l_m, g_lm = marginal_loss(feats, source_feats, cfg.sigma)
            # a g_lm with no nonzero entry (no row active) would change no
            # bit: x + 0.0 is x for every x but -0.0, and g_feats holds none
            if np.count_nonzero(g_lm):
                hinge_rows = int(np.count_nonzero(g_lm.any(axis=1)))
                g_feats += cfg.lambda_weight * g_lm
        total = l_e + cfg.lambda_weight * l_m
        if not np.isfinite(total):
            raise NumericalFailure(f"non-finite objective (l_e={l_e}, l_m={l_m})")
        egrads = enc.backward(g_feats)
        opt.step({**egrads, **grads})
        return LossReport(l_m=l_m, l_e=l_e, total=total, hinge_rows=hinge_rows)

    return unidg_step

