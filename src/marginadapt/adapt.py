"""Online test-time adaptation over a target stream.

One loop, `run_method`, serves every method, and it scores only the target
stream: what the pass did to the source domains is measured by the caller,
on the model it returns. Per batch, in order: predict with the current
adapted model and record accuracy, then, while the step budget lasts, hand
the scored batch to the method's step for one update. Predictions therefore
always come from parameters shaped only by earlier batches. Labels are
consumed exclusively by the accuracy bookkeeping; no gradient ever sees
them. A NumericalFailure while scoring or stepping on a batch names that
batch's step. The pass checks what it steps on once, as it starts:
`model.step_context` scans the target rows and the parameters (the frozen
source's too, when the hinge reads it). Each run of batches that steps
(see below) then runs in one checked step (see numeric), as `step_context`
decides, so the steps skip the checks of the rows, the probabilities they
score and the labels and entropies they make.

The batches are taken in runs of equal-sized batches, at most _STACK_ROWS
rows each and never across the step budget (`_runs`), so either every batch
of a run steps or none does. Each run's rows are gathered once as a
(B, n, d) stack, and what no step of the run changes is computed for the
whole run in one stacked call, each slice bit for bit what its own 2-D call
would give (see numeric): for a run that steps, the frozen source's hinge
features, since the source never changes during a pass; for a run that
does not (every run of a pass that never steps, and those after the step
budget), its predictions, whose hits one reduce then counts. Should that
call fail, each batch is encoded alone when its turn comes (`_by_batch`),
within the run's checked step for a run that steps, so the failure names
the first failing batch's step and every earlier step still runs.

The steps (`_make_step`), and what each backpropagates:
  none          no step; a pure evaluation pass.
  entropy_norm  Tent: entropy on the norm-layer affine parameters, with the
                batch statistics folded into the running estimates. The
                `norm_only` backward computes only the gradients Adam holds:
                through the classifier and the layers above the lowest norm
                to that norm's gamma and beta, and no weight gradient.
  pseudo_label  cross-entropy against the batch's own argmax labels; every
                parameter's gradient.
  unidg         pseudo-label the batch, push features into the memory bank
                and refresh the classifier columns with its prototypes; then
                one Adam step on the entropy of the refreshed predictions
                plus the margin hinge between adapted and frozen-source
                features, both encoded in the stream's mode (the source's
                from the run's stacked call); every parameter's gradient,
                the classifier's only with the entropy term.
A step that optimises packs the adapted model when it is made (see
`model.pack`), so it steps the arrays the model holds when the pass starts,
and its Adam holds one contiguous slice of the packed vectors: the norm
slice for entropy_norm, and the whole of them otherwise. The backward
writes into that slice and the step updates it, with no per-parameter
bookkeeping. unidg without the entropy term never backpropagates into the
classifier, whose gradients stay zero, so Adam leaves it as it is. The
pass's reductions keep `numeric`'s ufunc rule.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, DataError, NumericalFailure
from .losses import LossReport, entropy_loss, marginal_loss
from .memory import init_from_classifier, insert_and_select, pseudo_label, refresh_classifier
from .model import ModelPair, pack, step_context
from .numeric import _ZERO, check_settings, operand, softmax_rows
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
        check_settings(self)
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

    def to_dict(self) -> dict:
        return asdict(self)


def stream_batches(n: int, batch_size: int, seed: int):
    """One seeded shuffle of [0, n) split into consecutive batches. The same
    seed yields the same order for every method, so runs pair exactly."""
    order = np.random.default_rng(seed).permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def run_method(pair: ModelPair, target, cfg: AdaptConfig):
    """Run cfg.method over the target stream.

    Returns (pair, AccuracyCurve, [LossReport per adaptation step]). With
    method `none`, steps=0 or every unidg switch off this is a pure
    evaluation pass and the adapted parameters come back bit-identical. A
    stream with no batch to score (a 1-row target on a norm encoder) is
    refused (DataError) before anything moves.
    """
    cfg.validate()
    enc = pair.adapted_encoder
    clf = pair.adapted_classifier
    if cfg.method == "entropy_norm" and not enc.has_norm_layers:
        raise ConfigError("entropy_norm needs an encoder with norm layers")
    batches = stream_batches(target.n, cfg.batch_size, cfg.seed)
    if enc.has_norm_layers:
        batches = [b for b in batches if b.shape[0] >= 2]
    if not batches:
        raise DataError(f"run_method: the {target.n}-row target has no batch of the "
                        "2 rows norm layers need, so nothing would be scored")
    limit = len(batches) if cfg.steps is None else min(cfg.steps, len(batches))
    # norm layers use the batch's own statistics on the target stream
    mode = "train" if enc.has_norm_layers else "eval"
    # a class never holds more rows than the stream has, so a bank of
    # min(top_k, n) rows per class keeps and skips exactly what top_k would
    step = _make_step(pair, cfg, mode, min(cfg.top_k, target.n)) if limit > 0 else None
    # the frozen source's features feed only the unidg hinge
    hinge = cfg.method == "unidg" and cfg.enable_lm
    checked = nullcontext
    if step is None:
        limit = 0
    else:
        checked = step_context(enc, clf, cfg.batch_size, target.features,
                               pair.source_encoder if hinge else None)

    encode_source = partial(pair.source_encoder.encode, mode=mode, retain_cache=False)

    def predict(x):
        feats = enc.encode(x, mode=mode, retain_cache=False)
        return softmax_rows(clf.logits(feats)).argmax(axis=-1)

    hits = np.zeros(len(batches), dtype=np.intp)  # correct predictions per batch
    reports = []
    for start, end in _runs(batches, limit):
        idx = np.stack(batches[start:end])
        xs, labels = target.features[idx], target.labels[idx]
        stepping = start < limit
        # one stacked call for what no step of the run changes: the source's
        # hinge features of a run that steps, else the run's predictions
        fixed = (_by_batch(encode_source if stepping else predict, xs)
                 if hinge or not stepping else None)
        preds = np.empty(labels.shape, dtype=np.intp)
        try:
            with (checked if stepping else nullcontext)():
                for i in range(end - start):
                    if not stepping:
                        preds[i] = fixed(i)
                        continue
                    source_feats = fixed(i) if hinge else None
                    feats = enc.encode(xs[i], mode=mode, retain_cache=True)
                    probs = softmax_rows(clf.logits(feats))
                    preds[i] = probs.argmax(axis=1)
                    report = step(source_feats, feats, probs, preds[i])
                    if report is not None:
                        reports.append(report)
        except NumericalFailure as e:
            raise NumericalFailure(f"adaptation aborted at step {start + i}: {e}") from e
        hits[start:end] = np.add.reduce(preds == labels, axis=-1)

    correct, seen = np.cumsum([hits, [idx.shape[0] for idx in batches]], axis=-1)
    cumulative = (correct / seen).tolist()
    curve = AccuracyCurve(
        cumulative=cumulative,
        final_accuracy=cumulative[-1],
        per_domain={target.domain_id: cumulative[-1]},
    )
    return pair, curve, reports


def _by_batch(f, xs):
    """Item i of f(xs) for a (B, n, d) stack xs, as the function of i that
    returns it: a slice of one stacked call, bit for bit what f(xs[i]) gives
    (see numeric). Should that call raise NumericalFailure, each f(xs[i]) is
    computed alone when asked for, so the first failing batch raises."""
    try:
        return f(xs).__getitem__
    except NumericalFailure:
        return lambda i: f(xs[i])


def _runs(batches, limit):
    """(start, end) of each run of equal-sized batches that one stacked call
    takes: at most _STACK_ROWS rows and at least one batch, and never across
    the step budget `limit`, so either every batch of a run steps or none."""
    start = 0
    while start < len(batches):
        stop = limit if start < limit else len(batches)
        n = batches[start].shape[0]
        end = start + 1
        while end < stop and batches[end].shape[0] == n and (end - start + 1) * n <= _STACK_ROWS:
            end += 1
        yield start, end
        start = end


def _make_step(pair: ModelPair, cfg: AdaptConfig, mode: str, bank_rows: int):
    """The update `step(source_feats, feats, probs, preds)` that cfg.method
    takes on a batch it has just scored in encoder `mode`, or None when the
    method never adapts. `source_feats` are the frozen source's features of
    the batch in the same mode when the step uses the hinge, else None. A
    step returns the batch's LossReport, or None when it optimised nothing.
    A unidg bank holds `bank_rows` rows per class."""
    enc = pair.adapted_encoder
    clf = pair.adapted_classifier

    def adam(norm_only=False):  # Adam over the norm slice, or all of the model
        flat = pack(enc, clf)  # the arrays the model holds now, however packed before
        part = flat.norm if norm_only else slice(None)
        return Adam(flat.values[part], flat.grads[part], lr=cfg.lr)

    if cfg.method == "entropy_norm":
        # Adam holds only the norm affine parameters, the packed vectors'
        # leading slice, and the backward computes no other gradient, so the
        # linear weights and the classifier stay fixed
        opt = adam(norm_only=True)

        def entropy_norm_step(source_feats, feats, probs, preds):
            l_e, g_logits = entropy_loss(probs)
            enc.backward(clf.backward(feats, g_logits, norm_only=True), norm_only=True)
            opt.step()
            # the adapted model keeps the stream's normalization afterwards
            enc.update_running_stats()
            return LossReport(l_m=0.0, l_e=l_e, total=l_e)

        return entropy_norm_step

    if cfg.method == "pseudo_label":
        opt = adam()

        def pseudo_label_step(source_feats, feats, probs, preds):
            loss, g_logits = cross_entropy_loss(probs, preds)
            enc.backward(clf.backward(feats, g_logits))
            opt.step()
            return LossReport(l_m=0.0, l_e=0.0, total=loss)

        return pseudo_label_step

    any_gradients = cfg.enable_lm or cfg.enable_le
    if cfg.method == "none" or not (any_gradients or cfg.enable_bank):
        return None
    bank = init_from_classifier(clf, bank_rows) if cfg.enable_bank else None
    # without the entropy term no backward reaches the classifier: its
    # gradients stay pack's zeros, and Adam's update of them is exactly 0.0
    opt = adam() if any_gradients else None
    lambda_weight = operand(cfg.lambda_weight)

    def unidg_step(source_feats, feats, probs, preds):
        if cfg.enable_bank:
            labels_hat, entropies = pseudo_label(probs)
            insert_and_select(bank, feats, labels_hat, entropies)
            refresh_classifier(bank, clf)
        if opt is None:
            return None  # bank-only step

        l_m = l_e = 0.0
        hinge_rows = 0
        if cfg.enable_le:
            # entropy is taken through the refreshed classifier; without the
            # bank nothing refreshed it, so the scored probs are its own
            probs_post = softmax_rows(clf.logits(feats)) if cfg.enable_bank else probs
            l_e, g_logits = entropy_loss(probs_post)
            # + 0.0 turns -0.0 into 0.0, the bits zeros + gradient gives
            g_feats = clf.backward(feats, g_logits) + _ZERO
        else:
            g_feats = np.zeros_like(feats)
        if cfg.enable_lm:
            # like for like: the source saw the batch in the adapted copy's
            # mode, so the hinge measures parameter drift, not a mode gap
            l_m, g_lm = marginal_loss(feats, source_feats, cfg.sigma)
        # checked before the hinge gradient is scaled, which overflows with it
        total = l_e + cfg.lambda_weight * l_m
        if not math.isfinite(total):
            raise NumericalFailure(f"non-finite objective (l_e={l_e}, l_m={l_m})")
        # a g_lm with no nonzero entry (no row active) would change no bit:
        # x + 0.0 is x for every x but -0.0, and g_feats holds none
        if cfg.enable_lm and np.count_nonzero(g_lm):
            hinge_rows = int(np.count_nonzero(g_lm.any(axis=1)))
            g_feats += lambda_weight * g_lm
        enc.backward(g_feats)
        opt.step()
        return LossReport(l_m=l_m, l_e=l_e, total=total, hinge_rows=hinge_rows)

    return unidg_step

