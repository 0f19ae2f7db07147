"""Per-class support memory and prototype refresh for the classifier.

The bank keeps, per pseudo-class, the K most confident (lowest entropy)
feature vectors it has seen (T3A's entropy filter). At each refresh the
raw mean of a class's rows is its prototype, not T3A's normalised sum of
normalised supports (ROADMAP item 1), and it overwrites the matching
classifier column. One total order decides everything: lower entropy first,
and among equal entropies the newer row first. Pseudo-labels break ties
toward the lowest class index.

The bank is four fixed arrays: `features (C, K, d)`, `entropies (C, K)`,
`steps (C, K)` and `counts (C,)`. Class j holds its first `counts[j]` slots
in that order; the slots past `counts[j]` are never written and stay 0.0.
The prototypes are not stored: `compute_prototypes` derives them from the
rows, and the refreshed classifier holds them. An insert sorts the batch
once by class, then entropy, then newest first, and then makes one stable
sort per class it touches; a full class that no new row can enter is
skipped. `steps` records each row's arrival for inspection (`supports`); no
decision reads it.

The prototypes and the refresh are whole-array ops: one sum over the K
axis and one masked division give every class's mean, and one masked copy
writes every supported column. The code keeps `numeric`'s ufunc rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericalFailure
from .losses import row_entropies
from .numeric import _CHECKED, Array, _finite, non_finite


@dataclass
class SupportRecord:
    feature: Array
    entropy: float
    step: int


class MemoryBank:
    """Per-class support arrays; see the module docstring for the layout.
    `capacity_per_class` is K: the rows each class holds and its prototype
    averages."""

    def __init__(self, num_classes: int, feature_dim: int, capacity_per_class: int = 20):
        if num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if capacity_per_class < 1:
            raise ConfigError("capacity_per_class must be >= 1")
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.capacity_per_class = capacity_per_class
        self.features = np.zeros((num_classes, capacity_per_class, feature_dim))
        self.entropies = np.zeros((num_classes, capacity_per_class))
        self.steps = np.zeros((num_classes, capacity_per_class), dtype=np.int64)
        self.counts = np.zeros(num_classes, dtype=np.int64)
        self._next_step = 0

    def _records(self, class_id: int, n: int) -> list[SupportRecord]:
        """The first n held rows of a class as records. Features are
        read-only views into the bank, valid until the next insert."""
        feats = self.features[class_id, :n].view()
        feats.flags.writeable = False
        return list(map(SupportRecord, feats, self.entropies[class_id, :n].tolist(),
                        self.steps[class_id, :n].tolist()))

    @property
    def supports(self) -> dict[int, list[SupportRecord]]:
        """Every held row per class, in bank order."""
        return {j: self._records(j, int(n)) for j, n in enumerate(self.counts)}


def init_from_classifier(classifier, top_k: int = 20) -> MemoryBank:
    """Empty bank of `top_k` rows per class, sized to refresh `classifier`."""
    return MemoryBank(classifier.num_classes, classifier.feature_dim, top_k)


def pseudo_label(probs: Array):
    """Argmax labels and Shannon entropies per row. Ties pick the lowest
    class index (np.argmax convention)."""
    return probs.argmax(axis=1), row_entropies(probs)[1]


def insert_and_select(bank: MemoryBank, features: Array, labels, entropies) -> MemoryBank:
    """Insert one record per row under its pseudo-class; a full class keeps
    its `capacity_per_class` best rows of held + new in the bank's order
    (lower entropy first, the newer row first among equals).

    Every input is checked before the bank changes; inside a checked step
    (see numeric) only the shapes and the label dtype (integers) are, since
    the step made the labels (an argmax) and the entropies (`pseudo_label`,
    from probabilities it has checked). The batch is grouped once: one
    stable sort of the reversed batch puts its rows in class, then entropy,
    then newest-first order. A full class whose best new entropy is above
    its worst held one is left as it is. Otherwise the class's new rows, all
    newer than its held ones, go before them; both runs are in bank order,
    so one stable sort on entropy gives the bank order and its first
    `capacity_per_class` rows are the keep set."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise DataError(f"insert_and_select: labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    entropies = np.asarray(entropies, dtype=np.float64)
    n, d = features.shape
    if d != bank.feature_dim:
        raise DimensionError(
            f"insert_and_select: feature width {d} != bank dim {bank.feature_dim}"
        )
    if labels.shape[0] != n or entropies.shape[0] != n:
        raise DimensionError("insert_and_select: rows, labels, entropies must align")
    if not _CHECKED.get():
        bad = (labels < 0) | (labels >= bank.num_classes)
        if bad.any():
            raise DimensionError(f"insert_and_select: label {labels[bad][0]} out of range")
        if np.count_nonzero(np.isfinite(entropies)) != entropies.size:
            raise NumericalFailure("insert_and_select: entropies contains NaN or Inf")
    order = (n - 1) - np.lexsort((entropies[::-1], labels[::-1]))
    new_ent = entropies[order]
    new_stp = order + bank._next_step
    new_feats = features.take(order, axis=0)
    bank._next_step += n
    cap = bank.capacity_per_class
    counts = bank.counts.tolist()
    stop = 0
    for j, run in groupby(labels[order].tolist()):
        start, stop = stop, stop + len(list(run))
        held = counts[j]
        if held == cap and new_ent[start] > bank.entropies[j, cap - 1]:
            continue  # every new row is worse than every held one
        ent = np.concatenate((new_ent[start:stop], bank.entropies[j, :held]))
        sel = ent.argsort(kind="stable")[:cap]
        m = sel.shape[0]
        stp = np.concatenate((new_stp[start:stop], bank.steps[j, :held]))
        feats = np.concatenate((new_feats[start:stop], bank.features[j, :held]))
        bank.features[j, :m] = feats.take(sel, axis=0)
        bank.entropies[j, :m] = ent[sel]
        bank.steps[j, :m] = stp[sel]
        bank.counts[j] = m
    return bank


def compute_prototypes(bank: MemoryBank) -> Array:
    """A new `(C, d)` array whose row j is the mean of class j's held rows,
    or 0.0 for a class without rows. The bank is left as it is.

    The sum and division are the ones `np.mean` runs, for every class at
    once: one sum over the K axis, then a division, in place, where the
    count is nonzero. The slots past a class's count have never been
    written, so they add 0.0, and x + 0.0 is x (numpy's sum also starts from
    0.0). A single column is the exception: numpy sums it pairwise, in an
    order set by the number of rows summed, so each class is summed over its
    own rows. Sums past the float range fail (scanned outside a checked
    step, by the flags inside one)."""
    counts = bank.counts
    try:
        if bank.feature_dim == 1:
            sums = np.array([np.add.reduce(bank.features[j, :n], axis=0)
                             for j, n in enumerate(counts.tolist())])
        else:
            sums = np.add.reduce(bank.features, axis=1)
        _finite(sums, "compute_prototypes")
        np.divide(sums, counts[:, None], out=sums, where=counts[:, None] > 0)
    except FloatingPointError as e:
        raise non_finite("compute_prototypes") from e
    return sums


def refresh_classifier(bank: MemoryBank, classifier):
    """Overwrite classifier columns with the bank's prototypes for every
    class that has at least one support; those classes also get their bias
    zeroed so the logit is a pure prototype dot product. Untouched classes
    keep their weights, and a prototype sum that overflows leaves every
    column as it was."""
    if classifier.feature_dim != bank.feature_dim:
        raise DimensionError("refresh_classifier: feature dims differ")
    if classifier.num_classes != bank.num_classes:
        raise DimensionError("refresh_classifier: class counts differ")
    held = bank.counts > 0
    np.copyto(classifier.omega, compute_prototypes(bank).T, where=held)
    np.copyto(classifier.bias, 0.0, where=held)
    return classifier
