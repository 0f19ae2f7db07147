"""Per-class support memory and prototype refresh for the classifier.

The bank keeps the most confident (lowest entropy) feature vectors seen per
pseudo-class, averages the best K into a prototype, and overwrites the
matching classifier column with it. All tie-breaks are deterministic:
pseudo-labels break toward the lowest class index, eviction prefers the
oldest record among equals, selection orders by (entropy, arrival step).

The bank is a set of fixed arrays: `features (C, capacity, d)`,
`entropies (C, capacity)`, `steps (C, capacity)` and `counts (C,)`. Class j
holds its first `counts[j]` slots in selection order, so its Top-K is a
leading slice. Eviction is a total order (higher entropy is worse, then the
older row), so inserting a batch row by row keeps exactly the `capacity`
best rows of (held + new): one sort per class replaces the row loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .numeric import Array, as_matrix


@dataclass
class SupportRecord:
    feature: Array
    entropy: float
    step: int


class MemoryBank:
    def __init__(self, num_classes: int, feature_dim: int,
                 capacity_per_class: int = 64, top_k: int = 20,
                 prototypes: dict | None = None):
        if num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if capacity_per_class < 1:
            raise ConfigError("capacity_per_class must be >= 1")
        if top_k < 1:
            raise ConfigError("top_k must be >= 1")
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.capacity_per_class = capacity_per_class
        self.top_k = top_k
        self.features = np.zeros((num_classes, capacity_per_class, feature_dim))
        self.entropies = np.zeros((num_classes, capacity_per_class))
        self.steps = np.zeros((num_classes, capacity_per_class), dtype=np.int64)
        self.counts = np.zeros(num_classes, dtype=np.int64)
        if prototypes is None:
            prototypes = {
                j: np.zeros(feature_dim) for j in range(num_classes)
            }
        self.prototypes = prototypes
        self._next_step = 0

    def _records(self, class_id: int, n: int) -> list[SupportRecord]:
        """The first n held rows of a class as records. Features are
        read-only views into the bank, valid until the next insert."""
        feats = self.features[class_id, :n].view()
        feats.flags.writeable = False
        return list(map(SupportRecord, feats, self.entropies[class_id, :n].tolist(),
                        self.steps[class_id, :n].tolist()))

    def selected(self, class_id: int) -> list[SupportRecord]:
        """Top-K lowest-entropy supports of a class, (entropy, step) order."""
        return self._records(class_id, min(self.top_k, int(self.counts[class_id])))

    @property
    def supports(self) -> dict[int, list[SupportRecord]]:
        """Every held row per class, in selection order."""
        return {j: self._records(j, int(n)) for j, n in enumerate(self.counts)}

    def support_counts(self) -> dict[int, int]:
        return {j: int(n) for j, n in enumerate(self.counts)}


def init_from_classifier(classifier, capacity_per_class: int = 64,
                         top_k: int = 20) -> MemoryBank:
    """Empty bank whose prototypes start as the classifier's weight columns."""
    protos = {
        j: classifier.omega[:, j].copy() for j in range(classifier.num_classes)
    }
    return MemoryBank(
        num_classes=classifier.num_classes,
        feature_dim=classifier.feature_dim,
        capacity_per_class=capacity_per_class,
        top_k=top_k,
        prototypes=protos,
    )


def pseudo_label(probs: Array):
    """Argmax labels and Shannon entropies per row. Ties pick the lowest
    class index (np.argmax convention)."""
    p = as_matrix(probs, "probs")
    labels = np.argmax(p, axis=1)
    logp = np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), 0.0)
    entropies = -(p * logp).sum(axis=1)
    return labels, entropies


def insert_and_select(bank: MemoryBank, features: Array, labels, entropies) -> MemoryBank:
    """Insert one record per row under its pseudo-class, evicting the worst
    (highest entropy, oldest first among ties) once a class is full.

    Every input is checked before the bank changes. Each class present in
    the batch is merged with its held rows by one sort that keeps the
    `capacity` best and one that puts them in selection order."""
    f = as_matrix(features, "features")
    labels = np.asarray(labels).astype(np.int64, copy=False)
    entropies = np.asarray(entropies, dtype=np.float64)
    if f.shape[1] != bank.feature_dim:
        raise DimensionError(
            f"insert_and_select: feature width {f.shape[1]} != bank dim {bank.feature_dim}"
        )
    if labels.shape[0] != f.shape[0] or entropies.shape[0] != f.shape[0]:
        raise DimensionError("insert_and_select: rows, labels, entropies must align")
    bad = (labels < 0) | (labels >= bank.num_classes)
    if bad.any():
        raise DimensionError(f"insert_and_select: label {labels[bad][0]} out of range")
    steps = np.arange(bank._next_step, bank._next_step + f.shape[0], dtype=np.int64)
    bank._next_step += f.shape[0]
    for j in np.unique(labels).tolist():
        rows = labels == j
        held = bank.counts[j]
        ent = np.concatenate((bank.entropies[j, :held], entropies[rows]))
        stp = np.concatenate((bank.steps[j, :held], steps[rows]))
        feats = np.concatenate((bank.features[j, :held], f[rows]))
        # best first: lowest entropy, then the newest row among equals
        keep = np.lexsort((-stp, ent))[: bank.capacity_per_class]
        keep = keep[np.lexsort((stp[keep], ent[keep]))]
        m = keep.shape[0]
        bank.features[j, :m] = feats[keep]
        bank.entropies[j, :m] = ent[keep]
        bank.steps[j, :m] = stp[keep]
        bank.counts[j] = m
    return bank


def compute_prototypes(bank: MemoryBank) -> dict:
    """Mean of each class's selected supports. Classes without supports keep
    their current prototype untouched."""
    for j, n in enumerate(bank.counts.tolist()):
        k = min(bank.top_k, n)
        if k:
            bank.prototypes[j] = bank.features[j, :k].mean(axis=0)
    return bank.prototypes


def refresh_classifier(bank: MemoryBank, classifier):
    """Overwrite classifier columns with prototypes for every class that has
    at least one support; those classes also get their bias zeroed so the
    logit is a pure prototype dot product. Untouched classes keep their
    weights."""
    if classifier.feature_dim != bank.feature_dim:
        raise DimensionError("refresh_classifier: feature dims differ")
    if classifier.num_classes != bank.num_classes:
        raise DimensionError("refresh_classifier: class counts differ")
    for j in range(bank.num_classes):
        if bank.counts[j]:
            classifier.omega[:, j] = bank.prototypes[j]
            if classifier.bias is not None:
                classifier.bias[j] = 0.0
    return classifier
