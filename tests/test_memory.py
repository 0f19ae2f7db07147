"""Support bank against a brute-force full-sort oracle, plus refresh contracts."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from marginadapt import (
    ConfigError,
    DimensionError,
    LinearClassifier,
    MemoryBank,
    compute_prototypes,
    init_from_classifier,
    insert_and_select,
    pseudo_label,
    refresh_classifier,
    softmax_rows,
)


class OracleBank:
    """Keeps every insertion, then answers by full sort. No incremental state."""

    def __init__(self, num_classes, capacity, top_k):
        self.rows = {j: [] for j in range(num_classes)}  # (entropy, step, feature)
        self.capacity = capacity
        self.top_k = top_k

    def insert(self, feature, label, entropy, step):
        rows = self.rows[label]
        rows.append((entropy, step, feature.copy()))
        if len(rows) > self.capacity:
            # drop the worst: highest entropy, oldest among equals
            rows.sort(key=lambda r: (-r[0], r[1]))
            rows.pop(0)

    def selected(self, label):
        return sorted(self.rows[label], key=lambda r: (r[0], r[1]))[: self.top_k]

    def prototype(self, label):
        sel = self.selected(label)
        return np.mean([f for _, _, f in sel], axis=0) if sel else None


def test_insert_and_select_matches_oracle_on_thousand_insertions():
    rng = np.random.default_rng(0)
    num_classes, dim, capacity, top_k = 4, 6, 17, 5
    bank = MemoryBank(num_classes, dim, capacity_per_class=capacity, top_k=top_k)
    oracle = OracleBank(num_classes, capacity, top_k)

    step = 0
    for _ in range(100):  # 100 batches x 10 rows = 1000 insertions
        feats = rng.standard_normal((10, dim))
        labels = rng.integers(0, num_classes, size=10)
        # coarse entropies force plenty of exact ties
        entropies = np.round(rng.uniform(0.0, 1.4, size=10), 1)
        insert_and_select(bank, feats, labels, entropies)
        for i in range(10):
            oracle.insert(feats[i], int(labels[i]), float(entropies[i]), step)
            step += 1

    for j in range(num_classes):
        assert len(bank.supports[j]) == len(oracle.rows[j])
        got = [(r.entropy, r.step) for r in bank.selected(j)]
        want = [(e, s) for e, s, _ in oracle.selected(j)]
        assert got == want, f"class {j} selection order"
        for rec, (_, _, f) in zip(bank.selected(j), oracle.selected(j)):
            npt.assert_array_equal(rec.feature, f)

    protos = compute_prototypes(bank)
    for j in range(num_classes):
        npt.assert_allclose(protos[j], oracle.prototype(j), atol=1e-12)


def test_capacity_never_exceeded():
    rng = np.random.default_rng(1)
    bank = MemoryBank(2, 3, capacity_per_class=5, top_k=2)
    for _ in range(30):
        insert_and_select(
            bank, rng.standard_normal((4, 3)), rng.integers(0, 2, 4), rng.random(4)
        )
        assert all(c <= 5 for c in bank.support_counts().values())


def test_eviction_prefers_oldest_among_entropy_ties():
    bank = MemoryBank(2, 2, capacity_per_class=2, top_k=2)
    feats = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    insert_and_select(bank, feats, [0, 0, 0], [0.7, 0.7, 0.1])
    # third insert overflows; both residents tie at 0.7 so the older (step 0) leaves
    kept = sorted(r.step for r in bank.supports[0])
    assert kept == [1, 2]


def test_pseudo_label_ties_pick_lowest_class():
    labels, entropies = pseudo_label(np.array([[0.5, 0.5], [0.25, 0.75]]))
    npt.assert_array_equal(labels, [0, 1])
    assert abs(entropies[0] - math.log(2)) < 1e-12


def test_pseudo_label_entropy_matches_definition():
    rng = np.random.default_rng(2)
    p = softmax_rows(rng.standard_normal((8, 5)))
    _, entropies = pseudo_label(p)
    npt.assert_allclose(entropies, -(p * np.log(p)).sum(axis=1), atol=1e-12)


def test_init_from_classifier_copies_columns():
    clf = LinearClassifier.create(4, 3, seed=3)
    bank = init_from_classifier(clf, capacity_per_class=8, top_k=2)
    for j in range(3):
        npt.assert_array_equal(bank.prototypes[j], clf.omega[:, j])
    bank.prototypes[0][0] += 1.0
    assert clf.omega[0, 0] != bank.prototypes[0][0]  # independent storage


def test_refresh_after_init_is_a_fixed_point():
    clf = LinearClassifier.create(4, 3, seed=4)
    before_w = clf.omega.copy()
    before_b = clf.bias.copy()
    bank = init_from_classifier(clf)
    refresh_classifier(bank, clf)  # no supports -> nothing may change
    npt.assert_array_equal(clf.omega, before_w)
    npt.assert_array_equal(clf.bias, before_b)


def test_refresh_overwrites_supported_classes_and_zeroes_bias():
    rng = np.random.default_rng(5)
    clf = LinearClassifier.create(3, 2, seed=6)
    clf.bias[:] = [0.5, -0.5]
    untouched = clf.omega[:, 1].copy()
    bank = init_from_classifier(clf, top_k=4)
    feats = rng.standard_normal((5, 3))
    entropies = rng.random(5)
    insert_and_select(bank, feats, [0] * 5, entropies)
    compute_prototypes(bank)
    refresh_classifier(bank, clf)
    best4 = feats[np.argsort(entropies, kind="stable")[:4]]
    npt.assert_allclose(clf.omega[:, 0], best4.mean(axis=0), atol=1e-12)
    assert clf.bias[0] == 0.0
    npt.assert_array_equal(clf.omega[:, 1], untouched)
    assert clf.bias[1] == -0.5


def test_refresh_is_idempotent():
    rng = np.random.default_rng(7)
    clf = LinearClassifier.create(3, 2, seed=8)
    bank = init_from_classifier(clf)
    insert_and_select(bank, rng.standard_normal((6, 3)), rng.integers(0, 2, 6), rng.random(6))
    compute_prototypes(bank)
    refresh_classifier(bank, clf)
    w1, b1 = clf.omega.copy(), clf.bias.copy()
    refresh_classifier(bank, clf)
    npt.assert_array_equal(clf.omega, w1)
    npt.assert_array_equal(clf.bias, b1)


def test_empty_class_keeps_prototype():
    clf = LinearClassifier.create(3, 2, seed=9)
    bank = init_from_classifier(clf)
    insert_and_select(bank, np.ones((2, 3)), [0, 0], [0.1, 0.2])
    protos = compute_prototypes(bank)
    npt.assert_array_equal(protos[1], clf.omega[:, 1])  # class 1 never saw data


def test_bank_validation():
    with pytest.raises(ConfigError):
        MemoryBank(1, 4)
    with pytest.raises(ConfigError):
        MemoryBank(2, 4, capacity_per_class=0)
    bank = MemoryBank(2, 4)
    with pytest.raises(DimensionError):
        insert_and_select(bank, np.ones((2, 3)), [0, 1], [0.1, 0.2])
    with pytest.raises(DimensionError):
        insert_and_select(bank, np.ones((2, 4)), [0, 5], [0.1, 0.2])


def test_batch_that_overflows_a_class_several_times_matches_row_by_row_eviction():
    # capacity 3 with 10-row batches over 2 classes: every batch overflows
    # each class more than once, and entropies in steps of 0.5 tie often
    rng = np.random.default_rng(11)
    num_classes, dim, capacity, top_k = 2, 4, 3, 2
    bank = MemoryBank(num_classes, dim, capacity_per_class=capacity, top_k=top_k)
    oracle = OracleBank(num_classes, capacity, top_k)

    step = 0
    for _ in range(40):
        feats = rng.standard_normal((10, dim))
        labels = rng.integers(0, num_classes, size=10)
        entropies = np.round(rng.uniform(0.0, 1.0, size=10) * 2) / 2
        insert_and_select(bank, feats, labels, entropies)
        compute_prototypes(bank)
        for i in range(10):
            oracle.insert(feats[i], int(labels[i]), float(entropies[i]), step)
            step += 1
        assert bank._next_step == step
        for j in range(num_classes):
            held = sorted((r.entropy, r.step) for r in bank.supports[j])
            assert held == sorted(w[:2] for w in oracle.rows[j])
            got, want = bank.selected(j), oracle.selected(j)
            assert [(r.entropy, r.step) for r in got] == [w[:2] for w in want]
            for rec, (_, _, f) in zip(got, want):
                npt.assert_array_equal(rec.feature, f)
            npt.assert_array_equal(bank.prototypes[j], oracle.prototype(j))


def test_out_of_range_label_leaves_the_bank_untouched():
    rng = np.random.default_rng(12)
    bank = MemoryBank(3, 2, capacity_per_class=4, top_k=2)
    insert_and_select(bank, rng.standard_normal((8, 2)), rng.integers(0, 3, 8), rng.random(8))
    counts, next_step = bank.support_counts(), bank._next_step
    held = {j: [(r.entropy, r.step, r.feature.copy()) for r in v]
            for j, v in bank.supports.items()}
    # the bad label comes after rows that would otherwise be inserted
    with pytest.raises(DimensionError, match="label 3 out of range"):
        insert_and_select(bank, np.zeros((4, 2)), [0, 1, 2, 3], [0.0] * 4)
    assert bank.support_counts() == counts
    assert bank._next_step == next_step
    for j, v in bank.supports.items():
        assert [(r.entropy, r.step) for r in v] == [h[:2] for h in held[j]]
        for r, h in zip(v, held[j]):
            npt.assert_array_equal(r.feature, h[2])
