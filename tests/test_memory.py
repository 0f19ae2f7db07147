"""Support bank against a brute-force full-sort oracle, plus refresh contracts."""

import contextlib
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginadapt import (
    ConfigError,
    DataError,
    DimensionError,
    LinearClassifier,
    MemoryBank,
    NumericalFailure,
    compute_prototypes,
    init_from_classifier,
    insert_and_select,
    pseudo_label,
    refresh_classifier,
    softmax_rows,
)
from marginadapt.numeric import checked_step


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

    def top_k_rows(self, label):
        # lowest entropy first, the newest first among equals
        return sorted(self.rows[label], key=lambda r: (r[0], -r[1]))[: self.top_k]

    def prototype(self, label):
        sel = self.top_k_rows(label)
        return np.mean([f for _, _, f in sel], axis=0) if sel else None


def test_insert_and_select_matches_oracle_on_thousand_insertions():
    rng = np.random.default_rng(0)
    # the oracle keeps 17 rows per class, the bank top_k = 5: rows past
    # top_k are never read, ties included
    num_classes, dim, capacity, top_k = 4, 6, 17, 5
    bank = MemoryBank(num_classes, dim, capacity_per_class=top_k)
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
        k = bank.counts[j]
        assert len(bank.supports[j]) == k == min(top_k, len(oracle.rows[j]))
        got = list(zip(bank.entropies[j, :k].tolist(), bank.steps[j, :k].tolist()))
        want = [(e, s) for e, s, _ in oracle.top_k_rows(j)]
        assert got == want, f"class {j} selection order"
        for feat, (_, _, f) in zip(bank.features[j, :k], oracle.top_k_rows(j)):
            npt.assert_array_equal(feat, f)

    protos = compute_prototypes(bank)
    for j in range(num_classes):
        npt.assert_allclose(protos[j], oracle.prototype(j), atol=1e-12)


def test_capacity_never_exceeded():
    rng = np.random.default_rng(1)
    bank = MemoryBank(2, 3, capacity_per_class=5)
    for _ in range(30):
        insert_and_select(
            bank, rng.standard_normal((4, 3)), rng.integers(0, 2, 4), rng.random(4)
        )
        assert all(c <= 5 for c in bank.counts)


def test_eviction_prefers_oldest_among_entropy_ties():
    bank = MemoryBank(2, 2, capacity_per_class=2)
    feats = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    insert_and_select(bank, feats, [0, 0, 0], [0.7, 0.7, 0.1])
    # third insert overflows; both residents tie at 0.7 so the older (step 0) leaves
    assert [r.step for r in bank.supports[0]] == [2, 1]


@pytest.mark.parametrize("same_batch", [False, True], ids=["separate", "same-batch"])
def test_prototype_takes_the_newer_of_two_tied_rows(same_batch):
    clf = LinearClassifier.create(2, 2, seed=3)
    bank = init_from_classifier(clf, top_k=1)
    feats = np.array([[1.0, 1.0], [2.0, 2.0]])
    if same_batch:
        insert_and_select(bank, feats, [0, 0], [0.25, 0.25])
    else:
        insert_and_select(bank, feats[:1], [0], [0.25])
        insert_and_select(bank, feats[1:], [0], [0.25])
    assert compute_prototypes(bank)[0].tolist() == [2.0, 2.0]
    assert bank.steps[0].tolist() == [1]


def test_pseudo_label_ties_pick_lowest_class():
    labels, entropies = pseudo_label(np.array([[0.5, 0.5], [0.25, 0.75]]))
    npt.assert_array_equal(labels, [0, 1])
    assert abs(entropies[0] - math.log(2)) < 1e-12


def test_pseudo_label_entropy_matches_definition():
    rng = np.random.default_rng(2)
    p = softmax_rows(rng.standard_normal((8, 5)))
    _, entropies = pseudo_label(p)
    npt.assert_allclose(entropies, -(p * np.log(p)).sum(axis=1), atol=1e-12)


def test_init_from_classifier_sizes_an_empty_bank():
    clf = LinearClassifier.create(4, 3, seed=3)
    bank = init_from_classifier(clf, top_k=2)
    assert (bank.num_classes, bank.feature_dim, bank.capacity_per_class) == (3, 4, 2)
    assert bank.features.shape == (3, 2, 4)
    assert bank.counts.tolist() == [0, 0, 0] and not bank.features.any()


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
    refresh_classifier(bank, clf)
    w1, b1 = clf.omega.copy(), clf.bias.copy()
    refresh_classifier(bank, clf)
    npt.assert_array_equal(clf.omega, w1)
    npt.assert_array_equal(clf.bias, b1)


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
    num_classes, dim, capacity = 2, 4, 3
    bank = MemoryBank(num_classes, dim, capacity_per_class=capacity)
    oracle = OracleBank(num_classes, capacity, capacity)

    step = 0
    for _ in range(40):
        feats = rng.standard_normal((10, dim))
        labels = rng.integers(0, num_classes, size=10)
        entropies = np.round(rng.uniform(0.0, 1.0, size=10) * 2) / 2
        insert_and_select(bank, feats, labels, entropies)
        protos = compute_prototypes(bank)
        for i in range(10):
            oracle.insert(feats[i], int(labels[i]), float(entropies[i]), step)
            step += 1
        assert bank._next_step == step
        for j in range(num_classes):
            held = sorted((r.entropy, r.step) for r in bank.supports[j])
            assert held == sorted(w[:2] for w in oracle.rows[j])
            k = bank.counts[j]
            want = oracle.top_k_rows(j)
            got = list(zip(bank.entropies[j, :k].tolist(), bank.steps[j, :k].tolist()))
            assert got == [w[:2] for w in want]
            for feat, (_, _, f) in zip(bank.features[j, :k], want):
                npt.assert_array_equal(feat, f)
            npt.assert_array_equal(protos[j], oracle.prototype(j))


def test_out_of_range_label_leaves_the_bank_untouched():
    rng = np.random.default_rng(12)
    bank = MemoryBank(3, 2, capacity_per_class=4)
    insert_and_select(bank, rng.standard_normal((8, 2)), rng.integers(0, 3, 8), rng.random(8))
    counts, next_step = bank.counts.copy(), bank._next_step
    held = {j: [(r.entropy, r.step, r.feature.copy()) for r in v]
            for j, v in bank.supports.items()}
    # the bad label comes after rows that would otherwise be inserted
    with pytest.raises(DimensionError, match="label 3 out of range"):
        insert_and_select(bank, np.zeros((4, 2)), [0, 1, 2, 3], [0.0] * 4)
    npt.assert_array_equal(bank.counts, counts)
    assert bank._next_step == next_step
    for j, v in bank.supports.items():
        assert [(r.entropy, r.step) for r in v] == [h[:2] for h in held[j]]
        for r, h in zip(v, held[j]):
            npt.assert_array_equal(r.feature, h[2])


@pytest.mark.parametrize("dim", [1, 7])
@pytest.mark.parametrize("top_k", [3, 12])
def test_prototypes_are_bit_exact_per_class_means_after_many_evictions(dim, top_k):
    # 200 inserts: classes 0-2 overflow many times, class 3 holds 3 rows, class
    # 4 one row, class 5 none. With top_k 12 and one column numpy sums a class
    # pairwise, in an order set by the number of rows summed, so a reduction
    # over all classes at once would not match the per-class mean there
    rng = np.random.default_rng(13)
    num_classes = 6
    bank = MemoryBank(num_classes, dim, capacity_per_class=top_k)
    labels = rng.integers(0, 3, size=200)
    labels[[20, 90, 150]] = 3
    labels[60] = 4
    for batch in labels.reshape(25, 8):
        feats = rng.standard_normal((8, dim)) * 10.0 ** rng.uniform(-3, 6, size=(8, 1))
        entropies = np.round(rng.uniform(0.0, 1.0, size=8) * 4) / 4
        insert_and_select(bank, feats, batch, entropies)
        protos = compute_prototypes(bank)
        for j, n_held in enumerate(bank.counts.tolist()):
            want = bank.features[j, :n_held].mean(axis=0) if n_held else np.zeros(dim)
            npt.assert_array_equal(protos[j], want)
            # slots past the count have never been written
            assert (bank.features[j, n_held:].view(np.uint64) == 0).all()
    assert bank.counts.tolist() == [top_k] * 3 + [3, 1, 0]


@st.composite
def _filled_banks(draw):
    """A bank whose classes are empty, partly filled or full, with values
    over nine decades (so the order of a sum shows) and some -0.0 columns;
    the slots past each count are left as the bank made them."""
    num_classes = draw(st.integers(2, 6))
    cap = draw(st.integers(1, 24))
    dim = draw(st.sampled_from([1, 2, 3, 7]))
    bank = MemoryBank(num_classes, dim, capacity_per_class=cap)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for j in range(num_classes):
        n = draw(st.sampled_from([0, cap, int(rng.integers(0, cap + 1))]))
        feats = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 6, size=(n, 1))
        if rng.random() < 0.3:
            feats[:, int(rng.integers(dim))] = -0.0
        bank.features[j, :n] = feats
        bank.counts[j] = n
    return bank


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_filled_banks())
def test_prototypes_equal_the_per_class_means_bit_for_bit(bank):
    # a class without rows gets 0.0
    protos = compute_prototypes(bank)
    for j, n in enumerate(bank.counts.tolist()):
        want = bank.features[j, :n].mean(axis=0) if n else np.zeros(bank.feature_dim)
        npt.assert_array_equal(protos[j].view(np.uint64), want.view(np.uint64))


def test_compute_prototypes_returns_a_new_array_and_leaves_the_bank_as_it_is():
    rng = np.random.default_rng(15)
    bank = MemoryBank(3, 4, capacity_per_class=3)
    insert_and_select(bank, rng.standard_normal((7, 4)), [0, 0, 0, 0, 1, 1, 0], rng.random(7))
    arrays = (bank.features, bank.entropies, bank.steps, bank.counts)
    before = [a.tobytes() for a in arrays]
    first = compute_prototypes(bank)
    second = compute_prototypes(bank)
    assert first.shape == (3, 4) and first is not second
    assert not any(np.shares_memory(first, a) for a in arrays)
    assert [a.tobytes() for a in arrays] == before
    npt.assert_array_equal(first, second)
    assert not first[2].any()  # class 2 holds no row


def _full_sort_insert(bank, features, labels, entropies):
    """The insert without grouping: for each class a masked gather and one
    full sort of held + new rows by (entropy, newest first)."""
    labels = np.asarray(labels).astype(np.int64, copy=False)
    entropies = np.asarray(entropies, dtype=np.float64)
    n = features.shape[0]
    steps = np.arange(bank._next_step, bank._next_step + n, dtype=np.int64)
    bank._next_step += n
    for j in np.unique(labels).tolist():
        rows = labels == j
        held = bank.counts[j]
        ent = np.concatenate((bank.entropies[j, :held], entropies[rows]))
        stp = np.concatenate((bank.steps[j, :held], steps[rows]))
        feats = np.concatenate((bank.features[j, :held], features[rows]))
        keep = np.lexsort((-stp, ent))[: bank.capacity_per_class]
        m = keep.shape[0]
        bank.features[j, :m] = feats[keep]
        bank.entropies[j, :m] = ent[keep]
        bank.steps[j, :m] = stp[keep]
        bank.counts[j] = m


def _assert_same_bank(got, want):
    # bits, so -0.0 against 0.0 or a NaN payload would show
    npt.assert_array_equal(got.features.view(np.uint64), want.features.view(np.uint64))
    npt.assert_array_equal(got.entropies.view(np.uint64), want.entropies.view(np.uint64))
    npt.assert_array_equal(got.steps, want.steps)
    npt.assert_array_equal(got.counts, want.counts)
    assert got._next_step == want._next_step


@pytest.mark.parametrize("capacity", range(1, 9))
def test_grouped_insert_is_bit_identical_to_a_full_sort_insert(capacity):
    rng = np.random.default_rng(100 + capacity)
    num_classes, dim = 4, 3
    got = MemoryBank(num_classes, dim, capacity_per_class=capacity)
    want = MemoryBank(num_classes, dim, capacity_per_class=capacity)
    for _ in range(60):
        n = int(rng.integers(0, 13))
        feats = rng.standard_normal((n, dim))
        feats[rng.random((n, dim)) < 0.1] = -0.0
        labels = rng.integers(0, num_classes, size=n)
        entropies = np.round(rng.uniform(0.0, 1.5, size=n) * 4) / 4  # many ties
        insert_and_select(got, feats, labels, entropies)
        _full_sort_insert(want, feats, labels, entropies)
        _assert_same_bank(got, want)


def test_full_class_that_gets_only_worse_rows_is_left_as_it_is():
    bank = MemoryBank(2, 2, capacity_per_class=3)
    insert_and_select(bank, np.arange(6.0).reshape(3, 2), [0, 0, 0], [0.1, 0.2, 0.3])
    before = (bank.features.copy(), bank.entropies.copy(), bank.steps.copy())
    insert_and_select(bank, np.ones((2, 2)), [0, 0], [0.5, 0.30000000000000004])
    npt.assert_array_equal(bank.features, before[0])
    npt.assert_array_equal(bank.entropies, before[1])
    npt.assert_array_equal(bank.steps, before[2])
    assert bank.counts.tolist() == [3, 0]
    assert bank._next_step == 5


def test_new_row_that_ties_the_worst_held_entropy_enters():
    bank = MemoryBank(2, 1, capacity_per_class=3)
    insert_and_select(bank, np.array([[0.0], [1.0], [2.0]]), [0, 0, 0], [0.1, 0.3, 0.3])
    insert_and_select(bank, np.array([[9.0], [5.0]]), [1, 0], [0.0, 0.3])
    # the oldest of the three rows at 0.3 (step 1) leaves, the new one enters
    # ahead of the held row it ties
    assert bank.steps[0].tolist() == [0, 4, 2]
    assert bank.entropies[0].tolist() == [0.1, 0.3, 0.3]
    assert bank.features[0, :, 0].tolist() == [0.0, 5.0, 2.0]
    assert bank.counts.tolist() == [3, 1]
    want = MemoryBank(2, 1, capacity_per_class=3)
    _full_sort_insert(want, np.array([[0.0], [1.0], [2.0]]), [0, 0, 0], [0.1, 0.3, 0.3])
    _full_sort_insert(want, np.array([[9.0], [5.0]]), [1, 0], [0.0, 0.3])
    _assert_same_bank(bank, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_entropy_leaves_the_bank_untouched(bad):
    rng = np.random.default_rng(14)
    bank = MemoryBank(3, 2, capacity_per_class=2)
    insert_and_select(bank, rng.standard_normal((8, 2)), rng.integers(0, 3, 8), rng.random(8))
    before = (bank.features.copy(), bank.entropies.copy(), bank.steps.copy(),
              bank.counts.copy(), bank._next_step)
    with pytest.raises(NumericalFailure, match="insert_and_select: entropies"):
        insert_and_select(bank, np.zeros((3, 2)), [0, 1, 2], [0.0, bad, 0.0])
    npt.assert_array_equal(bank.features, before[0])
    npt.assert_array_equal(bank.entropies, before[1])
    npt.assert_array_equal(bank.steps, before[2])
    npt.assert_array_equal(bank.counts, before[3])
    assert bank._next_step == before[4]


def test_a_checked_step_does_not_scan_the_entropies_it_made():
    # inside a checked step the entropies come from pseudo_label of
    # probabilities the step has checked, so the bank takes them as they are
    bank = MemoryBank(2, 2, capacity_per_class=2)
    with checked_step():
        insert_and_select(bank, np.ones((2, 2)), [0, 1], [np.nan, 0.5])
    assert bank.counts.tolist() == [1, 1]
    with pytest.raises(NumericalFailure, match="^insert_and_select: entropies contains NaN or Inf$"):
        insert_and_select(bank, np.ones((2, 2)), [0, 1], [np.nan, 0.5])


@pytest.mark.parametrize("labels", [np.array([1.7, 2.9]), [1.0, 2.0], np.array([True, False])],
                         ids=["fractional", "whole-floats", "bool"])
def test_non_integer_labels_are_refused_in_and_out_of_a_checked_step(labels):
    # a cast would truncate them: [1.7, 2.9] went into classes 1 and 2
    bank = MemoryBank(3, 2, capacity_per_class=2)
    dtype = np.asarray(labels).dtype
    for context in (contextlib.nullcontext, checked_step):
        with context(), pytest.raises(
                DataError, match=f"^insert_and_select: labels must be integers, got dtype {dtype}$"):
            insert_and_select(bank, np.ones((2, 2)), labels, [0.1, 0.2])
    assert bank.counts.tolist() == [0, 0, 0] and bank._next_step == 0
