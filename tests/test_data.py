"""Generator geometry, shift invariants, CSV round-trips, holdout splits."""

import csv
import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from marginadapt import (
    ConfigError,
    DataError,
    DomainDataset,
    ParseError,
    SchemaError,
    ShiftSpec,
    gen_synthetic_shift,
    load_csv,
    load_csv_domains,
    plane_rotation,
    span_rotation,
    split_holdout,
    write_csv,
)
from marginadapt.data import (
    CLASS_SEPARATION,
    SOURCE_ANGLE_MAX_DEG,
    TRANSLATION_STD,
    WITHIN_CLASS_STD,
    random_unit_pair,
)


def test_generation_is_seed_deterministic():
    a_sources, a_target = gen_synthetic_shift(ShiftSpec(seed=7, samples_per_domain=64))
    b_sources, b_target = gen_synthetic_shift(ShiftSpec(seed=7, samples_per_domain=64))
    for a, b in zip(a_sources + [a_target], b_sources + [b_target]):
        npt.assert_array_equal(a.features, b.features)
        npt.assert_array_equal(a.labels, b.labels)
    c_sources, _ = gen_synthetic_shift(ShiftSpec(seed=8, samples_per_domain=64))
    assert not np.array_equal(a_sources[0].features, c_sources[0].features)


def test_label_marginals_identical_across_domains():
    sources, target = gen_synthetic_shift(ShiftSpec(seed=0, samples_per_domain=103))
    expect = np.bincount(sources[0].labels, minlength=4)
    for ds in sources[1:] + [target]:
        npt.assert_array_equal(np.bincount(ds.labels, minlength=4), expect)


def test_class_mean_separation_matches_spec():
    spec = ShiftSpec(seed=1, samples_per_domain=40)
    _, target = gen_synthetic_shift(spec)
    base = np.asarray(target.metadata["base_class_means"])
    want = CLASS_SEPARATION * WITHIN_CLASS_STD
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.linalg.norm(base[i] - base[j]) - want) < 1e-9


def test_zero_angle_is_the_identity_and_the_translation_one_noise_std():
    spec = ShiftSpec(seed=2, angle_deg=0.0, samples_per_domain=40)
    _, target = gen_synthetic_shift(spec)
    npt.assert_allclose(
        np.asarray(target.metadata["transform"]["rotation"]), np.eye(16), atol=1e-12
    )
    t = np.asarray(target.metadata["transform"]["translation"])
    assert abs(np.linalg.norm(t) - WITHIN_CLASS_STD) < 1e-12
    npt.assert_allclose(
        np.asarray(target.metadata["class_means"]),
        np.asarray(target.metadata["base_class_means"]) + t,
        atol=1e-12,
    )


def test_plane_rotation_basics():
    rng = np.random.default_rng(3)
    u, v = random_unit_pair(rng, 8)
    npt.assert_array_equal(plane_rotation(u, v, 0.0), np.eye(8))
    r = plane_rotation(u, v, 90.0)
    npt.assert_allclose(r @ u, v, atol=1e-12)
    npt.assert_allclose(r @ r.T, np.eye(8), atol=1e-12)


def test_span_rotation_turns_every_mean_by_the_nominal_angle():
    rng = np.random.default_rng(4)
    for angle in (10.0, 30.0, 75.0):
        spec = ShiftSpec(seed=5, samples_per_domain=40)
        _, target = gen_synthetic_shift(spec)
        means = np.asarray(target.metadata["base_class_means"])
        rot = span_rotation(np.random.default_rng(0), means, angle)
        npt.assert_allclose(rot @ rot.T, np.eye(16), atol=1e-12)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9
        for mu in means:
            rotated = rot @ mu
            cos = float(mu @ rotated / (np.linalg.norm(mu) * np.linalg.norm(rotated)))
            assert abs(cos - math.cos(math.radians(angle))) < 1e-9
            assert abs(np.linalg.norm(rotated) - np.linalg.norm(mu)) < 1e-9


def test_span_rotation_fixes_the_orthogonal_complement():
    rng = np.random.default_rng(6)
    means = ShiftSpec(seed=7, samples_per_domain=40)
    _, target = gen_synthetic_shift(means)
    base = np.asarray(target.metadata["base_class_means"])
    rot = span_rotation(rng, base, 30.0)
    # a vector orthogonal to all means must pass through unchanged
    q, _ = np.linalg.qr(base.T)
    v = np.random.default_rng(8).standard_normal(16)
    v -= q @ (q.T @ v)
    npt.assert_allclose(rot @ v, v, atol=1e-9)


@pytest.mark.parametrize("angle", [0.0, 30.0])
def test_rotated_target_means_recorded_in_metadata(angle):
    spec = ShiftSpec(seed=9, angle_deg=angle, samples_per_domain=40)
    _, target = gen_synthetic_shift(spec)
    meta = target.metadata["transform"]
    rot = np.asarray(meta["rotation"])
    t = np.asarray(meta["translation"])
    base = np.asarray(target.metadata["base_class_means"])
    npt.assert_allclose(
        np.asarray(target.metadata["class_means"]), base @ rot.T + t, atol=1e-12
    )
    assert abs(np.linalg.norm(t) - TRANSLATION_STD * WITHIN_CLASS_STD) < 1e-9
    if angle == 0.0:  # a pure translation
        npt.assert_array_equal(rot, np.eye(16))


def test_source_rotations_stay_under_the_cap():
    sources, _ = gen_synthetic_shift(ShiftSpec(seed=12, samples_per_domain=40))
    for ds in sources:
        assert 0.0 <= ds.metadata["transform"]["angle_deg"] <= SOURCE_ANGLE_MAX_DEG


def test_spec_refuses_an_input_dim_whose_rotations_are_too_large():
    ShiftSpec(input_dim=1024).validate()
    with pytest.raises(ConfigError, match=r"^input_dim must be <= 1024, got 1025: .* "
                                          r"dense 1025 x 1025 matrix of 8405000 bytes$"):
        ShiftSpec(input_dim=1025).validate()


def test_spec_validation_errors():
    for bad in (
        ShiftSpec(num_classes=1),
        ShiftSpec(input_dim=2),
        ShiftSpec(angle_deg=181.0),
        ShiftSpec(samples_per_domain=2),
    ):
        with pytest.raises(ConfigError):
            bad.validate()


def test_csv_round_trip_is_bit_exact(tmp_path):
    sources, target = gen_synthetic_shift(ShiftSpec(seed=14, samples_per_domain=24))
    path = tmp_path / "mixed.csv"
    write_csv(sources + [target], path)
    back = load_csv_domains(path, num_classes=4)
    assert sorted(back) == sorted(ds.domain_id for ds in sources + [target])
    for ds in sources + [target]:
        npt.assert_array_equal(back[ds.domain_id].features, ds.features)
        npt.assert_array_equal(back[ds.domain_id].labels, ds.labels)


def test_csv_bytes_match_a_per_value_repr_writer(tmp_path):
    sources, target = gen_synthetic_shift(ShiftSpec(seed=16, samples_per_domain=24))
    odd = DomainDataset(
        features=np.resize([-0.0, 5e-324, 1e300, 0.1, 1.0 / 3.0, -2.5e-8, 7.0, -1e-300],
                           (2, 16)),
        labels=np.array([3, 0]), num_classes=4, domain_id="odd",
    )
    # csv quotes this domain id and doubles its quote
    quoted = DomainDataset(
        features=np.arange(48.0).reshape(3, 16) / 7.0,
        labels=np.array([1, 2, 0]), num_classes=4, domain_id='a,"b',
    )
    datasets = sources + [target, odd, quoted]
    path = tmp_path / "mixed.csv"
    write_csv(datasets, path)
    # reference writer: one repr(float(v)) per value, one row at a time
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(16)] + ["label", "domain"])
        for ds in datasets:
            for row, lab in zip(ds.features, ds.labels):
                writer.writerow([repr(float(v)) for v in row] + [int(lab), ds.domain_id])
    digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (path, ref)]
    assert digest[0] == digest[1]
    assert '"a,""b"' in path.read_text()
    back = load_csv_domains(path, num_classes=4)
    assert list(back) == [ds.domain_id for ds in datasets]
    for ds in datasets:
        assert back[ds.domain_id].features.tobytes() == ds.features.tobytes()
        npt.assert_array_equal(back[ds.domain_id].labels, ds.labels)


def test_write_csv_refuses_mixed_widths_before_touching_the_file(tmp_path):
    # a 4-column domain then a 3-column one: nothing may be written, or the
    # first domain's rows would load back as a valid one-domain file
    a = DomainDataset(features=np.ones((2, 4)), labels=np.array([0, 1]),
                      num_classes=2, domain_id="a")
    b = DomainDataset(features=np.ones((2, 3)), labels=np.array([1, 0]),
                      num_classes=2, domain_id="b")
    path = tmp_path / "mixed.csv"
    with pytest.raises(DataError, match="^write_csv: feature widths differ"):
        write_csv([a, b], path)
    assert not path.exists()
    write_csv([b], path)
    before = path.read_bytes()
    with pytest.raises(DataError, match="^write_csv: feature widths differ"):
        write_csv([a, b], path)
    assert path.read_bytes() == before


def test_load_csv_refuses_a_file_of_several_domains(tmp_path):
    sources, target = gen_synthetic_shift(ShiftSpec(seed=15, samples_per_domain=12))
    path = tmp_path / "all.csv"
    write_csv(sources + [target], path)
    domains = r"\['source_0', 'source_1', 'source_2', 'target'\]"
    with pytest.raises(DataError, match=rf"all\.csv: holds {domains} domains, expected one$"):
        load_csv(path, num_classes=4)


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label,domain\n1.0,2.0,0,d\n1.0,oops,1,d\n")
    with pytest.raises(ParseError) as err:
        load_csv(path)
    assert "line 3" in str(err.value)
    short = tmp_path / "short.csv"
    short.write_text("f0,f1,label,domain\n1.0,0,d\n")
    with pytest.raises(SchemaError) as err:  # wrong width is structural
        load_csv(short)
    assert "line 2" in str(err.value)
    labels = tmp_path / "labels.csv"
    labels.write_text("f0,f1,label,domain\n1.0,2.0,0,d\n1.0,2.0,1.5,d\n")
    with pytest.raises(ParseError, match="line 3: label '1.5' is not an integer"):
        load_csv(labels)
    labels.write_text("f0,f1,label,domain\n1.0,2.0,0,d\n1.0,2.0,1,d\n1.0,2.0,7,d\n")
    with pytest.raises(DataError, match=r"line 4: label 7 outside \[0, 4\)"):
        load_csv(labels, num_classes=4)
    # blank lines count: the bad value sits on line 5
    blank = tmp_path / "blank.csv"
    blank.write_text("f0,f1,label,domain\n\n1.0,2.0,0,d\n\n1.0,x,1,d\n")
    with pytest.raises(ParseError, match="line 5: bad float"):
        load_csv(blank)
    # an error past the first block of converted rows still names its line,
    # and an earlier bad float wins over a later wrong width
    rows = ["1.0,2.0,0,d"] * 600
    rows[400] = "1.0,2.0e,0,d"
    rows[450] = "1.0,0,d"
    late = tmp_path / "late.csv"
    late.write_text("\n".join(["f0,f1,label,domain"] + rows) + "\n")
    with pytest.raises(ParseError, match="line 402: bad float .*'2.0e'"):
        load_csv(late)


def test_csv_label_bounds_checked(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("f0,label,domain\n1.0,4,d\n")
    with pytest.raises(DataError):
        load_csv(path, num_classes=4)


def test_split_holdout_is_stratified_and_deterministic():
    rng = np.random.default_rng(16)
    labels = np.repeat([0, 1, 2], [50, 30, 20])
    ds = DomainDataset(rng.standard_normal((100, 3)), labels, 3, "d")
    train, val = split_holdout(ds, 0.2, seed=5)
    assert val.n == 20 and train.n == 80
    npt.assert_array_equal(np.bincount(val.labels), [10, 6, 4])
    train2, val2 = split_holdout(ds, 0.2, seed=5)
    npt.assert_array_equal(val.features, val2.features)
    _, val3 = split_holdout(ds, 0.2, seed=6)
    assert not np.array_equal(val.features, val3.features)


def test_split_holdout_rows_partition_the_dataset():
    rng = np.random.default_rng(17)
    ds = DomainDataset(rng.standard_normal((37, 2)), rng.integers(0, 3, 37), 3, "d")
    train, val = split_holdout(ds, 0.25, seed=0)
    merged = np.vstack([train.features, val.features])
    assert merged.shape[0] == ds.n
    # every original row appears exactly once
    order = np.lexsort(ds.features.T)
    morder = np.lexsort(merged.T)
    npt.assert_array_equal(ds.features[order], merged[morder])


def test_split_holdout_degenerate_fractions():
    ds = DomainDataset(np.ones((4, 2)), [0, 1, 0, 1], 2, "d")
    with pytest.raises(ConfigError):
        split_holdout(ds, 0.0)
    with pytest.raises(DataError):
        split_holdout(ds, 0.05)  # rounds to an empty holdout


def _holdout_indices_with_greedy_fill(labels, fraction, seed):
    """The (train, val) row indices of split_holdout as it was written with
    a per-class spare-row test and a greedy fill after the largest-remainder
    pass; kept to show that neither step ever changed a split."""
    n = labels.shape[0]
    n_val = int(round(fraction * n))
    if n_val < 1 or n_val >= n:
        return None
    rng = np.random.default_rng(seed)
    present = sorted(int(c) for c in np.unique(labels))
    quotas, remainders, total = {}, [], 0
    for c in present:
        exact = fraction * int((labels == c).sum())
        quotas[c] = int(math.floor(exact))
        total += quotas[c]
        remainders.append((-(exact - quotas[c]), c))
    remainders.sort()
    i = 0
    while total < n_val and i < len(remainders):
        c = remainders[i][1]
        if quotas[c] < int((labels == c).sum()):
            quotas[c] += 1
            total += 1
        i += 1
    while total < n_val:
        for c in present:
            if total >= n_val:
                break
            if quotas[c] < int((labels == c).sum()):
                quotas[c] += 1
                total += 1
    val_idx = []
    for c in present:
        idx = np.flatnonzero(labels == c)
        val_idx.extend(idx[rng.permutation(idx.shape[0])[: quotas[c]]].tolist())
    val_mask = np.zeros(n, dtype=bool)
    val_mask[val_idx] = True
    return np.flatnonzero(~val_mask), np.flatnonzero(val_mask)


def test_split_holdout_matches_the_greedy_fill_version():
    fractions = [0.05, 0.1, 0.15, 0.2, 0.25, 1 / 3, 0.4, 0.5, 0.6, 2 / 3, 0.75, 0.9]
    rng = np.random.default_rng(18)
    compared = 0
    for num_classes in range(2, 9):
        for start in range(13):
            counts = [(start + 5 * j) % 13 + 1 for j in range(num_classes)]
            labels = rng.permutation(np.repeat(np.arange(num_classes), counts))
            ds = DomainDataset(np.arange(labels.shape[0], dtype=float)[:, None],
                               labels, num_classes, "d")
            for k, fraction in enumerate(fractions):
                expected = _holdout_indices_with_greedy_fill(labels, fraction, seed=k)
                if expected is None:
                    with pytest.raises(DataError):
                        split_holdout(ds, fraction, seed=k)
                    continue
                train, val = split_holdout(ds, fraction, seed=k)
                npt.assert_array_equal(train.features[:, 0], expected[0])
                npt.assert_array_equal(val.features[:, 0], expected[1])
                compared += 1
    assert compared > 900


def test_domain_dataset_validation():
    with pytest.raises(DataError):
        DomainDataset(np.ones((2, 2)), [0], 2, "d")
    with pytest.raises(DataError):
        DomainDataset(np.array([[np.inf, 0.0]]), [0], 2, "d")
    with pytest.raises(DataError):
        DomainDataset(np.ones((2, 2)), [0, 3], 2, "d")
