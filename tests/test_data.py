"""Generator geometry, shift invariants, CSV round-trips, holdout splits."""

import csv
import hashlib
import json
import math
import os
import re
import shutil
import tempfile
import tracemalloc
import types

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from marginadapt import data
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


def test_write_csv_refuses_a_dataset_without_feature_columns(tmp_path):
    # its header would be label,domain, which the reader refuses
    empty = DomainDataset(features=np.ones((2, 0)), labels=np.array([0, 1]),
                          num_classes=2, domain_id="a")
    path = tmp_path / "empty.csv"
    with pytest.raises(DataError, match="^write_csv: the datasets have no feature columns$"):
        write_csv(empty, path)
    assert os.listdir(tmp_path) == []


_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.7976931348623157e308]


@st.composite
def _csv_datasets(draw):
    """One to four datasets of a common width and class count, with values
    over the whole float range, special values among them, and ids that csv
    must quote, some repeated."""
    dim = draw(st.integers(1, 20))
    num_classes = draw(st.integers(2, 5))
    ids = st.lists(st.sampled_from(["a", "b", ",", '"', "\r\n", "\n", " ", "\u00e9"]),
                   max_size=4).map("".join)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    one_domain = draw(st.booleans())  # every dataset under the first id
    datasets = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        feats = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-320, 308, (n, dim))
        special = rng.random((n, dim)) < 0.3
        feats[special] = rng.choice(_SPECIAL, int(special.sum()))
        datasets.append(DomainDataset(
            features=feats, labels=rng.integers(0, num_classes, n),
            num_classes=num_classes,
            domain_id=datasets[0].domain_id if one_domain and datasets else draw(ids)))
    return datasets


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_csv_datasets())
def test_a_read_through_the_sidecar_equals_the_parse_bit_for_bit(datasets):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        write_csv(datasets, path)
        assert sorted(os.listdir(tmp)) == ["d.csv", "d.csv.npy"]
        num_classes = datasets[0].num_classes
        stored = data._parse_rows(path)
        via = load_csv_domains(path, num_classes)
        os.remove(path + ".npy")
        parsed = data._parse_rows(path)
        back = load_csv_domains(path, num_classes)
    features, labels, names, codes, lines = stored
    assert features.tobytes() == parsed[0].tobytes() and features.shape == parsed[0].shape
    assert labels.dtype == parsed[1].dtype and labels.tolist() == parsed[1].tolist()
    assert names == parsed[2]
    assert codes.dtype == parsed[3].dtype and codes.tolist() == parsed[3].tolist()
    assert list(lines) == list(parsed[4])
    assert list(via) == list(back)
    for name, ds in via.items():
        assert ds.features.tobytes() == back[name].features.tobytes()
        assert ds.labels.tobytes() == back[name].labels.tobytes()
        assert ds.num_classes == back[name].num_classes
    # and both are the rows written, each domain's in file order, whether
    # the file holds one domain (read without regrouping) or several
    rows = np.concatenate([ds.features for ds in datasets])
    assert features.tobytes() == rows.tobytes()
    for name, ds in via.items():
        mine = [d for d in datasets if d.domain_id == name]
        assert ds.features.tobytes() == np.concatenate([d.features for d in mine]).tobytes()
        assert ds.labels.tolist() == np.concatenate([d.labels for d in mine]).tolist()
    assert len(via) == len({d.domain_id for d in datasets})


def _written(tmp_path, name="t.csv", seed=17):
    sources, target = gen_synthetic_shift(ShiftSpec(seed=seed, samples_per_domain=12))
    path = tmp_path / name
    write_csv(sources + [target], path)
    return path


def _parse_alone(tmp_path, path, num_classes=4):
    """load_csv_domains of a copy of `path` without its sidecar."""
    alone = tmp_path / "alone"
    alone.mkdir(exist_ok=True)
    copy = shutil.copy(path, alone / "copy.csv")
    try:
        return load_csv_domains(copy, num_classes=num_classes)
    except DataError as e:
        return type(e), str(e).replace(str(copy), str(path))


def _load(path, num_classes=4):
    try:
        return load_csv_domains(path, num_classes=num_classes)
    except DataError as e:
        return type(e), str(e)


def _same(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return list(a) == list(b) and all(
        a[k].features.tobytes() == b[k].features.tobytes()
        and a[k].labels.tobytes() == b[k].labels.tobytes() for k in a)


def test_a_matching_sidecar_is_read_without_parsing(tmp_path, monkeypatch):
    path = _written(tmp_path)
    want = _parse_alone(tmp_path, path)

    def no_parse(*args):
        raise AssertionError("parsed")

    monkeypatch.setattr(data, "_float_block", no_parse)
    assert _same(_load(path), want)


def test_a_csv_changed_after_writing_is_parsed(tmp_path):
    path = _written(tmp_path)
    text = path.read_bytes()
    lines = text.split(b"\r\n")
    *features, _, domain = lines[4].split(b",")
    changed = {
        # one feature byte: the parse reads the new value
        "feature": text.replace(lines[3], lines[3].replace(b"1", b"2", 1)),
        "header": text.replace(b"f0,", b"g0,", 1),
        # a label past num_classes on the fifth line
        "label": text.replace(lines[4], b",".join(features + [b"7", domain])),
    }
    for kind, new in changed.items():
        assert new != text, kind
        path.write_bytes(new)
        assert _same(_load(path), _parse_alone(tmp_path, path)), kind
    assert _load(path) == (DataError, f"{path}: line 5: label 7 outside [0, 4)")
    path.write_bytes(changed["header"])
    assert _load(path) == (SchemaError, f"{path}: feature columns must be named f0..f15")


def test_a_truncated_garbage_or_foreign_sidecar_is_ignored(tmp_path):
    path = _written(tmp_path)
    side = tmp_path / "t.csv.npy"
    whole = side.read_bytes()
    want = _parse_alone(tmp_path, path)
    other = _written(tmp_path, "other.csv", seed=18)
    cases = {
        "truncated head": whole[:60],
        "truncated arrays": whole[:-9],
        "garbage": bytes(range(256)) * 4,
        "empty": b"",
        "another file's": (tmp_path / "other.csv.npy").read_bytes(),
    }
    for kind, blob in cases.items():
        side.write_bytes(blob)
        assert _same(_load(path), want), kind
    # the digest of these bytes, said to be in another encoding: its arrays
    # (here made wrong) are not used
    with open(other.with_suffix(".csv.npy"), "rb") as fh:
        head, *arrays = [np.load(fh) for _ in range(4)]
    head = json.loads(head.tobytes())
    head["encoding"] += "-other"
    with open(other.with_suffix(".csv.npy"), "wb") as fh:
        np.save(fh, np.frombuffer(json.dumps(head).encode(), dtype=np.uint8))
        for array in arrays:
            np.save(fh, array + 1 if array.dtype == np.float64 else array)
    assert _same(_load(other), _parse_alone(tmp_path, other))
    assert sorted(os.listdir(tmp_path)) == ["alone", "other.csv", "other.csv.npy",
                                            "t.csv", "t.csv.npy"]


@pytest.mark.parametrize("past_end", [False, True], ids=["negative", "past_end"])
def test_a_sidecar_whose_domain_codes_are_out_of_range_is_ignored(tmp_path, past_end):
    path = _written(tmp_path)
    with open(f"{path}.npy", "rb") as fh:
        head, features, labels, codes = [np.load(fh) for _ in range(4)]
    names = json.loads(head.tobytes())["domains"]
    codes[codes == 0] = len(names) if past_end else -1
    with open(f"{path}.npy", "wb") as fh:
        for array in (head, features, labels, codes):
            np.save(fh, array)
    assert _same(_load(path), _parse_alone(tmp_path, path))


@pytest.mark.parametrize("text, error, message", [
    ("a,b,c\r\n1,0,d\r\n", SchemaError,
     "header must be f0..fk,label,domain, got ['a', 'b', 'c']..."),
    ("", SchemaError, "empty file"),
    ("f0,label,domain\r\n", DataError, "no data rows"),
    ("f0,label,domain\r\n\r\n\r\n", DataError, "no data rows"),
], ids=["header", "empty", "header_only", "blank_rows"])
def test_a_csv_without_data_rows_or_its_header_is_refused(tmp_path, text, error, message):
    path = tmp_path / "t.csv"
    path.write_text(text, newline="")
    assert _load(path) == (error, f"{path}: {message}")


def test_a_csv_without_a_sidecar_is_not_hashed(tmp_path, monkeypatch):
    path = _written(tmp_path)
    os.remove(tmp_path / "t.csv.npy")
    want = _parse_alone(tmp_path, path)
    hashed = []
    monkeypatch.setattr(data, "hashlib", types.SimpleNamespace(
        sha256=lambda *a: hashed.append(a) or hashlib.sha256(*a)))
    assert _same(_load(path), want)
    assert hashed == []
    assert sorted(os.listdir(tmp_path)) == ["alone", "t.csv"]


def _many_blocks(blocks=64, dim=16):
    rng = np.random.default_rng(19)
    n = blocks * data._BLOCK_ROWS
    return DomainDataset(rng.standard_normal((n, dim)), rng.integers(0, 3, n), 3, "a")


def _peak(fn, *args):
    """The bytes that tracemalloc saw allocated at once while fn ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_write_csv_holds_one_block_of_python_values_not_the_file(tmp_path):
    ds = _many_blocks()
    peak = _peak(write_csv, ds, tmp_path / "big.csv")
    # the sidecar's three arrays are built whole; beyond them, a few blocks of
    # values at ~64 bytes each (float object, list slot, text). All rows as
    # Python floats would take about five times the features' bytes.
    sidecar_arrays = ds.n * (ds.features.shape[1] + 2) * 8
    block = data._BLOCK_ROWS * (ds.features.shape[1] + 1) * 64
    assert peak < sidecar_arrays + 4 * block


def test_a_one_dataset_write_saves_its_arrays_without_a_copy(tmp_path):
    ds = _many_blocks()
    peak = _peak(write_csv, ds, tmp_path / "one.csv")
    assert peak < ds.features.nbytes
    # a strided array is saved as its contiguous copy: the same sidecar bytes
    strided = DomainDataset(np.asfortranarray(ds.features), ds.labels, 3, "a")
    write_csv(strided, tmp_path / "strided.csv")
    assert (tmp_path / "strided.csv.npy").read_bytes() == (tmp_path / "one.csv.npy").read_bytes()


def test_a_sidecar_read_holds_its_arrays_and_a_chunk_not_the_csv(tmp_path):
    ds = _many_blocks(blocks=16)
    path = tmp_path / "big.csv"
    write_csv(ds, path)
    size = path.stat().st_size
    assert size >= 1 << 20
    peak = _peak(load_csv_domains, path)
    arrays = ds.n * (ds.features.shape[1] + 2) * 8  # features, labels, codes
    assert peak < arrays + size // 4 < size


def test_a_one_domain_file_is_read_without_a_gather_copy(tmp_path, monkeypatch):
    one = tmp_path / "one.csv"
    write_csv(_many_blocks(blocks=1), one)
    parsed = []
    parse = data._parse_rows
    monkeypatch.setattr(data, "_parse_rows", lambda p: parsed.append(parse(p)) or parsed[-1])
    for sidecar in (True, False):
        if not sidecar:
            os.remove(f"{one}.npy")
        ds = load_csv(one)
        assert np.shares_memory(ds.features, parsed[-1][0]), sidecar
        assert np.shares_memory(ds.labels, parsed[-1][1]), sidecar


def test_a_label_past_int64_is_a_data_error_naming_its_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("f0,label,domain\n1.0,1,d\n2.0,100000000000000000000000,d\n")
    want = f"^{path}: line 3: label 100000000000000000000000 exceeds int64$"
    with pytest.raises(DataError, match=want):
        load_csv_domains(path)
    with pytest.raises(DataError, match=r"line 3: label 1\d+ outside \[0, 4\)$"):
        load_csv_domains(path, num_classes=4)


@pytest.mark.parametrize("label", ["-3", "-100000000000000000000000"], ids=["int64", "past-int64"])
def test_a_negative_label_is_a_data_error_naming_its_line(tmp_path, label):
    path = tmp_path / "negative.csv"
    path.write_text(f"f0,label,domain\n1.0,1,d\n\n2.0,{label},d\n3.0,-1,d\n")
    for num_classes in (None, 4):
        with pytest.raises(DataError, match=f"^{path}: line 4: negative label {label}$"):
            load_csv_domains(path, num_classes=num_classes)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_a_non_finite_feature_is_a_data_error_naming_its_line(tmp_path, value):
    # the file and line, not the domain the rows would have been read into
    path = tmp_path / "target.csv"
    path.write_text(f"f0,f1,label,domain\n1.0,2.0,0,a\n\n{value},1.0,1,a\n3.0,{value},1,a\n")
    for num_classes in (None, 4):
        with pytest.raises(DataError,
                           match=f"^{re.escape(str(path))}: line 4: non-finite feature value$"):
            load_csv_domains(path, num_classes=num_classes)


def test_a_sidecar_with_a_non_finite_feature_is_refused_naming_its_line(tmp_path):
    ds = DomainDataset(np.ones((3, 2)), [0, 1, 0], 2, "a")
    ds.features[1, 0] = np.nan  # a dataset refuses non-finite rows, so plant after
    path = tmp_path / "planted.csv"
    write_csv(ds, path)
    assert data._stored_rows(path) is not None  # the read takes the sidecar
    for sidecar in (True, False):
        if not sidecar:
            os.remove(f"{path}.npy")
        with pytest.raises(DataError,
                           match=f"^{re.escape(str(path))}: line 3: non-finite feature value$"):
            load_csv(path)


def test_a_file_without_its_top_class_needs_num_classes(tmp_path):
    zeros = DomainDataset(np.ones((3, 2)), [0, 0, 0], 2, "a")
    path = tmp_path / "zeros.csv"
    write_csv(zeros, path)
    for sidecar in (True, False):
        if not sidecar:
            os.remove(f"{path}.npy")
        with pytest.raises(DataError, match=f"^{path}: the largest label is 0, so the class "
                                            f"count must be given as num_classes$"):
            load_csv(path)
        back = load_csv(path, num_classes=2)
        assert back.num_classes == 2 and back.labels.tolist() == [0, 0, 0]


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


@pytest.mark.parametrize("features, labels, num_classes, message", [
    (np.ones(3), [0, 0, 1], 2, "features must be 2-D, got (3,)"),
    (np.ones((0, 2)), [], 2, "empty dataset"),
    (np.ones((2, 2)), [0, 0], 1, "num_classes must be >= 2"),
], ids=["1d", "no_rows", "one_class"])
def test_domain_dataset_refuses_a_shape_or_class_count_it_cannot_hold(
        features, labels, num_classes, message):
    with pytest.raises(DataError, match=f"^domain d: {re.escape(message)}$"):
        DomainDataset(features, labels, num_classes, "d")
