"""Synthetic domain-shift tasks and dataset IO.

Tasks are class-conditional spherical Gaussians. Source domains are mild
random rotations of a shared base task; the target turns the span of the
class means by a set angle and adds a random mean translation. Everything
is seeded and reproducible down to the byte.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, DataError, ParseError, SchemaError
from .numeric import Array, check_settings


@dataclass
class DomainDataset:
    """Feature matrix plus integer labels for one domain."""

    features: Array
    labels: Array
    num_classes: int
    domain_id: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError(
                f"domain {self.domain_id}: features must be 2-D, got {self.features.shape}"
            )
        if self.labels.shape != (self.features.shape[0],):
            raise DataError(
                f"domain {self.domain_id}: labels must align with feature rows"
            )
        if self.features.shape[0] < 1:
            raise DataError(f"domain {self.domain_id}: empty dataset")
        if not np.isfinite(self.features).all():
            raise DataError(f"domain {self.domain_id}: non-finite feature values")
        if self.num_classes < 2:
            raise DataError(f"domain {self.domain_id}: num_classes must be >= 2")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise DataError(
                f"domain {self.domain_id}: labels outside [0, {self.num_classes})"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]


_MAX_INPUT_DIM = 1024  # the rotations are dense input_dim x input_dim matrices
# the task's fixed shape (see _base_means and gen_synthetic_shift)
CLASS_SEPARATION = 4.0
WITHIN_CLASS_STD = 1.0
TRANSLATION_STD = 1.0
SOURCE_ANGLE_MAX_DEG = 10.0


@dataclass
class ShiftSpec:
    """Parameters of one synthetic shift task of the fixed shape above.

    Each domain's rotation is a dense input_dim x input_dim float64 matrix,
    built whole and recorded in the domain's metadata, so input_dim is
    capped at 1024 (8 MiB per matrix); validate refuses a larger one before
    anything is allocated."""

    num_classes: int = 4
    input_dim: int = 16
    angle_deg: float = 30.0
    samples_per_domain: int = 2000
    num_source_domains: int = 3
    seed: int = 0

    def validate(self) -> "ShiftSpec":
        check_settings(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.input_dim < self.num_classes:
            raise ConfigError(
                "input_dim must be >= num_classes so class means can be orthogonal"
            )
        if self.input_dim > _MAX_INPUT_DIM:
            raise ConfigError(
                f"input_dim must be <= {_MAX_INPUT_DIM}, got {self.input_dim}: each "
                f"rotation is a dense {self.input_dim} x {self.input_dim} matrix of "
                f"{8 * self.input_dim ** 2} bytes")
        if not 0.0 <= self.angle_deg <= 180.0:
            raise ConfigError(f"angle_deg must lie in [0, 180], got {self.angle_deg}")
        if self.samples_per_domain < self.num_classes:
            raise ConfigError("samples_per_domain must be >= num_classes")
        if self.num_source_domains < 1:
            raise ConfigError("num_source_domains must be >= 1")
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def random_unit_pair(rng, dim: int):
    """Two orthonormal vectors spanning a random plane."""
    u = rng.standard_normal(dim)
    u = u / np.linalg.norm(u)
    v = rng.standard_normal(dim)
    v = v - u * (u @ v)
    v = v / np.linalg.norm(v)
    return u, v


def plane_rotation(u: Array, v: Array, angle_deg: float) -> Array:
    """Rotation by angle_deg in the plane spanned by orthonormal u, v;
    identity on the orthogonal complement. Exactly the identity at 0 deg."""
    theta = math.radians(angle_deg)
    d = u.shape[0]
    r = np.eye(d)
    r += (math.cos(theta) - 1.0) * (np.outer(u, u) + np.outer(v, v))
    r += math.sin(theta) * (np.outer(v, u) - np.outer(u, v))
    return r


def span_rotation(rng, means: Array, angle_deg: float) -> Array:
    """Rotation that turns every class mean by exactly angle_deg.

    The span of the class means is split into seeded random orthogonal
    planes and each plane is rotated by the same angle, so the whole
    subspace (and with it every mean) rotates by the nominal amount. A
    single plane drawn in the full ambient space would mostly miss the
    span when input_dim is much larger than num_classes, leaving the
    effective angle far below nominal and seed-dependent. Odd leftover
    span dimension stays fixed; the orthogonal complement always does.
    """
    q, r = np.linalg.qr(means.T)  # (d, C) orthonormal basis of the span
    q = q * np.sign(np.diag(r))
    c = means.shape[0]
    g = rng.standard_normal((c, c))
    b, rb = np.linalg.qr(g)
    b = b * np.sign(np.diag(rb))
    basis = q @ b
    rot = np.eye(means.shape[1])
    for j in range(0, c - 1, 2):
        rot = plane_rotation(basis[:, j], basis[:, j + 1], angle_deg) @ rot
    return rot


def _class_counts(n: int, c: int) -> list[int]:
    base = n // c
    counts = [base] * c
    for j in range(n - base * c):
        counts[j] += 1
    return counts


def _base_means(rng, spec: ShiftSpec) -> Array:
    """Orthonormal directions scaled so every pair of class means sits
    CLASS_SEPARATION * WITHIN_CLASS_STD apart."""
    m = rng.standard_normal((spec.input_dim, spec.num_classes))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    radius = CLASS_SEPARATION * WITHIN_CLASS_STD / math.sqrt(2.0)
    return (radius * q[:, : spec.num_classes]).T  # (C, d)


def _sample_domain(rng, spec, means, rotation, translation, domain_id, extra_meta):
    counts = _class_counts(spec.samples_per_domain, spec.num_classes)
    blocks = []
    labels = []
    for j, nj in enumerate(counts):
        blocks.append(
            means[j] + WITHIN_CLASS_STD * rng.standard_normal((nj, spec.input_dim))
        )
        labels.extend([j] * nj)
    x = np.vstack(blocks) @ rotation.T
    moved_means = means @ rotation.T
    if translation is not None:
        x = x + translation
        moved_means = moved_means + translation
    y = np.asarray(labels, dtype=np.int64)
    perm = rng.permutation(x.shape[0])
    meta = {
        "class_means": moved_means.tolist(),
        "base_class_means": means.tolist(),
        **extra_meta,
    }
    return DomainDataset(
        features=x[perm],
        labels=y[perm],
        num_classes=spec.num_classes,
        domain_id=domain_id,
        metadata=meta,
    )


def gen_synthetic_shift(spec: ShiftSpec):
    """Build (sources, target) domain datasets for the configured task.

    Sources share base class means up to mild random rotations (angle drawn
    in [0, SOURCE_ANGLE_MAX_DEG]). The target turns the whole class-mean
    span by angle_deg (see span_rotation) and adds a random mean translation
    of length TRANSLATION_STD * WITHIN_CLASS_STD; at 0 deg it is a pure
    translation. Same seed, same bytes.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    means = _base_means(rng, spec)

    sources = []
    for k in range(spec.num_source_domains):
        angle = float(rng.uniform(0.0, SOURCE_ANGLE_MAX_DEG))
        u, v = random_unit_pair(rng, spec.input_dim)
        rot = plane_rotation(u, v, angle)
        sources.append(
            _sample_domain(
                rng, spec, means, rot, None, f"source_{k}",
                {"transform": {"kind": "rotation", "angle_deg": angle,
                               "rotation": rot.tolist()}},
            )
        )

    rot = span_rotation(rng, means, spec.angle_deg)
    translation = _target_translation(rng, spec)
    extra = {"transform": {"kind": "rotation", "angle_deg": spec.angle_deg,
                           "rotation": rot.tolist(),
                           "translation": translation.tolist()}}
    target = _sample_domain(rng, spec, means, rot, translation, "target", extra)
    return sources, target


def _target_translation(rng, spec: ShiftSpec) -> Array:
    direction = rng.standard_normal(spec.input_dim)
    direction = direction / np.linalg.norm(direction)
    return TRANSLATION_STD * WITHIN_CLASS_STD * direction


# ---------------------------------------------------------------------------
# CSV IO: header f0..f{d-1},label,domain


def write_csv(datasets, path) -> str:
    """Write one or several domains into a single CSV. Floats are serialized
    with repr so a read back is bit-exact. A row is one repr of its value
    list with the label appended; csv encodes the `,domain` tail once per
    dataset, so its quoting stays csv's."""
    if isinstance(datasets, DomainDataset):
        datasets = [datasets]
    if not datasets:
        raise DataError("write_csv: nothing to write")
    dim = datasets[0].features.shape[1]
    # checked before the file opens, so a refused call writes nothing
    if any(ds.features.shape[1] != dim for ds in datasets):
        raise DataError("write_csv: feature widths differ across domains")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([f"f{i}" for i in range(dim)] + ["label", "domain"])
        for ds in datasets:
            buf = io.StringIO()
            csv.writer(buf).writerow(["", ds.domain_id])
            tail = buf.getvalue()
            rows = ds.features.tolist()
            for row, lab in zip(rows, ds.labels.tolist()):
                row.append(lab)
            fh.writelines(repr(row)[1:-1].replace(" ", "") + tail for row in rows)
    return str(path)


_BLOCK_ROWS = 256  # feature rows per numpy conversion; bounds the reader's peak


def _float_block(path, block, lines):
    """The (rows, dim) float64 array of a block of feature strings. numpy
    parses a str exactly as float() does; when the block fails, its rows are
    parsed one at a time so the error names the line."""
    try:
        return np.array(block, dtype=np.float64)
    except ValueError:
        pass
    rows = []
    for row, lineno in zip(block, lines):
        try:
            rows.append([float(v) for v in row])
        except ValueError as e:
            raise ParseError(f"{path}: line {lineno}: bad float ({e})") from None
    return np.array(rows, dtype=np.float64)


def _parse_rows(path):
    """(features, labels, domains, lines) of a CSV's data rows: one float64
    array, and per row its int label, its domain and the line it came from.
    The first bad row in file order raises, naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if len(header) < 3 or header[-2:] != ["label", "domain"]:
            raise SchemaError(
                f"{path}: header must be f0..fk,label,domain, got {header[:6]}..."
            )
        dim = len(header) - 2
        expected = [f"f{i}" for i in range(dim)]
        if header[:dim] != expected:
            raise SchemaError(f"{path}: feature columns must be named f0..f{dim - 1}")
        blocks, block, labels, domains, lines = [], [], [], [], []

        def convert():
            # rows before a structural or label error are converted first,
            # so an earlier bad float is still the error raised
            if block:
                blocks.append(_float_block(path, block, lines[-len(block):]))
                block.clear()

        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 2:
                convert()
                raise SchemaError(
                    f"{path}: line {lineno}: expected {dim + 2} columns, got {len(row)}"
                )
            block.append(row[:dim])
            lines.append(lineno)
            try:
                labels.append(int(row[dim]))
            except ValueError:
                convert()
                raise ParseError(
                    f"{path}: line {lineno}: label {row[dim]!r} is not an integer"
                ) from None
            domains.append(row[dim + 1])
            if len(block) == _BLOCK_ROWS:
                convert()
        convert()
    if not lines:
        raise DataError(f"{path}: no data rows")
    return np.concatenate(blocks), labels, domains, lines


def load_csv_domains(path, num_classes: int | None = None) -> dict:
    """Read a CSV into one DomainDataset per distinct domain value."""
    features, labels, domains, lines = _parse_rows(path)
    max_label = max(labels)
    min_label = min(labels)
    if min_label < 0:
        raise DataError(f"{path}: negative label {min_label}")
    if num_classes is None:
        num_classes = max_label + 1
    elif max_label >= num_classes:
        i = next(i for i, lab in enumerate(labels) if lab >= num_classes)
        raise DataError(
            f"{path}: line {lines[i]}: label {labels[i]} outside [0, {num_classes})"
        )
    rows_of: dict[str, list] = {}
    for i, domain in enumerate(domains):
        rows_of.setdefault(domain, []).append(i)
    labels = np.asarray(labels, dtype=np.int64)
    return {
        domain: DomainDataset(
            features=features[rows],
            labels=labels[rows],
            num_classes=num_classes,
            domain_id=domain,
        )
        for domain, rows in rows_of.items()
    }


def load_csv(path, num_classes: int | None = None) -> DomainDataset:
    """Read a single-domain CSV. A file of several domains is refused;
    `load_csv_domains` reads one."""
    domains = load_csv_domains(path, num_classes=num_classes)
    if len(domains) != 1:
        raise DataError(f"{path}: holds {sorted(domains)} domains, expected one")
    return next(iter(domains.values()))


def split_holdout(ds: DomainDataset, fraction: float, seed: int = 0):
    """Stratified (train, val) split; val gets round(fraction * n) rows spread
    across classes by largest remainder. Deterministic in the seed."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"holdout fraction must lie in (0, 1), got {fraction}")
    n_val = int(round(fraction * ds.n))
    if n_val < 1 or n_val >= ds.n:
        raise DataError(
            f"holdout of {fraction} on {ds.n} rows leaves an empty split"
        )
    rng = np.random.default_rng(seed)
    # labels lie in [0, C) (DomainDataset checks), so bincount needs no
    # np.unique, whose first call imports numpy.ma
    sizes = np.bincount(ds.labels).tolist()
    present = [c for c, nc in enumerate(sizes) if nc]
    quotas = {}
    remainders = []
    total = 0
    for c in present:
        nc = sizes[c]
        exact = fraction * nc
        q = int(math.floor(exact))
        quotas[c] = q
        total += q
        remainders.append((-(exact - q), c))
    # round(f * n) tops the floors by at most one row per class, and each
    # class has that row to spare: floor(f * n_c) < n_c for f < 1
    remainders.sort()
    for _, c in remainders[: n_val - total]:
        quotas[c] += 1
    val_idx = []
    for c in present:
        idx = np.flatnonzero(ds.labels == c)
        picked = rng.permutation(idx.shape[0])[: quotas[c]]
        val_idx.extend(idx[picked].tolist())
    val_mask = np.zeros(ds.n, dtype=bool)
    val_mask[val_idx] = True
    train_idx = np.flatnonzero(~val_mask)
    val_idx = np.flatnonzero(val_mask)

    def subset(indices, tag):
        return DomainDataset(
            features=ds.features[indices],  # fancy indexing copies
            labels=ds.labels[indices],
            num_classes=ds.num_classes,
            domain_id=ds.domain_id,
            metadata={**ds.metadata, "split": tag},
        )

    return subset(train_idx, "train"), subset(val_idx, "val")
