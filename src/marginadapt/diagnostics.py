"""Gradient and kernel diagnostics.

verify_bn_gradient checks the closed-form normalization backward against
central finite differences. empirical_ntk computes the tangent-kernel inner
product <J(x_a), J(x_b)> by pushing one-hot upstreams through the analytic
backward, one row of the Jacobian per output dimension, with a
cosine-normalized variant alongside. kernel_comparison_sweep reports the
kernel distributions of the model it is given, at its own parameters, over
random pairs of rows, for the full parameter set and, when present, the
norm-affine subset; it deliberately asserts no ordering between the two.
It is all that `marginadapt diagnose` runs; verify_bn_gradient checks the
op on the states it is given, and nothing in the package calls it.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BatchTooSmallError, ConfigError
from .model import MlpEncoder, model_fingerprint
from .numeric import (
    Array,
    NormLayerState,
    as_matrix,
    batchnorm_backward,
    batchnorm_forward,
)

_PROBE_ROWS = 1024  # rows per stacked finite-difference forward; bounds its peak
_FD_STEP = 1e-6  # the central difference's step


@dataclass
class KernelReport:
    raw_kernel: float
    cosine_kernel: float
    self_a: float
    self_b: float
    parameter_subset: str
    degenerate: bool
    model_fingerprint: str
    sample_fingerprint_a: str
    sample_fingerprint_b: str

    def to_dict(self) -> dict:
        return asdict(self)


def parameter_names(model: MlpEncoder, subset: str) -> list:
    """Names in the requested subset, in the model's canonical order."""
    if subset == "all":
        return [n for n, _ in model.parameters()]
    if subset == "norm_only":
        names = [n for n, _ in model.norm_parameters()]
        if not names:
            raise ConfigError("norm_only subset on a model without norm layers")
        return names
    raise ConfigError(f"unknown parameter subset {subset!r}")


def parameter_jacobian(model: MlpEncoder, x_row, subset: str = "all") -> Array:
    """(feature_dim, n_params) Jacobian of the encoder output at one input.

    Row k holds d feats[k] / d theta, flattened over the subset in canonical
    order. Norm layers run with their running statistics so a single sample
    is well-defined. The backward computes only the subset's gradients."""
    names = parameter_names(model, subset)
    x = np.asarray(x_row, dtype=np.float64).reshape(1, -1)
    feats = model.encode(x, mode="eval", retain_cache=True)
    d = feats.shape[1]
    grads = [g for n, g in model.gradients() if n in names]
    jac = np.empty((d, sum(g.size for g in grads)))
    for k in range(d):
        upstream = np.zeros((1, d))
        upstream[0, k] = 1.0
        model.backward(upstream, norm_only=subset == "norm_only")
        jac[k] = np.concatenate([g.ravel() for g in grads])
    return jac


def _sample_fingerprint(x) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(x, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


def empirical_ntk(model: MlpEncoder, x_a, x_b, subset: str = "all") -> KernelReport:
    """Tangent-kernel inner product between two samples.

    raw = sum_k <d f_k(x_a)/d theta, d f_k(x_b)/d theta>; the cosine variant
    divides by the self-kernels. Identical inputs give cosine exactly 1; a
    zero Jacobian on either side is flagged degenerate with cosine 0."""
    x_a = np.asarray(x_a, dtype=np.float64).ravel()
    x_b = np.asarray(x_b, dtype=np.float64).ravel()
    jac_a = parameter_jacobian(model, x_a, subset)
    identical = np.array_equal(x_a, x_b)
    jac_b = jac_a if identical else parameter_jacobian(model, x_b, subset)
    raw = float(np.sum(jac_a * jac_b))
    self_a = float(np.sum(jac_a * jac_a))
    self_b = self_a if identical else float(np.sum(jac_b * jac_b))
    degenerate = self_a == 0.0 or self_b == 0.0
    if degenerate:
        cosine = 0.0
    elif identical:
        cosine = 1.0
    else:
        cosine = raw / (np.sqrt(self_a) * np.sqrt(self_b))
        cosine = float(min(1.0, max(-1.0, cosine)))
    return KernelReport(
        raw_kernel=raw,
        cosine_kernel=cosine,
        self_a=self_a,
        self_b=self_b,
        parameter_subset=subset,
        degenerate=degenerate,
        model_fingerprint=model_fingerprint(model),
        sample_fingerprint_a=_sample_fingerprint(x_a),
        sample_fingerprint_b=_sample_fingerprint(x_b),
    )


@dataclass
class SweepSummary:
    trials: int
    skipped: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def kernel_comparison_sweep(model: MlpEncoder, source_samples, target_samples,
                            trials: int = 100, seed: int = 0) -> SweepSummary:
    """Kernel distributions of `model` at its own parameters.

    Each trial draws one source row and one target row from the seeded rng
    and records raw/cosine kernels for every applicable subset, so every
    report carries the model's fingerprint. The parameters are left as they
    are; backward fills the model's gradient arrays. Degenerate pairs are
    skipped and counted. Only distributions are reported; whether the
    restricted kernel sits above or below the full one is left to the
    reader."""
    src = as_matrix(source_samples, "source_samples")
    tgt = as_matrix(target_samples, "target_samples")
    subsets = ["all"] + (["norm_only"] if model.has_norm_layers else [])
    rng = np.random.default_rng(seed)
    values = {s: {"raw": [], "cosine": []} for s in subsets}
    skipped = {s: 0 for s in subsets}
    reports = []
    for _ in range(trials):
        i = int(rng.integers(src.shape[0]))
        j = int(rng.integers(tgt.shape[0]))
        for s in subsets:
            rep = empirical_ntk(model, src[i], tgt[j], subset=s)
            reports.append(rep)
            if rep.degenerate:
                skipped[s] += 1
            else:
                values[s]["raw"].append(rep.raw_kernel)
                values[s]["cosine"].append(rep.cosine_kernel)
    stats = {}
    for s in subsets:
        cos = np.asarray(values[s]["cosine"])
        raw = np.asarray(values[s]["raw"])
        stats[s] = {
            "count": int(cos.size),
            "cosine_mean": float(cos.mean()) if cos.size else None,
            "cosine_min": float(cos.min()) if cos.size else None,
            "cosine_max": float(cos.max()) if cos.size else None,
            "raw_mean": float(raw.mean()) if raw.size else None,
            "raw_min": float(raw.min()) if raw.size else None,
            "raw_max": float(raw.max()) if raw.size else None,
        }
    return SweepSummary(trials=trials, skipped=skipped, stats=stats, reports=reports)


def verify_bn_gradient(batch, state: NormLayerState, trials: int = 10,
                       seed: int = 0) -> float:
    """Max norm-relative error between the closed-form normalization input
    gradient and a central finite difference, over random projections.

    Objective per trial: sum(R * forward(x)) for random R. Returns the worst
    ||gx_analytic - gx_fd|| / max(||gx_fd||, tiny) across trials. The probes
    x +- _FD_STEP * e_ij run as (P, m, d) stacks of train-mode forwards, at
    most _PROBE_ROWS rows per call (one probe per call when m is larger);
    each slice gives the objective its own 2-D forward would give, bit for
    bit (see numeric)."""
    x = as_matrix(batch, "batch")
    if x.shape[0] < 2:
        raise BatchTooSmallError("verify_bn_gradient: need >= 2 rows")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        r = rng.standard_normal(x.shape)
        _, stats = batchnorm_forward(x, state, mode="train")
        gx, _, _ = batchnorm_backward(state, stats, r)
        up = _probe_objectives(x, r, state, _FD_STEP)
        down = _probe_objectives(x, r, state, -_FD_STEP)
        fd = ((up - down) / (2.0 * _FD_STEP)).reshape(x.shape)
        denom = max(float(np.linalg.norm(fd)), 1e-300)
        err = float(np.linalg.norm(gx - fd)) / denom
        worst = max(worst, err)
    return worst


def _probe_objectives(x, r, state, step):
    """sum(r * forward(x + step * e_k)) for each entry k of x in C order, in
    train-mode forwards of at most _PROBE_ROWS rows each."""
    m, d = x.shape
    per_call = max(1, _PROBE_ROWS // m)
    out = np.empty(m * d)
    for start in range(0, m * d, per_call):
        ks = np.arange(start, min(start + per_call, m * d))
        probes = np.repeat(x.reshape(1, m * d), ks.size, axis=0)
        probes[np.arange(ks.size), ks] += step
        y, _ = batchnorm_forward(probes.reshape(ks.size, m, d), state, mode="train")
        out[ks] = np.add.reduce(y * r, axis=(1, 2))
    return out
