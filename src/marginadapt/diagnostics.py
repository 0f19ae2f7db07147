"""Gradient and kernel diagnostics.

verify_bn_gradient checks the closed-form normalization backward against
central finite differences. empirical_ntk computes the tangent-kernel inner
product <J(x_a), J(x_b)> by pushing one-hot upstreams through the analytic
backward, one full Jacobian per row, with a cosine-normalized variant
alongside; a parameter subset's kernel reads that Jacobian's columns.
kernel_comparison_sweep reports the kernel distributions of the model it is
given, at its own parameters, over random pairs of rows, for the full
parameter set and, when present, the norm-affine subset; it deliberately
asserts no ordering between the two. It is all that `marginadapt diagnose`
runs; verify_bn_gradient checks the op on the states it is given, one
train-mode forward per probe, and nothing in the package calls it.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BatchTooSmallError
from .model import MlpEncoder, model_fingerprint
from .numeric import (
    Array,
    NormLayerState,
    as_matrix,
    batchnorm_backward,
    batchnorm_forward,
)

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


def _subset_columns(model: MlpEncoder) -> dict:
    """{subset: its columns of the full Jacobian, None for all}: "all", and
    "norm_only" when the model has norm layers (it names their parameters)."""
    if not model.has_norm_layers:
        return {"all": None}
    norm = {n for n, _ in model.norm_parameters()}
    in_norm = np.concatenate([np.full(p.size, n in norm) for n, p in model.parameters()])
    return {"all": None, "norm_only": np.flatnonzero(in_norm)}


def parameter_jacobian(model: MlpEncoder, x_row) -> Array:
    """(feature_dim, n_params) Jacobian of the encoder output at one input.

    Row k holds d feats[k] / d theta, flattened over every parameter in
    canonical order. Norm layers run with their running statistics so a
    single sample is well-defined."""
    x = np.asarray(x_row, dtype=np.float64).reshape(1, -1)
    feats = model.encode(x, mode="eval", retain_cache=True)
    d = feats.shape[1]
    grads = [g for _, g in model.gradients()]
    jac = np.empty((d, sum(g.size for g in grads)))
    for k in range(d):
        upstream = np.zeros((1, d))
        upstream[0, k] = 1.0
        model.backward(upstream)
        jac[k] = np.concatenate([g.ravel() for g in grads])
    return jac


def _sample_fingerprint(x: Array) -> str:
    return hashlib.sha256(x.tobytes()).hexdigest()[:16]


def empirical_ntk(model: MlpEncoder, x_a, x_b) -> dict:
    """{subset: KernelReport}, the tangent-kernel inner product between two
    samples for each parameter subset of the model.

    raw = sum_k <d f_k(x_a)/d theta, d f_k(x_b)/d theta>; the cosine variant
    divides by the self-kernels. Identical inputs give cosine exactly 1; a
    zero Jacobian on either side is flagged degenerate with cosine 0."""
    x_a = np.asarray(x_a, dtype=np.float64).ravel()
    x_b = np.asarray(x_b, dtype=np.float64).ravel()
    full_a = parameter_jacobian(model, x_a)
    identical = np.array_equal(x_a, x_b)
    full_b = full_a if identical else parameter_jacobian(model, x_b)
    fingerprints = dict(model_fingerprint=model_fingerprint(model),
                        sample_fingerprint_a=_sample_fingerprint(x_a),
                        sample_fingerprint_b=_sample_fingerprint(x_b))
    reports = {}
    for subset, cols in _subset_columns(model).items():
        jac_a, jac_b = full_a, full_b
        if cols is not None:  # C-ordered copies: strided views sum in another order
            jac_a = full_a.take(cols, axis=1)
            jac_b = jac_a if identical else full_b.take(cols, axis=1)
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
        reports[subset] = KernelReport(
            raw_kernel=raw, cosine_kernel=cosine, self_a=self_a, self_b=self_b,
            parameter_subset=subset, degenerate=degenerate, **fingerprints)
    return reports


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
    and records raw/cosine kernels for every subset of the model, so every
    report carries the model's fingerprint. The parameters are left as they
    are; backward fills the model's gradient arrays. Degenerate pairs are
    skipped and counted. Only distributions are reported; whether the
    restricted kernel sits above or below the full one is left to the
    reader."""
    src = as_matrix(source_samples, "source_samples")
    tgt = as_matrix(target_samples, "target_samples")
    subsets = list(_subset_columns(model))
    rng = np.random.default_rng(seed)
    values = {s: {"raw": [], "cosine": []} for s in subsets}
    skipped = {s: 0 for s in subsets}
    reports = []
    for _ in range(trials):
        i = int(rng.integers(src.shape[0]))
        j = int(rng.integers(tgt.shape[0]))
        for s, rep in empirical_ntk(model, src[i], tgt[j]).items():
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
    ||gx_analytic - gx_fd|| / max(||gx_fd||, tiny) across trials; each probe
    x +- _FD_STEP * e_ij runs as its own train-mode forward.

    On 2 rows each normalized column is +-sigma/sqrt(sigma^2 + eps), so the
    true input gradient is of order eps/sigma^3, the difference's rounding
    dominates and the ratio can read far above 1e-6 on a correct backward."""
    x = as_matrix(batch, "batch")
    if x.shape[0] < 2:
        raise BatchTooSmallError("verify_bn_gradient: need >= 2 rows")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        r = rng.standard_normal(x.shape)
        _, stats = batchnorm_forward(x, state, mode="train")
        gx, _, _ = batchnorm_backward(state, stats, r)
        fd = np.empty_like(x)
        for idx in np.ndindex(x.shape):
            objective = []
            for step in (_FD_STEP, -_FD_STEP):
                probe = x.copy()
                probe[idx] += step
                y, _ = batchnorm_forward(probe, state, mode="train")
                objective.append(float(np.add.reduce(y * r, axis=None)))
            fd[idx] = (objective[0] - objective[1]) / (2.0 * _FD_STEP)
        denom = max(float(np.linalg.norm(fd)), 1e-300)
        err = float(np.linalg.norm(gx - fd)) / denom
        worst = max(worst, err)
    return worst
