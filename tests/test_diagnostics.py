"""Jacobian, tangent-kernel, and normalization-gradient diagnostics."""

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import rel_error
from marginadapt import (
    BatchTooSmallError,
    MlpEncoder,
    NormLayerState,
    empirical_ntk,
    kernel_comparison_sweep,
    parameter_jacobian,
    verify_bn_gradient,
)
from marginadapt.diagnostics import _subset_columns


def fd_jacobian(model, x, names, h=1e-6):
    """Central-difference Jacobian of the eval-mode encoding, one parameter
    coordinate at a time."""
    params = dict(model.parameters())
    x2 = np.asarray(x, dtype=np.float64).reshape(1, -1)
    cols = []
    for name in names:
        flat = params[name].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = model.encode(x2, mode="eval")[0].copy()
            flat[idx] = orig - h
            down = model.encode(x2, mode="eval")[0].copy()
            flat[idx] = orig
            cols.append((up - down) / (2.0 * h))
    return np.stack(cols, axis=1)


def test_parameter_jacobian_matches_difference_quotients():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        model = MlpEncoder.create([4, 5, 3], seed=seed)
        x = rng.standard_normal(4)
        names = [n for n, _ in model.parameters()]
        jac = parameter_jacobian(model, x)
        assert jac.shape == (3, sum(p.size for _, p in model.parameters()))
        assert rel_error(jac, fd_jacobian(model, x, names)) < 1e-6


def test_parameter_jacobian_norm_subset():
    rng = np.random.default_rng(7)
    model = MlpEncoder.create([4, 6, 5, 3], use_norm=True, seed=7)
    # push the running stats off their init so eval mode is non-trivial
    model.encode(rng.standard_normal((32, 4)), mode="train")
    model.update_running_stats()
    x = rng.standard_normal(4)
    names = [n for n, _ in model.norm_parameters()]
    assert names == ["enc.0.gamma", "enc.0.beta", "enc.1.gamma", "enc.1.beta"]
    # canonical order: enc.0.w (24), .b (6), .gamma, .beta, enc.1.w (30), .b (5), ...
    cols = _subset_columns(model)["norm_only"]
    npt.assert_array_equal(cols, np.r_[30:42, 77:87])
    jac = parameter_jacobian(model, x).take(cols, axis=1)
    assert rel_error(jac, fd_jacobian(model, x, names)) < 1e-6


def test_norm_only_subset_needs_norm_layers():
    model = MlpEncoder.create([4, 3], seed=0)
    assert list(empirical_ntk(model, np.zeros(4), np.ones(4))) == ["all"]


def test_kernel_is_symmetric_in_its_arguments():
    rng = np.random.default_rng(1)
    model = MlpEncoder.create([5, 6, 4], seed=1)
    for _ in range(10):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        ab = empirical_ntk(model, a, b)["all"]
        ba = empirical_ntk(model, b, a)["all"]
        assert abs(ab.raw_kernel - ba.raw_kernel) <= 1e-12
        assert abs(ab.cosine_kernel - ba.cosine_kernel) <= 1e-12


def test_identical_inputs_give_cosine_exactly_one():
    rng = np.random.default_rng(2)
    model = MlpEncoder.create([5, 4], seed=2)
    for _ in range(5):
        a = rng.standard_normal(5)
        rep = empirical_ntk(model, a, a.copy())["all"]
        assert rep.cosine_kernel == 1.0
        assert rep.raw_kernel == rep.self_a == rep.self_b
        assert rep.sample_fingerprint_a == rep.sample_fingerprint_b


def test_kernel_satisfies_cauchy_schwarz_and_cosine_bounds():
    rng = np.random.default_rng(3)
    model = MlpEncoder.create([6, 8, 4], seed=3)
    for _ in range(50):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        rep = empirical_ntk(model, a, b)["all"]
        bound = np.sqrt(rep.self_a * rep.self_b)
        assert abs(rep.raw_kernel) <= bound + 1e-12 * max(1.0, bound)
        assert -1.0 <= rep.cosine_kernel <= 1.0


def test_kernel_gram_matrix_is_positive_semidefinite():
    rng = np.random.default_rng(4)
    model = MlpEncoder.create([5, 7, 3], seed=4)
    xs = rng.standard_normal((6, 5))
    gram = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            gram[i, j] = gram[j, i] = empirical_ntk(model, xs[i], xs[j])["all"].raw_kernel
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-8 * max(1.0, eigs.max())


def test_zero_jacobian_is_flagged_degenerate():
    model = MlpEncoder.create([2, 3, 2], use_norm=True, seed=5)
    # a zeroed final weight cuts every norm parameter off from the output
    dict(model.parameters())["enc.1.w"][...] = 0.0
    reports = empirical_ntk(model, np.ones(2), np.full(2, 2.0))
    rep = reports["norm_only"]
    assert rep.degenerate
    assert rep.cosine_kernel == 0.0 and rep.raw_kernel == 0.0
    # the full subset still sees the output bias, so it stays usable
    assert not reports["all"].degenerate


def test_normalization_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    state = NormLayerState(
        gamma=rng.uniform(0.5, 1.5, 4), beta=rng.standard_normal(4)
    )
    batch = rng.standard_normal((6, 4))
    assert verify_bn_gradient(batch, state, trials=5, seed=0) <= 1e-6


def test_normalization_gradient_check_needs_two_rows():
    state = NormLayerState(gamma=np.ones(3), beta=np.zeros(3))
    with pytest.raises(BatchTooSmallError, match=r"^verify_bn_gradient: need >= 2 rows$"):
        verify_bn_gradient(np.ones((1, 3)), state)


def test_sweep_is_deterministic_and_accounts_for_every_trial():
    rng = np.random.default_rng(8)
    model = MlpEncoder.create([4, 5, 3], use_norm=True, seed=8)
    src = rng.standard_normal((10, 4))
    tgt = rng.standard_normal((10, 4)) + 1.0
    a = kernel_comparison_sweep(model, src, tgt, trials=6, seed=3)
    b = kernel_comparison_sweep(model, src, tgt, trials=6, seed=3)
    assert a.to_dict()["stats"] == b.to_dict()["stats"]
    assert len(a.reports) == 6 * 2  # both subsets per trial
    for subset in ("all", "norm_only"):
        assert a.stats[subset]["count"] + a.skipped[subset] == 6
    c = kernel_comparison_sweep(model, src, tgt, trials=6, seed=4)
    assert c.to_dict()["stats"] != a.to_dict()["stats"]
