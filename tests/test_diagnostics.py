"""Jacobian, tangent-kernel, and normalization-gradient diagnostics."""

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import rel_error
from marginadapt import (
    ConfigError,
    MlpEncoder,
    NormLayerState,
    empirical_ntk,
    kernel_comparison_sweep,
    parameter_jacobian,
    verify_bn_gradient,
)
from marginadapt.diagnostics import parameter_names


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
        names = parameter_names(model, "all")
        jac = parameter_jacobian(model, x, subset="all")
        assert jac.shape == (3, sum(p.size for _, p in model.parameters()))
        assert rel_error(jac, fd_jacobian(model, x, names)) < 1e-6


def test_parameter_jacobian_norm_subset():
    rng = np.random.default_rng(7)
    model = MlpEncoder.create([4, 6, 3], use_norm=True, seed=7)
    # push the running stats off their init so eval mode is non-trivial
    model.encode(rng.standard_normal((32, 4)), mode="train")
    model.update_running_stats()
    x = rng.standard_normal(4)
    names = parameter_names(model, "norm_only")
    assert names == ["enc.0.gamma", "enc.0.beta"]
    jac = parameter_jacobian(model, x, subset="norm_only")
    assert jac.shape == (3, 12)
    assert rel_error(jac, fd_jacobian(model, x, names)) < 1e-6


def test_norm_only_subset_needs_norm_layers():
    model = MlpEncoder.create([4, 3], seed=0)
    with pytest.raises(ConfigError):
        parameter_names(model, "norm_only")
    with pytest.raises(ConfigError):
        empirical_ntk(model, np.zeros(4), np.ones(4), subset="norm_only")
    with pytest.raises(ConfigError):
        parameter_names(model, "some_subset")


def test_kernel_is_symmetric_in_its_arguments():
    rng = np.random.default_rng(1)
    model = MlpEncoder.create([5, 6, 4], seed=1)
    for _ in range(10):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        ab = empirical_ntk(model, a, b)
        ba = empirical_ntk(model, b, a)
        assert abs(ab.raw_kernel - ba.raw_kernel) <= 1e-12
        assert abs(ab.cosine_kernel - ba.cosine_kernel) <= 1e-12


def test_identical_inputs_give_cosine_exactly_one():
    rng = np.random.default_rng(2)
    model = MlpEncoder.create([5, 4], seed=2)
    for _ in range(5):
        a = rng.standard_normal(5)
        rep = empirical_ntk(model, a, a.copy())
        assert rep.cosine_kernel == 1.0
        assert rep.raw_kernel == rep.self_a == rep.self_b
        assert rep.sample_fingerprint_a == rep.sample_fingerprint_b


def test_kernel_satisfies_cauchy_schwarz_and_cosine_bounds():
    rng = np.random.default_rng(3)
    model = MlpEncoder.create([6, 8, 4], seed=3)
    for _ in range(50):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        rep = empirical_ntk(model, a, b)
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
            gram[i, j] = gram[j, i] = empirical_ntk(model, xs[i], xs[j]).raw_kernel
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-8 * max(1.0, eigs.max())


def test_zero_jacobian_is_flagged_degenerate():
    model = MlpEncoder.create([2, 3, 2], use_norm=True, seed=5)
    # a zeroed final weight cuts every norm parameter off from the output
    dict(model.parameters())["enc.1.w"][...] = 0.0
    rep = empirical_ntk(model, np.ones(2), np.full(2, 2.0), subset="norm_only")
    assert rep.degenerate
    assert rep.cosine_kernel == 0.0 and rep.raw_kernel == 0.0
    # the full subset still sees the output bias, so it stays usable
    assert not empirical_ntk(model, np.ones(2), np.full(2, 2.0)).degenerate


def test_normalization_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    state = NormLayerState(
        gamma=rng.uniform(0.5, 1.5, 4), beta=rng.standard_normal(4)
    )
    batch = rng.standard_normal((6, 4))
    assert verify_bn_gradient(batch, state, trials=5, seed=0) <= 1e-6


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


def test_norm_only_jacobian_is_the_full_jacobians_norm_columns():
    # the subset's backward computes only its own gradients, with the values
    # of the full backward
    rng = np.random.default_rng(17)
    model = MlpEncoder.create([5, 6, 6, 3], use_norm=True, seed=18)
    for norm in model.norms:
        norm.running_mean[...] = rng.standard_normal(norm.dim)
        norm.running_var[...] = rng.uniform(0.5, 2.0, size=norm.dim)
    x = rng.standard_normal(5)
    full = parameter_jacobian(model, x, "all")
    sizes = [(n, p.size) for n, p in model.parameters()]
    starts = np.cumsum([0] + [size for _, size in sizes])
    cols = np.concatenate([np.arange(start, start + size)
                           for (n, size), start in zip(sizes, starts)
                           if n in parameter_names(model, "norm_only")])
    npt.assert_array_equal(parameter_jacobian(model, x, "norm_only"), full[:, cols])
