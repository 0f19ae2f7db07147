"""Layer-level forwards against manual math, backwards against finite differences."""

import re
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import numeric_grad, rel_error
from marginadapt import (
    AdaptConfig,
    BatchTooSmallError,
    ConfigError,
    DimensionError,
    NormLayerState,
    NumericalFailure,
    ShiftSpec,
    TrainConfig,
    batchnorm_backward,
    batchnorm_forward,
    linear_backward,
    linear_forward,
    relu_backward,
    relu_forward,
    softmax_rows,
    update_running_stats,
)
from marginadapt.numeric import (
    NORM_EPS,
    _finite,
    as_matrix,
    as_vector,
    batchnorm_param_grads,
    linear_input_grad,
    linear_param_grads,
)


@pytest.mark.parametrize("config, message", [
    (AdaptConfig(enable_lm="no"), "enable_lm must be a bool, got 'no'"),
    (AdaptConfig(enable_bank=1), "enable_bank must be a bool, got 1"),
    (AdaptConfig(steps=2.5), "steps must be an integer or None, got 2.5"),
    (AdaptConfig(lr=True), "lr must be a real number, got True"),
    (AdaptConfig(sigma="0.1"), "sigma must be a real number, got '0.1'"),
    (AdaptConfig(batch_size=32.0), "batch_size must be an integer, got 32.0"),
    (AdaptConfig(seed=1.5), "seed must be an integer, got 1.5"),
    (AdaptConfig(top_k=True), "top_k must be an integer, got True"),
    (AdaptConfig(method=None), "method must be a string, got None"),
    (AdaptConfig(lambda_weight=float("-inf")), "lambda_weight must be finite, got -inf"),
    (TrainConfig(epochs=1.5), "epochs must be an integer, got 1.5"),
    (TrainConfig(lr=np.nan), "lr must be finite, got nan"),
    (ShiftSpec(input_dim=16.0), "input_dim must be an integer, got 16.0"),
    (ShiftSpec(angle_deg=np.inf), "angle_deg must be finite, got inf"),
], ids=lambda v: v.split()[0] if isinstance(v, str) else type(v).__name__)
def test_a_config_refuses_a_value_not_of_its_fields_type(config, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config.validate()


def test_a_config_takes_numpy_numbers_and_an_integer_for_a_float():
    AdaptConfig(lr=1, top_k=np.int32(5), steps=np.int64(3), sigma=np.float64(0.2)).validate()
    TrainConfig(lr=0, epochs=np.uint8(2)).validate()
    ShiftSpec(input_dim=np.int64(8), angle_deg=45).validate()


def test_linear_forward_matches_manual():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal((5, 7))
        w = rng.standard_normal((7, 3))
        b = rng.standard_normal(3)
        npt.assert_array_equal(linear_forward(x, w, b), x @ w + b)


def test_linear_forward_shape_errors():
    x = np.zeros((2, 3))
    with pytest.raises(DimensionError):
        linear_forward(x, np.zeros((4, 2)), np.zeros(2))
    with pytest.raises(DimensionError):
        linear_forward(x, np.zeros((3, 2)), np.zeros(5))
    with pytest.raises(NumericalFailure):
        linear_forward(np.array([[np.nan, 0.0, 0.0]]), np.zeros((3, 2)), np.zeros(2))


def test_linear_backward_matches_fd():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((6, 3))
        b = rng.standard_normal(3)
        r = rng.standard_normal((4, 3))  # random projection makes the loss scalar
        gx, gw, gb = linear_backward(x, w, r)
        assert rel_error(gx, numeric_grad(lambda: np.sum(r * linear_forward(x, w, b)), x)) < 1e-6
        assert rel_error(gw, numeric_grad(lambda: np.sum(r * linear_forward(x, w, b)), w)) < 1e-6
        assert rel_error(gb, numeric_grad(lambda: np.sum(r * linear_forward(x, w, b)), b)) < 1e-6


def test_linear_param_grads_is_linear_backward_without_the_input_gradient():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))
    r = rng.standard_normal((4, 3))
    _, gw, gb = linear_backward(x, w, r)
    pw, pb = linear_param_grads(x, w, r)
    npt.assert_array_equal(pw, gw)
    npt.assert_array_equal(pb, gb)
    npt.assert_array_equal(pb, r.sum(axis=0))
    # with `out`, into views of one flat vector, with the same bits
    flat = np.full(6 * 3 + 3, np.nan)
    out = (flat[:18].reshape(6, 3), flat[18:])
    got = linear_param_grads(x, w, r, out)
    assert got[0] is out[0] and got[1] is out[1]
    npt.assert_array_equal(flat, np.concatenate([gw.ravel(), gb]))
    # its failures are reported as linear_backward's
    with pytest.raises(DimensionError, match="^linear_backward: upstream shape"):
        linear_param_grads(x, w, r[:, :2])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalFailure, match="^linear_backward: produced non-finite"):
        linear_param_grads(x * 1e300, w, r * 1e300)


def test_relu_forward_clamps():
    x = np.array([[-2.0, 0.0, 3.5]])
    npt.assert_array_equal(relu_forward(x), [[0.0, 0.0, 3.5]])


def test_relu_subgradient_zero_at_kink():
    x = np.array([[0.0, -1.0, 2.0]])
    g = np.ones_like(x)
    npt.assert_array_equal(relu_backward(x, g), [[0.0, 0.0, 1.0]])


def test_relu_backward_matches_fd_off_kink():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal((4, 5))
        x[np.abs(x) < 0.05] += 0.1  # stay away from the nondifferentiable point
        r = rng.standard_normal((4, 5))
        g = relu_backward(x, r)
        assert rel_error(g, numeric_grad(lambda: np.sum(r * relu_forward(x)), x)) < 1e-6


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 4))
    p = softmax_rows(z)
    npt.assert_allclose(p.sum(axis=1), np.ones(6), atol=1e-12)
    npt.assert_allclose(softmax_rows(z + 123.0), p, atol=1e-12)
    assert np.isfinite(softmax_rows(np.array([[1e4, 0.0, -1e4]]))).all()


def test_batchnorm_worked_example_eps_zero():
    # two rows {1, 3}: mean 2, biased var 1, so x_hat is exactly {-1, +1}
    state = NormLayerState.create(1)
    out, _ = batchnorm_forward(np.array([[1.0], [3.0]]), state, mode="train", eps=0.0)
    npt.assert_array_equal(out, [[-1.0], [1.0]])


def test_batchnorm_train_statistics_are_biased():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 3))
    state = NormLayerState.create(3)
    _, stats = batchnorm_forward(x, state, mode="train")
    npt.assert_allclose(stats.mean, x.mean(axis=0), atol=1e-12)
    npt.assert_allclose(stats.var, x.var(axis=0), atol=1e-12)  # ddof=0


@pytest.mark.parametrize("shape, offset", [
    ((2, 1), 0.0), ((32, 48), 0.0), ((6000, 48), 0.0), ((32, 48), 1e6),
])
def test_batchnorm_train_forward_is_bit_exact_against_textbook(shape, offset):
    rng = np.random.default_rng(40)
    x = rng.standard_normal(shape)
    x[:, 0] += offset
    state = NormLayerState(gamma=rng.standard_normal(shape[1]) + 2.0,
                           beta=rng.standard_normal(shape[1]))
    out, stats = batchnorm_forward(x, state, mode="train")
    x_hat = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + NORM_EPS)
    npt.assert_array_equal(out, state.gamma * x_hat + state.beta)
    npt.assert_array_equal(stats.mean, x.mean(axis=0))
    npt.assert_array_equal(stats.var, x.var(axis=0))


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_backward_with_cached_denom_is_bit_exact(mode):
    rng = np.random.default_rng(41)
    x = rng.standard_normal((32, 48))
    state = NormLayerState(gamma=rng.standard_normal(48) + 2.0, beta=rng.standard_normal(48),
                           running_mean=rng.standard_normal(48),
                           running_var=rng.random(48) + 0.5)
    up = rng.standard_normal((32, 48))
    _, c = batchnorm_forward(x, state, mode=mode)
    gx, ggamma, gbeta = batchnorm_backward(state, c, up)
    # the closed form with sqrt(var + eps) recomputed from the forward's var
    m = x.shape[0]
    gxhat = up * state.gamma
    denom = np.sqrt(c.var + NORM_EPS)
    if mode == "train":
        want = (m * gxhat - gxhat.sum(axis=0)
                - c.x_hat * (gxhat * c.x_hat).sum(axis=0)) / (m * denom)
    else:
        want = gxhat / denom
    npt.assert_array_equal(gx, want)
    npt.assert_array_equal(ggamma, (up * c.x_hat).sum(axis=0))
    npt.assert_array_equal(gbeta, up.sum(axis=0))


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 2))
    state = NormLayerState(
        gamma=np.array([2.0, 0.5]),
        beta=np.array([1.0, -1.0]),
        running_mean=np.array([0.3, -0.2]),
        running_var=np.array([1.5, 0.7]),
    )
    out, _ = batchnorm_forward(x, state, mode="eval")
    expect = state.gamma * (x - state.running_mean) / np.sqrt(state.running_var + NORM_EPS)
    npt.assert_allclose(out, expect + state.beta, atol=1e-12)


def test_batchnorm_train_needs_two_rows():
    state = NormLayerState.create(3)
    with pytest.raises(BatchTooSmallError):
        batchnorm_forward(np.zeros((1, 3)), state, mode="train")


def test_batchnorm_unknown_mode():
    state = NormLayerState.create(2)
    with pytest.raises(ConfigError):
        batchnorm_forward(np.zeros((2, 2)), state, mode="test")


def test_batchnorm_backward_train_matches_fd():
    rng = np.random.default_rng(6)
    for trial in range(20):
        x = rng.standard_normal((6, 4))
        state = NormLayerState(
            gamma=rng.standard_normal(4) + 2.0,
            beta=rng.standard_normal(4),
        )
        r = rng.standard_normal((6, 4))

        def loss():
            return np.sum(r * batchnorm_forward(x, state, mode="train")[0])

        _, stats = batchnorm_forward(x, state, mode="train")
        gx, ggamma, gbeta = batchnorm_backward(state, stats, r)
        assert rel_error(gx, numeric_grad(loss, x)) < 1e-6
        assert rel_error(ggamma, numeric_grad(loss, state.gamma)) < 1e-6
        assert rel_error(gbeta, numeric_grad(loss, state.beta)) < 1e-6


def test_batchnorm_backward_eval_matches_fd():
    rng = np.random.default_rng(7)
    for trial in range(10):
        x = rng.standard_normal((3, 4))
        state = NormLayerState(
            gamma=rng.standard_normal(4) + 2.0,
            beta=rng.standard_normal(4),
            running_mean=rng.standard_normal(4),
            running_var=rng.random(4) + 0.5,
        )

        def loss():
            return np.sum(r * batchnorm_forward(x, state, mode="eval")[0])

        r = rng.standard_normal((3, 4))
        _, stats = batchnorm_forward(x, state, mode="eval")
        gx, ggamma, gbeta = batchnorm_backward(state, stats, r)
        assert rel_error(gx, numeric_grad(loss, x)) < 1e-6
        assert rel_error(ggamma, numeric_grad(loss, state.gamma)) < 1e-6
        assert rel_error(gbeta, numeric_grad(loss, state.beta)) < 1e-6


@pytest.mark.parametrize("momentum, given", [(0.1, ()), (0.25, (0.25,))],
                         ids=["default", "given"])
def test_update_running_stats_ema(momentum, given):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((16, 3))
    state = NormLayerState.create(3)
    rm0 = state.running_mean.copy()
    rv0 = state.running_var.copy()
    _, stats = batchnorm_forward(x, state, mode="train")
    update_running_stats(state, stats.mean, stats.var, *given)
    keep = 1.0 - momentum
    npt.assert_allclose(state.running_mean, keep * rm0 + momentum * x.mean(axis=0), atol=1e-12)
    npt.assert_allclose(state.running_var, keep * rv0 + momentum * x.var(axis=0), atol=1e-12)


def test_update_running_stats_refuses_statistics_of_another_width():
    state = NormLayerState.create(3)
    with pytest.raises(DimensionError, match=r"^update_running_stats: statistics of shapes \(1,\)"):
        update_running_stats(state, np.zeros(1), np.ones(3))
    with pytest.raises(DimensionError, match=r"^update_running_stats: .* and \(1, 3\) for a state of 3"):
        update_running_stats(state, np.zeros(3), np.ones((1, 3)))
    npt.assert_array_equal(state.running_var, np.ones(3))


def test_update_running_stats_respects_frozen_arrays():
    state = NormLayerState.create(2)
    _, stats = batchnorm_forward(np.ones((4, 2)), state, mode="train")
    state.running_mean.flags.writeable = False
    with pytest.raises(ValueError):
        update_running_stats(state, stats.mean, stats.var)


def test_batchnorm_forward_leaves_its_state_as_it_was():
    # a norm layer is its four arrays; what a forward leaves is returned
    assert [f.name for f in fields(NormLayerState)] == [
        "gamma", "beta", "running_mean", "running_var"]
    rng = np.random.default_rng(9)
    state = NormLayerState(gamma=rng.uniform(0.5, 2.0, 3), beta=rng.standard_normal(3),
                           running_mean=rng.standard_normal(3),
                           running_var=rng.uniform(0.5, 2.0, 3))
    before = dict(vars(state))
    values = {name: a.copy() for name, a in before.items()}
    for mode, shape in (("train", (6, 3)), ("eval", (6, 3)), ("train", (2, 6, 3)),
                        ("eval", (2, 6, 3))):
        x = rng.standard_normal(shape)
        _, stats = batchnorm_forward(x, state, mode=mode)
        assert (stats is None) == (x.ndim == 3)
        assert vars(state).keys() == before.keys()
        for name, a in vars(state).items():
            assert a is before[name], name
            npt.assert_array_equal(a, values[name], err_msg=name)


def test_norm_state_validation():
    with pytest.raises(DimensionError):
        NormLayerState(gamma=np.ones(2), beta=np.zeros(3))


@pytest.mark.parametrize("check, shape, name", [
    (lambda a: as_matrix(a, "feats"), (3, 4), "feats"),
    (lambda a: as_vector(a, "labels"), (5,), "labels"),
    (lambda a: _finite(a, "some_op"), (3, 4), "some_op"),
])
@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_finite_checks_reject_any_non_finite_entry_and_accept_empty(check, shape, name, where, bad):
    a = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    npt.assert_array_equal(check(a), a)
    a.flat[where] = bad
    with pytest.raises(NumericalFailure, match=f"^{name}: "):
        check(a)
    empty = np.zeros((0,) + shape[1:])
    assert check(empty).shape == empty.shape


def test_numpy_runs_stacked_products_and_reductions_per_slice():
    # the stacked ops rest on this: a (B, n, d) matmul and a reduction over
    # one of the last two axes give each slice its own 2-D value, bit for bit
    rng = np.random.default_rng(21)
    for _ in range(60):
        b, n, d, k = (int(v) for v in rng.integers(1, 70, size=4))
        x = rng.standard_normal((b, n + 1, d))
        w = rng.standard_normal((d, k))
        prod = x @ w
        rows = np.add.reduce(x, axis=-2, keepdims=True)
        cols = np.maximum.reduce(x, axis=-1, keepdims=True)
        for i in range(b):
            npt.assert_array_equal(prod[i], x[i] @ w)
            npt.assert_array_equal(rows[i, 0], np.add.reduce(x[i], axis=0))
            npt.assert_array_equal(cols[i], np.maximum.reduce(x[i], axis=1, keepdims=True))


@pytest.mark.parametrize("shape", [(1, 2, 3), (5, 32, 48), (7, 37, 16), (3, 2, 1)])
def test_stacked_forward_ops_equal_their_per_slice_calls(shape):
    rng = np.random.default_rng(shape[1])
    x = rng.standard_normal(shape)
    d = shape[-1]
    w = rng.standard_normal((d, 5))
    b = rng.standard_normal(5)
    state = NormLayerState(gamma=rng.uniform(0.5, 2.0, d), beta=rng.standard_normal(d),
                           running_mean=rng.standard_normal(d),
                           running_var=rng.uniform(0.5, 2.0, d))
    stacked = {
        "linear": linear_forward(x, w, b),
        "relu": relu_forward(x),
        "softmax": softmax_rows(x),
        "train": batchnorm_forward(x, state, mode="train")[0],
        "eval": batchnorm_forward(x, state, mode="eval")[0],
    }
    for i in range(shape[0]):
        npt.assert_array_equal(stacked["linear"][i], linear_forward(x[i], w, b))
        npt.assert_array_equal(stacked["relu"][i], relu_forward(x[i]))
        npt.assert_array_equal(stacked["softmax"][i], softmax_rows(x[i]))
        for mode in ("train", "eval"):
            npt.assert_array_equal(stacked[mode][i],
                                   batchnorm_forward(x[i], state, mode=mode)[0])


def test_stacked_norm_forward_needs_two_rows_per_slice():
    with pytest.raises(BatchTooSmallError, match="got 1"):
        batchnorm_forward(np.zeros((4, 1, 3)), NormLayerState.create(3), mode="train")


def test_linear_input_grad_is_linear_backward_without_the_param_grads():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4))
    w = rng.standard_normal((4, 3))
    r = rng.standard_normal((6, 3))
    gx, _, _ = linear_backward(x, w, r)
    npt.assert_array_equal(linear_input_grad(w, r), gx)
    # its failures are reported as linear_backward's
    with pytest.raises(DimensionError, match="^linear_backward: upstream width"):
        linear_input_grad(w, r[:, :2])
    with np.errstate(over="ignore"), pytest.raises(
            NumericalFailure, match="^linear_backward: produced non-finite"):
        linear_input_grad(w * 1e300, r * 1e300)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_param_grads_is_batchnorm_backward_without_the_input_grad(mode):
    rng = np.random.default_rng(6)
    state = NormLayerState(gamma=rng.uniform(0.5, 2.0, 4), beta=rng.standard_normal(4))
    _, stats = batchnorm_forward(rng.standard_normal((7, 4)), state, mode=mode)
    up = rng.standard_normal((7, 4))
    gx, ggamma, gbeta = batchnorm_backward(state, stats, up)
    pg, pb = batchnorm_param_grads(stats, up)
    npt.assert_array_equal(pg, ggamma)
    npt.assert_array_equal(pb, gbeta)
    # with `out`, into views of one flat vector, with the same bits
    for op, args in ((batchnorm_param_grads, (stats, up)), (batchnorm_backward, (state, stats, up))):
        flat = np.full(8, np.nan)
        got = op(*args, (flat[:4], flat[4:]))
        npt.assert_array_equal(flat, np.concatenate([ggamma, gbeta]))
        if op is batchnorm_backward:
            npt.assert_array_equal(got[0], gx)
    with pytest.raises(DimensionError, match="^batchnorm_backward: upstream shape"):
        batchnorm_param_grads(stats, up[:, :2])
    # statistics of another layer's width are refused, not broadcast
    _, narrow = batchnorm_forward(rng.standard_normal((7, 1)), NormLayerState.create(1), mode=mode)
    with pytest.raises(DimensionError,
                       match="^batchnorm_backward: statistics of 1 features for a state of 4$"):
        batchnorm_backward(state, narrow, up[:, :1])
