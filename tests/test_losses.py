"""Adaptation objectives: values against brute-force oracles, gradients against FD."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import numeric_grad, rel_error
from marginadapt import (
    ConfigError,
    DataError,
    DimensionError,
    InputError,
    NumericalFailure,
    cross_entropy_loss,
    entropy_loss,
    marginal_loss,
    softmax_rows,
)
from marginadapt.numeric import checked_step


def brute_margin(a, s, sigma):
    total = 0.0
    for i in range(a.shape[0]):
        total += max(float(((a[i] - s[i]) ** 2).sum()) - sigma, 0.0)
    return total / a.shape[0]


def test_marginal_loss_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal((6, 4))
        s = a + 0.3 * rng.standard_normal((6, 4))  # mix of active/inactive rows
        sigma = float(rng.uniform(0.0, 2.0))
        value, _ = marginal_loss(a, s, sigma)
        assert abs(value - brute_margin(a, s, sigma)) < 1e-12


def test_marginal_loss_equals_the_masked_write_form_bit_for_bit():
    # np.add.reduce and one np.where give the values of np.sum and a
    # zeros_like buffer with the active rows written into it
    rng = np.random.default_rng(7)
    for _ in range(300):
        n, d = (int(v) for v in rng.integers(1, 40, size=2))
        a = rng.standard_normal((n, d))
        s = a + float(rng.uniform(0.0, 1.0)) * rng.standard_normal((n, d))
        sigma = float(rng.choice([0.0, rng.uniform(0.0, 2.0 * d), 1e9]))
        diff = a - s
        dist_sq = np.sum(diff * diff, axis=1)
        active = dist_sq > sigma
        want = np.zeros_like(a)
        want[active] = (2.0 / n) * diff[active]
        value, grad = marginal_loss(a, s, sigma)
        assert value == float(np.sum(np.maximum(dist_sq - sigma, 0.0)) / n)
        npt.assert_array_equal(grad, want)
        assert not np.signbit(grad[~active]).any()


def test_marginal_loss_inside_margin_is_exactly_zero():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.standard_normal((5, 3))
        a = s + 1e-3 * rng.standard_normal((5, 3))  # drift far below sigma
        value, grad = marginal_loss(a, s, 0.15)
        assert value == 0.0
        assert np.count_nonzero(grad) == 0


@pytest.mark.parametrize("case", ["below", "on-the-margin", "no-drift", "sigma-minus-zero"])
def test_marginal_loss_on_an_idle_batch_is_the_general_forms_zero(case):
    # no row outside the margin: the same (0.0, zeros) bits and dtype as the
    # general form, which computes every row
    rng = np.random.default_rng(3)
    s = rng.standard_normal((6, 4))
    a = s + (1e-3 * rng.standard_normal((6, 4)) if case in ("below", "on-the-margin") else 0.0)
    diff = a - s
    dist_sq = np.add.reduce(diff * diff, axis=1)
    sigma = {"below": 0.15, "on-the-margin": float(dist_sq.max()),
             "no-drift": 0.0, "sigma-minus-zero": -0.0}[case]
    want_grad = np.where((dist_sq > sigma)[:, None], (2.0 / 6) * diff, 0.0)
    want = float(np.add.reduce(np.maximum(dist_sq - sigma, 0.0)) / 6)
    value, grad = marginal_loss(a, s, sigma)
    assert value.hex() == want.hex() == (0.0).hex()
    assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
    npt.assert_array_equal(grad.view(np.uint64), want_grad.view(np.uint64))


def test_marginal_loss_still_rejects_a_nan_distance():
    a = np.zeros((3, 2))
    a[1, 0] = np.nan  # no row compares above the margin
    with pytest.raises(NumericalFailure, match="marginal_loss: non-finite value"):
        marginal_loss(a, np.zeros((3, 2)), 0.15)


def test_marginal_loss_gradient_matches_fd_on_active_rows():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = rng.standard_normal((4, 5))
        a = s + rng.standard_normal((4, 5))  # well beyond sigma=0.15 almost surely
        sigma = 0.15
        keep = np.sum((a - s) ** 2, axis=1) > sigma + 0.05
        if not keep.all():
            a[~keep] += 1.0  # push stragglers safely past the hinge
        _, grad = marginal_loss(a, s, sigma)
        num = numeric_grad(lambda: marginal_loss(a, s, sigma)[0], a)
        assert rel_error(grad, num) < 1e-6


def test_marginal_loss_mixed_rows_zero_where_inactive():
    s = np.zeros((2, 2))
    a = np.array([[2.0, 0.0], [0.01, 0.0]])  # dists 4.0 and 1e-4
    value, grad = marginal_loss(a, s, 0.15)
    npt.assert_allclose(value, (4.0 - 0.15) / 2.0, atol=1e-12)
    npt.assert_array_equal(grad[1], [0.0, 0.0])
    npt.assert_allclose(grad[0], [2.0 * 2.0 / 2.0, 0.0], atol=1e-12)


def test_marginal_loss_validation():
    with pytest.raises(ConfigError):
        marginal_loss(np.zeros((2, 2)), np.zeros((2, 2)), -0.1)
    with pytest.raises(DimensionError):
        marginal_loss(np.zeros((2, 2)), np.zeros((3, 2)), 0.1)


def test_entropy_loss_uniform_is_log_c():
    for c in (2, 4, 7):
        p = np.full((5, c), 1.0 / c)
        value, _ = entropy_loss(p)
        assert abs(value - math.log(c)) < 1e-12


def test_entropy_loss_one_hot_is_zero_with_zero_grad():
    p = np.eye(4)[[0, 2, 3]]
    value, grad = entropy_loss(p)
    assert value == 0.0
    npt.assert_array_equal(grad, np.zeros_like(p))


def test_entropy_loss_gradient_matches_fd_through_softmax():
    rng = np.random.default_rng(3)
    for _ in range(30):
        z = rng.standard_normal((6, 4)) * 2.0
        _, grad = entropy_loss(softmax_rows(z))
        num = numeric_grad(lambda: entropy_loss(softmax_rows(z))[0], z)
        assert rel_error(grad, num) < 1e-6


def test_entropy_loss_rejects_non_distributions():
    with pytest.raises(InputError):
        entropy_loss(np.array([[0.5, 0.6]]))
    with pytest.raises(InputError):
        entropy_loss(np.array([[-0.1, 1.1]]))


def test_entropy_loss_inside_a_checked_step_takes_the_rows_the_step_made():
    # a checked step's softmax made the rows, so they are not checked again
    probs = np.array([[0.25, 0.5]])
    with pytest.raises(InputError):
        entropy_loss(probs)
    with checked_step():
        value, _ = entropy_loss(probs)
    npt.assert_allclose(value, -(0.25 * math.log(0.25) + 0.5 * math.log(0.5)), rtol=1e-15)


@pytest.mark.parametrize("name, call", [
    ("entropy_loss", lambda: entropy_loss(np.zeros((0, 3)))),
    ("marginal_loss", lambda: marginal_loss(np.zeros((0, 3)), np.zeros((0, 3)), 0.1)),
])
def test_a_loss_refuses_an_empty_batch_before_any_arithmetic(name, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^{name}: empty batch$"):
            call()


@pytest.mark.parametrize("name, call", [
    ("entropy_loss", lambda p: entropy_loss(p)),
    ("cross_entropy_loss", lambda p: cross_entropy_loss(p, np.array([0, 1]))),
])
def test_a_nan_probability_row_fails_as_a_non_finite_value(name, call):
    # NaN compares false, so the row passes entropy_loss's distribution
    # checks (cross_entropy_loss has none); the non-finite value is caught
    probs = np.array([[0.5, 0.5], [np.nan, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=f"^{name}: non-finite value$"):
            call(probs)
