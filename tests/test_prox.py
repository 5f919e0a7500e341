import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from flagopt import Box, ConfigError, DegenerateSubproblemError, L1, Quadratic, Separable, Zero
from flagopt.prox import argmin_composite, soft_threshold


class TestSoftThreshold:
    def test_shrinks_toward_zero(self):
        assert_allclose(soft_threshold([3.0, -0.5], 1.0), [2.0, 0.0])

    def test_zero_input(self):
        assert_allclose(soft_threshold(np.zeros(3), 5.0), np.zeros(3))

    def test_partial_shrink(self):
        assert_allclose(soft_threshold([1.0, 1.0], 0.5), [0.5, 0.5])

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ConfigError):
            soft_threshold([1.0], 0.0)


class TestSolveRegularizedQuadratic:
    """argmin 0.5 x'Hx + q'x + 0.5 ||x - anchor||_W^2: argmin_composite of
    Quadratic(H, q) with g = -W anchor, V = W."""

    def test_scalar_balance(self):
        x = argmin_composite(Quadratic([[1.0]], [0.0]), [-2.0], [[1.0]])
        assert_allclose(x, [1.0])

    def test_identity_weight_returns_anchor(self):
        anchor = np.array([0.3, -1.2, 4.0])
        x = argmin_composite(Quadratic(np.zeros((3, 3)), np.zeros(3)), -anchor, np.eye(3))
        assert_allclose(x, anchor, atol=1e-12)

    def test_pure_quadratic(self):
        t = Quadratic([[2.0, 0.0], [0.0, 2.0]], [-2.0, -2.0])
        x = argmin_composite(t, np.zeros(2), np.zeros((2, 2)))
        assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_singular_system_is_rejected(self):
        t = Quadratic(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(DegenerateSubproblemError):
            argmin_composite(t, np.zeros(2), np.zeros((2, 2)))

    def test_solution_residual_is_small(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((8, 8))
        H = M @ M.T
        W = np.eye(8)
        q = rng.standard_normal(8)
        anchor = rng.standard_normal(8)
        x = argmin_composite(Quadratic(H, q), -W @ anchor, W)
        resid = np.linalg.norm((H + W) @ x - (W @ anchor - q))
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(q))


class TestProxWeighted:
    """argmin term(x) + <linear, x> + 0.5 ||x - anchor||_W^2: argmin_composite
    with g = linear - W anchor, V = W."""

    def test_scalar_quadratic(self):
        t = Quadratic(np.eye(1), np.zeros(1))
        assert_allclose(argmin_composite(t, [-1.0], [[1.0]]), [0.5])

    def test_zero_term_identity(self):
        w = np.array([1.5, -2.0])
        assert_allclose(argmin_composite(Zero(2), -w, np.eye(2)), w, atol=1e-12)

    def test_l1_soft_threshold(self):
        assert_allclose(argmin_composite(L1(1.0, 1), [-3.0], np.eye(1)), [2.0])

    def test_box_clip(self):
        t = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
        assert_allclose(argmin_composite(t, [-2.0, 0.5], np.eye(2)), [1.0, 0.0])

    def test_separable_dispatch(self):
        t = Separable((Quadratic(np.eye(1), np.zeros(1)), L1(1.0, 1)))
        x = argmin_composite(t, [-1.0, -3.0], np.eye(2))
        assert_allclose(x, [0.5, 2.0])

    def test_separable_rejects_coupling_weight(self):
        t = Separable((Quadratic(np.eye(1), np.zeros(1)), L1(1.0, 1)))
        W = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ConfigError, match="linearized"):
            argmin_composite(t, np.zeros(2), W)

    def test_l1_rejects_dense_weight(self):
        W = np.array([[2.0, 0.5], [0.5, 2.0]])
        with pytest.raises(ConfigError, match="linearized"):
            argmin_composite(L1(1.0, 2), np.zeros(2), W)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(4)
        t = Separable((Quadratic(np.diag([2.0, 3.0]), rng.standard_normal(2)), L1(0.7, 2)))
        for _ in range(20):
            linear = rng.standard_normal(4)
            anchor = rng.standard_normal(4)
            W = np.diag(rng.uniform(0.5, 2.0, 4))
            x = argmin_composite(t, linear - W @ anchor, W)
            resid = t.subgrad_dist(x, -(linear + W @ (x - anchor)))
            assert resid <= 1e-8 * (1.0 + np.linalg.norm(anchor))


def random_psd(rng, n, shift=0.0):
    M = rng.standard_normal((n, n))
    return M @ M.T + shift * np.eye(n)


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_composite_prox_inequality(seed):
    # phi(w+) - phi(xi) + <grad c(w+), w+ - xi>
    #   <= 0.5 (||xi-w||_W^2 - ||xi-w+||_W^2 - ||w+-w||_W^2) - (sigma/2)||xi-w+||^2
    rng = np.random.default_rng(seed)
    n = 3
    sigma = 0.5
    phi = Separable(
        (Quadratic(random_psd(rng, 2, sigma), rng.standard_normal(2), strong_convexity=sigma), L1(0.6, 1))
    )
    W = np.diag(rng.uniform(0.3, 2.0, n))
    w = rng.standard_normal(n)
    linear = rng.standard_normal(n)
    xi = rng.standard_normal(n)
    wp = argmin_composite(phi, linear - W @ w, W)
    sig = phi.strong_convexity  # 0: the l1 part kills the modulus
    lhs = phi.value(wp) - phi.value(xi) + linear @ (wp - xi)
    dW = lambda a, b: float((a - b) @ W @ (a - b))
    rhs = 0.5 * (dW(xi, w) - dW(xi, wp) - dW(wp, w)) - 0.5 * sig * np.sum((xi - wp) ** 2)
    assert lhs <= rhs + 1e-8


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_composite_prox_inequality_strongly_convex(seed):
    rng = np.random.default_rng(seed)
    n = 3
    sigma = 0.8
    phi = Quadratic(random_psd(rng, n, sigma), rng.standard_normal(n), strong_convexity=sigma)
    W = random_psd(rng, n, 0.2)
    w = rng.standard_normal(n)
    linear = rng.standard_normal(n)
    xi = rng.standard_normal(n)
    wp = argmin_composite(phi, linear - W @ w, W)
    lhs = phi.value(wp) - phi.value(xi) + linear @ (wp - xi)
    dW = lambda a, b: float((a - b) @ W @ (a - b))
    rhs = 0.5 * (dW(xi, w) - dW(xi, wp) - dW(wp, w)) - 0.5 * sigma * np.sum((xi - wp) ** 2)
    assert lhs <= rhs + 1e-8


@settings(max_examples=50, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_prox_nonexpansive_in_weight_norm(seed):
    rng = np.random.default_rng(seed)
    n = 4
    phi = Quadratic(random_psd(rng, n), rng.standard_normal(n))
    W = random_psd(rng, n, 0.5)
    linear = rng.standard_normal(n)
    a1 = rng.standard_normal(n)
    a2 = rng.standard_normal(n)
    p1 = argmin_composite(phi, linear - W @ a1, W)
    p2 = argmin_composite(phi, linear - W @ a2, W)
    nW = lambda v: float(np.sqrt(v @ W @ v))
    assert nW(p1 - p2) <= nW(a1 - a2) + 1e-8


@settings(max_examples=50, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 5.0))
def test_soft_threshold_matches_weighted_prox(seed, t):
    rng = np.random.default_rng(seed)
    n = 3
    w = rng.standard_normal(n) * 3
    term = L1(1.0, n)
    W = np.eye(n) / t
    via_prox = argmin_composite(term, -W @ w, W)
    assert np.max(np.abs(via_prox - soft_threshold(w, t))) <= 1e-10
