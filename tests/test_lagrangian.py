import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagopt import (
    L1,
    BlockProblem,
    Box,
    ConstrainedProblem,
    Quadratic,
    Separable,
    SmoothTerm,
    RunParams,
    Zero,
    eval_objective,
    flatten_block,
    load_problem,
    make_config,
    run,
    save_problem,
)
from flagopt.lagrangian import (
    eval_aug_lagrangian,
    eval_lagrangian,
    quad_norm,
)

from helpers import delta_P, delta_euclid


def scalar_problem():
    return ConstrainedProblem(
        f=Quadratic(np.eye(1), np.zeros(1), strong_convexity=1.0), A=[[1.0]], b=[1.0]
    )


class TestLagrangian:
    def test_feasible_point_kills_inner_product(self):
        p = scalar_problem()
        assert eval_lagrangian(p, [1.0], [7.0]) == pytest.approx(0.5)

    def test_infeasible_point(self):
        p = scalar_problem()
        assert eval_lagrangian(p, [0.0], [1.0]) == pytest.approx(-1.0)

    def test_indicator_outside_domain(self):
        p = ConstrainedProblem(f=Box(lo=[0.0], hi=[1.0]), A=[[1.0]], b=[0.5])
        assert eval_lagrangian(p, [2.0], [1.0]) == math.inf


class TestAugLagrangian:
    def test_rho_zero_recovers_lagrangian(self):
        rng = np.random.default_rng(5)
        p = scalar_problem()
        for _ in range(50):
            x = rng.standard_normal(1)
            y = rng.standard_normal(1)
            assert eval_aug_lagrangian(p, x, y, 0.0) == eval_lagrangian(p, x, y)

    def test_penalty_arithmetic(self):
        from flagopt import Zero

        p = ConstrainedProblem(f=Zero(1), A=[[1.0]], b=[0.0])
        assert eval_aug_lagrangian(p, [2.0], [0.0], 1.0) == pytest.approx(2.0)

    def test_feasible_point_adds_nothing(self):
        p = scalar_problem()
        for rho in (0.5, 10.0):
            assert eval_aug_lagrangian(p, [1.0], [3.0], rho) == pytest.approx(
                eval_lagrangian(p, [1.0], [3.0])
            )


class TestDeltaP:
    def test_equal_second_third_args(self):
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        P = np.eye(3)
        assert delta_P(P, u, v, v) == pytest.approx(0.0)

    def test_scalar_arithmetic(self):
        assert delta_P(np.eye(1), [0.0], [2.0], [1.0]) == pytest.approx(1.5)

    def test_zero_matrix(self):
        rng = np.random.default_rng(7)
        u, v, w = (rng.standard_normal(4) for _ in range(3))
        assert delta_P(np.zeros((4, 4)), u, v, w) == 0.0

    def test_matches_euclidean_special_case(self):
        rng = np.random.default_rng(8)
        u, v, w = (rng.standard_normal(5) for _ in range(3))
        assert delta_P(np.eye(5), u, v, w) == pytest.approx(delta_euclid(u, v, w))


def mixed_problems():
    """One problem with every term type and a smooth part, and a block
    problem; each has a Box part on [-1, 1]."""
    rng = np.random.default_rng(4)
    G = rng.standard_normal((3, 3))
    quad = Quadratic(H=G @ G.T, q=rng.standard_normal(3), r=0.5)
    f = Separable((quad, L1(weight=0.7, dim=2), Box(lo=-np.ones(2), hi=np.ones(2)), Zero(1)))
    h = SmoothTerm(term=Quadratic(H=np.eye(8), q=rng.standard_normal(8)), lipschitz_grad=1.0)
    A, b = rng.standard_normal((3, 8)), rng.standard_normal(3)
    single = ConstrainedProblem(f=f, A=A, b=b, smooth=h)
    block = BlockProblem(
        f_term=quad, g_term=Separable((L1(weight=0.3, dim=3), Box(lo=-np.ones(2), hi=np.ones(2)))),
        A=rng.standard_normal((3, 3)), B=rng.standard_normal((3, 5)), b=rng.standard_normal(3),
    )
    return single, block


def test_block_with_a_separable_term_saves_flattens_and_runs(tmp_path):
    # g = l1 + box: its parts join f's, with n1 on the boundary after f
    block = mixed_problems()[1]
    assert block.n1 == 3 and len(block.f.parts) == 3
    save_problem(block, tmp_path / "p.json")
    back = load_problem(tmp_path / "p.json")
    flat = flatten_block(block)
    assert back.n1 == 3 and flat.n1 is None
    assert [type(t) for _, t in back.blocks] == [Quadratic, Separable]
    X = np.random.default_rng(2).uniform(-1.5, 1.5, (6, 8))
    for p in (back, flat):
        assert np.array_equal(p.A, block.A)
        assert np.array_equal(eval_objective(p, X), eval_objective(block, X))
    cfg = make_config("prox-lin-al", block, rho=1.0)
    traj = run(block, RunParams(cfg=cfg, mode="classic", iters=50))
    assert traj.records == 51
    assert np.all(np.isfinite(traj.psi_x)) and np.all(np.isfinite(traj.feas_x))
    for p in (back, flat):
        again = run(p, RunParams(cfg=cfg, mode="classic", iters=50))
        assert np.array_equal(again.psi_x, traj.psi_x)


@pytest.mark.parametrize("which", [0, 1])
def test_stacked_points_match_each_row(which):
    # a (k, n) stack gives, row by row, the single-point value; rows outside
    # the box give +inf in both
    p = mixed_problems()[which]
    rng = np.random.default_rng(which)
    X = rng.standard_normal((7, 8))
    y, P = rng.standard_normal(3), np.diag(rng.uniform(0.0, 2.0, 8))
    v, w = rng.standard_normal(8), rng.standard_normal(8)
    stacked = (
        eval_objective(p, X),
        eval_lagrangian(p, X, y),
        eval_aug_lagrangian(p, X, y, 2.5),
        quad_norm(P, X),
        delta_P(P, X, v, w),
        delta_euclid(X, v, w),
    )
    assert 0 < np.sum(np.isinf(stacked[0])) < 7
    for row, x in enumerate(X):
        single = (
            eval_objective(p, x),
            eval_lagrangian(p, x, y),
            eval_aug_lagrangian(p, x, y, 2.5),
            quad_norm(P, x),
            delta_P(P, x, v, w),
            delta_euclid(x, v, w),
        )
        for got, want in zip(stacked, single):
            assert isinstance(want, float)
            if math.isinf(want):
                assert got[row] == want
            else:
                assert got[row] == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=200, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_three_point_identity(seed):
    # 2 <u - w, P (w - v)> = ||u - v||_P^2 - ||u - w||_P^2 - ||v - w||_P^2
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 6)
    M = rng.standard_normal((n, n))
    P = M @ M.T
    u, v, w = (rng.standard_normal(n) for _ in range(3))
    lhs = 2.0 * (u - w) @ (P @ (w - v))
    nP = lambda a: float(a @ P @ a)
    rhs = nP(u - v) - nP(u - w) - nP(v - w)
    scale = 1.0 + abs(lhs) + nP(u - v) + nP(u - w) + nP(v - w)
    assert abs(lhs - rhs) <= 1e-9 * scale
