import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flagopt import (
    BlockProblem,
    Box,
    ConfigError,
    ConstrainedProblem,
    L1,
    NotNiceError,
    Quadratic,
    SmoothTerm,
    Zero,
)
from flagopt import driver, linalg, maps
from flagopt.driver import RunParams, run
from flagopt.gen import GenSpec, generate
from flagopt.lagrangian import eval_aug_lagrangian
from flagopt.maps import (
    KINDS,
    MAP_KINDS,
    MapConfig,
    StepPlan,
    certificate,
    default_p,
    feasible_sampler,
    make_config,
    nice_parts,
    prim_step,
    sample_niceness,
)
from flagopt.problems import flatten_block
from helpers import delta_P, dense_prim_step, dense_subproblem_solve


def one_d_problem(sigma=1.0, b=1.0):
    f = Quadratic(H=[[sigma]], q=[0.0], strong_convexity=sigma)
    return ConstrainedProblem(f=f, A=[[1.0]], b=[b])


def small_qp(seed=3, n=6, m=2, sigma=1.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    H = G @ G.T + sigma * np.eye(n)
    f = Quadratic(H=H, q=rng.standard_normal(n), strong_convexity=sigma)
    A = rng.standard_normal((m, n))
    x_feas = rng.standard_normal(n)
    return ConstrainedProblem(f=f, A=A, b=A @ x_feas, feasible_point=x_feas)


def small_block(seed=5, n1=4, n2=3, m=2, sigma_f=0.5, sigma_g=1.0, a_identity=False):
    rng = np.random.default_rng(seed)
    if a_identity:
        n1 = m
        A = np.eye(m)
    else:
        A = rng.standard_normal((m, n1))
    B = rng.standard_normal((m, n2))
    G1 = rng.standard_normal((n1, n1))
    G2 = rng.standard_normal((n2, n2))
    f = Quadratic(
        H=G1 @ G1.T + sigma_f * np.eye(n1),
        q=rng.standard_normal(n1),
        strong_convexity=sigma_f,
    )
    g = Quadratic(
        H=G2 @ G2.T + sigma_g * np.eye(n2),
        q=rng.standard_normal(n2),
        strong_convexity=sigma_g,
    )
    u = rng.standard_normal(n1)
    v = rng.standard_normal(n2)
    return BlockProblem(
        f_term=f,
        g_term=g,
        A=A,
        B=B,
        b=A @ u + B @ v,
        feasible_point=np.concatenate([u, v]),
    )


def box_problem(half_width=1.0, n=8, m=3, seed=0):
    """f = indicator of the box [-half_width, half_width]^n around a feasible
    point inside it, h = 0.5 ||x||^2."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-0.5, 0.5, n) * half_width
    A = rng.standard_normal((m, n))
    half_sq = Quadratic(H=np.eye(n), q=np.zeros(n), strong_convexity=1.0)
    h = SmoothTerm(term=half_sq, lipschitz_grad=1.0)
    f = Box(lo=-half_width * np.ones(n), hi=half_width * np.ones(n))
    return ConstrainedProblem(f=f, A=A, b=A @ x0, smooth=h, feasible_point=x0)


def taus_of_run(monkeypatch, mode):
    """The tau_t of each prim_step a 3-iteration run makes, from t = 1."""
    taus = []

    def spy(plan, tau, z, lam):
        taus.append(tau)
        return prim_step(plan, tau, z, lam)

    monkeypatch.setattr(driver, "prim_step", spy)
    p = one_d_problem()
    run(p, RunParams(cfg=MapConfig(kind="prox-al", rho=2.0, M=[[1.0]]), mode=mode, iters=3))
    return taus


class TestSchedule:
    def test_classic(self, monkeypatch):
        # p = 1: tau_t = t^0 = 1 at every t
        assert taus_of_run(monkeypatch, "classic") == [1.0, 1.0, 1.0]

    def test_fast(self, monkeypatch):
        # p = 2: tau_t = t along the accelerated sequence
        t2 = driver.next_t(1.0, 2)
        assert taus_of_run(monkeypatch, "fast") == [1.0, t2, driver.next_t(t2, 2)]

    def test_rejects_bad_t(self):
        # a step takes the schedule through tau_t alone, which must be
        # positive and finite
        p = one_d_problem()
        plan = StepPlan(MapConfig(kind="prox-al", rho=1.0, M=[[0.0]]), p)
        for tau in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError, match="positive finite tau_t"):
                prim_step(plan, tau, np.array([5.0]), np.array([0.0]))

    def test_step_uses_rho_tau(self):
        # rho_t = rho tau_t: the step of (rho, tau) is that of (rho tau, 1)
        # when M = 0, since tau only scales M and the penalty
        p = small_qp()
        rng = np.random.default_rng(2)
        z, lam = rng.standard_normal(p.n), rng.standard_normal(p.m)
        zero = np.zeros((p.n, p.n))
        scaled = StepPlan(MapConfig(kind="prox-al", rho=0.5, M=zero), p)
        unit = StepPlan(MapConfig(kind="prox-al", rho=2.0, M=zero), p)
        assert_allclose(prim_step(scaled, 4.0, z, lam), prim_step(unit, 1.0, z, lam), rtol=1e-10)


class TestCertificates:
    def test_prox_lin_al_scalar(self):
        p = one_d_problem()
        cfg = MapConfig(kind="prox-lin-al", rho=1.0, M=[[2.0]])
        cert = certificate(cfg, p)
        assert cert.delta == 1.0
        assert_allclose(cert.P, [[1.0]])
        assert_allclose(cert.Q, [[1.0]])
        assert all(c.holds() for c in cert.conditions)

    def test_prox_lin_al_needs_dominating_weight(self):
        p = one_d_problem()
        cfg = MapConfig(kind="prox-lin-al", rho=1.0, M=[[0.5]])
        with pytest.raises(NotNiceError, match="rho A'A"):
            certificate(cfg, p)

    def test_prox_al_delta_one(self):
        p = small_qp()
        cert = certificate(MapConfig(kind="prox-al", rho=0.7, M=np.eye(p.n)), p)
        assert cert.delta == 1.0
        assert_allclose(cert.P, np.eye(p.n))

    def test_chambolle_pock_scalar(self):
        f = Quadratic(H=[[1.0]], q=[0.0], strong_convexity=1.0)
        g = Quadratic(H=[[1.0]], q=[0.0], strong_convexity=1.0)
        bp = BlockProblem(f_term=f, g_term=g, A=np.eye(1), B=[[1.0]], b=[1.0])
        cfg = MapConfig(kind="chambolle-pock", rho=1.0, alpha=0.5)
        cert = certificate(cfg, bp)
        assert_allclose(cert.delta, 0.5)
        assert_allclose(cert.block_P[1], [[2.0]])
        assert_allclose(cert.block_P[0], [[0.0]])

    def test_chambolle_pock_needs_identity_first_block(self):
        bp = small_block()
        with pytest.raises(ConfigError, match="A = I"):
            certificate(MapConfig(kind="chambolle-pock", rho=1.0, alpha=0.1), bp)

    def test_pcpm_unit_weights_not_nice(self):
        f = Quadratic(H=[[1.0]], q=[0.0], strong_convexity=1.0)
        g = Quadratic(H=[[1.0]], q=[0.0], strong_convexity=1.0)
        bp = BlockProblem(f_term=f, g_term=g, A=[[1.0]], B=[[1.0]], b=[1.0])
        cfg = MapConfig(kind="pcpm", rho=1.0, M1=[[1.0]], M2=[[1.0]])
        with pytest.raises(NotNiceError):
            certificate(cfg, bp)

    def test_pcpm_regime_mismatch_rejected(self):
        f = Quadratic(H=[[1.0]], q=[0.0], strong_convexity=1.0)
        g = Quadratic(H=[[0.0]], q=[0.0])
        bp = BlockProblem(f_term=f, g_term=g, A=[[1.0]], B=[[1.0]], b=[1.0])
        cfg = MapConfig(kind="pcpm", rho=0.1, M1=[[1.0]], M2=[[1.0]])
        with pytest.raises(ConfigError, match="regime"):
            certificate(cfg, bp)

    def test_prox_admm_delta(self):
        bp = small_block()
        B, n2 = bp.blocks[1][0], bp.n - bp.n1
        lamB = np.linalg.eigvalsh(B.T @ B).max()
        cfg = MapConfig(kind="prox-admm", rho=1.0, M1=np.eye(bp.n1), M2=2.0 * np.eye(n2))
        cert = certificate(cfg, bp)
        assert_allclose(cert.delta, 1.0 - lamB / (lamB + 2.0))
        assert_allclose(cert.block_P[1], 2.0 * np.eye(n2) + B.T @ B)
        assert_allclose(cert.block_Q[1], np.zeros((n2, n2)))

    def test_block_certificate_stacks(self):
        bp = small_block()
        cfg = make_config("prox-jacobi", bp, rho=0.5)
        cert = certificate(cfg, bp)
        n1 = bp.n1
        assert_allclose(cert.P[:n1, :n1], cert.block_P[0])
        assert_allclose(cert.P[n1:, n1:], cert.block_P[1])
        assert np.count_nonzero(cert.P[:n1, n1:]) == 0

    def test_smooth_kind_requires_smooth_part(self):
        # the kind does not apply, so no configuration is built for it
        p = small_qp()
        for kind in ("smooth-prox-al", "smooth-lin-al"):
            with pytest.raises(ConfigError, match=f"^{kind} requires a smooth objective part$"):
                make_config(kind, p, rho=1.0)

    def test_exact_kind_rejects_coupled_nonsmooth(self):
        f = L1(weight=1.0, dim=2)
        A = np.array([[1.0, 1.0]])
        p = ConstrainedProblem(f=f, A=A, b=[1.0])
        cfg = MapConfig(kind="prox-al", rho=1.0, M=np.zeros((2, 2)))
        with pytest.raises(ConfigError, match="linearized"):
            certificate(cfg, p)

    def test_auto_policy_certifies_every_kind(self):
        single = small_qp()
        block = small_block()
        smooth_p = ConstrainedProblem(
            f=Quadratic(H=np.eye(3), q=np.zeros(3), strong_convexity=1.0),
            A=np.array([[1.0, 1.0, 0.0]]),
            b=[1.0],
            smooth=SmoothTerm(term=Quadratic(H=0.5 * np.eye(3), q=np.zeros(3)), lipschitz_grad=0.5),
        )
        cp_block = small_block(a_identity=True)
        for kind in MAP_KINDS:
            if kind in ("smooth-prox-al", "smooth-lin-al"):
                prob = smooth_p
            elif kind == "chambolle-pock":
                prob = cp_block
            elif len(KINDS[kind].blocks) == 1:
                prob = single
            else:
                prob = block
            cert = certificate(make_config(kind, prob, rho=0.8), prob)
            assert 0.0 < cert.delta <= 1.0
            assert all(c.holds() for c in cert.conditions)

    def test_identity_scaled_policy(self):
        p = small_qp()
        cfg = make_config("prox-al", p, rho=1.0, policy="identity-scaled", scale=3.0)
        assert_allclose(cfg.M, 3.0 * np.eye(p.n))

    @pytest.mark.parametrize("scale", [True, "2"])
    def test_scale_must_be_a_number(self, scale):
        # a bool is not read as the number 1, nor a string as 2
        p = small_qp()
        with pytest.raises(TypeError, match=f"^scale must be a number, got {scale!r}$"):
            make_config("prox-lin-al", p, rho=1.0, policy="identity-scaled", scale=scale)

    @pytest.mark.parametrize("n,m", [(8, 5), (12, 4)])
    @pytest.mark.parametrize("rho", [1.0, 0.7])
    def test_chambolle_pock_oracle(self, n, m, rho):
        # the shared formula gives chambolle-pock delta = 1 - c, c = rho alpha
        # lambda_max(B'B), to 2 ulp of [0.5, 1) (a difference from 1 is exact
        # to eps = ulp(1)); P = [0, I / alpha] and Q = [0, 0] bitwise
        for seed, alpha in itertools.product(range(10), (None, 0.05)):
            prob = generate(GenSpec(family="block-qp", n=n, m=m, seed=seed, a_identity=True))
            cfg = make_config("chambolle-pock", prob, rho=rho, alpha=alpha)
            cert = certificate(cfg, prob)
            B = prob.blocks[1][0]
            c = rho * cfg.alpha * np.linalg.eigvalsh(B.T @ B)[-1]
            assert abs(cert.delta - (1.0 - c)) <= 2 * np.spacing(0.5), (seed, alpha)
            n2 = prob.n - m
            P1, P2 = cert.block_P
            assert np.array_equal(P1, np.zeros((m, m)))
            assert np.array_equal(P2, (1.0 / cfg.alpha) * np.eye(n2))
            Q1, Q2 = cert.block_Q
            assert np.array_equal(Q1, np.zeros((m, m))) and np.array_equal(Q2, np.zeros((n2, n2)))

    def test_plan_computes_its_certificate_once(self, monkeypatch):
        # plan.cert is cached; a run reads it from the plan that steps, so
        # the certificate formula is evaluated once per run
        calls = []
        formula = maps._certify

        def counted(*args):
            calls.append(args)
            return formula(*args)

        monkeypatch.setattr(maps, "_certify", counted)
        p = small_qp()
        cfg = make_config("prox-lin-al", p, rho=1.0)
        plan = StepPlan(cfg, p)
        assert plan.cert is plan.cert and len(calls) == 1
        run(p, RunParams(cfg=cfg, mode="fast", iters=5))
        assert len(calls) == 2


class TestPrimStep:
    def test_prox_al_scalar(self):
        p = one_d_problem()
        cfg = MapConfig(kind="prox-al", rho=1.0, M=[[0.0]])
        z = prim_step(StepPlan(cfg, p), 1.0, np.array([5.0]), np.array([0.0]))
        assert_allclose(z, [0.5])

    def test_prox_lin_al_scalar(self):
        p = one_d_problem()
        cfg = MapConfig(kind="prox-lin-al", rho=1.0, M=[[2.0]])
        z = prim_step(StepPlan(cfg, p), 1.0, np.array([0.0]), np.array([0.0]))
        assert_allclose(z, [1.0 / 3.0])

    def test_smooth_lin_al_scalar(self):
        f = Quadratic(H=[[0.0]], q=[0.0])
        h = SmoothTerm(term=Quadratic(H=[[1.0]], q=[0.0]), lipschitz_grad=1.0)
        p = ConstrainedProblem(f=f, A=[[1.0]], b=[1.0], smooth=h)
        cfg = MapConfig(kind="smooth-lin-al", rho=1.0, M=[[3.0]])
        # argmin <h'(0), x> + <0 + (0 - 1), x> + (3/2) x^2  ->  x = 1/3
        z = prim_step(StepPlan(cfg, p), 1.0, np.array([0.0]), np.array([0.0]))
        assert_allclose(z, [1.0 / 3.0])

    def test_prox_al_minimizes_surrogate(self):
        p = small_qp()
        cfg = MapConfig(kind="prox-al", rho=0.9, M=0.5 * np.eye(p.n))
        plan = StepPlan(cfg, p)
        rng = np.random.default_rng(0)
        for tau in (1.0, 4.0):
            z = rng.standard_normal(p.n)
            lam = rng.standard_normal(p.m)
            z_new = prim_step(plan, tau, z, lam)

            def surrogate(x):
                return eval_aug_lagrangian(p, x, lam, 0.9 * tau) + 0.5 * tau * float(
                    (x - z) @ (0.5 * np.eye(p.n)) @ (x - z)
                )

            base = surrogate(z_new)
            for _ in range(20):
                assert base <= surrogate(z_new + 1e-3 * rng.standard_normal(p.n)) + 1e-12

    def test_jacobi_second_block_uses_old_first_block(self):
        bp = small_block()
        cfg = make_config("prox-jacobi", bp, rho=0.5)
        rng = np.random.default_rng(1)
        z = rng.standard_normal(bp.n)
        lam = rng.standard_normal(bp.m)
        out = prim_step(StepPlan(cfg, bp), 1.0, z, lam)
        # recompute v+ by hand from the old u
        u, v = z[: bp.n1], z[bp.n1 :]
        (A, _), (B, g) = bp.blocks
        V2 = 0.5 * B.T @ B + cfg.M2
        g2 = B.T @ lam + 0.5 * B.T @ (A @ u - bp.b) - cfg.M2 @ v
        v_new = np.linalg.solve(g.H + V2, -(g.q + g2))
        assert_allclose(out[bp.n1 :], v_new, atol=1e-10)

    def test_chambolle_pock_matches_prox_lin_admm(self):
        bp = small_block(a_identity=True)
        alpha = 0.3
        cp = MapConfig(kind="chambolle-pock", rho=1.2, alpha=alpha)
        equivalent = MapConfig(
            kind="prox-lin-admm",
            rho=1.2,
            M1=np.zeros((bp.n1, bp.n1)),
            M2=np.eye(bp.n - bp.n1) / alpha,
        )
        plans = StepPlan(cp, bp), StepPlan(equivalent, bp)
        rng = np.random.default_rng(7)
        for tau in (1.0, 3.0, 11.0):
            for _ in range(10):
                z = rng.standard_normal(bp.n)
                lam = rng.standard_normal(bp.m)
                assert_allclose(
                    prim_step(plans[0], tau, z, lam),
                    prim_step(plans[1], tau, z, lam),
                    atol=1e-10,
                )


class TestNiceness:
    def test_sampled_residuals_nonpositive(self):
        p = small_qp()
        for kind in ("prox-al", "prox-lin-al"):
            cfg = make_config(kind, p, rho=1.0)
            report = sample_niceness(cfg, p, states=25, xis=8, seed=11)
            assert report["max_scaled_residual"] <= 1e-7

    def test_block_sampled_residuals_nonpositive(self):
        bp = small_block()
        for kind in ("prox-admm", "prox-lin-admm", "prox-jacobi", "full-lin-admm"):
            cfg = make_config(kind, bp, rho=0.6)
            report = sample_niceness(cfg, bp, states=20, xis=6, seed=13)
            assert report["max_scaled_residual"] <= 1e-7, kind

    def test_pcpm_and_chambolle_pock_sampling(self):
        bp = small_block()
        report = sample_niceness(make_config("pcpm", bp, rho=0.4), bp, states=15, xis=6, seed=3)
        assert report["max_scaled_residual"] <= 1e-7
        cp_bp = small_block(a_identity=True)
        report = sample_niceness(
            make_config("chambolle-pock", cp_bp, rho=0.8), cp_bp, states=15, xis=6, seed=4
        )
        assert report["max_scaled_residual"] <= 1e-7

    def test_smooth_kind_sampling(self):
        rng = np.random.default_rng(9)
        G = rng.standard_normal((4, 4))
        f = Quadratic(H=G @ G.T + np.eye(4), q=rng.standard_normal(4), strong_convexity=1.0)
        S = rng.standard_normal((4, 4))
        Hs = S @ S.T
        Hs = Hs / np.linalg.eigvalsh(Hs).max()
        h = SmoothTerm(term=Quadratic(H=Hs, q=rng.standard_normal(4)), lipschitz_grad=1.0)
        A = rng.standard_normal((2, 4))
        x_feas = rng.standard_normal(4)
        p = ConstrainedProblem(
            f=f, A=A, b=A @ x_feas, smooth=h, feasible_point=x_feas
        )
        for kind in ("smooth-prox-al", "smooth-lin-al"):
            report = sample_niceness(make_config(kind, p, rho=1.0), p, states=15, xis=6, seed=5)
            assert report["max_scaled_residual"] <= 1e-7, kind

    def test_inflated_delta_has_teeth(self):
        # with f quadratic of Hessian sigma*I the inequality is tight, so a
        # 1.5x delta must push the residual strictly positive
        f = Quadratic(H=np.eye(3), q=np.zeros(3), strong_convexity=1.0)
        A = np.array([[1.0, 1.0, 1.0]])
        p = ConstrainedProblem(f=f, A=A, b=[3.0])
        cfg = make_config("prox-lin-al", p, rho=1.0)
        cert = certificate(cfg, p)
        report = sample_niceness(cfg, p, states=20, xis=5, seed=2, delta=1.5 * cert.delta)
        assert report["max_scaled_residual"] > 0

    def test_infeasible_xi_rejected(self):
        p = small_qp()
        plan = StepPlan(make_config("prox-al", p, rho=1.0), p)
        bad_xi = p.feasible_point + 1.0
        z, lam = np.zeros(p.n), np.zeros(p.m)
        with pytest.raises(ConfigError, match="feasible"):
            nice_parts(plan, 1.0, z, lam, bad_xi, prim_step(plan, 1.0, z, lam))

    def test_feasible_sampler_spans_null_space(self):
        p = small_qp()
        gen = feasible_sampler(p, seed=0)
        pts = np.array([next(gen) for _ in range(8)])
        assert_allclose(p.A @ pts.T, np.tile(p.b[:, None], (1, 8)), atol=1e-8)
        assert np.linalg.matrix_rank(pts - pts[0]) == p.n - p.m

    def test_feasible_sampler_stack_draws_the_same_points(self):
        p = small_qp()
        single = feasible_sampler(p, seed=4, scale=1.5)
        stacked = feasible_sampler(p, seed=4, scale=1.5, size=5)
        for _ in range(3):
            want = np.array([next(single) for _ in range(5)])
            assert_allclose(next(stacked), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("flag", ["states", "xis"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_sampling_rejected(self, flag, count):
        p = small_qp()
        cfg = make_config("prox-lin-al", p, rho=1.0)
        with pytest.raises(ConfigError, match=f"{flag} must be >= 1, got {count}"):
            sample_niceness(cfg, p, **{flag: count})

    def test_seed_and_margin_follow_the_number_rule(self):
        # a negative seed is refused before any draw, and a bool margin is
        # not read as the number 1
        p = small_qp()
        cfg = make_config("prox-lin-al", p, rho=1.0)
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            sample_niceness(cfg, p, seed=-1)
        with pytest.raises(TypeError, match="^margin must be a number, got True$"):
            make_config("prox-lin-al", p, rho=1.0, margin=True)

    def test_points_outside_the_box_are_not_counted(self):
        # most sampled points leave the box, where Psi = +inf makes the left
        # side -inf: only the points inside it test the inequality
        prob = box_problem()
        report = sample_niceness(make_config("prox-lin-al", prob, rho=1.0), prob, seed=0)
        points = feasible_sampler(prob, seed=1, scale=1.5, size=20)
        inside = sum(
            int(np.sum(np.all(np.abs(next(points)) <= 1.0 + 1e-9, axis=1))) for _ in range(100)
        )
        assert 0 < inside < 2000
        assert report["checked"] == inside
        assert -np.inf < report["max_scaled_residual"] <= 1e-7

    def test_nothing_tested_when_no_point_is_in_the_box(self):
        prob = box_problem(half_width=1e-6)
        report = sample_niceness(make_config("prox-lin-al", prob, rho=1.0), prob, states=10)
        assert report["checked"] == 0
        assert report["max_residual"] == report["max_scaled_residual"] == -np.inf


class TestDefaults:
    def test_default_p_single(self):
        assert default_p(make_config("prox-al", small_qp(), 1.0), small_qp()) == 2
        p0 = small_qp(sigma=0.0)
        assert default_p(make_config("prox-al", p0, 1.0), p0) == 1

    def test_default_p_block(self):
        bp = small_block(sigma_f=0.0, sigma_g=1.0)
        assert default_p(make_config("prox-admm", bp, 1.0), bp) == 2
        assert default_p(make_config("prox-jacobi", bp, 1.0), bp) == 1

    def test_unknown_kind(self):
        for build in (
            lambda: MapConfig(kind="gradient-descent", rho=1.0),
            lambda: make_config("gradient-descent", small_qp(), rho=1.0),
        ):
            with pytest.raises(ConfigError, match="choose from prox-al, prox-lin-al"):
                build()


# Final (psi_x, feas_x) after 300 iterations from z0 = feasible point, auto
# policy, rho = 1, recorded from the implementation that spelled out each kind
# in its own branch, before the generic block step of the KINDS table.
PINNED_FINALS = {
    ("prox-al", "eq-qp", "classic"): (-0.5413503711771597, 0.0030258583262852295),
    ("prox-al", "eq-qp", "fast"): (-0.5359390657811929, 3.9418546432051904e-05),
    ("prox-lin-al", "eq-qp", "classic"): (-0.5412199018143222, 0.003025858326285241),
    ("prox-lin-al", "eq-qp", "fast"): (-0.5353162497553305, 3.952593851121028e-05),
    ("prox-lin-al", "lasso-flat", "classic"): (0.8169697333376377, 0.0005775043788225326),
    ("smooth-prox-al", "smooth", "classic"): (16.424205488030076, 0.011213885868633141),
    ("smooth-prox-al", "smooth", "fast"): (16.498556953938227, 0.00014608553267925878),
    ("smooth-lin-al", "smooth", "classic"): (16.42455645541687, 0.011213885868633285),
    ("smooth-lin-al", "smooth", "fast"): (16.506728075950246, 0.00014573967252343167),
    ("prox-admm", "block", "classic"): (-1.4962991853824752, 0.002071858125175325),
    ("prox-admm", "block", "fast"): (-1.494872346129167, 2.6990186078950924e-05),
    ("prox-admm", "lasso", "classic"): (0.8138667228713612, 0.000770005811626431),
    ("prox-lin-admm", "block", "classic"): (-1.4957978242196828, 0.002071858125174931),
    ("prox-lin-admm", "block", "fast"): (-1.4732988883475313, 2.7270783812702204e-05),
    ("prox-lin-admm", "lasso", "classic"): (0.8138667228713603, 0.0007700058116260718),
    ("chambolle-pock", "block-id", "classic"): (6.318781611151639, 0.012814049413586453),
    ("chambolle-pock", "block-id", "fast"): (6.405535990940083, 0.00016724304690987938),
    ("prox-jacobi", "block", "classic"): (-1.4957885730665075, 0.0021932843267137205),
    ("prox-jacobi", "block", "fast"): (-1.4673627708146766, 2.8059293940554744e-05),
    ("prox-jacobi", "lasso", "classic"): (0.8152920826853056, 0.0010395078457299855),
    ("pcpm", "block", "classic"): (-1.494438574267667, 0.002193284326713942),
    ("pcpm", "block", "fast"): (-1.267328778306809, 2.944873728345286e-05),
    ("full-lin-admm", "block", "classic"): (-1.4957657284066976, 0.002071858125174947),
    ("full-lin-admm", "block", "fast"): (-1.4728242813991534, 2.6988284457220084e-05),
    ("full-lin-admm", "lasso", "classic"): (0.8143814134333126, 0.0007700058116256376),
}


def pin_problem(name):
    lasso = GenSpec(family="lasso-split", n=10, m=6, sigma=0.0, seed=3)
    if name == "eq-qp":
        return generate(GenSpec(family="eq-qp", n=12, m=4, sigma=1.0, seed=0))
    if name == "smooth":
        return generate(GenSpec(family="smooth-composite", n=12, m=4, sigma=1.0, seed=0))
    if name == "lasso":
        return generate(lasso)
    if name == "lasso-flat":
        return flatten_block(generate(lasso))
    if name == "block":
        return small_block()
    return generate(GenSpec(family="block-qp", n=12, m=4, sigma=1.0, seed=0, a_identity=True))


def test_pinned_finals_cover_every_kind():
    assert {kind for kind, _, _ in PINNED_FINALS} == set(MAP_KINDS)


@pytest.mark.parametrize("kind,name", sorted({key[:2] for key in PINNED_FINALS}))
def test_pinned_finals(kind, name):
    prob = pin_problem(name)
    cfg = make_config(kind, prob, rho=1.0)
    modes = ["classic"] + (["fast"] if default_p(cfg, prob) == 2 else [])
    assert {key[2] for key in PINNED_FINALS if key[:2] == (kind, name)} == set(modes)
    for mode in modes:
        traj = run(prob, RunParams(cfg=cfg, mode=mode, iters=300))
        for got, want in zip((traj.psi_x[-1], traj.feas_x[-1]), PINNED_FINALS[kind, name, mode]):
            assert abs(got - want) <= 1e-9 * max(abs(want), 1e-6), (mode, got, want)
        # every solve passed the residual gate without a refinement step
        assert all(s["refinements"] == 0 for s in traj.meta["subproblems"]), mode


def cert_problem(name):
    """Small problems with integer data for the pinned certificates."""
    def quad(*diag):
        return Quadratic(H=np.diag(diag), q=np.zeros(len(diag)), strong_convexity=min(diag))

    if name == "single":
        return ConstrainedProblem(f=quad(2.0, 1.0), A=[[1.0, 3.0]], b=[1.0])
    if name == "smooth":
        h = SmoothTerm(term=Quadratic(H=np.diag([0.5, 0.25]), q=np.zeros(2)), lipschitz_grad=0.5)
        return ConstrainedProblem(f=quad(1.0, 1.0), A=[[1.0, 3.0]], b=[1.0], smooth=h)
    A = [[1.0]] if name == "block-id" else [[2.0]]
    return BlockProblem(f_term=quad(1.0), g_term=quad(2.0, 1.0), A=A, B=[[1.0, 3.0]], b=[1.0])


# kind -> (problem, auto-policy weights: the scale c of each M_i = c I, or
# alpha; delta; block P; block Q; conditions as (name, margin, strict)) at
# rho = 0.7, recorded from the implementation that wrote out each kind's
# certificate formula in its own function; chambolle-pock's conditions are
# those of the shared formula, which also serves it.
PINNED_CERTS = {
    "prox-al": (
        "single", (1.0,), 1.0,
        [[[1.0, 0.0], [0.0, 1.0]]],
        [[[1.0, 0.0], [0.0, 1.0]]],
        (
            ("lambda_min(M) >= 0", 1.0, False),
        ),
    ),
    "prox-lin-al": (
        "single", (8.0,), 1.0,
        [[[7.3, -2.0999999999999996], [-2.0999999999999996, 1.7000000000000002]]],
        [[[7.3, -2.0999999999999996], [-2.0999999999999996, 1.7000000000000002]]],
        (
            ("lambda_min(M - rho A'A) >= 0", 1.0000000000000002, False),
        ),
    ),
    "smooth-prox-al": (
        "smooth", (1.5,), 1.0,
        [[[1.5, 0.0], [0.0, 1.5]]],
        [[[1.0, 0.0], [0.0, 1.0]]],
        (
            ("lambda_min(M - L I) >= 0", 1.0, False),
        ),
    ),
    "smooth-lin-al": (
        "smooth", (8.5,), 1.0,
        [[[7.8, -2.0999999999999996], [-2.0999999999999996, 2.2]]],
        [[[7.3, -2.0999999999999996], [-2.0999999999999996, 1.7000000000000002]]],
        (
            ("lambda_min(M - rho A'A - L I) >= 0", 1.0000000000000002, False),
        ),
    ),
    "prox-admm": (
        "block", (1.0, 1.0), 0.125,
        [[[1.0]], [[1.7, 2.0999999999999996], [2.0999999999999996, 7.3]]],
        [[[1.0]], [[0.0, 0.0], [0.0, 0.0]]],
        (
            ("lambda_min(M1) >= 0", 1.0, False),
            ("lambda_min(M2) > 0", 1.0, True),
        ),
    ),
    "prox-lin-admm": (
        "block", (1.0, 8.0), 0.125,
        [[[1.0]], [[8.0, 0.0], [0.0, 8.0]]],
        [[[1.0]], [[0.0, 0.0], [0.0, 0.0]]],
        (
            ("lambda_min(M1) >= 0", 1.0, False),
            ("lambda_min(M2) - rho lambda_max(B'B) > 0", 1.0, True),
        ),
    ),
    "chambolle-pock": (
        "block-id", ("alpha", 0.125), 0.125,
        [[[0.0]], [[8.0, 0.0], [0.0, 8.0]]],
        [[[0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        (
            ("lambda_min(M1) >= 0", 0.0, False),
            ("lambda_min(M2) - rho lambda_max(B'B) > 0", 1.0, True),
        ),
    ),
    "prox-jacobi": (
        "block", (3.8, 8.0), 0.06666666666666665,
        [[[6.6]], [[8.7, 2.0999999999999996], [2.0999999999999996, 14.3]]],
        [[[0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        (
            ("lambda_min(M1) - rho lambda_max(A'A) > 0", 1.0, True),
            ("lambda_min(M2) - rho lambda_max(B'B) > 0", 1.0, True),
        ),
    ),
    "pcpm": (
        "block", (6.6, 15.0), 0.06666666666666665,
        [[[6.6]], [[15.0, 0.0], [0.0, 15.0]]],
        [[[0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        (
            ("lambda_min(M1) - 2 rho lambda_max(A'A) > 0", 1.0, True),
            ("lambda_min(M2) - 2 rho lambda_max(B'B) > 0", 1.0, True),
        ),
    ),
    "full-lin-admm": (
        "block", (3.8, 8.0), 0.125,
        [[[1.0]], [[8.0, 0.0], [0.0, 8.0]]],
        [[[1.0]], [[0.0, 0.0], [0.0, 0.0]]],
        (
            ("lambda_min(M1 - rho A'A) >= 0", 1.0, False),
            ("lambda_min(M2) - rho lambda_max(B'B) > 0", 1.0, True),
        ),
    ),
}


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_pinned_certificate(kind):
    name, weights, delta, block_P, block_Q, conditions = PINNED_CERTS[kind]
    prob = cert_problem(name)
    cfg = make_config(kind, prob, rho=0.7)
    if weights[0] == "alpha":
        assert cfg.alpha == weights[1]
    else:
        Ms = [cfg.M] if len(weights) == 1 else [cfg.M1, cfg.M2]
        for M, c in zip(Ms, weights, strict=True):
            assert np.array_equal(M, c * np.eye(len(M)))
    cert = certificate(cfg, prob)
    assert cert.delta == delta
    for got, want in ((cert.block_P, block_P), (cert.block_Q, block_Q)):
        assert [X.tolist() for X in got] == want
    assert tuple((c.name, c.margin, c.strict) for c in cert.conditions) == conditions


@pytest.mark.parametrize("kind,name", sorted({key[:2] for key in PINNED_FINALS}))
def test_plan_matches_dense_solve(kind, name):
    # V_i(c) assembled densely as w M_i [+ rho c A_i'A_i] [+ H], w = c on
    # accelerated blocks; c = 1 runs the cached Cholesky, 2.5 and 60 the pencil
    prob = pin_problem(name)
    cfg = make_config(kind, prob, rho=1.0)
    plan = StepPlan(cfg, prob)
    spec, view = KINDS[kind], plan.view
    rng = np.random.default_rng(0)
    for i, (block, A, term) in enumerate(zip(spec.blocks, view.ops, view.terms)):
        for c in (1.0, 2.5, 60.0):
            V = (c if block.accelerated else 1.0) * plan.M[i]
            if block.exact:
                V = V + cfg.rho * c * A.T @ A
            if view.smooth is not None and not spec.smooth_linearized:
                V = V + view.smooth.term.H
            g = rng.standard_normal(term.dim)
            want = dense_subproblem_solve(term, g, V)
            got = plan.solvers[i].solve(g, c)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (i, c)
        assert plan.solvers[i].stats()["route"] in ("pencil-eigh", "diagonal")


# every pinned case, plus prox-al and prox-lin-al folding the smooth part into V
FOLDED_H = {("prox-al", "smooth"), ("prox-lin-al", "smooth")}


@pytest.mark.parametrize("kind,name", sorted({key[:2] for key in PINNED_FINALS} | FOLDED_H))
def test_prim_step_matches_dense_oracle(kind, name):
    # the whole step, g_i from the docstring formula included, against the
    # dense oracle; tau = 1 runs the first Cholesky, the later tau the pencil.
    # The formula's operations in their order through the plan's own solvers
    # give prim_step's bits: the compiled records reassociate nothing. A stack
    # of one state is bitwise that state's step; a stack of five agrees with
    # the per-state steps to roundoff (matrix-matrix products sum in another
    # order)
    prob = pin_problem(name)
    plan = StepPlan(make_config(kind, prob, rho=1.0), prob)
    m, n = plan.A.shape
    rng = np.random.default_rng(4)
    for tau in maps.SAMPLED_TAUS:
        z, lam = rng.standard_normal(n), rng.standard_normal(m)
        got = prim_step(plan, tau, z, lam)
        own = dense_prim_step(plan, tau, z, lam, lambda i, g: plan.solvers[i].solve(g, tau))
        assert np.array_equal(got, own), tau
        want = dense_prim_step(plan, tau, z, lam)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), tau
        one = prim_step(plan, tau, z[None], lam[None])
        assert one.shape == (1, n) and np.array_equal(one[0], got), tau
        Z, Lam = rng.standard_normal((5, n)), rng.standard_normal((5, m))
        stacked = prim_step(plan, tau, Z, Lam)
        assert stacked.shape == (5, n)
        each = [prim_step(plan, tau, *state) for state in zip(Z, Lam)]
        for row, want in zip(stacked, each):
            assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want), tau
        want = dense_prim_step(plan, tau, Z, Lam)
        assert np.linalg.norm(stacked - want) <= 1e-12 * np.linalg.norm(want), tau


@pytest.mark.parametrize("kind,name", sorted({key[:2] for key in PINNED_FINALS}))
def test_nice_parts_with_plan_is_bitwise_equal(kind, name):
    # a reused plan only saves rebuilding the view, the stacked A and the
    # certificate per tuple: a fresh plan gives bitwise the same parts; z_next
    # comes from one plan for both, as in sample_niceness, since a plan that
    # has seen a second c solves through its diagonalized pencil
    prob = pin_problem(name)
    cfg = make_config(kind, prob, rho=1.0)
    plan = StepPlan(cfg, prob)
    m, n = plan.A.shape
    rng = np.random.default_rng(1)
    xis = feasible_sampler(prob, seed=2)
    for t in (1.0, 7.0):
        tau = t ** (default_p(cfg, prob) - 1)
        z, lam, xi = rng.standard_normal(n), rng.standard_normal(m), next(xis)
        z_next = prim_step(plan, tau, z, lam)
        got = nice_parts(plan, tau, z, lam, xi, z_next=z_next)
        assert got == nice_parts(StepPlan(cfg, prob), tau, z, lam, xi, z_next=z_next)


# (max_residual, max_scaled_residual) of sample_niceness(states=20, xis=8)
# with the auto policy at rho = 1, recorded from the implementation that
# evaluated the inequality one sampled point at a time.
PINNED_SAMPLING = {
    ("chambolle-pock", "block-id"): (-31.617096276761373, -0.23139978224798613),
    ("full-lin-admm", "block"): (-2.8761611328946683, -0.12123384042877997),
    ("full-lin-admm", "lasso"): (-9.950917470285791, -0.16515892850145472),
    ("pcpm", "block"): (-6.197057691000007, -0.21237304640449675),
    ("prox-admm", "block"): (-4.5788836142388805, -0.15640746999236507),
    ("prox-admm", "lasso"): (-7.933723451368484, -0.22109209059765964),
    ("prox-al", "eq-qp"): (-4.630304888579261, -0.012966913434747766),
    ("prox-jacobi", "block"): (-6.379936957704145, -0.26265383667729847),
    ("prox-jacobi", "lasso"): (-28.64915846462922, -0.5421359196911655),
    ("prox-lin-admm", "block"): (-4.335583287953786, -0.15169996491164073),
    ("prox-lin-admm", "lasso"): (-7.933723451368482, -0.2210920905976596),
    ("prox-lin-al", "eq-qp"): (-9.98307587323743, -0.01144378428793395),
    ("prox-lin-al", "lasso-flat"): (-5.77728388901175, -0.10052649076357466),
    ("smooth-lin-al", "smooth"): (-23.465287887745205, -0.04070229397153206),
    ("smooth-prox-al", "smooth"): (-19.817335675692426, -0.08933234171486522),
}


def test_pinned_sampling_covers_the_pinned_cases():
    assert set(PINNED_SAMPLING) == {key[:2] for key in PINNED_FINALS}


@pytest.mark.parametrize("kind,name", sorted(PINNED_SAMPLING))
def test_pinned_sampling(kind, name):
    prob = pin_problem(name)
    report = sample_niceness(make_config(kind, prob, rho=1.0), prob, states=20, xis=8)
    assert report["checked"] == 160
    got = (report["max_residual"], report["max_scaled_residual"])
    for g, want in zip(got, PINNED_SAMPLING[kind, name]):
        assert abs(g - want) <= 1e-9 * max(abs(want), 1e-12), (g, want)


def test_sample_niceness_takes_a_plan_and_certificate():
    # the report is bitwise the one sample_niceness builds for itself, and
    # it reads the certificate the plan already holds
    prob = pin_problem("eq-qp")
    cfg = make_config("prox-lin-al", prob, rho=1.0)
    plan = StepPlan(cfg, prob)
    cert = plan.cert
    got = sample_niceness(cfg, prob, states=10, xis=4, plan=plan)
    assert plan.cert is cert
    assert got == sample_niceness(cfg, prob, states=10, xis=4)
    other = make_config("prox-lin-al", prob, rho=1.0)
    with pytest.raises(ConfigError, match="another map or problem"):
        sample_niceness(other, prob, states=10, xis=4, plan=plan)
    with pytest.raises(ConfigError, match="another map or problem"):
        sample_niceness(cfg, pin_problem("eq-qp"), states=10, xis=4, plan=plan)


@pytest.mark.parametrize("kind,name", sorted(PINNED_SAMPLING))
def test_stacked_nice_parts_matches_each_point(kind, name):
    # one call on a (k, n) stack gives, row by row, the single-point call
    prob = pin_problem(name)
    cfg = make_config(kind, prob, rho=1.0)
    plan = StepPlan(cfg, prob)
    m, n = plan.A.shape
    rng = np.random.default_rng(3)
    stack = next(feasible_sampler(prob, seed=5, scale=1.5, size=6))
    for t in (1.0, 19.5):
        tau = t ** (default_p(cfg, prob) - 1)
        z, lam = rng.standard_normal(n), rng.standard_normal(m)
        z_next = prim_step(plan, tau, z, lam)
        residual, scale = nice_parts(plan, tau, z, lam, stack, z_next=z_next)
        assert residual.shape == scale.shape == (6,)
        for row, xi in enumerate(stack):
            want = nice_parts(plan, tau, z, lam, xi, z_next=z_next)
            assert isinstance(want[0], float) and isinstance(want[1], float)
            assert_allclose((residual[row], scale[row]), want, rtol=1e-12, atol=0)
    bad = stack.copy()
    bad[3] += 1.0
    with pytest.raises(ConfigError, match="xi must be feasible") as single:
        nice_parts(plan, tau, z, lam, bad[3], z_next=z_next)
    with pytest.raises(ConfigError) as stacked:
        nice_parts(plan, tau, z, lam, bad, z_next=z_next)
    assert str(stacked.value) == str(single.value)


def per_state_sampling(cfg, prob, states, xis, seed=0):
    """sample_niceness as a loop over states and points: one draw of z and
    one of lambda per state, its xis points from a (xis, n) sampler, and
    single-state, single-point prim_step and nice_parts calls."""
    plan = StepPlan(cfg, prob)
    m, n = plan.A.shape
    rng = np.random.default_rng(seed)
    points = feasible_sampler(prob, seed=seed + 1, scale=maps.XI_SCALE, size=xis)
    center = prob.feasible_point if prob.feasible_point is not None else np.zeros(n)
    taus = itertools.cycle(maps.SAMPLED_TAUS if default_p(cfg, prob) == 2 else (1.0,))
    checked, max_raw, max_scaled = 0, -math.inf, -math.inf
    for _ in range(states):
        z = center + maps.STATE_SCALE * rng.standard_normal(n)
        lam = maps.STATE_SCALE * rng.standard_normal(m)
        tau = next(taus)
        z_next = prim_step(plan, tau, z, lam)
        for xi in next(points):
            residual, scale = nice_parts(plan, tau, z, lam, xi, z_next=z_next)
            if residual > -math.inf:
                checked += 1
                max_raw, max_scaled = max(max_raw, residual), max(max_scaled, residual / scale)
    return checked, max_raw, max_scaled


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("kind,name", sorted(PINNED_SAMPLING))
def test_chunked_sampling_matches_a_per_state_loop(kind, name, chunk, monkeypatch):
    # None: the default chunk holds all 20 states; 3: seven chunks, the last
    # of two states
    prob = pin_problem(name)
    cfg = make_config(kind, prob, rho=1.0)
    if chunk is not None:
        monkeypatch.setattr(maps, "SAMPLE_FLOATS", chunk * 8 * prob.n + 1)
    report = sample_niceness(cfg, prob, states=20, xis=8)
    checked, max_raw, max_scaled = per_state_sampling(cfg, prob, states=20, xis=8)
    assert report["checked"] == checked
    assert_allclose(report["max_residual"], max_raw, rtol=1e-12, atol=0)
    assert_allclose(report["max_scaled_residual"], max_scaled, rtol=1e-12, atol=0)


@pytest.mark.parametrize("floats", [maps.SAMPLE_FLOATS, 5 * 6 * 12])
@pytest.mark.parametrize("kind,name", [("prox-lin-al", "eq-qp"), ("prox-jacobi", "block")])
def test_prim_step_receives_the_per_state_draws(kind, name, floats, monkeypatch):
    # the states drawn at once are bitwise those drawn one at a time: n
    # normal values for z, then m for lambda, and tau_t in turn. They are
    # stepped in one stacked call per distinct tau_t over all states, in
    # order of first use, whatever the chunk of the nice_parts calls (floats:
    # one chunk, or five states a chunk); put back in state order, the rows
    # of the calls are the per-state draws
    prob = pin_problem(name)
    cfg = make_config(kind, prob, rho=1.0)
    m, n = prob.m, prob.n
    seen = []

    def recorded(plan, tau, z, lam):
        seen.append((tau, z.copy(), lam.copy()))
        return prim_step(plan, tau, z, lam)

    monkeypatch.setattr(maps, "prim_step", recorded)
    monkeypatch.setattr(maps, "SAMPLE_FLOATS", floats)
    sample_niceness(cfg, prob, states=13, xis=6, seed=4)
    cycle = itertools.cycle(maps.SAMPLED_TAUS if default_p(cfg, prob) == 2 else (1.0,))
    taus = list(itertools.islice(cycle, 13))
    assert [tau for tau, _, _ in seen] == list(dict.fromkeys(taus))
    z, lam = np.full((13, n), np.nan), np.full((13, m), np.nan)
    for tau, z_rows, lam_rows in seen:
        assert type(tau) is float
        rows = [j for j in range(13) if taus[j] == tau]
        assert z_rows.shape == (len(rows), n) and lam_rows.shape == (len(rows), m)
        z[rows], lam[rows] = z_rows, lam_rows
    rng = np.random.default_rng(4)
    center = prob.feasible_point if prob.feasible_point is not None else np.zeros(n)
    for j in range(13):
        assert np.array_equal(z[j], center + maps.STATE_SCALE * rng.standard_normal(n))
        assert np.array_equal(lam[j], maps.STATE_SCALE * rng.standard_normal(m))


@pytest.mark.parametrize(
    "states,xis,calls",
    [
        (100, 20, 3),  # 34 states a chunk (8160 floats at n = 12): 34, 34, 32
        (20, 8, 1),  # every state in one chunk
        (5, 700, 5),  # one state's 700 points (8400 floats) exceed the bound: a state a chunk
    ],
)
def test_one_nice_parts_call_per_chunk(states, xis, calls, monkeypatch):
    prob = pin_problem("eq-qp")
    cfg = make_config("prox-lin-al", prob, rho=1.0)
    shapes = []

    def spied(plan, tau, z, lam, xi, **kwargs):
        shapes.append(xi.shape)
        return nice_parts(plan, tau, z, lam, xi, **kwargs)

    monkeypatch.setattr(maps, "nice_parts", spied)
    sample_niceness(cfg, prob, states=states, xis=xis)
    assert len(shapes) == calls
    assert sum(k for k, _, _ in shapes) == states
    for k, rows, n in shapes:
        assert (rows, n) == (xis, prob.n)
        assert k * rows * n <= max(maps.SAMPLE_FLOATS, xis * prob.n)


@pytest.mark.parametrize("kind,name", sorted(PINNED_SAMPLING))
def test_stacked_states_match_each_state(kind, name):
    # one call on (k, 1, n) states with a (k, X, n) stack of points gives,
    # state by state, the single-state call on that state's points
    prob = pin_problem(name)
    cfg = make_config(kind, prob, rho=1.0)
    plan = StepPlan(cfg, prob)
    m, n = plan.A.shape
    rng = np.random.default_rng(6)
    taus = [t ** (default_p(cfg, prob) - 1) for t in (1.0, 2.5, 19.5, 60.0)]
    z, lam = rng.standard_normal((4, n)), rng.standard_normal((4, m))
    z_next = np.array([prim_step(plan, *state) for state in zip(taus, z, lam)])
    stack = next(feasible_sampler(prob, seed=7, scale=1.5, size=4 * 5)).reshape(4, 5, n)
    residual, scale = nice_parts(
        plan, np.array(taus)[:, None], z[:, None], lam[:, None], stack, z_next=z_next[:, None]
    )
    assert residual.shape == scale.shape == (4, 5)
    for j, tau in enumerate(taus):
        want = nice_parts(plan, tau, z[j], lam[j], stack[j], z_next=z_next[j])
        assert_allclose(residual[j], want[0], rtol=1e-12, atol=0)
        assert_allclose(scale[j], want[1], rtol=1e-12, atol=0)
    bad = stack.copy()
    bad[2, 3] += 1.0
    with pytest.raises(ConfigError) as single:
        nice_parts(plan, taus[2], z[2], lam[2], bad[2], z_next=z_next[2])
    with pytest.raises(ConfigError) as stacked:
        nice_parts(
            plan, np.array(taus)[:, None], z[:, None], lam[:, None], bad, z_next=z_next[:, None]
        )
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize("kind,name", sorted(PINNED_SAMPLING))
def test_bregman_term_is_the_definition(kind, name, monkeypatch):
    # nice_parts takes Delta_P(xi, z, z+) of each block in the three-point
    # form; it is the definition 0.5 (||xi - z||_P^2 - ||xi - z+||_P^2) at
    # every point, and exactly 0 on a zero block of P (chambolle-pock's first)
    prob = pin_problem(name)
    cfg = make_config(kind, prob, rho=1.0)
    plan = StepPlan(cfg, prob)
    m, n = plan.A.shape
    three_point, terms = maps._three_point, []

    def recorded(*args):
        terms.append(three_point(*args))
        return terms[-1]

    monkeypatch.setattr(maps, "_three_point", recorded)
    rng = np.random.default_rng(8)
    stack = next(feasible_sampler(prob, seed=9, scale=1.5, size=6))
    if kind == "chambolle-pock":
        assert not plan.cert.block_P[0].any()
    for tau in (1.0, 19.5):
        z, lam = rng.standard_normal(n), rng.standard_normal(m)
        z_next = prim_step(plan, tau, z, lam)
        terms.clear()
        nice_parts(plan, tau, z, lam, stack, z_next=z_next)
        assert len(terms) == len(plan.parts)
        for part, P, got in zip(plan.parts, plan.cert.block_P, terms):
            want = delta_P(P, stack[:, part], z[part], z_next[part])
            assert got.shape == (6,)
            if not P.any():
                assert not got.any() and not want.any()
            assert_allclose(got, want, rtol=1e-12, atol=0)


# eigvalsh calls per certificate: one per distinct matrix it reads. P = Q on
# a lead block without a linearized smooth part, and a coupled linearized
# block's P_i is its M_i: each is decomposed once. Coupled blocks add M_i,
# A_i'A_i and (exact) M_i + rho A_i'A_i, and Q_i = 0 is one more matrix.
CERT_SPECTRA = {
    "prox-al": 1,  # M
    "prox-lin-al": 1,  # M - rho A'A
    "smooth-prox-al": 2,  # M, M - L I
    "smooth-lin-al": 2,  # M - rho A'A, M - rho A'A - L I
    "prox-admm": 5,  # M1; M2, B'B, M2 + rho B'B, 0
    "prox-lin-admm": 4,  # M1; M2, B'B, 0
    "chambolle-pock": 4,  # M1 = 0; M2, B'B, 0
    "prox-jacobi": 8,  # M_i, A_i'A_i, M_i + rho A_i'A_i, 0 for each block
    "pcpm": 6,  # M_i, A_i'A_i, 0 for each block
    "full-lin-admm": 4,  # M1 - rho A'A; M2, B'B, 0
}


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_certificate_decomposes_each_matrix_once(kind, monkeypatch):
    prob = cert_problem(PINNED_CERTS[kind][0])
    plan = StepPlan(make_config(kind, prob, rho=0.7), prob)
    calls = {"eigvalsh": 0, "check_symmetric": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "eigvalsh")
    counted(linalg, "check_symmetric")
    cert = plan.cert
    assert calls == {"eigvalsh": CERT_SPECTRA[kind], "check_symmetric": CERT_SPECTRA[kind]}
    monkeypatch.undo()
    # the extremes cmd_certify prints are those of the block diagonals
    for name, X in (("P", cert.P), ("Q", cert.Q)):
        want = (linalg.lambda_min(X), linalg.lambda_max(X))
        assert_allclose(cert.extremes[name], want, rtol=1e-12, atol=1e-14)
