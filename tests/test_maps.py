import numpy as np
import pytest
from numpy.testing import assert_allclose

from flagopt import (
    BlockProblem,
    ConfigError,
    ConstrainedProblem,
    L1,
    NotNiceError,
    Quadratic,
    SmoothTerm,
    Zero,
)
from flagopt.driver import RunParams, run
from flagopt.gen import GenSpec, generate
from flagopt.lagrangian import eval_aug_lagrangian
from flagopt.maps import (
    KINDS,
    MAP_KINDS,
    MapConfig,
    ScheduleParams,
    certificate,
    default_p,
    feasible_sampler,
    make_config,
    nice_residual,
    prim_step,
    sample_niceness,
    schedule_at,
)
from flagopt.problems import flatten_block


def one_d_problem(sigma=1.0, b=1.0):
    f = Quadratic(H=[[sigma]], q=[0.0], strong_convexity=sigma)
    return ConstrainedProblem(f=f, A=[[1.0]], b=[b], sigma=sigma)


def small_qp(seed=3, n=6, m=2, sigma=1.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    H = G @ G.T + sigma * np.eye(n)
    f = Quadratic(H=H, q=rng.standard_normal(n), strong_convexity=sigma)
    A = rng.standard_normal((m, n))
    x_feas = rng.standard_normal(n)
    return ConstrainedProblem(f=f, A=A, b=A @ x_feas, sigma=sigma, feasible_point=x_feas)


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


class TestSchedule:
    def test_classic(self):
        s = schedule_at(rho=2.0, t=7.0, p=1)
        assert s.rho_t == 2.0 and s.tau_t == 1.0

    def test_fast(self):
        s = schedule_at(rho=2.0, t=3.0, p=2)
        assert s.rho_t == 6.0 and s.tau_t == 3.0

    def test_rejects_bad_t(self):
        with pytest.raises(ConfigError):
            schedule_at(1.0, 0.5, 1)

    def test_classic_requires_unit_tau(self):
        with pytest.raises(ConfigError):
            ScheduleParams(rho_t=1.0, tau_t=2.0, p=1)


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
        assert_allclose(cert.P2, [[2.0]])
        assert_allclose(cert.P1, [[0.0]])

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
        lamB = np.linalg.eigvalsh(bp.B.T @ bp.B).max()
        cfg = MapConfig(kind="prox-admm", rho=1.0, M1=np.eye(bp.n1), M2=2.0 * np.eye(bp.n2))
        cert = certificate(cfg, bp)
        assert_allclose(cert.delta, 1.0 - lamB / (lamB + 2.0))
        assert_allclose(cert.P2, 2.0 * np.eye(bp.n2) + bp.B.T @ bp.B)
        assert_allclose(cert.Q2, np.zeros((bp.n2, bp.n2)))

    def test_block_certificate_stacks(self):
        bp = small_block()
        cfg = make_config("prox-jacobi", bp, rho=0.5)
        cert = certificate(cfg, bp)
        n1 = bp.n1
        assert_allclose(cert.P[:n1, :n1], cert.P1)
        assert_allclose(cert.P[n1:, n1:], cert.P2)
        assert np.count_nonzero(cert.P[:n1, n1:]) == 0

    def test_smooth_kind_requires_smooth_part(self):
        p = small_qp()
        cfg = make_config("smooth-prox-al", p, rho=1.0)
        with pytest.raises(ConfigError, match="smooth"):
            certificate(cfg, p)

    def test_exact_kind_rejects_coupled_nonsmooth(self):
        f = L1(weight=1.0, dim=2)
        A = np.array([[1.0, 1.0]])
        p = ConstrainedProblem(f=f, A=A, b=[1.0], sigma=0.0)
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
            sigma=1.0,
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


class TestPrimStep:
    def test_prox_al_scalar(self):
        p = one_d_problem()
        cfg = MapConfig(kind="prox-al", rho=1.0, M=[[0.0]])
        s = ScheduleParams(rho_t=1.0, tau_t=1.0, p=1)
        z = prim_step(cfg, s, np.array([5.0]), np.array([0.0]), p)
        assert_allclose(z, [0.5])

    def test_prox_lin_al_scalar(self):
        p = one_d_problem()
        cfg = MapConfig(kind="prox-lin-al", rho=1.0, M=[[2.0]])
        s = ScheduleParams(rho_t=1.0, tau_t=1.0, p=1)
        z = prim_step(cfg, s, np.array([0.0]), np.array([0.0]), p)
        assert_allclose(z, [1.0 / 3.0])

    def test_smooth_lin_al_scalar(self):
        f = Quadratic(H=[[0.0]], q=[0.0])
        h = SmoothTerm(term=Quadratic(H=[[1.0]], q=[0.0]), lipschitz_grad=1.0)
        p = ConstrainedProblem(f=f, A=[[1.0]], b=[1.0], smooth=h, sigma=0.0)
        cfg = MapConfig(kind="smooth-lin-al", rho=1.0, M=[[3.0]])
        s = ScheduleParams(rho_t=1.0, tau_t=1.0, p=1)
        # argmin <h'(0), x> + <0 + (0 - 1), x> + (3/2) x^2  ->  x = 1/3
        z = prim_step(cfg, s, np.array([0.0]), np.array([0.0]), p)
        assert_allclose(z, [1.0 / 3.0])

    def test_prox_al_minimizes_surrogate(self):
        p = small_qp()
        cfg = MapConfig(kind="prox-al", rho=0.9, M=0.5 * np.eye(p.n))
        rng = np.random.default_rng(0)
        for t in (1.0, 4.0):
            s = schedule_at(0.9, t, 2)
            z = rng.standard_normal(p.n)
            lam = rng.standard_normal(p.m)
            z_new = prim_step(cfg, s, z, lam, p)

            def surrogate(x):
                return eval_aug_lagrangian(p, x, lam, s.rho_t) + 0.5 * s.tau_t * float(
                    (x - z) @ (0.5 * np.eye(p.n)) @ (x - z)
                )

            base = surrogate(z_new)
            for _ in range(20):
                assert base <= surrogate(z_new + 1e-3 * rng.standard_normal(p.n)) + 1e-12

    def test_jacobi_second_block_uses_old_first_block(self):
        bp = small_block()
        cfg = make_config("prox-jacobi", bp, rho=0.5)
        s = ScheduleParams(rho_t=0.5, tau_t=1.0, p=1)
        rng = np.random.default_rng(1)
        z = rng.standard_normal(bp.n1 + bp.n2)
        lam = rng.standard_normal(bp.m)
        out = prim_step(cfg, s, z, lam, bp)
        # recompute v+ by hand from the old u
        u, v = bp.split(z)
        V2 = 0.5 * bp.B.T @ bp.B + cfg.M2
        g2 = bp.B.T @ lam + 0.5 * bp.B.T @ (bp.A @ u - bp.b) - cfg.M2 @ v
        v_new = np.linalg.solve(bp.g_term.H + V2, -(bp.g_term.q + g2))
        assert_allclose(out[bp.n1 :], v_new, atol=1e-10)

    def test_chambolle_pock_matches_prox_lin_admm(self):
        bp = small_block(a_identity=True)
        alpha = 0.3
        cp = MapConfig(kind="chambolle-pock", rho=1.2, alpha=alpha)
        equivalent = MapConfig(
            kind="prox-lin-admm",
            rho=1.2,
            M1=np.zeros((bp.n1, bp.n1)),
            M2=np.eye(bp.n2) / alpha,
        )
        rng = np.random.default_rng(7)
        for t in (1.0, 3.0, 11.0):
            s = schedule_at(1.2, t, 2)
            for _ in range(10):
                z = rng.standard_normal(bp.n1 + bp.n2)
                lam = rng.standard_normal(bp.m)
                assert_allclose(
                    prim_step(cp, s, z, lam, bp),
                    prim_step(equivalent, s, z, lam, bp),
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
            f=f, A=A, b=A @ x_feas, smooth=h, sigma=1.0, feasible_point=x_feas
        )
        for kind in ("smooth-prox-al", "smooth-lin-al"):
            report = sample_niceness(make_config(kind, p, rho=1.0), p, states=15, xis=6, seed=5)
            assert report["max_scaled_residual"] <= 1e-7, kind

    def test_inflated_delta_has_teeth(self):
        # with f quadratic of Hessian sigma*I the inequality is tight, so a
        # 1.5x delta must push the residual strictly positive
        f = Quadratic(H=np.eye(3), q=np.zeros(3), strong_convexity=1.0)
        A = np.array([[1.0, 1.0, 1.0]])
        p = ConstrainedProblem(f=f, A=A, b=[3.0], sigma=1.0)
        cfg = make_config("prox-lin-al", p, rho=1.0)
        cert = certificate(cfg, p)
        report = sample_niceness(cfg, p, states=20, xis=5, seed=2, delta=1.5 * cert.delta)
        assert report["max_scaled_residual"] > 0

    def test_infeasible_xi_rejected(self):
        p = small_qp()
        cfg = make_config("prox-al", p, rho=1.0)
        s = ScheduleParams(rho_t=1.0, tau_t=1.0, p=1)
        bad_xi = p.feasible_point + 1.0
        with pytest.raises(ConfigError, match="feasible"):
            nice_residual(cfg, s, np.zeros(p.n), np.zeros(p.m), bad_xi, p)

    def test_feasible_sampler_spans_null_space(self):
        p = small_qp()
        gen = feasible_sampler(p, seed=0)
        pts = np.array([next(gen) for _ in range(8)])
        assert_allclose(p.A @ pts.T, np.tile(p.b[:, None], (1, 8)), atol=1e-8)
        assert np.linalg.matrix_rank(pts - pts[0]) == p.n - p.m


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
