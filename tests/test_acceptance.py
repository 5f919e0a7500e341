"""End-to-end acceptance suite.

Eight standalone criteria: rate bounds (fast, classic, ergodic), niceness
sampling with a mutation check, the per-iteration descent inequality along
whole runs, sequence laws, reference-oracle integrity, and the equivalence of
two maps under embedded parameters. Each test prints one PASS line straight
to the terminal once its assertions went through.
"""

import time

import numpy as np
import pytest

from flagopt.driver import (
    RunParams,
    flag_iterate,
    initial_state,
    next_t,
    resolve_params,
    run,
)
from flagopt.gen import GenSpec, generate
from flagopt.lagrangian import delta_P, delta_euclid, eval_lagrangian
from flagopt.linalg import lambda_max
from flagopt.maps import (
    MAP_KINDS,
    MapConfig,
    certificate,
    make_config,
    prim_step,
    sample_niceness,
    schedule_at,
)
from flagopt.problems import (
    ConstrainedProblem,
    Quadratic,
    constraint_map,
    eval_objective,
    flatten_block,
    single_problem,
)
from flagopt.rates import (
    _long_run_route,
    _penalty_route,
    bound_constant,
    fit_slope,
    kkt_residual,
    polish,
    reference_solve,
    verify_rates,
)

BOUND_TOL = 1e-9

QP_SPECS = ((20, 5, 0), (30, 7, 1), (40, 10, 2), (50, 8, 3), (12, 4, 4))
LASSO_SPECS = ((10, 6, 0), (12, 8, 1), (16, 6, 2), (8, 5, 3), (14, 10, 4))


@pytest.fixture
def announce(capfd):
    def _announce(line):
        with capfd.disabled():
            print(line)

    return _announce


def fast_qp_case(n, m, seed):
    # M = (sigma/2) I + rho A'A makes P = (sigma/2) I exactly, the edge of
    # the accelerated-rate window
    prob = generate(GenSpec(family="eq-qp", n=n, m=m, sigma=1.0, seed=seed))
    cfg = MapConfig(
        kind="prox-lin-al", rho=1.0, M=0.5 * prob.sigma * np.eye(n) + prob.A.T @ prob.A
    )
    cert = certificate(cfg, prob)
    ref = reference_solve(prob)
    B = bound_constant(
        cert.P, ref.x_star, prob.feasible_point, np.zeros(m), 1.0, 1.0, ref.c, 2
    )
    return {"prob": prob, "cfg": cfg, "cert": cert, "ref": ref, "B": B}


def classic_lasso_case(n, m, seed):
    prob = flatten_block(
        generate(GenSpec(family="lasso-split", n=n, m=m, sigma=0.0, seed=seed))
    )
    cfg = make_config("prox-lin-al", prob, rho=1.0)
    cert = certificate(cfg, prob)
    ref = reference_solve(prob)
    B = bound_constant(
        cert.P, ref.x_star, prob.feasible_point, np.zeros(m), 1.0, 1.0, ref.c, 1
    )
    return {"prob": prob, "cfg": cfg, "cert": cert, "ref": ref, "B": B}


@pytest.fixture(scope="module")
def qp_cases():
    return [fast_qp_case(*s) for s in QP_SPECS]


@pytest.fixture(scope="module")
def lasso_cases():
    return [classic_lasso_case(*s) for s in LASSO_SPECS]


def assert_bounds(traj, ref, B, p, label):
    gap = traj.psi_x - ref.psi_star
    ks = traj.k.astype(float)
    live = traj.k >= 1
    fn_excess = gap[live] - B / (2.0 * ks[live] ** p)
    feas_excess = traj.feas_x[live] - B / (ref.c * ks[live] ** p)
    assert fn_excess.max() <= BOUND_TOL, f"{label}: function bound violated"
    assert feas_excess.max() <= BOUND_TOL, f"{label}: feasibility bound violated"
    return max(fn_excess.max(), feas_excess.max())


def test_criterion_1_fast_rate_bounds(qp_cases, announce):
    worst_excess = -np.inf
    slowest = 0.0
    for i, case in enumerate(qp_cases):
        params = RunParams(cfg=case["cfg"], mode="fast", iters=2000)
        start = time.perf_counter()
        traj = run(case["prob"], params)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"instance {i} took {elapsed:.1f}s"
        slowest = max(slowest, elapsed)
        worst_excess = max(
            worst_excess,
            assert_bounds(traj, case["ref"], case["B"], 2, f"qp {i}"),
        )
        report = verify_rates(
            traj, case["ref"], case["B"], 2, cert=case["cert"], prob=case["prob"]
        )
        assert report["bounds_hold"] and report["condition_P"] == "met"
    announce(
        "criterion 1 (fast non-ergodic rate, 5 eq-qp, N <= 2000): PASS  "
        f"max bound excess {worst_excess:.2e}, slowest run {slowest:.2f}s"
    )


def test_criterion_2_classic_rate_and_slope(lasso_cases, announce):
    worst_excess = -np.inf
    worst_slope = -np.inf
    for i, case in enumerate(lasso_cases):
        params = RunParams(cfg=case["cfg"], mode="classic", iters=1500)
        traj = run(case["prob"], params)
        worst_excess = max(
            worst_excess,
            assert_bounds(traj, case["ref"], case["B"], 1, f"lasso {i}"),
        )
        slope = fit_slope(traj.k, traj.psi_x - case["ref"].psi_star)
        assert slope <= -0.9, f"lasso {i}: gap slope {slope:.3f}"
        worst_slope = max(worst_slope, slope)
    announce(
        "criterion 2 (classic non-ergodic rate, 5 lasso-split): PASS  "
        f"max bound excess {worst_excess:.2e}, shallowest gap slope {worst_slope:.2f}"
    )


def test_criterion_3_ergodic_average_bounds(qp_cases, lasso_cases, announce):
    worst = -np.inf
    for label, cases, p, iters in (
        ("eq-qp", qp_cases, 2, 2000),
        ("lasso", lasso_cases, 1, 1500),
    ):
        for i, case in enumerate(cases):
            params = RunParams(cfg=case["cfg"], mode="ergodic", iters=iters)
            traj = run(case["prob"], params)
            assert traj.meta["p"] == p
            worst = max(
                worst,
                assert_bounds(traj, case["ref"], case["B"], p, f"{label} {i}"),
            )
    announce(
        "criterion 3 (ergodic average bounds, both regimes): PASS  "
        f"max bound excess {worst:.2e}"
    )


NICENESS_PROBLEMS = {
    "prox-al": [("eq-qp", 20, 5, 1.0, s) for s in range(3)]
    + [("eq-qp", 12, 3, 0.5, 3), ("eq-qp", 30, 8, 2.0, 4)],
    "prox-lin-al": [("eq-qp", 20, 5, 1.0, s) for s in range(3)]
    + [("lasso-flat", 10, 6, 0.0, 3), ("lasso-flat", 8, 4, 0.0, 4)],
    "smooth-prox-al": [("smooth", 12, 4, 1.0, s) for s in range(5)],
    "smooth-lin-al": [("smooth", 12, 4, 1.0, s + 5) for s in range(5)],
    "prox-admm": [("block", 12, 4, 1.0, s) for s in range(3)]
    + [("lasso", 10, 6, 0.0, 3), ("lasso", 8, 4, 0.0, 4)],
    "prox-lin-admm": [("block", 12, 4, 1.0, s) for s in range(3)]
    + [("lasso", 10, 6, 0.0, 3), ("lasso", 8, 4, 0.0, 4)],
    "chambolle-pock": [("block-id", 12, 4, 1.0, s) for s in range(5)],
    "prox-jacobi": [("block", 12, 4, 1.0, s) for s in range(3)]
    + [("lasso", 10, 6, 0.0, 3), ("lasso", 8, 4, 0.0, 4)],
    "pcpm": [("block", 12, 4, 0.0, s) for s in range(5)],
    "full-lin-admm": [("block", 12, 4, 0.0, s) for s in range(3)]
    + [("lasso", 10, 6, 0.0, 3), ("lasso", 8, 4, 0.0, 4)],
}


def build_problem(family, n, m, sigma, seed):
    if family == "eq-qp":
        return generate(GenSpec(family="eq-qp", n=n, m=m, sigma=sigma, seed=seed))
    if family == "lasso-flat":
        return flatten_block(
            generate(GenSpec(family="lasso-split", n=n, m=m, sigma=sigma, seed=seed))
        )
    if family == "lasso":
        return generate(GenSpec(family="lasso-split", n=n, m=m, sigma=sigma, seed=seed))
    if family == "smooth":
        return generate(
            GenSpec(family="smooth-composite", n=n, m=m, sigma=sigma, seed=seed)
        )
    if family == "block":
        return generate(GenSpec(family="block-qp", n=n, m=m, sigma=sigma, seed=seed))
    if family == "block-id":
        return generate(
            GenSpec(family="block-qp", n=n, m=m, sigma=sigma, seed=seed, a_identity=True)
        )
    raise ValueError(family)


def test_criterion_4_niceness_sampling_and_mutation(announce):
    assert set(NICENESS_PROBLEMS) == set(MAP_KINDS)
    worst = -np.inf
    for kind, table in NICENESS_PROBLEMS.items():
        assert len(table) == 5
        for entry in table:
            prob = build_problem(*entry)
            cfg = make_config(kind, prob, rho=1.0)
            report = sample_niceness(cfg, prob, states=100, xis=20, seed=11)
            assert report["checked"] == 100 * 20, (kind, entry)
            assert report["max_scaled_residual"] <= 1e-7, (kind, entry)
            worst = max(worst, report["max_scaled_residual"])
    # teeth: an identity-Hessian objective makes the descent inequality tight,
    # so inflating delta by 1.5x must push some residual positive
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 8))
    tight = ConstrainedProblem(
        f=Quadratic(H=np.eye(8), q=rng.normal(size=8), strong_convexity=1.0),
        A=A,
        b=A @ rng.normal(size=8),
        sigma=1.0,
    )
    cfg = make_config("prox-al", tight, rho=1.0)
    cert = certificate(cfg, tight)
    mutated = sample_niceness(cfg, tight, states=50, xis=10, seed=1, delta=1.5 * cert.delta)
    assert mutated["max_residual"] > 0.0
    announce(
        "criterion 4 (niceness sampling, 10 kinds x 5 problems x 100 x 20): PASS  "
        f"max scaled residual {worst:.2e}; inflated-delta mutation residual "
        f"{mutated['max_residual']:.2e} > 0"
    )


def max_pillar_residual(prob, cfg, mode, iters, ref):
    """Scaled slack of the per-iteration inequality at xi = x*, eta = y*.

    Non-ergodic runs check the telescoping form on s_k; ergodic runs check the
    one-step gamma_k-augmented descent inequality the averaged bounds sum up.
    """
    params = RunParams(cfg=cfg, mode=mode, iters=iters)
    resolved = resolve_params(prob, params)
    cert, p, mu, rho = resolved.cert, resolved.p, resolved.mu, resolved.rho
    A = constraint_map(prob)
    b = prob.b
    xi, eta = ref.x_star, ref.y_star
    sigma = prob.sigma

    def feas_sq(v):
        r = A @ v - b
        return float(r @ r)

    state = initial_state(prob, params, resolved)
    t_prev = 0.0
    worst = -np.inf
    for _ in range(iters):
        t_k = state.t
        rho_k = rho * t_k ** (p - 1)
        tau_k = t_k ** (p - 1)
        nxt = flag_iterate(state, resolved, prob)
        dual = delta_euclid(eta, state.y, nxt.y)
        if mode == "ergodic":
            w = A @ nxt.z - b
            gamma_k = (1.0 + cert.delta - mu) * rho_k
            lhs = (
                eval_objective(prob, nxt.z)
                - ref.psi_star
                + float(eta @ w)
                + 0.5 * gamma_k * float(w @ w)
            )
            terms = (
                tau_k * delta_P(cert.P, xi, state.z, nxt.z),
                -0.5 * sigma * float((xi - nxt.z) @ (xi - nxt.z)),
                dual / (mu * rho_k),
            )
        else:
            s_next = (
                eval_lagrangian(prob, nxt.x, eta)
                + 0.5 * rho * t_k**p * feas_sq(nxt.x)
                - ref.psi_star
            )
            s_cur = (
                eval_lagrangian(prob, state.x, eta)
                + 0.5 * rho * t_prev**p * feas_sq(state.x)
                - ref.psi_star
            )
            lhs = t_k**p * s_next - t_prev**p * s_cur
            terms = (
                (tau_k * rho_k / rho) * delta_P(cert.P, xi, state.z, nxt.z),
                -(rho_k * sigma / (2.0 * rho)) * float((xi - nxt.z) @ (xi - nxt.z)),
                dual / (mu * rho),
            )
        scale = 1.0 + abs(lhs) + sum(abs(v) for v in terms)
        worst = max(worst, (lhs - sum(terms)) / scale)
        t_prev, state = t_k, nxt
    return worst


def test_criterion_5_per_iteration_inequality(qp_cases, lasso_cases, announce):
    worst = -np.inf
    for case in qp_cases:
        for mode, iters in (("fast", 2000), ("ergodic", 2000)):
            worst = max(
                worst,
                max_pillar_residual(case["prob"], case["cfg"], mode, iters, case["ref"]),
            )
    for case in lasso_cases:
        for mode, iters in (("classic", 1500), ("ergodic", 1500)):
            worst = max(
                worst,
                max_pillar_residual(case["prob"], case["cfg"], mode, iters, case["ref"]),
            )
    assert worst <= 1e-6
    announce(
        "criterion 5 (per-iteration inequality at (x*, y*), all runs): PASS  "
        f"max scaled slack {worst:.2e}"
    )


def test_criterion_6_sequence_laws(announce):
    t = 1.0
    for k in range(10**5):
        assert abs(t - (k + 1)) <= 1e-9
        t = next_t(t, 1)
    t = 1.0
    for k in range(10**5):
        assert t >= (k + 1) / 2.0
        t_next = next_t(t, 2)
        assert t_next**2 <= t * t + 2.0 * t + 1e-9
        t = t_next
    announce(
        "criterion 6 (t-sequence laws up to k = 1e5, tol 1e-9): PASS  "
        f"final accelerated t = {t:.1f}"
    )


def test_criterion_7_reference_oracle_integrity(qp_cases, lasso_cases, announce):
    worst_kkt = -np.inf
    for case in qp_cases:
        res = kkt_residual(case["prob"], case["ref"].x_star, case["ref"].y_star)
        assert res <= 1e-9
        worst_kkt = max(worst_kkt, res)
    worst_gap = -np.inf
    for case in lasso_cases:
        sp = single_problem(case["prob"])
        xa, _ = polish(sp, _penalty_route(sp)[0])
        xb, _ = polish(sp, _long_run_route(sp))
        gap = float(np.linalg.norm(xa - xb))
        assert gap <= 1e-8
        worst_gap = max(worst_gap, gap)
    announce(
        "criterion 7 (oracle integrity): PASS  "
        f"max quadratic KKT residual {worst_kkt:.2e}, "
        f"max l1 dual-route disagreement {worst_gap:.2e}"
    )


def test_criterion_8_equivalence_of_embedded_maps(announce):
    prob = generate(
        GenSpec(family="block-qp", n=12, m=5, sigma=1.0, seed=13, a_identity=True)
    )
    rho = 0.7
    alpha = 1.0 / (rho * lambda_max(prob.B.T @ prob.B) + 1.0)
    n1, n2 = prob.A.shape[1], prob.B.shape[1]
    cfg_cp = MapConfig(kind="chambolle-pock", rho=rho, alpha=alpha)
    cfg_pl = MapConfig(
        kind="prox-lin-admm",
        rho=rho,
        M1=np.zeros((n1, n1)),
        M2=(1.0 / alpha) * np.eye(n2),
    )
    rng = np.random.default_rng(21)
    worst = 0.0
    for i in range(50):
        z = rng.normal(scale=2.0, size=n1 + n2)
        lam = rng.normal(scale=2.0, size=prob.b.size)
        sched = schedule_at(rho, t=1.0 + (i % 7), p=2)
        step_cp = prim_step(cfg_cp, sched, z, lam, prob)
        step_pl = prim_step(cfg_pl, sched, z, lam, prob)
        worst = max(worst, float(np.max(np.abs(step_cp - step_pl))))
    assert worst <= 1e-10
    announce(
        "criterion 8 (embedded-parameter map equivalence, 50 states): PASS  "
        f"max coordinate difference {worst:.2e}"
    )
