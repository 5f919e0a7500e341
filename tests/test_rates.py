import importlib
import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from flagopt import (
    ConfigError,
    ConstrainedProblem,
    NumericalError,
    Quadratic,
    UnreliableReferenceError,
    linalg,
    rates,
)
from flagopt.driver import RunParams, run
from flagopt.gen import GenSpec, generate
from flagopt.maps import MapConfig, certificate, make_config
from flagopt.problems import Box, L1, Separable, SmoothTerm, eval_objective, flatten_block
from flagopt.prox import argmin_composite
from flagopt.rates import (
    ReferenceSolution,
    _penalty_route,
    bound_constant,
    fit_slope,
    kkt_residual,
    p2_condition,
    polish,
    reference_solve,
    verify_rates,
)


class TestQuadraticReference:
    def test_textbook_example(self):
        # min (1/2)||x||^2  s.t.  x1 + x2 = 2
        p = ConstrainedProblem(
            f=Quadratic(H=np.eye(2), q=np.zeros(2), strong_convexity=1.0),
            A=[[1.0, 1.0]],
            b=[2.0],
            sigma=1.0,
        )
        ref = reference_solve(p)
        assert_allclose(ref.x_star, [1.0, 1.0], atol=1e-12)
        assert_allclose(ref.y_star, [-1.0], atol=1e-12)
        assert_allclose(ref.psi_star, 1.0, atol=1e-12)
        assert_allclose(ref.c, 2.0, atol=1e-12)

    def test_generated_qp(self):
        p = generate(GenSpec(family="eq-qp", n=20, m=6, sigma=1.0, seed=7))
        ref = reference_solve(p)
        scale = 1.0 + np.linalg.norm(p.f.q) + np.linalg.norm(p.b)
        assert kkt_residual(p, ref.x_star, ref.y_star) <= 1e-9 * scale

    def test_smooth_part_included(self):
        p = generate(GenSpec(family="smooth-composite", n=10, m=3, sigma=1.0, seed=4))
        ref = reference_solve(p)
        assert kkt_residual(p, ref.x_star, ref.y_star) <= 1e-9 * (
            1.0 + np.linalg.norm(p.b)
        )
        # stationarity must involve the smooth gradient: dropping it breaks KKT
        no_smooth = ConstrainedProblem(
            f=p.f, A=p.A, b=p.b, sigma=p.sigma, feasible_point=p.feasible_point
        )
        assert kkt_residual(no_smooth, ref.x_star, ref.y_star) > 1e-3

    def test_block_reference_is_stacked(self):
        bp = generate(GenSpec(family="block-qp", n=6, m=3, sigma=1.0, seed=2))
        ref = reference_solve(bp)
        assert ref.x_star.shape == (bp.n1 + bp.n2,)
        assert kkt_residual(bp, ref.x_star, ref.y_star) <= 1e-8


class TestL1Reference:
    def test_lasso_routes_agree(self):
        bp = generate(GenSpec(family="lasso-split", n=12, m=8, seed=5))
        ref = reference_solve(bp)
        sp = flatten_block(bp)
        scale = 1.0 + np.linalg.norm(sp.b)
        assert kkt_residual(sp, ref.x_star, ref.y_star) <= 1e-9 * scale
        v_part = ref.x_star[bp.n1 :]
        assert np.any(v_part == 0.0)  # polished zeros are exact
        assert ref.c == 2.0 * np.linalg.norm(ref.y_star)

    def test_polish_recovers_from_noisy_start(self):
        bp = generate(GenSpec(family="lasso-split", n=10, m=6, seed=11))
        sp = flatten_block(bp)
        ref = reference_solve(bp)
        rng = np.random.default_rng(0)
        noisy = ref.x_star + 1e-6 * rng.standard_normal(sp.n)
        x, y = polish(sp, noisy)
        assert_allclose(x, ref.x_star, atol=1e-9)


def box_problem(n=8, m=3, seed=0):
    """h = 0.5 ||x||^2 + <q, x> with a strong linear pull q, f = indicator of
    [-1, 1]^n: some coordinates of x* sit on a bound."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-0.3, 0.3, n)
    A = rng.standard_normal((m, n))
    q = 3.0 * rng.standard_normal(n)
    h = SmoothTerm(term=Quadratic(H=np.eye(n), q=q, strong_convexity=1.0), lipschitz_grad=1.0)
    f = Box(lo=-np.ones(n), hi=np.ones(n))
    return ConstrainedProblem(f=f, A=A, b=A @ x0, smooth=h, feasible_point=x0)


# (x*, y*, psi*, c) of each problem, recorded when quadratic problems still
# had their own KKT path next to polish.
PINNED = {
    "eq-qp": lambda: generate(GenSpec(family="eq-qp", n=8, m=3, sigma=1.0, seed=1)),
    "block-qp": lambda: generate(GenSpec(family="block-qp", n=6, m=3, sigma=1.0, seed=2)),
    "smooth-composite": lambda: generate(
        GenSpec(family="smooth-composite", n=10, m=3, sigma=1.0, seed=4)
    ),
    "lasso-split": lambda: generate(GenSpec(family="lasso-split", n=30, m=20, sigma=0.0, seed=3)),
    "box": box_problem,
}
RECORDED = json.loads(Path(__file__).with_name("reference_pins.json").read_text())


class TestPinnedReferences:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_recorded_values(self, name):
        ref = reference_solve(PINNED[name]())
        want = RECORDED[name]
        for key in ("x_star", "y_star"):
            got, exp = getattr(ref, key), np.array(want[key])
            assert got.shape == exp.shape
            assert np.linalg.norm(got - exp) <= 1e-12 * np.linalg.norm(exp)
        for key in ("psi_star", "c"):
            assert abs(getattr(ref, key) - want[key]) <= 1e-12 * abs(want[key])

    def test_box_polish_recovers_from_noisy_start(self, monkeypatch):
        p = box_problem()
        ref = reference_solve(p)
        changes = []
        update = rates._update_face
        monkeypatch.setattr(rates, "_update_face", lambda *a: changes.append(update(*a)) or changes[-1])
        noisy = ref.x_star + 1e-3 * np.random.default_rng(0).standard_normal(p.n)
        x, _ = polish(p, noisy)
        assert changes and all(changes)
        assert_allclose(x, ref.x_star, atol=1e-9)


class TestFaces:
    """A face is a `fixed` mask, the pinned `value`s and `lin` (weight * sign
    on active l1 coordinates). Coordinates 0-1 are l1 (weight 1), 2-3 a box
    [-1, 1]^2."""

    sp = ConstrainedProblem(
        f=Separable((L1(1.0, 2), Box(lo=-np.ones(2), hi=np.ones(2)))), A=[[1.0, 1.0, 1.0, 1.0]], b=[0.0]
    )

    def nonsmooth(self):
        return rates._smooth_parts(self.sp)[2]

    def test_initial_face(self):
        x = np.array([1e-7, -0.3, -1.0 + 1e-8, 0.2])
        fixed, value, lin = rates._initial_face(self.nonsmooth(), x)
        assert fixed.tolist() == [True, False, True, False]
        assert value.tolist() == [0.0, 0.0, -1.0, 0.0]
        assert lin.tolist() == [0.0, -1.0, 0.0, 0.0]

    def test_update_moves_each_misclassified_coordinate(self):
        face = (np.array([True, False, True, False]), np.array([0.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]))
        x = np.array([0.0, -0.5, -1.0, 1.0 + 1e-6])
        # with H = 0 and y = 0 the gradient is q: coordinate 0 leaves [-w, w],
        # coordinate 2 pulls inward from its lower bound
        q = np.array([-2.0, 0.0, -0.5, 0.0])
        H, y = np.zeros((4, 4)), np.zeros(1)
        assert rates._update_face(face, self.nonsmooth(), self.sp, H, q, x, y)
        fixed, value, lin = face
        assert fixed.tolist() == [False, True, False, True]
        assert value[fixed].tolist() == [0.0, 1.0]
        assert lin.tolist() == [1.0, 0.0, 0.0, 0.0]
        x = np.array([0.5, 0.0, 0.0, 1.0])
        assert not rates._update_face(face, self.nonsmooth(), self.sp, H, np.zeros(4), x, y)


class TestReferenceMutations:
    """Each verification step of the reference must reject a wrong answer."""

    @staticmethod
    def mutate_kkt(monkeypatch, mutation):
        solves = []
        solve = rates._solve_kkt

        def mutated(*args):
            solves.append(1)
            return mutation(*solve(*args))

        monkeypatch.setattr(rates, "_solve_kkt", mutated)
        return solves

    def test_perturbed_solve_on_the_empty_face(self, monkeypatch):
        p = generate(GenSpec(family="eq-qp", n=20, m=6, sigma=1.0, seed=7))
        solves = self.mutate_kkt(monkeypatch, lambda x, y: (x + 1e-6, y))
        with pytest.raises(NumericalError, match="reference KKT residual") as err:
            reference_solve(p)
        assert type(err.value) is NumericalError
        assert len(solves) == 1

    def test_polish_runs_out_of_rounds_on_an_l1_face(self, monkeypatch):
        sp = flatten_block(generate(GenSpec(family="lasso-split", n=12, m=8, seed=5)))
        x_star = reference_solve(sp).x_star
        # a mirrored face solve flips the sign of every active l1 coordinate,
        # so each round moves the face and no round verifies
        solves = self.mutate_kkt(monkeypatch, lambda x, y: (-x, y))
        with pytest.raises(UnreliableReferenceError, match="face polish failed"):
            polish(sp, x_star)
        assert len(solves) == rates.POLISH_ROUNDS

    @staticmethod
    def perturb_once(monkeypatch, name):
        """Shift x of every pair that rates.<name> returns by 1e-5."""
        calls = []
        honest = getattr(rates, name)

        def perturbed(*args):
            x, y = honest(*args)
            calls.append(1)
            return x + 1e-5, y

        monkeypatch.setattr(rates, name, perturbed)
        return calls

    def test_perturbed_route_disagrees(self, monkeypatch):
        # the penalty route's pair is the reference's candidate as returned
        bp = generate(GenSpec(family="lasso-split", n=12, m=8, seed=5))
        calls = self.perturb_once(monkeypatch, "_penalty_route")
        with pytest.raises(UnreliableReferenceError, match="reference routes disagree"):
            reference_solve(bp)
        assert len(calls) == 1

    def test_perturbed_long_run_polish_disagrees(self, monkeypatch):
        # polish runs once per nonsmooth reference: on the long-run route
        bp = generate(GenSpec(family="lasso-split", n=12, m=8, seed=5))
        calls = self.perturb_once(monkeypatch, "polish")
        with pytest.raises(UnreliableReferenceError, match="reference routes disagree"):
            reference_solve(bp)
        assert len(calls) == 1


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkNames:
    """The benchmark wraps flagopt functions by name from outside the
    package; a renamed function would read as zeros there, not fail."""

    def test_every_traced_name_resolves(self):
        tracer = load_perfbench("tracer")
        run_script = load_perfbench("run")
        extra = {}
        for span, layer, path in tracer.EXTRA_TARGETS:
            owner = importlib.import_module(f"flagopt.{layer}")
            for part in path.split("."):
                owner = getattr(owner, part)
            assert callable(owner), span
            extra[span] = owner
        # perfbench/selftest.py deletes this one by name to test the tracer
        assert callable(rates._penalty_route)
        spans = set(tracer.HOOKS)
        for _, source, _, _ in run_script.PER_LAYER:
            if isinstance(source, tuple):
                spans.update(source)
        for span in sorted(spans - set(extra)):
            layer, attr = span.split(".")
            fn = getattr(importlib.import_module(f"flagopt.{layer}"), attr, None)
            assert callable(fn) and fn.__module__ == f"flagopt.{layer}", span


def per_step_penalty_route(sp, betas=(1e2, 1e4, 1e6), max_iter=5000, stop=None):
    """The reference implementation of the penalty route: the same loop with
    one argmin_composite, and so one fresh subproblem and factorization, on
    every step. It returns the last iterate; with `stop`, the first iterate at
    a step k = 1, 2, 4, ... of a stage for which stop(x) holds."""
    A, b = sp.A, sp.b
    lamA = linalg.lambda_max(A.T @ A)
    n = sp.n
    x = sp.feasible_point.copy() if sp.feasible_point is not None else np.zeros(n)
    for beta in betas:
        L = beta * lamA + (sp.smooth.lipschitz_grad if sp.smooth is not None else 0.0)
        W = L * np.eye(n)

        def grad_s(v):
            g = beta * (A.T @ (A @ v - b))
            if sp.smooth is not None:
                g = g + sp.smooth.term.grad(v)
            return g

        def phi(v):
            return eval_objective(sp, v) + 0.5 * beta * float(np.sum((A @ v - b) ** 2))

        t = 1.0
        x_prev = x.copy()
        phi_prev = phi(x)
        for k in range(1, max_iter + 1):
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            v = x + ((t - 1.0) / t_next) * (x - x_prev)
            anchor = v - grad_s(v) / L
            x_new = argmin_composite(sp.f, -L * anchor, W, name="penalty continuation")
            move = float(np.linalg.norm(x_new - x))
            x_prev, x = x, x_new
            t = t_next
            phi_new = phi(x)
            if phi_new > phi_prev:
                t = 1.0
            phi_prev = phi_new
            if stop is not None and bin(k).count("1") == 1 and stop(x):
                return x
            if move <= 1e-12 * (1.0 + float(np.linalg.norm(x))):
                break
    return x


def polishes(sp, x):
    try:
        polish(sp, x)
    except (NumericalError, UnreliableReferenceError):
        return False
    return True


def record_checks(monkeypatch, refused=0):
    """Replace the route's face loop with one that records each checked
    iterate and its outcome; the first `refused` checks never verify."""
    checks = []
    check = rates._polish_faces

    def recording(sp, parts, x):
        try:
            if len(checks) < refused:
                raise UnreliableReferenceError("never verifies")
            out = check(sp, parts, x)
        except (NumericalError, UnreliableReferenceError):
            checks.append((x.copy(), False))
            raise
        checks.append((x.copy(), True))
        return out

    monkeypatch.setattr(rates, "_polish_faces", recording)
    return checks


def assert_polishes_to(sp, pair, x_approx):
    """pair is bitwise polish(sp, x_approx)."""
    want = polish(sp, x_approx)
    assert all(np.array_equal(got, exp) for got, exp in zip(pair, want))


class TestPenaltyRoute:
    @pytest.mark.parametrize("n,m,seed", [(12, 8, 5), (30, 20, 3)])
    def test_bitwise_equal_to_per_step_prox(self, n, m, seed, monkeypatch):
        sp = flatten_block(generate(GenSpec(family="lasso-split", n=n, m=m, sigma=0.0, seed=seed)))
        # no check at k = 1, 2, ..., 128 of the three stages verifies, so the
        # route takes all 3 x 200 steps, then polishes its last iterate
        checks = record_checks(monkeypatch, refused=3 * 8)
        pair = _penalty_route(sp, max_iter=200)
        assert len(checks) == 3 * 8 + 1 and checks[-1][1]
        x_ref = per_step_penalty_route(sp, max_iter=200)
        assert np.array_equal(checks[-1][0], x_ref)
        assert_polishes_to(sp, pair, x_ref)

    def test_one_cholesky_per_stage(self, monkeypatch):
        sp = flatten_block(generate(GenSpec(family="lasso-split", n=12, m=8, seed=5)))
        record_checks(monkeypatch, refused=3 * 8)
        calls = []
        factor = linalg._inverse_factor
        monkeypatch.setattr(linalg, "_inverse_factor", lambda V: calls.append(1) or factor(V))
        monkeypatch.setattr(linalg, "solve_spd", None)  # the per-step route would call it
        betas = (1e2, 1e4, 1e6)
        _penalty_route(sp, betas=betas, max_iter=200)
        assert len(calls) == len(betas)

    def test_checks_only_at_powers_of_two(self, monkeypatch):
        sp = flatten_block(generate(GenSpec(family="lasso-split", n=12, m=8, seed=5)))
        checks = record_checks(monkeypatch, refused=math.inf)
        # when no check verifies, the final polish's error is the route's
        with pytest.raises(UnreliableReferenceError, match="never verifies"):
            _penalty_route(sp, betas=(1e2, 1e4), max_iter=100)
        # k = 1, 2, 4, ..., 64 in each stage, then the last iterate
        assert len(checks) == 2 * 7 + 1

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_lasso_stops_at_first_polishing_checkpoint(self, seed, monkeypatch):
        sp = flatten_block(generate(GenSpec(family="lasso-split", n=30, m=20, sigma=0.0, seed=seed)))
        checks = record_checks(monkeypatch)
        pair = _penalty_route(sp)
        # the first check, at k = 1 of the beta = 1e2 stage, already verifies
        assert [ok for _, ok in checks] == [True]
        x_ref = per_step_penalty_route(sp, stop=lambda v: polishes(sp, v))
        assert np.array_equal(checks[0][0], x_ref)
        assert_polishes_to(sp, pair, x_ref)

    def test_box_returns_the_first_iterate_that_polishes(self, monkeypatch):
        p = box_problem(n=8, m=3, seed=1)
        checks = record_checks(monkeypatch)
        pair = _penalty_route(p)
        assert len(checks) > 1
        assert [ok for _, ok in checks] == [False] * (len(checks) - 1) + [True]
        route_checks = list(checks)  # polish below records checks too
        x = route_checks[-1][0]
        assert not any(polishes(p, v) for v, _ in route_checks[:-1]) and polishes(p, x)
        x_ref = per_step_penalty_route(p, stop=lambda v: polishes(p, v))
        assert np.array_equal(x, x_ref)
        assert_polishes_to(p, pair, x_ref)

    def test_box_references_emit_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, m in [(8, 3), (20, 6)]:
                for seed in range(20):
                    reference_solve(box_problem(n=n, m=m, seed=seed))


def test_ill_conditioned_kkt_takes_lstsq_silently():
    # K's rcond is about 3e-18: scipy.linalg.solve would warn LinAlgWarning
    H = np.diag([1.0, 1e-17, 2.0])
    A = np.array([[1.0, 0.0, 1.0]])
    rhs_top, b = np.array([1.0, 0.0, -1.0]), np.array([2.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x, y = rates._solve_kkt(H, A, rhs_top, b)
    assert caught == []
    assert_allclose(H @ x + A.T @ y, rhs_top, atol=1e-12)
    assert_allclose(A @ x, b, atol=1e-12)


def count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


def test_lasso_reference_solves_each_kkt_system_once(monkeypatch):
    # the route's check takes 4 face rounds and returns its verified pair;
    # the long-run route's polish takes 1
    sp = flatten_block(generate(GenSpec(family="lasso-split", n=30, m=20, sigma=0.0, seed=0)))
    solves = count_calls(monkeypatch, rates, "_solve_kkt")
    polish_calls = count_calls(monkeypatch, rates, "polish")
    reference_solve(sp)
    assert len(solves) == 5 and len(polish_calls) == 1


def test_well_conditioned_kkt_takes_no_lstsq(monkeypatch):
    # the first symmetric solve passes the residual gate: no refinement step
    p = generate(GenSpec(family="eq-qp", n=20, m=6, sigma=1.0, seed=7))
    lstsq = count_calls(monkeypatch, np.linalg, "lstsq")
    solves = count_calls(monkeypatch, rates, "_solve_kkt")
    reference_solve(p)
    assert len(solves) == 1 and lstsq == []


def test_kkt_solve_matches_scipy():
    # scipy.linalg.solve is the independent oracle of the numpy KKT solve
    rng = np.random.default_rng(6)
    n, m = 40, 12
    M = rng.standard_normal((n, n))
    H, A = M @ M.T + np.eye(n), rng.standard_normal((m, n))
    rhs_top, b = rng.standard_normal(n), rng.standard_normal(m)
    K = np.block([[H, A.T], [A, np.zeros((m, m))]])
    want = scipy.linalg.solve(K, np.concatenate([rhs_top, b]))
    got = np.concatenate(rates._solve_kkt(H, A, rhs_top, b))
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_inconsistent_singular_kkt_raises():
    # K's second row is zero while its right-hand side is 1: no x solves it
    H = np.diag([1.0, 0.0])
    A = np.array([[1.0, 0.0]])
    with pytest.raises(NumericalError, match="KKT system") as err:
        rates._solve_kkt(H, A, np.array([0.0, 1.0]), np.array([0.0]))
    assert type(err.value) is NumericalError


class TestBoundConstant:
    def test_fast_example(self):
        assert bound_constant(
            np.zeros((2, 2)), np.ones(2), np.zeros(2), np.zeros(1), 1.0, 1.0, 2.0, 2
        ) == pytest.approx(16.0)

    def test_classic_example(self):
        assert bound_constant(
            np.zeros((2, 2)), np.ones(2), np.zeros(2), np.zeros(1), 1.0, 1.0, 2.0, 1
        ) == pytest.approx(8.0)

    def test_zero_edge(self):
        assert bound_constant(
            np.zeros((2, 2)), np.ones(2), np.zeros(2), np.zeros(1), 1.0, 1.0, 0.0, 2
        ) == 0.0

    def test_primal_term(self):
        P = np.diag([2.0, 0.0])
        B = bound_constant(P, np.array([3.0, 5.0]), np.zeros(2), np.zeros(1), 0.5, 2.0, 1.0, 2)
        assert B == pytest.approx(4.0 * (2.0 * 9.0 + 1.0 / (0.5 * 2.0)))

    def test_rejects_bad_p(self):
        with pytest.raises(ConfigError):
            bound_constant(np.zeros((1, 1)), [0.0], [0.0], [0.0], 1.0, 1.0, 1.0, 3)


class TestConditionP:
    def test_single_gate(self):
        p = generate(GenSpec(family="eq-qp", n=8, m=3, sigma=1.0, seed=1))
        M = 0.5 * np.eye(p.n) + p.A.T @ p.A
        good = certificate(MapConfig(kind="prox-lin-al", rho=1.0, M=M), p)
        assert p2_condition(good, p)
        loose = certificate(make_config("prox-lin-al", p, rho=1.0), p)
        assert not p2_condition(loose, p)

    def test_admm_gate(self):
        bp = generate(GenSpec(family="block-qp", n=5, m=2, sigma=4.0, seed=3))
        lamB = np.linalg.eigvalsh(bp.B.T @ bp.B).max()
        cfg = MapConfig(
            kind="prox-lin-admm",
            rho=1.0,
            M1=np.zeros((bp.n1, bp.n1)),
            M2=(lamB + 0.5) * np.eye(bp.n2),
        )
        cert = certificate(cfg, bp)
        gate = p2_condition(cert, bp)
        assert gate == (lamB + 0.5 <= 0.5 * bp.sigma_g + 1e-9)


class TestSlope:
    def test_exact_power_law(self):
        ks = np.arange(1, 201)
        assert fit_slope(ks, 5.0 / ks**2) == pytest.approx(-2.0, abs=1e-9)

    def test_tail_window(self):
        # the fit only sees k >= max(2, N/10) = 10, where the law is exact
        ks = np.arange(1, 101)
        vals = np.where(ks < 10, 1.0, 10.0 / ks)
        assert fit_slope(ks, vals) == pytest.approx(-1.0, abs=1e-9)

    def test_sentinel(self):
        assert fit_slope([1, 2, 3], [0.0, 1e-13, 0.0]) == -99.0


class TestVerifyRates:
    def make_fast_setup(self, seed=0):
        p = generate(GenSpec(family="eq-qp", n=12, m=4, sigma=1.0, seed=seed))
        M = 0.5 * p.sigma * np.eye(p.n) + p.A.T @ p.A
        cfg = MapConfig(kind="prox-lin-al", rho=1.0, M=M)
        cert = certificate(cfg, p)
        ref = reference_solve(p)
        params = RunParams(cfg=cfg, mode="fast", iters=300)
        traj = run(p, params, reference=ref)
        z0 = p.feasible_point
        B = bound_constant(
            cert.P, ref.x_star, z0, np.zeros(p.m), cert.delta, 1.0, ref.c, 2
        )
        return p, cfg, cert, ref, traj, B

    def test_fast_bounds_hold(self):
        p, cfg, cert, ref, traj, B = self.make_fast_setup()
        report = verify_rates(traj, ref, B, 2, cert=cert, prob=p)
        assert report["bounds_hold"]
        assert report["first_violation"] is None
        assert report["condition_P"] == "met"
        assert report["slope"] <= -1.5

    def test_fixed_point_start_has_tiny_gap(self):
        # starting at the exact saddle point the gap must stay at noise level
        p = generate(GenSpec(family="eq-qp", n=12, m=4, sigma=1.0, seed=3))
        M = 0.5 * p.sigma * np.eye(p.n) + p.A.T @ p.A
        cfg = MapConfig(kind="prox-lin-al", rho=1.0, M=M)
        ref = reference_solve(p)
        params = RunParams(
            cfg=cfg, mode="fast", iters=50, z0=ref.x_star, y0=ref.y_star
        )
        traj = run(p, params, reference=ref)
        gap = traj.psi_x - ref.psi_star
        assert np.all(np.abs(gap) <= 1e-9)
        assert np.all(traj.feas_x <= 1e-9)

    def test_unmet_gate_refuses_to_certify(self):
        # lambda_max(P) far above sigma/2: harness must not claim the bound
        p = generate(GenSpec(family="eq-qp", n=12, m=4, sigma=1.0, seed=0))
        cfg = make_config("prox-al", p, rho=1.0, policy="identity-scaled", scale=50.0)
        cert = certificate(cfg, p)
        ref = reference_solve(p)
        params = RunParams(cfg=cfg, mode="fast", iters=100)
        traj = run(p, params, reference=ref)
        B = bound_constant(
            cert.P, ref.x_star, p.feasible_point, np.zeros(p.m), 1.0, 1.0, ref.c, 2
        )
        report = verify_rates(traj, ref, B, 2, cert=cert, prob=p)
        assert report["condition_P"] == "unmet"
        assert not report["bounds_hold"]
        assert report["first_violation"] is None
        assert "inapplicable" in report["note"]

    def test_violation_detected(self):
        p, cfg, cert, ref, traj, B = self.make_fast_setup()
        traj.psi_x[5] = ref.psi_star + B  # way above B / (2 * 25)
        report = verify_rates(traj, ref, B, 2, cert=cert, prob=p)
        assert not report["bounds_hold"]
        assert report["first_violation"] == 5

    def test_feasibility_violation_detected(self):
        p, cfg, cert, ref, traj, B = self.make_fast_setup()
        traj.feas_x[7] = B  # way above B / (c * 49)
        report = verify_rates(traj, ref, B, 2, cert=cert, prob=p)
        assert not report["bounds_hold"]
        assert report["first_violation"] == 7

    def test_classic_bounds_hold(self):
        bp = generate(GenSpec(family="lasso-split", n=10, m=6, seed=8))
        cfg = make_config("prox-lin-admm", bp, rho=1.0)
        cert = certificate(cfg, bp)
        ref = reference_solve(bp)
        params = RunParams(cfg=cfg, mode="classic", iters=400)
        traj = run(bp, params, reference=ref)
        B = bound_constant(
            cert.P,
            ref.x_star,
            bp.feasible_point,
            np.zeros(bp.m),
            cert.delta,
            1.0,
            ref.c,
            1,
        )
        report = verify_rates(traj, ref, B, 1, cert=cert, prob=bp)
        assert report["bounds_hold"]
        assert report["condition_P"] == "met"
        assert report["slope"] <= -0.9


class TestReferenceSolutionType:
    def test_rejects_negative_c(self):
        with pytest.raises(ConfigError):
            ReferenceSolution(
                x_star=np.zeros(2), y_star=np.zeros(1), psi_star=0.0, c=-1.0
            )
