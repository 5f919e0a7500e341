import dataclasses
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flagopt import ConfigError, ConstrainedProblem, NumericalError, Quadratic
from flagopt import driver, linalg
from flagopt.driver import (
    CHUNK,
    CSV_COLUMNS,
    MAX_ITERS,
    FlagState,
    RunParams,
    Trajectory,
    compute_lambda,
    flag_iterate,
    initial_state,
    ergodic_weight_sum,
    next_t,
    resolve_params,
    run,
    trajectory_from_csv,
)
from flagopt.gen import GenSpec, generate
from flagopt.lagrangian import eval_lagrangian
from flagopt.maps import MAP_KINDS, MapConfig, StepPlan, make_config, prim_step
from flagopt.problems import eval_objective


def make_qp(seed=0, n=8, m=3, sigma=1.0):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    H = G @ G.T + sigma * np.eye(n)
    f = Quadratic(H=H, q=rng.standard_normal(n), strong_convexity=sigma)
    A = rng.standard_normal((m, n))
    x_feas = rng.standard_normal(n)
    return ConstrainedProblem(f=f, A=A, b=A @ x_feas, feasible_point=x_feas)


def kkt_solution(p):
    n, m = p.n, p.m
    K = np.block([[p.f.H, p.A.T], [p.A, np.zeros((m, m))]])
    sol = np.linalg.solve(K, np.concatenate([-p.f.q, p.b]))
    return sol[:n], sol[n:]


class TestSequence:
    def test_classic_increment(self):
        assert next_t(3.0, 1) == 4.0

    def test_fast_step(self):
        assert_allclose(next_t(1.0, 2), (1.0 + math.sqrt(5.0)) / 2.0)

    def test_fast_laws(self):
        t = 1.0
        for k in range(200):
            assert t >= (k + 1) / 2.0
            t_next = next_t(t, 2)
            assert_allclose(t_next**2 - t**2, t_next, rtol=1e-12)
            assert t_next**2 <= t**2 + 2.0 * t + 1e-9
            t = t_next

    def test_rejects_bad_p(self):
        with pytest.raises(ConfigError):
            next_t(1.0, 3)


class TestLambda:
    def test_no_extrapolation_at_t_one(self):
        y = np.array([2.0, -1.0])
        assert_allclose(compute_lambda(y, 5.0, 1.0, np.array([9.0, 9.0])), y)

    def test_matches_prior_sequence_value(self):
        # rho_k (t_k - 1) equals rho t_{k-1}^p along the fast sequence
        rho, p = 0.7, 2
        t_prev, t = 0.0, 1.0
        w = np.array([1.0])
        for _ in range(30):
            rho_k = rho * t ** (p - 1)
            lam = compute_lambda(np.zeros(1), rho_k, t, w)
            assert_allclose(lam, rho * t_prev**p * w, atol=1e-9)
            t_prev, t = t, next_t(t, p)


class TestResolve:
    def test_fast_needs_strong_convexity(self):
        p = make_qp(sigma=0.0)
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), mode="fast")
        with pytest.raises(ConfigError, match="strong convexity"):
            resolve_params(p, params)

    def test_mu_defaults(self):
        p = make_qp()
        cfg = make_config("prox-lin-al", p, rho=1.0)
        r = resolve_params(p, RunParams(cfg=cfg, mode="fast"))
        assert r.mu == r.plan.cert.delta == 1.0
        r = resolve_params(p, RunParams(cfg=cfg, mode="ergodic"))
        assert r.mu == 1.0 and r.p == 2

    def test_mu_interval(self):
        p = make_qp()
        cfg = make_config("prox-lin-al", p, rho=1.0)
        with pytest.raises(ConfigError, match="mu"):
            resolve_params(p, RunParams(cfg=cfg, mode="fast", mu=1.5))
        resolve_params(p, RunParams(cfg=cfg, mode="ergodic", mu=1.5))
        with pytest.raises(ConfigError, match="mu"):
            resolve_params(p, RunParams(cfg=cfg, mode="ergodic", mu=2.5))

    def test_run_takes_a_plan(self):
        # a fresh plan given to run steps bitwise as the one run builds, and
        # the run's certificate is the plan's
        p = make_qp()
        cfg = make_config("prox-lin-al", p, rho=1.0)
        params = RunParams(cfg=cfg, mode="fast", iters=20)
        plan = StepPlan(cfg, p)
        got = run(p, params, plan=plan)
        assert np.array_equal(got.psi_x, run(p, params).psi_x)
        assert got.meta["delta"] is plan.cert.delta
        other = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), mode="fast", iters=20)
        for args in ((p, other), (make_qp(), params)):
            with pytest.raises(ConfigError, match="another map or problem"):
                run(*args, plan=plan)

    def test_bad_mode(self):
        p = make_qp()
        with pytest.raises(ConfigError, match="mode"):
            RunParams(cfg=make_config("prox-al", p, rho=1.0), mode="turbo")

    def test_iters_bound(self):
        # checked before run() preallocates 11 (iters + 1) floats
        cfg = make_config("prox-al", make_qp(), rho=1.0)
        assert RunParams(cfg=cfg, iters=MAX_ITERS).iters == MAX_ITERS
        for iters in (0, MAX_ITERS + 1):
            with pytest.raises(ConfigError, match="iters"):
                RunParams(cfg=cfg, iters=iters)


class TestIteration:
    def test_first_x_equals_first_z(self):
        p = make_qp()
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), mode="fast")
        r = resolve_params(p, params)
        s0 = initial_state(params, r)
        s1 = flag_iterate(s0, r)
        assert_allclose(s1.x, s1.z)
        assert s1.k == 1 and s1.t == next_t(1.0, 2)

    def test_x_is_convex_combination(self):
        p = make_qp()
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), mode="fast")
        r = resolve_params(p, params)
        s = initial_state(params, r)
        for _ in range(4):
            t_k = s.t
            prev_x = s.x
            s = flag_iterate(s, r)
            assert_allclose(s.x, (1 - 1 / t_k) * prev_x + (1 / t_k) * s.z)

    def test_dual_update(self):
        p = make_qp()
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=2.0), mode="classic", mu=0.5)
        r = resolve_params(p, params)
        s0 = initial_state(params, r)
        s1 = flag_iterate(s0, r)
        assert_allclose(s1.y, 0.5 * 2.0 * (p.A @ s1.z - p.b))

    def test_the_plan_holds_the_only_problem(self):
        # b and the default z0 come from the resolved plan's problem; another
        # problem with a feasible b' cannot be passed beside it
        p = make_qp()
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0))
        r = resolve_params(p, params)
        s0 = initial_state(params, r)
        assert np.array_equal(s0.z, p.feasible_point) and s0.z is not p.feasible_point
        x_other = p.feasible_point + 1.0
        other = dataclasses.replace(p, b=p.A @ x_other, feasible_point=x_other)
        with pytest.raises(TypeError):
            flag_iterate(s0, r, other)
        with pytest.raises(TypeError):
            initial_state(other, params, r)


# every kind on every family it applies to, in each mode it certifies
STACK_SPECS = {
    "eq-qp": GenSpec(family="eq-qp", n=10, m=3, seed=1),
    "smooth-composite": GenSpec(family="smooth-composite", n=12, m=4, seed=1),
    "block-qp": GenSpec(family="block-qp", n=12, m=4, seed=2),
    "block-qp-sigma0": GenSpec(family="block-qp", n=12, m=4, sigma=0.0, seed=2),
    "block-qp-a-identity": GenSpec(family="block-qp", n=12, m=4, seed=2, a_identity=True),
    "lasso-split": GenSpec(family="lasso-split", n=10, m=6, seed=1),
}


def stack_cases():
    cases = []
    for name, spec in STACK_SPECS.items():
        prob = generate(spec)
        for kind in MAP_KINDS:
            for mode in driver.MODES:
                try:
                    cfg = make_config(kind, prob, rho=1.0)
                    resolve_params(prob, RunParams(cfg=cfg, mode=mode))
                except ConfigError:
                    continue
                cases.append((name, kind, mode))
    return cases


STACK_CASES = stack_cases()


class TestStackedStep:
    ITERS = 30

    def test_cases_cover_every_kind_and_mode(self):
        assert {kind for _, kind, _ in STACK_CASES} == set(MAP_KINDS)
        assert {mode for *_, mode in STACK_CASES} == set(driver.MODES)
        assert len(STACK_CASES) == 67

    @pytest.mark.parametrize("name,kind,mode", STACK_CASES)
    def test_stack_steps_each_start(self, name, kind, mode):
        # k = 5 starts stepped as one stack match the one-start steps to 1e-12
        # relative; a (1, n) stack is bitwise the one-start step; in ergodic
        # mode x is the weighted sum of the z iterates, sum_j tau_j z^{j+1}
        prob = generate(STACK_SPECS[name])
        cfg = make_config(kind, prob, rho=1.0)
        rng = np.random.default_rng(7)
        Z = prob.feasible_point + rng.standard_normal((5, prob.n))
        Y = rng.standard_normal((5, prob.m))
        r = resolve_params(prob, RunParams(cfg=cfg, mode=mode))
        singles = [
            initial_state(RunParams(cfg=cfg, mode=mode, z0=z0, y0=y0), r) for z0, y0 in zip(Z, Y)
        ]
        X = np.zeros_like(Z) if mode == "ergodic" else Z.copy()
        stack = FlagState(0, 1.0, Z, Y, X)
        one = FlagState(0, 1.0, Z[:1], Y[:1], X[:1].copy())
        sums = np.zeros_like(Z)
        for _ in range(self.ITERS):
            tau = stack.t ** (r.p - 1)
            stack, one = flag_iterate(stack, r), flag_iterate(one, r)
            singles = [flag_iterate(s, r) for s in singles]
            assert stack.z.shape == Z.shape and stack.y.shape == Y.shape
            for f in ("z", "y", "x"):
                want = np.array([getattr(s, f) for s in singles])
                got = getattr(stack, f)
                scale = 1.0 + np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, (f, stack.k)
                assert np.array_equal(getattr(one, f)[0], want[0]), (f, stack.k)
            sums = sums + tau * np.array([s.z for s in singles])
            if mode == "ergodic":
                assert np.array_equal(np.array([s.x for s in singles]), sums)


class TestRun:
    def test_converges_to_kkt(self):
        # fast mode needs P <= (sigma/2) I; M = (sigma/2) I + rho A'A gives
        # P = (sigma/2) I exactly
        p = make_qp()
        x_star, y_star = kkt_solution(p)
        M = 0.5 * p.sigma * np.eye(p.n) + p.A.T @ p.A
        params = RunParams(
            cfg=MapConfig(kind="prox-lin-al", rho=1.0, M=M), mode="fast", iters=2000
        )
        traj = run(p, params)
        psi_star = p.psi(x_star)
        assert traj.feas_x[-1] < 1e-5
        assert abs(traj.psi_x[-1] - psi_star) < 1e-4
        assert traj.records == 2001

    def test_row_zero_is_start(self):
        p = make_qp()
        z0 = np.zeros(p.n)
        params = RunParams(
            cfg=make_config("prox-lin-al", p, rho=1.0), mode="classic", iters=5, z0=z0
        )
        traj = run(p, params)
        assert_allclose(traj.psi_x[0], p.psi(z0))
        assert_allclose(traj.y_norm[0], 0.0)
        assert_allclose(traj.t[0], 1.0)

    def test_reference_columns(self):
        p = make_qp()
        x_star, y_star = kkt_solution(p)
        ref = SimpleNamespace(
            x_star=x_star, y_star=-y_star, psi_star=p.psi(x_star), c=2.0
        )
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), mode="fast", iters=10)
        traj = run(p, params, reference=ref)
        assert np.all(np.isfinite(traj.s_k))

    @pytest.mark.parametrize("family,kind", [("eq-qp", "prox-lin-al"), ("block-qp", "prox-admm")])
    def test_s_k_is_the_lagrangian_gap(self, family, kind):
        # s_k reuses the Psi and residual of the psi_x / feas_x columns, which
        # run() evaluates for a chunk of rows at once; its 13 rows are one
        # chunk, so s_k stays bitwise the augmented Lagrangian gap through
        # eval_lagrangian of the replayed stack, and within roundoff of the
        # single-point eval_lagrangian of each row
        p = generate(GenSpec(family=family, n=10, m=4, sigma=1.0, seed=2))
        params = RunParams(cfg=make_config(kind, p, rho=1.0), mode="fast", iters=12)
        ref = SimpleNamespace(y_star=np.linspace(-1.0, 1.0, 4), psi_star=0.25, c=1.0)
        traj = run(p, params, reference=ref)
        resolved = resolve_params(p, params)
        state = initial_state(params, resolved)
        xs, aug = [state.x], [0.0]
        for _ in range(params.iters):
            t_used = state.t
            state = flag_iterate(state, resolved)
            xs.append(state.x)
            aug.append(resolved.rho * t_used**2)
        aug = np.array(aug)
        want = (
            eval_lagrangian(p, np.array(xs), ref.y_star)
            + 0.5 * aug * traj.feas_x**2
            - ref.psi_star
        )
        assert np.array_equal(traj.s_k, want)
        single = [
            eval_lagrangian(p, x, ref.y_star) + 0.5 * a * f**2 - ref.psi_star
            for x, a, f in zip(xs, aug, traj.feas_x)
        ]
        assert_allclose(traj.s_k, single, rtol=1e-13)

    def test_ergodic_average_matches_manual(self):
        p = make_qp()
        params = RunParams(
            cfg=make_config("prox-lin-al", p, rho=1.0), mode="ergodic", iters=6
        )
        r = resolve_params(p, params)
        traj = run(p, params)
        s = initial_state(params, r)
        acc = np.zeros(p.n)
        wsum = 0.0
        for i in range(6):
            t_k = s.t
            s = flag_iterate(s, r)
            acc += t_k * s.z
            wsum = t_k * t_k
            assert_allclose(traj.psi_x[i + 1], p.psi(acc / wsum), rtol=1e-12)

    def test_ergodic_row_zero_holds_z0(self):
        p = make_qp()
        params = RunParams(
            cfg=make_config("prox-lin-al", p, rho=1.0), mode="ergodic", iters=3
        )
        traj = run(p, params)
        assert_allclose(traj.psi_x[0], p.psi(p.feasible_point))

    def test_csv_round_trip(self, tmp_path):
        p = make_qp()
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), mode="fast", iters=7)
        traj = run(p, params)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = trajectory_from_csv(path)
        assert isinstance(back, Trajectory)
        for col in ("k", "t", "rho_k", "psi_x", "feas_x", "psi_z", "feas_z", "y_norm"):
            assert_allclose(getattr(back, col), getattr(traj, col), rtol=1e-15)
        assert np.isnan(back.s_k).all()
        # a file with the timestamp comment older versions wrote still loads
        path.write_text("# written 2020-01-01T00:00:00+00:00\n" + path.read_text())
        assert_allclose(trajectory_from_csv(path).psi_x, traj.psi_x, rtol=0)

    def test_csv_bytes_match_savetxt(self, tmp_path):
        # one %-format per CHUNK rows writes np.savetxt's bytes, NaN s_k
        # cells, signed zeros, infinities and subnormals included
        p = make_qp()
        cfg = make_config("prox-lin-al", p, rho=1.0)
        traj = run(p, RunParams(cfg=cfg, mode="fast", iters=2 * CHUNK + 5))
        assert np.isnan(traj.s_k).all()
        traj.psi_z[1:5] = (-0.0, -np.inf, np.inf, 5e-324)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        buf = io.BytesIO()
        data = np.column_stack([getattr(traj, c) for c in CSV_COLUMNS])
        np.savetxt(buf, data, delimiter=",", fmt="%.17g")
        header = ",".join(CSV_COLUMNS) + "\n"
        assert path.read_bytes() == header.encode() + buf.getvalue()

    def test_columns_are_the_trajectory_fields(self):
        # the CSV header, in the fields' order
        header = "k,t,rho_k,psi_x,feas_x,psi_z,feas_z,y_norm,s_k"
        assert ",".join(CSV_COLUMNS) == header
        names = [f.name for f in dataclasses.fields(Trajectory)]
        assert names == [*CSV_COLUMNS, "meta"]

    @pytest.mark.parametrize("mode,route", [("classic", "cholesky"), ("fast", "pencil-eigh")])
    def test_gate_stays_on_the_hot_path(self, mode, route):
        # a factor changed in place after the plan's first steps reaches every
        # solve of the run: off by 1e-9 relative, each solve is refined; off
        # by half, the residual gate raises
        prob = make_qp()
        cfg = make_config("prox-lin-al", prob, rho=1.0)
        params = RunParams(cfg=cfg, mode=mode, iters=20)
        for factor in (1.0 + 1e-9, 1.5):
            plan = StepPlan(cfg, prob)
            m, n = plan.A.shape
            for tau in (1.0,) if route == "cholesky" else (1.0, 2.5):
                prim_step(plan, tau, np.zeros(n), np.zeros(m))
            pencil = plan.solvers[0].pencils[0]
            assert pencil.route == route and pencil.counts["refinements"] == 0
            if route == "cholesky":
                pencil.Li *= factor
            else:
                pencil.W *= factor
            if factor == 1.5:
                with pytest.raises(NumericalError, match="linear solve residual"):
                    run(prob, params, plan=plan)
            else:
                traj = run(prob, params, plan=plan)
                assert traj.meta["subproblems"][0]["refinements"] > 0

    @pytest.mark.parametrize(
        "kind,spec,blocks",
        [
            ("prox-lin-al", GenSpec(family="eq-qp", n=100, m=40, sigma=1.0, seed=0), 1),
            ("prox-admm", GenSpec(family="block-qp", n=20, m=6, sigma=1.0, seed=0), 2),
        ],
    )
    def test_factorizations_per_block(self, kind, spec, blocks, monkeypatch):
        # classic mode keeps one value of c: one Cholesky per block; fast mode
        # moves c every step: one Cholesky, then one pencil decomposition
        # against that same factor, so each block factors once in both modes
        prob = generate(spec)
        cfg = make_config(kind, prob, rho=1.0)
        calls, factor = [], linalg._inverse_factor
        monkeypatch.setattr(linalg, "_inverse_factor", lambda V: calls.append(1) or factor(V))
        once = {"cholesky": 1, "pencil-eigh": 0}
        for mode, route, counts in (
            ("classic", "cholesky", once),
            ("fast", "pencil-eigh", dict(once, **{"pencil-eigh": 1})),
        ):
            calls.clear()
            traj = run(prob, RunParams(cfg=cfg, mode=mode, iters=30))
            stats = traj.meta["subproblems"]
            want = {"route": route, "factorizations": counts, "refinements": 0}
            assert stats == [want] * blocks, stats
            assert len(calls) == blocks

    @pytest.mark.parametrize("mode", ["classic", "fast", "ergodic"])
    def test_chunked_columns_match_per_row(self, mode):
        # more rows than one chunk, and not a multiple of it: every column
        # matches the one-point eval_objective and norms of the replayed rows
        # to 1e-13
        p = make_qp()
        iters = CHUNK + 37
        x_star, y_star = kkt_solution(p)
        ref = SimpleNamespace(y_star=-y_star, psi_star=p.psi(x_star), c=1.0)
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), mode=mode, iters=iters)
        traj = run(p, params, reference=ref)
        r = resolve_params(p, params)
        s = initial_state(params, r)
        rows = {c: [] for c in ("psi_x", "feas_x", "psi_z", "feas_z", "y_norm", "s_k")}
        t_used = 0.0
        for i in range(iters + 1):
            if i:
                t_used = s.t
                s = flag_iterate(s, r)
            if mode != "ergodic":
                x = s.x
            else:
                x = s.z if i == 0 else s.x / ergodic_weight_sum(t_used, r.p)
            res = p.A @ x - p.b
            aug = r.rho * t_used**r.p if i else 0.0
            rows["psi_x"].append(eval_objective(p, x))
            rows["feas_x"].append(np.linalg.norm(res))
            rows["psi_z"].append(eval_objective(p, s.z))
            rows["feas_z"].append(np.linalg.norm(p.A @ s.z - p.b))
            rows["y_norm"].append(np.linalg.norm(s.y))
            rows["s_k"].append(
                eval_lagrangian(p, x, ref.y_star) + 0.5 * aug * res @ res - ref.psi_star
            )
        for col, want in rows.items():
            if col == "s_k" and mode == "ergodic":
                assert np.isnan(traj.s_k).all()
            else:
                # relative to the column's largest magnitude: feas and s_k
                # lose relative accuracy to cancellation as they shrink
                err = np.max(np.abs(getattr(traj, col) - want))
                assert err <= 1e-13 * (1.0 + np.max(np.abs(want))), (col, err)

    @staticmethod
    def plant(monkeypatch, k, **fields):
        # flag_iterate, except that the state of iteration k gets the given
        # fields; records whether a later step raised
        real, raised = driver.flag_iterate, []

        def step(state, *args):
            try:
                new = real(state, *args)
            except Exception as exc:
                raised.append(exc)
                raise
            if new.k != k:
                return new
            return dataclasses.replace(new, **{f: g(new) for f, g in fields.items()})

        monkeypatch.setattr(driver, "flag_iterate", step)
        return raised

    def test_guard_names_a_row_past_the_first_chunk(self, monkeypatch):
        # ||y|| overflows at one row of the second chunk; the later steps stay
        # finite until the chunk is evaluated
        p = make_qp()
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), iters=2 * CHUNK + 5)
        k = CHUNK + 3
        self.plant(monkeypatch, k, y=lambda st: np.full_like(st.y, 1e200))
        with pytest.raises(NumericalError, match=rf"^iteration {k}: y_norm is not finite \(inf\)$"):
            run(p, params)

    def test_guard_wins_over_a_later_step_error(self, monkeypatch):
        # a NaN z at one row of the second chunk makes the next step fail the
        # residual gate before the chunk is full; the guard still names the row
        p = make_qp()
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), iters=2 * CHUNK + 5)
        k = CHUNK + 3
        raised = self.plant(monkeypatch, k, z=lambda st: np.full_like(st.z, np.nan))
        with pytest.raises(NumericalError, match=rf"^iteration {k}: psi_z is not finite \(nan\)$"):
            run(p, params)
        assert raised and "residual" in str(raised[0])

    def test_guard_on_the_last_row(self, monkeypatch):
        p = make_qp()
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), iters=CHUNK + 5)
        k = CHUNK + 5
        self.plant(monkeypatch, k, x=lambda st: np.full_like(st.x, np.inf))
        with pytest.raises(NumericalError, match=rf"^iteration {k}: psi_x is not finite \(nan\)$"):
            run(p, params)

    def test_bad_z0_shape(self):
        p = make_qp()
        params = RunParams(
            cfg=make_config("prox-lin-al", p, rho=1.0), mode="classic", z0=np.zeros(3)
        )
        with pytest.raises(ConfigError, match="z0"):
            run(p, params)

    def test_bad_y0_shape(self):
        p = make_qp()
        params = RunParams(cfg=make_config("prox-lin-al", p, rho=1.0), y0=np.zeros(p.m + 1))
        with pytest.raises(ConfigError, match=rf"^y0 has shape \(4,\), expected \(3,\)$"):
            run(p, params)
