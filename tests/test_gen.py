import numpy as np
import pytest
from numpy.testing import assert_allclose

from flagopt import ConfigError, ConstrainedProblem
from flagopt.gen import FAMILIES, GenSpec, generate
from flagopt.problems import (
    feasibility_residual,
    load_problem,
    problem_from_json,
    problem_to_json,
    save_problem,
)


class TestGenSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigError, match="family"):
            GenSpec(family="portfolio", n=4, m=2)

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            GenSpec(family="eq-qp", n=0, m=1)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            GenSpec(family="eq-qp", n=4, m=2, seed=-1)

    def test_a_identity_only_for_block_qp(self):
        with pytest.raises(ConfigError, match="a_identity"):
            GenSpec(family="eq-qp", n=4, m=2, a_identity=True)


class TestEqQp:
    def test_shapes_and_feasibility(self):
        p = generate(GenSpec(family="eq-qp", n=12, m=4, sigma=2.0, seed=5))
        assert isinstance(p, ConstrainedProblem)
        assert p.n == 12 and p.m == 4
        assert feasibility_residual(p, p.feasible_point) < 1e-10

    def test_spectrum_endpoints(self):
        p = generate(GenSpec(family="eq-qp", n=10, m=3, sigma=0.5, conditioning=40.0))
        eigs = np.linalg.eigvalsh(p.f.H)
        assert_allclose(eigs.min(), 0.5, rtol=1e-10)
        assert_allclose(eigs.max(), 0.5 * 40.0, rtol=1e-10)
        assert p.sigma == 0.5

    def test_constraint_full_row_rank(self):
        p = generate(GenSpec(family="eq-qp", n=10, m=4))
        svals = np.linalg.svd(p.A, compute_uv=False)
        assert_allclose(svals.min(), 1.0, rtol=1e-10)
        assert_allclose(svals.max(), 2.0, rtol=1e-10)

    def test_deterministic(self):
        spec = GenSpec(family="eq-qp", n=6, m=2, seed=42)
        p1, p2 = generate(spec), generate(spec)
        assert_allclose(p1.f.H, p2.f.H)
        assert_allclose(p1.A, p2.A)
        assert_allclose(p1.b, p2.b)

    def test_requires_positive_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            generate(GenSpec(family="eq-qp", n=4, m=2, sigma=0.0))


class TestLassoSplit:
    def test_structure(self):
        p = generate(GenSpec(family="lasso-split", n=10, m=6, seed=1))
        assert p.n1 is not None
        (_, f), (B, g) = p.blocks
        assert p.n1 == 10 and p.n - p.n1 == 6
        assert_allclose(B, -np.eye(6))
        assert_allclose(p.b, np.zeros(6))
        assert f.strong_convexity == 1.0 and g.strong_convexity == 0.0
        assert feasibility_residual(p, p.feasible_point) == 0.0

    def test_f_block_conditioning(self):
        p = generate(GenSpec(family="lasso-split", n=8, m=4, conditioning=25.0))
        eigs = np.linalg.eigvalsh(p.blocks[0][1].H)
        assert_allclose(eigs.min(), 1.0, rtol=1e-9)
        assert_allclose(eigs.max(), 25.0, rtol=1e-9)

    def test_l1_weight_positive(self):
        p = generate(GenSpec(family="lasso-split", n=8, m=4))
        assert np.all(p.blocks[1][1].weight > 0)


class TestBlockQp:
    def test_structure(self):
        p = generate(GenSpec(family="block-qp", n=7, m=3, sigma=1.5, seed=2))
        assert p.n1 is not None
        (_, f), (_, g) = p.blocks
        assert p.n1 == 7 and p.n - p.n1 == 7 and p.m == 3
        assert f.strong_convexity == 0.0 and g.strong_convexity == 1.5
        assert feasibility_residual(p, p.feasible_point) < 1e-9

    def test_a_identity(self):
        p = generate(GenSpec(family="block-qp", n=5, m=3, a_identity=True))
        assert p.n1 == 3
        assert_allclose(p.blocks[0][0], np.eye(3))

    def test_sigma_zero_allowed(self):
        p = generate(GenSpec(family="block-qp", n=5, m=2, sigma=0.0))
        assert p.blocks[1][1].strong_convexity == 0.0


class TestSmoothComposite:
    def test_structure(self):
        p = generate(GenSpec(family="smooth-composite", n=9, m=3, sigma=0.7, seed=3))
        assert p.smooth is not None
        assert p.smooth.lipschitz_grad == 1.0
        assert_allclose(np.linalg.eigvalsh(p.smooth.term.H).max(), 1.0, rtol=1e-10)
        assert p.smooth.term.strong_convexity == 0.0
        assert p.sigma == 0.7

    def test_requires_positive_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            generate(GenSpec(family="smooth-composite", n=4, m=2, sigma=0.0))


class TestSerialization:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_trip(self, family, tmp_path):
        p = generate(GenSpec(family=family, n=6, m=3, sigma=1.0, seed=9))
        back = problem_from_json(problem_to_json(p))
        assert type(back) is type(p) and back.n1 == p.n1
        x = np.full(p.n, 0.37)
        from flagopt.problems import eval_objective

        assert_allclose(eval_objective(back, x), eval_objective(p, x), rtol=1e-15)
        path = tmp_path / "prob.json"
        save_problem(p, path)
        again = load_problem(path)
        assert_allclose(eval_objective(again, x), eval_objective(p, x), rtol=1e-15)
