import functools
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from flagopt import (
    BlockProblem,
    Box,
    ConfigError,
    ConstrainedProblem,
    DataError,
    L1,
    Quadratic,
    ReferenceSolution,
    Separable,
    SmoothTerm,
    Zero,
    bound_constant,
    eval_objective,
    feasibility_residual,
    flatten_block,
)
from flagopt.driver import RunParams, resolve_params
from flagopt.gen import GenSpec, generate
from flagopt.maps import certificate, make_config
from flagopt.problems import (
    load_problem,
    number,
    problem_from_json,
    problem_to_json,
    save_problem,
    term_from_json,
    term_to_json,
)


def simple_qp(n=2, m=1):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((n, n))
    H = M @ M.T + np.eye(n)
    A = rng.standard_normal((m, n))
    x_feas = rng.standard_normal(n)
    return ConstrainedProblem(
        f=Quadratic(H, rng.standard_normal(n)),
        A=A,
        b=A @ x_feas,
        feasible_point=x_feas,
    )


class TestTerms:
    def test_quadratic_value_and_grad(self):
        t = Quadratic(np.eye(2), np.zeros(2))
        assert t.value([1.0, 1.0]) == pytest.approx(1.0)
        assert_allclose(t.grad([2.0, -1.0]), [2.0, -1.0])

    def test_l1_value(self):
        t = L1(weight=1.0, dim=2)
        assert t.value([-2.0, 3.0]) == pytest.approx(5.0)

    def test_box_indicator(self):
        t = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
        assert t.value([0.5, 1.0]) == 0.0
        assert t.value([2.0, 0.0]) == math.inf

    def test_quadratic_requires_psd(self):
        with pytest.raises(ConfigError):
            Quadratic(np.array([[-1.0]]), np.zeros(1))

    def test_quadratic_requires_symmetry(self):
        with pytest.raises(ConfigError):
            Quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    def test_declared_strong_convexity_bounded_by_lambda_min(self):
        Quadratic(2.0 * np.eye(2), np.zeros(2), strong_convexity=2.0)
        with pytest.raises(ConfigError):
            Quadratic(2.0 * np.eye(2), np.zeros(2), strong_convexity=2.5)

    def test_separable_value_is_sum(self):
        t = Separable((Quadratic(np.eye(2), np.zeros(2)), L1(1.0, 2)))
        assert t.value([1.0, 1.0, -2.0, 3.0]) == pytest.approx(1.0 + 5.0)
        assert t.dim == 4

    def test_subgrad_dist_quadratic(self):
        t = Quadratic(np.eye(2), np.zeros(2))
        assert t.subgrad_dist([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0)
        assert t.subgrad_dist([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)

    def test_subgrad_dist_l1(self):
        t = L1(weight=1.0, dim=3)
        # at x=(1,0,-1) the subdifferential is {1} x [-1,1] x {-1}
        assert t.subgrad_dist([1.0, 0.0, -1.0], [1.0, 0.5, -1.0]) == pytest.approx(0.0)
        assert t.subgrad_dist([1.0, 0.0, -1.0], [1.0, 2.0, -1.0]) == pytest.approx(1.0)
        assert t.subgrad_dist([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_subgrad_dist_box(self):
        t = Box(lo=[0.0], hi=[1.0])
        assert t.subgrad_dist([0.0], [-3.0]) == pytest.approx(0.0)
        assert t.subgrad_dist([0.0], [2.0]) == pytest.approx(2.0)
        assert t.subgrad_dist([1.0], [2.0]) == pytest.approx(0.0)
        assert t.subgrad_dist([0.5], [0.25]) == pytest.approx(0.25)


class TestFlattenBlock:
    def test_direct_stacking(self):
        bp = BlockProblem(
            f_term=Zero(1), g_term=Zero(1), A=[[1.0]], B=[[1.0]], b=[2.0]
        )
        flat = flatten_block(bp)
        assert flat.n == 2
        assert_allclose(flat.A, [[1.0, 1.0]])
        assert_allclose(flat.b, [2.0])
        assert flat.sigma == 0.0

    def test_split_constraint_form(self):
        bp = BlockProblem(
            f_term=Quadratic(np.eye(1), np.zeros(1), strong_convexity=1.0),
            g_term=Quadratic(np.eye(1), np.zeros(1), strong_convexity=1.0),
            A=[[1.0]],
            B=[[-1.0]],
            b=[0.0],
        )
        flat = flatten_block(bp)
        assert_allclose(flat.A, [[1.0, -1.0]])
        assert_allclose(flat.b, [0.0])
        assert flat.sigma == 1.0

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ConfigError, match="column"):
            BlockProblem(
                f_term=Zero(2),
                g_term=Zero(1),
                A=np.ones((3, 2)),
                B=np.ones((3, 2)),
                b=np.ones(3),
            )

    def test_flatten_eval_equals_block_eval(self):
        rng = np.random.default_rng(1)
        bp = BlockProblem(
            f_term=Quadratic(np.eye(2), rng.standard_normal(2)),
            g_term=L1(0.5, 3),
            A=rng.standard_normal((2, 2)),
            B=rng.standard_normal((2, 3)),
            b=rng.standard_normal(2),
        )
        flat = flatten_block(bp)
        (_, f), (_, g) = bp.blocks
        for _ in range(10):
            x = rng.standard_normal(5)
            u, v = x[:2], x[2:]
            expected = f.value(u) + g.value(v)
            assert eval_objective(flat, x) == pytest.approx(expected, abs=1e-12)
            assert eval_objective(bp, x) == pytest.approx(expected, abs=1e-12)

    def test_strong_convexity_is_blockwise_min(self):
        bp = BlockProblem(
            f_term=Zero(1),
            g_term=Quadratic(np.eye(1), np.zeros(1), strong_convexity=1.0),
            A=[[1.0]],
            B=[[1.0]],
            b=[0.0],
        )
        assert flatten_block(bp).sigma == 0.0


class TestFeasibilityResidual:
    def test_feasible_point(self):
        p = ConstrainedProblem(f=Zero(2), A=[[1.0, 1.0]], b=[2.0])
        assert feasibility_residual(p, [1.0, 1.0]) == pytest.approx(0.0)

    def test_origin(self):
        p = ConstrainedProblem(f=Zero(2), A=[[1.0, 1.0]], b=[2.0])
        assert feasibility_residual(p, [0.0, 0.0]) == pytest.approx(2.0)

    def test_euclidean_norm(self):
        p = ConstrainedProblem(f=Zero(2), A=np.eye(2), b=[0.0, 0.0])
        assert feasibility_residual(p, [3.0, 4.0]) == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        p = ConstrainedProblem(f=Zero(2), A=[[1.0, 1.0]], b=[2.0])
        with pytest.raises(ConfigError):
            feasibility_residual(p, [1.0, 1.0, 1.0])


class TestEvalObjective:
    def test_quadratic(self):
        p = ConstrainedProblem(f=Quadratic(np.eye(2), np.zeros(2)), A=[[1.0, 0.0]], b=[0.0])
        assert eval_objective(p, [1.0, 1.0]) == pytest.approx(1.0)

    def test_l1(self):
        p = ConstrainedProblem(f=L1(1.0, 2), A=[[1.0, 0.0]], b=[0.0])
        assert eval_objective(p, [-2.0, 3.0]) == pytest.approx(5.0)

    def test_indicator_outside_domain(self):
        p = ConstrainedProblem(f=Box(lo=[0.0, 0.0], hi=[1.0, 1.0]), A=[[1.0, 0.0]], b=[0.0])
        assert eval_objective(p, [2.0, 0.0]) == math.inf


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.99))
def test_objective_convex_along_segments(seed, theta):
    rng = np.random.default_rng(seed)
    p = ConstrainedProblem(
        f=Separable((Quadratic(np.eye(2), rng.standard_normal(2)), L1(0.7, 2))),
        A=np.ones((1, 4)),
        b=[0.0],
    )
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    mid = eval_objective(p, theta * x + (1 - theta) * y)
    chord = theta * eval_objective(p, x) + (1 - theta) * eval_objective(p, y)
    assert mid <= chord + 1e-10


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.99))
def test_strong_convexity_along_segments(seed, theta):
    rng = np.random.default_rng(seed)
    sigma = 0.5
    H = 0.5 * np.eye(3) + np.diag([0.0, 1.0, 2.0])
    p = ConstrainedProblem(
        f=Quadratic(H, rng.standard_normal(3), strong_convexity=sigma),
        A=np.ones((1, 3)),
        b=[0.0],
    )
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    mid = eval_objective(p, theta * x + (1 - theta) * y)
    chord = theta * eval_objective(p, x) + (1 - theta) * eval_objective(p, y)
    gap = 0.5 * sigma * theta * (1 - theta) * np.sum((x - y) ** 2)
    assert mid <= chord - gap + 1e-8


class TestProblemValidation:
    def test_feasible_point_checked(self):
        with pytest.raises(ConfigError, match="feasible_point"):
            ConstrainedProblem(
                f=Zero(2), A=[[1.0, 1.0]], b=[2.0], feasible_point=[0.0, 0.0]
            )

    def test_smooth_lipschitz_bound(self):
        h = Quadratic(2.0 * np.eye(2), np.zeros(2))
        SmoothTerm(term=h, lipschitz_grad=2.0)
        with pytest.raises(ConfigError):
            SmoothTerm(term=h, lipschitz_grad=1.0)


def test_array_holders_compare_by_identity():
    # problems, terms, configurations and certificates hold arrays: == is
    # identity, gives a bool, and each of them hashes
    spec = GenSpec(family="smooth-composite", n=8, m=3, seed=0)
    p, q = generate(spec), generate(spec)
    cfg = make_config("prox-lin-al", p, rho=1.0)
    pairs = [
        (p, q), (p.f, q.f), (p.smooth, q.smooth), (p.smooth.term, q.smooth.term),
        (Box(lo=[0.0], hi=[1.0]), Box(lo=[0.0], hi=[1.0])),
        (Separable((Zero(1), Zero(2))), Separable((Zero(1), Zero(2)))),
        (cfg, make_config("prox-lin-al", p, rho=1.0)), (certificate(cfg, p), certificate(cfg, p)),
    ]
    for obj, twin in pairs:
        assert (obj == obj) is True and (obj == twin) is False and (obj != twin) is True
        assert hash(obj) == hash(obj)


class TestJsonRoundTrip:
    def test_term_round_trip(self):
        terms = [
            Quadratic(np.eye(2), np.ones(2), 0.5, strong_convexity=1.0),
            L1(0.3, 4),
            Box(lo=[-1.0, 0.0], hi=[1.0, 2.0]),
            Zero(3),
            Separable((Quadratic(np.eye(1), np.zeros(1)), L1(1.0, 2))),
        ]
        for t in terms:
            back = term_from_json(term_to_json(t))
            assert type(back) is type(t)
            assert back.dim == t.dim

    def test_problem_round_trip(self, tmp_path):
        p = simple_qp()
        path = tmp_path / "p.json"
        save_problem(p, path)
        q = load_problem(path)
        assert_allclose(q.A, p.A)
        assert_allclose(q.b, p.b)
        assert_allclose(q.f.H, p.f.H)
        assert_allclose(q.feasible_point, p.feasible_point)
        assert q.sigma == p.sigma

    def test_block_round_trip(self):
        rng = np.random.default_rng(2)
        bp = BlockProblem(
            f_term=Quadratic(np.eye(2), rng.standard_normal(2)),
            g_term=L1(0.4, 3),
            A=rng.standard_normal((3, 2)),
            B=rng.standard_normal((3, 3)),
            b=np.zeros(3),
            feasible_point=np.zeros(5),
        )
        back = problem_from_json(problem_to_json(bp))
        assert back.n1 is not None
        (A, f), (B, g) = back.blocks
        assert_allclose(A, bp.blocks[0][0])
        assert_allclose(B, bp.blocks[1][0])
        assert g.weight == bp.blocks[1][1].weight
        assert f.strong_convexity == bp.blocks[0][1].strong_convexity

    def test_smooth_round_trip(self):
        h = SmoothTerm(term=Quadratic(np.eye(2), np.ones(2)), lipschitz_grad=1.0)
        p = ConstrainedProblem(
            f=Quadratic(np.eye(2), np.zeros(2), strong_convexity=1.0),
            A=[[1.0, 1.0]],
            b=[0.0],
            smooth=h,
        )
        back = problem_from_json(problem_to_json(p))
        assert back.smooth is not None
        assert back.smooth.lipschitz_grad == 1.0
        assert back.sigma == 1.0


def pinned_block():
    """min 0.5 u'Hu + q'u + 0.5 + 0.5 ||v||_1  s.t.  u + B v = b, in literal data."""
    return BlockProblem(
        f_term=Quadratic(H=[[2.0, 0.0], [0.0, 1.0]], q=[1.0, -1.0], r=0.5, strong_convexity=1.0),
        g_term=L1(weight=0.5, dim=2),
        A=[[1.0, 0.0], [0.0, 1.0]],
        B=[[1.0, 2.0], [0.0, -1.0]],
        b=[1.0, 2.0],
        feasible_point=[1.0, 2.0, 0.0, 0.0],
    )


# pinned_block() as save_problem wrote it when block problems had a class of
# their own: such files must keep loading into an equal problem
EARLIER_FILE = (
    '{"A": [[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 0.0, -1.0]], "b": [1.0, 2.0], '
    '"block": {"n1": 2, "sigma_f": 1.0, "sigma_g": 0.0}, "f": {"kind": "separable", '
    '"parts": [{"H": [[2.0, 0.0], [0.0, 1.0]], "kind": "quadratic", "q": [1.0, -1.0], '
    '"r": 0.5, "strong_convexity": 1.0}, {"dim": 2, "kind": "l1", "weight": 0.5}]}, '
    '"feasible_point": [1.0, 2.0, 0.0, 0.0], "h": null, "m": 2, "n": 4, "sigma": 0.0}\n'
)


class TestBlockFileFormat:
    def test_layout_is_pinned(self):
        assert problem_to_json(pinned_block()) == {
            "n": 4,
            "m": 2,
            "A": [[1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 0.0, -1.0]],
            "b": [1.0, 2.0],
            "f": {
                "kind": "separable",
                "parts": [
                    {
                        "kind": "quadratic",
                        "H": [[2.0, 0.0], [0.0, 1.0]],
                        "q": [1.0, -1.0],
                        "r": 0.5,
                        "strong_convexity": 1.0,
                    },
                    {"kind": "l1", "weight": 0.5, "dim": 2},
                ],
            },
            "h": None,
            "sigma": 0.0,
            "block": {"n1": 2, "sigma_f": 1.0, "sigma_g": 0.0},
            "feasible_point": [1.0, 2.0, 0.0, 0.0],
        }

    def test_earlier_file_loads_into_an_equal_problem(self, tmp_path):
        path = tmp_path / "earlier.json"
        path.write_text(EARLIER_FILE, encoding="utf-8")
        p, q = load_problem(path), pinned_block()
        assert p.n1 == q.n1 == 2
        assert problem_to_json(p) == problem_to_json(q)
        for (A, f), (B, g) in zip(p.blocks, q.blocks):
            assert np.array_equal(A, B) and A.flags.c_contiguous
            assert term_to_json(f) == term_to_json(g)
        save_problem(q, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text(encoding="utf-8") == EARLIER_FILE

    @pytest.mark.parametrize("n1", [2, 3])
    def test_any_part_boundary_loads(self, n1):
        f = Separable((Quadratic(np.eye(2), np.zeros(2)), L1(0.5, 1), Box(-np.ones(1), np.ones(1))))
        flat = ConstrainedProblem(f=f, A=np.ones((1, 4)), b=[0.0])
        doc = problem_to_json(flat)
        doc["block"] = {"n1": n1}
        p = problem_from_json(doc)
        (A1, f1), (A2, f2) = p.blocks
        assert (A1.shape, A2.shape) == ((1, n1), (1, 4 - n1))
        assert f1.dim == n1 and f2.dim == 4 - n1
        assert problem_to_json(flatten_block(p)) == problem_to_json(flat)

    @pytest.mark.parametrize("n1", [0, 1, 4, 2.5, "2"])
    def test_n1_off_a_part_boundary_is_a_data_error(self, n1):
        doc = problem_to_json(pinned_block())
        doc["block"]["n1"] = n1
        with pytest.raises(DataError, match="boundary"):
            problem_from_json(doc)

    def test_unsplit_objective_is_a_data_error(self):
        flat = ConstrainedProblem(f=Zero(2), A=[[1.0, 1.0]], b=[0.0])
        doc = problem_to_json(flat)
        doc["block"] = {"n1": 1}
        with pytest.raises(DataError, match="boundary"):
            problem_from_json(doc)

    def test_n1_off_a_part_boundary_is_a_config_error(self):
        p = pinned_block()
        with pytest.raises(ConfigError, match="boundary"):
            ConstrainedProblem(f=p.f, A=p.A, b=p.b, n1=1)


@pytest.mark.parametrize("sigma", [7.0, 1.0, 1e-6])
def test_block_file_sigma_is_checked_as_a_flat_file_sigma_is(sigma):
    # sigma = min(sigma_f, sigma_g) = 0 on this file; 1.0 is sigma_g
    block = problem_to_json(generate(GenSpec(family="block-qp", n=12, m=4, sigma=1.0, seed=2)))
    assert block["sigma"] == 0.0 and block["block"]["sigma_g"] == 1.0
    messages = []
    for doc in (block, dict(block, block=None)):
        doc["sigma"] = sigma
        match = "does not equal the declared strong convexity 0.0 of Psi"
        with pytest.raises(ConfigError, match=match) as exc:
            problem_from_json(doc)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "make,message",
    [
        (
            lambda v: Quadratic(np.eye(2), np.zeros(2), strong_convexity=v),
            "strong_convexity must be >= 0 and finite",
        ),
        (lambda v: Quadratic(np.eye(2), np.zeros(2), r=v), "r must be finite"),
        (lambda v: L1(weight=v, dim=2), "l1 weight must be >= 0 and finite"),
        (
            lambda v: SmoothTerm(Quadratic(np.eye(2), np.zeros(2)), lipschitz_grad=v),
            "lipschitz_grad must be positive and finite",
        ),
        (lambda v: GenSpec(family="eq-qp", n=4, m=2, sigma=v), "sigma must be >= 0 and finite"),
        (
            lambda v: GenSpec(family="eq-qp", n=4, m=2, conditioning=v),
            "conditioning must be >= 1 and finite",
        ),
        (lambda v: ReferenceSolution(np.zeros(2), np.zeros(1), 0.0, c=v), "c must be >= 0 and finite"),
        (
            lambda v: bound_constant(np.eye(2), np.zeros(2), np.zeros(2), np.zeros(1), v, 1.0, 0.0, 1),
            "mu must be positive and finite",
        ),
        (
            lambda v: resolve_params(
                simple_qp(), RunParams(make_config("prox-al", simple_qp(), rho=1.0), mu=v)
            ),
            "mu must be finite",
        ),
    ],
    ids=[
        "strong_convexity", "r", "l1-weight", "lipschitz_grad", "gen-sigma", "gen-conditioning",
        "reference-c", "bound-mu", "run-mu",
    ],
)
def test_non_finite_scalar_declaration_refused(make, message, value):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}, got {value}$"):
        make(value)


def _set_f_sigma(value, sigma):
    def edit(doc):
        doc["f"]["strong_convexity"] = value
        doc["sigma"] = sigma

    return edit


# edits of a file's declarations and recorded copies that no sigma may survive
SIGMA_EDITS = {
    "f-nan-sigma-10": ("eq-qp", _set_f_sigma(math.nan, 10.0), "strong_convexity must be"),
    "f-10-sigma-10": ("eq-qp", _set_f_sigma(10.0, 10.0), "exceeds lambda_min(H)"),
    "sigma-nan": ("eq-qp", lambda doc: doc.update(sigma=math.nan), "sigma must be finite, got nan"),
    "sigma_f-nan": (
        "block-qp",
        lambda doc: doc["block"].update(sigma_f=math.nan),
        "sigma_f must be finite, got nan",
    ),
    "sigma_g-nan": (
        "block-qp",
        lambda doc: doc["block"].update(sigma_g=math.nan),
        "sigma_g must be finite, got nan",
    ),
}


@pytest.mark.parametrize("case", sorted(SIGMA_EDITS))
def test_recorded_sigma_is_checked_against_the_terms(case):
    # lambda_min(H) = 0.01 on the eq-qp file; sigma is derived from the
    # terms, so only a recorded copy that equals it is read
    family, edit, message = SIGMA_EDITS[case]
    prob = generate(GenSpec(family=family, n=10, m=3, sigma=0.01, seed=1))
    doc = problem_to_json(prob)
    assert problem_to_json(problem_from_json(doc)) == doc
    edit(doc)
    with pytest.raises(ConfigError, match=re.escape(message)):
        problem_from_json(doc)


def test_sigma_is_derived_from_the_terms():
    f = Quadratic(np.eye(2), np.zeros(2), strong_convexity=0.5)
    h = SmoothTerm(Quadratic(0.25 * np.eye(2), np.zeros(2), strong_convexity=0.25), 0.25)
    assert ConstrainedProblem(f, [[1.0, 1.0]], [0.0], smooth=h).sigma == 0.75
    assert ConstrainedProblem(Separable((f, L1(1.0, 1))), [[1.0, 1.0, 1.0]], [3.0]).sigma == 0.0
    with pytest.raises(TypeError, match="sigma"):
        ConstrainedProblem(f, [[1.0, 1.0]], [0.0], sigma=0.5)


def test_one_decomposition_per_quadratic(tmp_path, monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(S):
        shapes.append(S.shape)
        return eigvalsh(S)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    prob = generate(GenSpec(family="eq-qp", n=40, m=10, sigma=1.0, seed=0))
    assert shapes == [(40, 40)]
    save_problem(prob, tmp_path / "p.json")
    shapes.clear()
    load_problem(tmp_path / "p.json")
    assert shapes == [(40, 40)]
    # f and h of a smooth-composite problem: one each, and SmoothTerm reads
    # lambda_max(H) from its quadratic
    shapes.clear()
    prob = generate(GenSpec(family="smooth-composite", n=40, m=10, sigma=1.0, seed=0))
    assert shapes == [(40, 40)] * 2
    save_problem(prob, tmp_path / "s.json")
    shapes.clear()
    load_problem(tmp_path / "s.json")
    assert shapes == [(40, 40)] * 2


def term_kinds_file(block):
    """A problem file with a term of every kind: flat with a smooth h, or
    split at n1 = 2 after its quadratic part."""
    f = Separable(
        (
            Quadratic(2 * np.eye(2), np.ones(2), r=0.5, strong_convexity=2.0),
            L1(0.5, 1),
            Box(-np.ones(1), np.ones(1)),
            Zero(1),
        )
    )
    h = None if block else SmoothTerm(Quadratic(np.eye(5), np.zeros(5)), lipschitz_grad=1.0)
    p = ConstrainedProblem(f, np.ones((1, 5)), [0.0], h, np.zeros(5), 2 if block else None)
    return problem_to_json(p)


# every scalar field of a problem file: (in the block file, path, a count)
SCALAR_FIELDS = {
    "sigma": (False, ("sigma",), False),
    "n": (False, ("n",), True),
    "m": (False, ("m",), True),
    "block.n1": (True, ("block", "n1"), True),
    "block.sigma_f": (True, ("block", "sigma_f"), False),
    "block.sigma_g": (True, ("block", "sigma_g"), False),
    "weight": (False, ("f", "parts", 1, "weight"), False),
    "dim": (False, ("f", "parts", 1, "dim"), True),
    "zero-dim": (False, ("f", "parts", 3, "dim"), True),
    "r": (False, ("f", "parts", 0, "r"), False),
    "strong_convexity": (False, ("f", "parts", 0, "strong_convexity"), False),
    "lipschitz_grad": (False, ("h", "lipschitz_grad"), False),
}
# the entries of the file's arrays, one per array
ARRAY_ENTRIES = {
    "A": ("A", 0, 0),
    "b": ("b", 0),
    "feasible_point": ("feasible_point", 0),
    "H": ("f", "parts", 0, "H", 1, 1),
    "q": ("f", "parts", 0, "q", 0),
    "lo": ("f", "parts", 2, "lo", 0),
    "hi": ("f", "parts", 2, "hi", 0),
    "h-H": ("h", "term", "H", 0, 0),
}
# a value of the wrong JSON type made from the value it replaces: the same
# number as a string, a boolean, and where a count belongs a fraction and a float
WRONG_TYPES = {"string": str, "true": lambda v: True, "fraction": lambda v: v + 0.5, "float": float}


def wrong_type_file(tmp_path, block, path, wrong):
    doc = term_kinds_file(block)
    assert problem_to_json(problem_from_json(doc)) == doc  # the file as written loads
    *parents, key = path
    node = functools.reduce(operator.getitem, parents, doc)
    node[key] = WRONG_TYPES[wrong](node[key])
    file = tmp_path / "p.json"
    file.write_text(json.dumps(doc))
    return file


@pytest.mark.parametrize(
    "field,wrong",
    [
        (field, wrong)
        for field, (_, _, count) in SCALAR_FIELDS.items()
        for wrong in ("string", "true") + (("fraction", "float") if count else ())
    ],
)
def test_scalar_of_a_wrong_json_type_is_a_data_error(tmp_path, field, wrong):
    block, path, _ = SCALAR_FIELDS[field]
    with pytest.raises(DataError):
        load_problem(wrong_type_file(tmp_path, block, path, wrong))


@pytest.mark.parametrize("wrong", ["string", "true"])
@pytest.mark.parametrize("array", sorted(ARRAY_ENTRIES))
def test_array_entry_of_a_wrong_json_type_is_a_data_error(tmp_path, array, wrong):
    path = ARRAY_ENTRIES[array]
    name = [key for key in path if isinstance(key, str)][-1]
    with pytest.raises(DataError, match=f"an entry of {name} must be a number"):
        load_problem(wrong_type_file(tmp_path, False, path, wrong))


@pytest.mark.parametrize(
    "value,kwargs,error,message",
    [
        (2, {}, None, 2.0),
        (np.float64(0.5), {"lo": 0, "strict": True}, None, 0.5),
        (np.int64(3), {"lo": 1, "integer": True}, None, 3),
        (True, {}, TypeError, "x must be a number, got True"),
        ("1.0", {}, TypeError, "x must be a number, got '1.0'"),
        (None, {}, TypeError, "x must be a number, got None"),
        (np.bool_(True), {"integer": True}, TypeError, "x must be an integer, got "),
        (4.0, {"integer": True}, TypeError, "x must be an integer, got 4.0"),
        (math.nan, {"lo": 0}, ConfigError, "x must be >= 0 and finite, got nan"),
        (-math.inf, {}, ConfigError, "x must be finite, got -inf"),
        (10**400, {}, ConfigError, "x must be finite, got 1000"),
        (0, {"lo": 0, "strict": True}, ConfigError, "x must be positive and finite, got 0"),
        (0, {"lo": 1, "hi": 9, "integer": True}, ConfigError, "x must be >= 1 and <= 9, got 0"),
        (10, {"lo": 1, "hi": 9, "integer": True}, ConfigError, "x must be >= 1 and <= 9, got 10"),
    ],
)
def test_number_is_the_one_rule(value, kwargs, error, message):
    # message is the returned value when nothing is raised
    if error is None:
        got = number(value, "x", **kwargs)
        assert got == message and type(got) is type(message)
    else:
        with pytest.raises(error, match="^" + re.escape(message)):
            number(value, "x", **kwargs)
