import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from flagopt import DegenerateSubproblemError, NumericalError, linalg
from flagopt.linalg import Pencil, solve_spd


def random_psd(rng, n, shift=0.0):
    M = rng.standard_normal((n, n))
    return M @ M.T + shift * np.eye(n)


def test_pencil_routes_follow_the_values_of_c():
    rng = np.random.default_rng(0)
    H0, K0 = random_psd(rng, 8), random_psd(rng, 8, 1.0)
    pencil = Pencil(H0, K0)
    rhs = rng.standard_normal(8)
    for c, route in ((1.0, "cholesky"), (1.0, "cholesky"), (2.5, "pencil-eigh"), (60.0, "pencil-eigh")):
        x = pencil.solve(rhs, c)
        assert pencil.route == route
        assert_allclose((H0 + c * K0) @ x, rhs, atol=1e-10)
    assert pencil.counts == {"cholesky": 1, "pencil-eigh": 1, "per-step": 0, "refinements": 0}


@pytest.mark.parametrize("route", ["cholesky", "pencil-eigh"])
def test_corrupted_factor_fails_the_residual_gate(route):
    # the mutation check of the gate: a stored factor that no longer matches
    # the pencil must raise, not return a wrong solution
    rng = np.random.default_rng(1)
    pencil = Pencil(random_psd(rng, 8), random_psd(rng, 8, 1.0))
    rhs = rng.standard_normal(8)
    c = 1.0 if route == "cholesky" else 2.5
    pencil.solve(rhs, 1.0)
    pencil.solve(rhs, c)
    assert pencil.route == route
    if route == "cholesky":
        pencil.Li[0, 0] *= 1.5
    else:
        pencil.lam[-1] *= 2.0
    with pytest.raises(NumericalError, match="residual"):
        pencil.solve(rhs, c)


def test_fallback_when_neither_end_is_definite():
    H0, K0 = np.diag([1.0, 0.0, 2.0]), np.diag([0.0, 1.0, 1.0])
    pencil = Pencil(H0, K0)
    rhs = np.array([1.0, 2.0, 3.0])
    for c in (1.0, 3.0, 7.0):
        assert_allclose(pencil.solve(rhs, c), rhs / np.diag(H0 + c * K0))
    assert pencil.route == "per-step"
    assert pencil.counts == {"cholesky": 1, "pencil-eigh": 0, "per-step": 2, "refinements": 0}


def test_fallback_keeps_degenerate_error():
    pencil = Pencil(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    for c in (1.0, 2.0):
        with pytest.raises(DegenerateSubproblemError):
            pencil.solve(np.ones(2), c)
    assert pencil.route == "per-step"


def test_ill_conditioned_end_is_not_used():
    # K0 passes a Cholesky, but its condition number 1e14 is past
    # PENCIL_COND: the pencil is diagonalized from the H0 end instead
    rng = np.random.default_rng(2)
    H0, K0 = random_psd(rng, 6, 1.0), np.diag([1.0, 2.0, 1.0, 3.0, 1.0, 1e-14])
    pencil = Pencil(H0, K0)
    rhs = rng.standard_normal(6)
    for c in (1.0, 2.0):
        x = pencil.solve(rhs, c)
    assert pencil.route == "pencil-eigh" and pencil.mirrored
    assert_allclose((H0 + 2.0 * K0) @ x, rhs, atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_spd_rejects_a_non_finite_rhs(bad):
    with pytest.raises(NumericalError, match="residual"):
        solve_spd(np.eye(2), [bad, 0.0])


@pytest.mark.parametrize(
    "H0,K0,c_values,route",
    [
        (np.eye(2), np.eye(2), (1.0,), "cholesky"),
        (np.eye(2), np.eye(2), (1.0, 2.0), "pencil-eigh"),
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), (1.0, 2.0), "per-step"),
    ],
)
def test_nan_rhs_fails_the_residual_gate_on_every_route(H0, K0, c_values, route):
    # a NaN residual compares false with any bound, so the gate must be
    # "not resid <= tol" rather than "resid > tol"
    pencil = Pencil(H0, K0)
    for c in c_values[:-1]:
        pencil.solve(np.ones(2), c)
    with pytest.raises(NumericalError, match="residual"):
        pencil.solve(np.array([np.nan, 1.0]), c_values[-1])
    assert pencil.route == route


def test_clean_solves_are_not_refined():
    rng = np.random.default_rng(3)
    H0, K0 = random_psd(rng, 8), random_psd(rng, 8, 1.0)
    pencil = Pencil(H0, K0)
    for c in (1.0, 1.0, 2.5, 60.0):
        pencil.solve(rng.standard_normal(8), c)
    assert pencil.counts["refinements"] == 0


@pytest.mark.parametrize("route", ["cholesky", "pencil-eigh"])
def test_slightly_perturbed_factor_is_refined(route):
    # a factor off by about 1e-9 relative fails the first gate check; one
    # refinement step brings the solve back within it
    rng = np.random.default_rng(1)
    H0, K0 = random_psd(rng, 8), random_psd(rng, 8, 1.0)
    pencil = Pencil(H0, K0)
    rhs = rng.standard_normal(8)
    c = 1.0 if route == "cholesky" else 2.5
    pencil.solve(rhs, 1.0)
    pencil.solve(rhs, c)
    assert pencil.route == route and pencil.counts["refinements"] == 0
    if route == "cholesky":
        pencil.Li[0, 0] *= 1.0 + 1e-9
    else:
        pencil.W *= 1.0 + 1e-9
    x = pencil.solve(rhs, c)
    assert pencil.counts["refinements"] == 1
    assert np.linalg.norm((H0 + c * K0) @ x - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_per_step_route_counts_refinements(monkeypatch):
    # the per-step route refines inside solve_spd; the count reaches the pencil
    H0, K0 = np.diag([1.0, 0.0, 2.0]), np.diag([0.0, 1.0, 1.0])
    pencil = Pencil(H0, K0)
    for c in (1.0, 3.0):
        pencil.solve(np.ones(3), c)
    assert pencil.route == "per-step" and pencil.counts["refinements"] == 0
    factor = linalg._inverse_factor
    monkeypatch.setattr(linalg, "_inverse_factor", lambda V: factor(V) * (1.0 + 1e-9))
    pencil.solve(np.ones(3), 7.0)
    assert pencil.counts["refinements"] == 1


@pytest.fixture
def cholesky_fails(monkeypatch):
    def fail(V):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(linalg, "_inverse_factor", fail)


def test_solve_spd_fallback_passes_the_gate(cholesky_fails):
    rng = np.random.default_rng(4)
    V, rhs = random_psd(rng, 6, 1.0), rng.standard_normal(6)
    x = solve_spd(V, rhs)
    assert np.linalg.norm(V @ x - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_solve_spd_fallback_rejects_a_nan_rhs(cholesky_fails):
    rng = np.random.default_rng(4)
    V = random_psd(rng, 6, 1.0)
    with pytest.raises(NumericalError, match="residual"):
        solve_spd(V, np.full(6, np.nan))


# scipy serves as the independent oracle of the numpy factorizations


@pytest.mark.parametrize("mirrored", [0, 1])
def test_pencil_reduction_matches_scipy_generalized_eigh(mirrored):
    rng = np.random.default_rng(5)
    H0 = random_psd(rng, 30, 1.0)
    # a K0 past PENCIL_COND sends the pencil to its mirrored form
    K0 = np.diag(np.r_[rng.uniform(1.0, 3.0, 29), 1e-14]) if mirrored else random_psd(rng, 30, 1.0)
    X, Y = (K0, H0) if mirrored else (H0, K0)
    pencil = Pencil(H0, K0)
    for c in (1.0, 2.0):
        pencil.solve(np.ones(30), c)
    assert pencil.route == "pencil-eigh" and pencil.mirrored == mirrored
    lam = scipy.linalg.eigh(X, Y, eigvals_only=True)
    assert_allclose(pencil.lam, lam, rtol=0, atol=1e-10 * np.max(np.abs(lam)))
    W = pencil.W
    assert_allclose(W.T @ Y @ W, np.eye(30), rtol=0, atol=1e-10)
    assert_allclose(W.T @ X @ W, np.diag(pencil.lam), rtol=0, atol=1e-10 * np.max(np.abs(lam)))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 400])
def test_blocked_triangular_inverse(n):
    rng = np.random.default_rng(n)
    L = scipy.linalg.cholesky(random_psd(rng, n, float(n)), lower=True)
    Li = linalg._tril_inv(L)
    assert not np.triu(Li, 1).any()
    assert_allclose(Li @ L, np.eye(n), rtol=0, atol=1e-12)
    oracle = scipy.linalg.solve_triangular(L, np.eye(n), lower=True)
    assert np.linalg.norm(Li - oracle) <= 1e-10 * np.linalg.norm(oracle)
