import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from flagopt import ConfigError, DegenerateSubproblemError, NumericalError, linalg
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
    assert pencil.counts == {"cholesky": 1, "pencil-eigh": 1, "refinements": 0}


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
    # singular H0 and K0: the pencil is reduced against V(c1), which is
    # definite, so no step needs a fresh factorization
    H0, K0 = np.diag([1.0, 0.0, 2.0]), np.diag([0.0, 1.0, 1.0])
    pencil = Pencil(H0, K0)
    rhs = np.array([1.0, 2.0, 3.0])
    for c in (1.0, 3.0, 7.0):
        assert_allclose(pencil.solve(rhs, c), rhs / np.diag(H0 + c * K0))
    assert pencil.route == "pencil-eigh"
    assert pencil.counts == {"cholesky": 1, "pencil-eigh": 1, "refinements": 0}


def test_fallback_keeps_degenerate_error():
    pencil = Pencil(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    for c in (1.0, 2.0):
        with pytest.raises(DegenerateSubproblemError, match="lambda_min 0.000e"):
            pencil.solve(np.ones(2), c)
    assert pencil.route is None


@pytest.mark.parametrize(
    "K0,c",
    [
        (np.diag([1.0, np.inf]), 1.0),  # K0 overflowed when it was formed
        (np.array([[1.0, 0.9e308], [0.9e308, 1.0]]), 1.0),  # V(c) finite, V + V' not
        (np.diag([1.0, 1e307]), 60.0),  # c K0 overflows
    ],
)
def test_overflowing_pencil_is_one_config_error(K0, c):
    # refused before any factorization, without a warning, naming the leaf and c
    pencil = Pencil(np.eye(2), K0, "leaf")
    with pytest.raises(ConfigError) as exc:
        pencil.solve(np.ones(2), c)
    assert str(exc.value) == f"leaf: V(c) = H0 + c K0 overflows at c = {c:g}"
    assert pencil.route is None and pencil.counts["cholesky"] == 0


def test_failed_eigh_is_one_numerical_error(monkeypatch):
    rng = np.random.default_rng(6)
    pencil = Pencil(random_psd(rng, 4), random_psd(rng, 4, 1.0), "leaf")
    pencil.solve(np.ones(4), 1.0)

    def fail(S):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="^leaf: pencil eigh failed") as exc:
        pencil.solve(np.ones(4), 2.0)
    assert "\n" not in str(exc.value)


def test_overflowing_symmetrization_is_one_config_error():
    # a finite symmetric matrix whose M + M' overflows is refused by name,
    # without a warning, before eigvalsh sees an inf
    M = np.array([[1e308, 1.0], [1.0, 1.0]])
    for check in (linalg.check_symmetric, linalg.spectrum, linalg.check_psd):
        with pytest.raises(ConfigError) as exc:
            check(M, "M2")
        assert str(exc.value) == "M2 overflows when symmetrized"


def test_failed_eigvalsh_is_one_numerical_error(monkeypatch):
    def fail(S):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalError) as exc:
        linalg.spectrum(np.eye(3), "certificate Q")
    assert str(exc.value) == "certificate Q: eigvalsh failed (Eigenvalues did not converge)"


def test_ill_conditioned_end_is_not_used():
    # K0 has condition number 1e14; the reduction factors only V(c1), so
    # the solve stays as accurate as with a well-conditioned K0
    rng = np.random.default_rng(2)
    H0, K0 = random_psd(rng, 6, 1.0), np.diag([1.0, 2.0, 1.0, 3.0, 1.0, 1e-14])
    pencil = Pencil(H0, K0)
    rhs = rng.standard_normal(6)
    for c in (1.0, 2.0):
        x = pencil.solve(rhs, c)
    assert pencil.route == "pencil-eigh"
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


def test_stacked_rows_are_gated_one_by_one():
    # a stack is solved at once and each row gated on its own norm: with
    # Li[0, 0] off by 1e-9, only the row whose rhs reads coordinate 0 fails,
    # and it is solved again alone (bitwise the one-vector solve, which also
    # refines); a NaN row raises the one-vector message
    rng = np.random.default_rng(1)
    H0, K0 = random_psd(rng, 8), random_psd(rng, 8, 1.0)
    pencil = Pencil(H0, K0)
    rhs = rng.standard_normal((3, 8))
    rhs[[0, 2], 0] = 0.0
    pencil.solve(rhs, 1.0)
    assert pencil.counts["refinements"] == 0
    pencil.Li[0, 0] *= 1.0 + 1e-9
    x = pencil.solve(rhs, 1.0)
    assert x.shape == (3, 8) and pencil.counts["refinements"] == 1
    assert np.array_equal(x[1], pencil.solve(rhs[1], 1.0))
    assert pencil.counts["refinements"] == 2
    for row, b in zip(x, rhs):
        assert np.linalg.norm((H0 + K0) @ row - b) <= 1e-10 * (1.0 + np.linalg.norm(b))
    rhs[1, 3] = np.nan
    with pytest.raises(NumericalError, match="residual not finite"):
        pencil.solve(rhs, 1.0)


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


def pencil_ends(case, rng):
    # 0: both ends definite; 1: a K0 with condition 1e14; 2: H0 and K0 of
    # rank 20 at n = 30, which put eigenvalues at both ends of [0, 1/c1]
    if case == 2:
        M, N = rng.standard_normal((30, 20)), rng.standard_normal((30, 20))
        return M @ M.T, N @ N.T
    H0 = random_psd(rng, 30, 1.0)
    K0 = np.diag(np.r_[rng.uniform(1.0, 3.0, 29), 1e-14]) if case else random_psd(rng, 30, 1.0)
    return H0, K0


@pytest.mark.parametrize("case", [0, 1, 2])
def test_pencil_reduction_matches_scipy_generalized_eigh(case):
    rng = np.random.default_rng(5)
    H0, K0 = pencil_ends(case, rng)
    c1 = 2.0
    pencil = Pencil(H0, K0)
    for c in (c1, 5.0):
        pencil.solve(np.ones(30), c)
    assert pencil.route == "pencil-eigh"
    V1 = H0 + c1 * K0
    lam = scipy.linalg.eigh(K0, V1, eigvals_only=True)
    assert_allclose(pencil.lam, lam, rtol=0, atol=1e-10 * np.max(np.abs(lam)))
    assert np.all(pencil.lam >= -1e-12) and np.all(pencil.lam <= 1.0 / c1 + 1e-12)
    W = pencil.W
    assert_allclose(W.T @ V1 @ W, np.eye(30), rtol=0, atol=1e-10)
    assert_allclose(W.T @ K0 @ W, np.diag(pencil.lam), rtol=0, atol=1e-10 * np.max(np.abs(lam)))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 400])
def test_blocked_triangular_inverse(n):
    rng = np.random.default_rng(n)
    L = scipy.linalg.cholesky(random_psd(rng, n, float(n)), lower=True)
    Li = linalg._tril_inv(L)
    assert not np.triu(Li, 1).any()
    assert_allclose(Li @ L, np.eye(n), rtol=0, atol=1e-12)
    oracle = scipy.linalg.solve_triangular(L, np.eye(n), lower=True)
    assert np.linalg.norm(Li - oracle) <= 1e-10 * np.linalg.norm(oracle)
