"""Small dense symmetric linear-algebra helpers shared across the package."""

import numpy as np
import scipy.linalg

from .errors import ConfigError, DegenerateSubproblemError, NumericalError

SYM_TOL = 1e-10
PSD_TOL = 1e-10
SINGULAR_FLOOR = 1e-12


def as_array(a, dtype=float):
    return np.ascontiguousarray(np.asarray(a, dtype=dtype))


def check_symmetric(M, name="matrix", tol=SYM_TOL):
    M = as_array(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {M.shape}")
    resid = float(np.max(np.abs(M - M.T), initial=0.0))
    if resid > tol * max(1.0, float(np.max(np.abs(M), initial=0.0))):
        raise ConfigError(f"{name} is not symmetric (residual {resid:.3e})")
    return 0.5 * (M + M.T)


def _spectrum(M):
    # the whole spectrum: LAPACK's index-subset drivers fail ("Internal Error")
    # on some matrices whose extreme eigenvalue is repeated
    M = check_symmetric(M)
    return np.linalg.eigvalsh(M) if M.shape[0] else np.zeros(1)


def lambda_min(M):
    return float(_spectrum(M)[0])


def lambda_max(M):
    return float(_spectrum(M)[-1])


def check_psd(M, name="matrix", tol=PSD_TOL):
    M = check_symmetric(M, name)
    lo = lambda_min(M)
    if lo < -tol:
        raise ConfigError(f"{name} is not positive semidefinite (lambda_min {lo:.3e})")
    return M


def is_diagonal(M):
    M = np.asarray(M)
    return np.count_nonzero(M - np.diag(np.diag(M))) == 0


def solve_spd(V, rhs, name="subproblem"):
    """Solve V x = rhs for symmetric positive definite V.

    Cholesky with one step of iterative refinement; falls back to a
    symmetric-pivot solve on factorization failure. Raises
    DegenerateSubproblemError when the smallest eigenvalue is below 1e-12,
    NumericalError when the refined residual exceeds 1e-10 * (1 + ||rhs||).
    """
    V = 0.5 * (as_array(V) + as_array(V).T)
    rhs = as_array(rhs)
    try:
        factor = scipy.linalg.cho_factor(V, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        if lambda_min(V) < SINGULAR_FLOOR:
            raise DegenerateSubproblemError(
                f"{name}: effective Hessian is singular "
                f"(lambda_min {lambda_min(V):.3e} < {SINGULAR_FLOOR:.0e})"
            ) from None
        x = scipy.linalg.solve(V, rhs, assume_a="sym", check_finite=False)
        return x
    x = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    r = rhs - V @ x
    x = x + scipy.linalg.cho_solve(factor, r, check_finite=False)
    resid = float(np.linalg.norm(rhs - V @ x))
    if resid > 1e-10 * (1.0 + float(np.linalg.norm(rhs))):
        raise NumericalError(f"{name}: linear solve residual {resid:.3e} too large")
    return x
