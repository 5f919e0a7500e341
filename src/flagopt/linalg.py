"""Small dense symmetric linear-algebra helpers shared across the package."""

import math

import numpy as np

from .errors import ConfigError, DegenerateSubproblemError, NumericalError

SYM_TOL = 1e-10
PSD_TOL = 1e-10
SINGULAR_FLOOR = 1e-12
PENCIL_COND = 1e10
ROUTES = ("cholesky", "pencil-eigh", "per-step")
TRIL_LEAF = 64


def as_array(a, dtype=float):
    return np.ascontiguousarray(np.asarray(a, dtype=dtype))


def rowdot(a, b):
    """<a, b> along the last axis: a float for two vectors, one value per row
    when either is a (k, n) stack of points."""
    if a.ndim == 1 and b.ndim == 1:
        return float(a @ b)
    return np.einsum("...i,...i->...", a, b)


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
    return np.count_nonzero(M) == np.count_nonzero(np.diagonal(M))


def _tril_inv(L):
    """L^-1 of a lower-triangular L by 2x2 blocks, inv([[A, 0], [B, C]]) =
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]], with np.linalg.inv at n <= TRIL_LEAF.
    (np.linalg.inv of the whole L is a general LU: several times slower.)"""
    n = L.shape[0]
    if n <= TRIL_LEAF:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    Ai, Ci = _tril_inv(L[:h, :h]), _tril_inv(L[h:, h:])
    Li = np.zeros_like(L)
    Li[:h, :h], Li[h:, h:] = Ai, Ci
    Li[h:, :h] = -Ci @ (L[h:, :h] @ Ai)
    return Li


def _inverse_factor(V):
    """Li = L^-1 for the Cholesky factor L of V = L L', so that V^-1 r =
    Li' (Li r). LinAlgError when V is not positive definite."""
    return _tril_inv(np.linalg.cholesky(V))


def _inverse_factor_solve(Li, r):
    # ndarray.dot: at n <= 20 the @ operator's dispatch doubles the cost
    return Li.T.dot(Li.dot(r))


def _refined(inv, apply, rhs, name, counts=None):
    """inv(rhs), refined by one step only when it fails the residual gate
    ||rhs - apply(x)|| <= 1e-10 * (1 + ||rhs||); NumericalError when the
    refined solution fails the gate too, or at once when rhs is not finite.
    A NaN residual fails both checks. counts["refinements"] (when given)
    counts the refinement steps taken."""
    tol = 1e-10 * (1.0 + math.sqrt(rhs @ rhs))
    if not math.isfinite(tol) and not np.isfinite(rhs).all():
        raise NumericalError(f"{name}: linear solve residual not finite (non-finite rhs)")
    x = inv(rhs)
    r = rhs - apply(x)
    if not math.sqrt(r @ r) <= tol:
        if counts is not None:
            counts["refinements"] += 1
        x = x + inv(r)
        r = rhs - apply(x)
        resid = math.sqrt(r @ r)
        if not resid <= tol:
            raise NumericalError(f"{name}: linear solve residual {resid:.3e} too large")
    return x


def solve_spd(V, rhs, name="subproblem", counts=None):
    """Solve V x = rhs for symmetric positive definite V.

    Cholesky (applied as two products with the inverse factor), or an LU
    solve when the factorization fails, both through _refined's residual
    gate (refined only when the first solve fails it). Raises
    DegenerateSubproblemError when the smallest eigenvalue is below 1e-12,
    NumericalError when the refined residual exceeds 1e-10 * (1 + ||rhs||).
    """
    V = 0.5 * (as_array(V) + as_array(V).T)
    rhs = as_array(rhs)
    try:
        Li = _inverse_factor(V)
        inv = lambda r: _inverse_factor_solve(Li, r)
    except np.linalg.LinAlgError:
        lo = lambda_min(V)
        if lo < SINGULAR_FLOOR:
            raise DegenerateSubproblemError(
                f"{name}: effective Hessian is singular "
                f"(lambda_min {lo:.3e} < {SINGULAR_FLOOR:.0e})"
            ) from None
        inv = lambda r: np.linalg.solve(V, r)
    return _refined(inv, V.__matmul__, rhs, name, counts)


class Pencil:
    """Solves (H0 + c K0) x = rhs, H0 and K0 symmetric, for the values of c
    that one run brings.

    While c keeps one value, the inverse Cholesky factor Li of V(c) serves
    every solve. At a second value the pencil is diagonalized once and for
    good by Cholesky reduction (Golub & Van Loan 8.7): with K0 = L L'
    positive definite, Li H0 Li' = U diag(lam) U' and W = Li' U give
    W'K0W = I, W'H0W = diag(lam) and V(c)^-1 = W diag(1 / (lam + c)) W';
    else H0 positive definite gives the mirrored W'H0W = I, W'K0W = diag(lam)
    and W diag(1 / (1 + c lam)) W'.
    An end counts as definite when ||W||_F^2 ||end||_F = trace(end^-1)
    ||end||_F <= PENCIL_COND. With neither, each solve is a solve_spd of V(c).
    Every route goes through _refined: each solve is gated, and refined only
    when it fails the gate. counts holds the factorizations per route and
    the refinement steps.
    """

    def __init__(self, H0, K0, name="subproblem"):
        self.H0, self.K0 = H0, K0
        self.name, self.route = name, None
        self.counts = dict.fromkeys(ROUTES + ("refinements",), 0)

    def _factor(self, c):
        if self.route is None:
            self.V = self.H0 + c * self.K0
            try:
                self.Li, self.route, self.c = _inverse_factor(self.V), "cholesky", c
            except np.linalg.LinAlgError:
                self.route, self.c = "per-step", None
        else:
            self.route, self.V, self.Li = "per-step", None, None
            for mirrored, (X, Y) in enumerate(((self.H0, self.K0), (self.K0, self.H0))):
                try:
                    Li = _inverse_factor(Y)
                    lam, U = np.linalg.eigh(Li @ X @ Li.T)
                except np.linalg.LinAlgError:
                    continue
                W = Li.T @ U
                if np.sum(W * W) * np.linalg.norm(Y) <= PENCIL_COND:
                    self.route, self.lam, self.W, self.mirrored = "pencil-eigh", lam, W, mirrored
                    break
        self.counts[self.route] += self.route != "per-step"

    def solve(self, rhs, c):
        if self.route is None or (self.route == "cholesky" and c != self.c):
            self._factor(c)
        if self.route == "per-step":
            self.counts["per-step"] += 1
            return solve_spd(self.H0 + c * self.K0, rhs, self.name, self.counts)
        if self.route == "cholesky":
            inv, apply = (lambda r: _inverse_factor_solve(self.Li, r)), self.V.__matmul__
        else:
            W, d = self.W, 1.0 / (1.0 + c * self.lam if self.mirrored else self.lam + c)
            inv, apply = (lambda r: W @ (d * (W.T @ r))), (lambda x: self.H0 @ x + c * (self.K0 @ x))
        return _refined(inv, apply, rhs, self.name, self.counts)
