"""Small dense symmetric linear-algebra helpers shared across the package."""

import math

import numpy as np

from .errors import ConfigError, DegenerateSubproblemError, NumericalError

SYM_TOL = 1e-10
PSD_TOL = 1e-10
SINGULAR_FLOOR = 1e-12
ROUTES = ("cholesky", "pencil-eigh")
TRIL_LEAF = 64


def as_array(a):
    return np.ascontiguousarray(np.asarray(a, dtype=float))


def rowdot(a, b):
    """<a, b> along the last axis: a float for two vectors, one value per point
    when either is a stack of points (leading axes broadcast)."""
    if a.ndim == 1 and b.ndim == 1:
        return float(a @ b)
    return np.einsum("...i,...i->...", a, b)


def check_symmetric(M, name="matrix"):
    M = as_array(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ConfigError(f"{name} has non-finite entries")
    # entries near the float limit overflow here: refused, not warned
    with np.errstate(over="ignore"):
        resid = float(np.max(np.abs(M - M.T), initial=0.0))
        S = 0.5 * (M + M.T)
    if resid > SYM_TOL * max(1.0, float(np.max(np.abs(M), initial=0.0))):
        raise ConfigError(f"{name} is not symmetric (residual {resid:.3e})")
    if not np.isfinite(S).all():
        raise ConfigError(f"{name} overflows when symmetrized")
    return S


def eigvalsh(S, name="matrix"):
    """The ascending eigenvalues of the symmetric S (one 0 when S is empty);
    NumericalError naming `name` when LAPACK fails on S."""
    # the whole spectrum: LAPACK's index-subset drivers fail ("Internal Error")
    # on some matrices whose extreme eigenvalue is repeated
    try:
        return np.linalg.eigvalsh(S) if S.shape[0] else np.zeros(1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{name}: eigvalsh failed ({exc})") from None


def spectrum(M, name="matrix"):
    """The eigenvalues of the symmetric M, ascending (check_symmetric first)."""
    return eigvalsh(check_symmetric(M, name), name)


def lambda_min(M):
    return float(spectrum(M)[0])


def lambda_max(M):
    return float(spectrum(M)[-1])


def require_psd(eigs, name="matrix"):
    """ConfigError naming `name` when its ascending spectrum eigs has an
    eigenvalue below -PSD_TOL."""
    if eigs[0] < -PSD_TOL:
        raise ConfigError(f"{name} is not positive semidefinite (lambda_min {eigs[0]:.3e})")


def check_psd(M, name="matrix"):
    M = check_symmetric(M, name)
    require_psd(eigvalsh(M, name), name)
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


def _refined(inv, apply, rhs, name, counts=None, *args):
    """inv(rhs), refined by one step only when it fails the residual gate
    ||rhs - apply(x)|| <= 1e-10 * (1 + ||rhs||); NumericalError when the
    refined solution fails the gate too, or at once when rhs is not finite.
    A NaN residual fails both checks. counts["refinements"] (when given)
    counts the refinement steps taken; args (a pencil's c) follow rhs in
    each call of inv and apply. A (k, n) stack is solved at once; a row
    failing its own gate is solved again alone, as a vector."""
    if rhs.ndim == 2:
        x, tol = inv(rhs, *args), 1e-10 * (1.0 + np.linalg.norm(rhs, axis=1))
        for i in np.flatnonzero(~(np.linalg.norm(rhs - apply(x, *args), axis=1) <= tol)):
            x[i] = _refined(inv, apply, rhs[i], name, counts, *args)
        return x
    tol = 1e-10 * (1.0 + math.sqrt(rhs.dot(rhs)))
    if not math.isfinite(tol) and not np.isfinite(rhs).all():
        raise NumericalError(f"{name}: linear solve residual not finite (non-finite rhs)")
    x = inv(rhs, *args)
    r = rhs - apply(x, *args)
    if not math.sqrt(r.dot(r)) <= tol:
        if counts is not None:
            counts["refinements"] += 1
        x = x + inv(r, *args)
        r = rhs - apply(x, *args)
        resid = math.sqrt(r.dot(r))
        if not resid <= tol:
            raise NumericalError(f"{name}: linear solve residual {resid:.3e} too large")
    return x


def solve_spd(V, rhs, name="subproblem"):
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
        inv = lambda r: Li.T.dot(Li.dot(r))
    except np.linalg.LinAlgError:
        lo = lambda_min(V)
        if lo < SINGULAR_FLOOR:
            raise DegenerateSubproblemError(
                f"{name}: effective Hessian is singular "
                f"(lambda_min {lo:.3e} < {SINGULAR_FLOOR:.0e})"
            ) from None
        inv = lambda r: np.linalg.solve(V, r)
    return _refined(inv, V.__matmul__, rhs, name)


class Pencil:
    """Solves (H0 + c K0) x = rhs, H0 and K0 symmetric positive semidefinite,
    for the values of c that one run brings.

    At the first value c1 the inverse Cholesky factor Li of V(c1) = L L'
    serves every solve while c keeps that value. At a second value the pencil
    is diagonalized once and for good against that same factor (Cholesky
    reduction, Golub & Van Loan 8.7): Li K0 Li' = U diag(lam) U' and
    W = Li' U give W'V(c1)W = I, W'K0W = diag(lam) and
    V(c)^-1 = W diag(1 / (1 + (c - c1) lam)) W'. H0 >= 0 puts lam in
    [0, 1/c1], so each divisor is at least min(1, c/c1) > 0. When V(c1) has
    no Cholesky factor the pencil raises DegenerateSubproblemError: H0, K0
    >= 0 give null(H0 + c K0) = null(H0) & null(K0), so V(c) is then singular
    at every c > 0; one that overflows (V(c1) + V(c1)') raises ConfigError,
    and an eigh that fails NumericalError.
    Every route goes through _refined: each solve is gated, and refined only
    when it fails the gate. Each factorization binds its route's inv(r, c)
    and apply(x, c) once, on the arrays the pencil holds (Li, V, W, lam),
    so a change made to those in place reaches every later solve. They act on
    rows. counts holds the factorizations per route and the refinement steps.
    """

    def __init__(self, H0, K0, name="subproblem"):
        self.H0, self.K0 = H0, K0
        self.name, self.route = name, None
        self.counts = dict.fromkeys(ROUTES + ("refinements",), 0)

    def _factor(self, c):
        try:
            if self.route is None:
                with np.errstate(over="ignore", invalid="ignore"):
                    V = self.H0 + c * self.K0
                    if not np.isfinite(V + V.T).all():  # lambda_min symmetrizes V
                        raise ConfigError(f"{self.name}: V(c) = H0 + c K0 overflows at c = {c:g}")
                # ndarray.dot: at n <= 20 the @ operator's dispatch doubles the cost
                Li = _inverse_factor(V)
                Lt, Vt = Li.T, V.T
                self.inv, self.apply = (lambda r, c: r.dot(Lt).dot(Li)), (lambda x, c: x.dot(Vt))
                self.Li, self.V, self.c, self.route = Li, V, c, "cholesky"
            else:
                # release V (its closures hold it too) before eigh: peak memory at large n
                Li, self.Li, self.V, self.inv, self.apply = self.Li, None, None, None, None
                lam, U = np.linalg.eigh(Li @ self.K0 @ Li.T)
                W, H0t, K0t, c1 = Li.T @ U, self.H0.T, self.K0.T, self.c
                Wt = W.T
                self.inv = lambda r, c: ((1.0 / (1.0 + (c - c1) * lam)) * r.dot(W)).dot(Wt)
                self.apply = lambda x, c: x.dot(H0t) + c * x.dot(K0t)
                self.lam, self.W, self.route = lam, W, "pencil-eigh"
        except np.linalg.LinAlgError as exc:
            if self.route is None:
                lo = lambda_min(V)
                msg = f"effective Hessian is singular (lambda_min {lo:.3e} at c = {c:.6g})"
                raise DegenerateSubproblemError(f"{self.name}: {msg}") from None
            raise NumericalError(f"{self.name}: pencil eigh failed ({exc})") from None
        self.counts[self.route] += 1

    def solve(self, rhs, c):
        if self.route is None or (self.route == "cholesky" and c != self.c):
            self._factor(c)
        return _refined(self.inv, self.apply, rhs, self.name, self.counts, c)
