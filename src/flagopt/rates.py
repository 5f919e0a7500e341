"""Reference solutions and rate verification.

Two independent reference routes guard against a wrong oracle. Purely
quadratic problems use the exact KKT system. Problems with l1 or box terms
are solved twice (quadratic-penalty continuation with proximal-gradient
acceleration, and a long run of the classic driver), each candidate is
polished to an exact KKT solve on its identified active face, and the two
polished solutions must agree before either is trusted.

verify_rates checks the trajectory's objective gap and feasibility against
B / (2 N^p) and B / (c N^p) row by row and fits a log-log slope to the
combined residual over the trailing decade of iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .driver import RunParams, flag_iterate, initial_state, resolve_params
from .errors import ConfigError, NumericalError, UnreliableReferenceError
from .lagrangian import quad_norm
from .maps import block_sigmas, make_config
from .problems import (
    Box,
    L1,
    Quadratic,
    Separable,
    Zero,
    eval_objective,
    quadratic_data,
    single_problem,
)

REF_TOL = 1e-9
ROUTE_AGREEMENT_TOL = 1e-6
SLOPE_SENTINEL = -99.0


@dataclass(frozen=True)
class ReferenceSolution:
    """Optimal primal/dual pair with the dual-bound radius c >= 2 ||y*||."""

    x_star: np.ndarray
    y_star: np.ndarray
    psi_star: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "x_star", np.asarray(self.x_star, dtype=float))
        object.__setattr__(self, "y_star", np.asarray(self.y_star, dtype=float))
        if self.c < 0:
            raise ConfigError("c must be >= 0")


def kkt_residual(prob, x, y):
    """max of the feasibility norm and the distance of -A'y to the
    subdifferential of Psi at x."""
    sp = single_problem(prob)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    stat = sp.subgrad_dist(x, -(sp.A.T @ y))
    feas = float(np.linalg.norm(sp.A @ x - sp.b))
    return max(stat, feas)


def _smooth_parts(sp):
    """(H, q, r) of all quadratic pieces (zeros on nonsmooth coordinates)
    plus the list of (part, slice) nonsmooth pieces."""
    n = sp.n
    H = np.zeros((n, n))
    q = np.zeros(n)
    r = 0.0
    nonsmooth = []

    def fill(term, offset):
        nonlocal r
        if isinstance(term, Separable):
            for p, s in zip(term.parts, term.slices()):
                fill(p, offset + s.start)
            return
        if isinstance(term, Quadratic):
            s = slice(offset, offset + term.dim)
            H[s, s] = term.H
            q[s] = term.q
            r += term.r
        elif not isinstance(term, Zero):
            nonsmooth.append((term, slice(offset, offset + term.dim)))

    fill(sp.f, 0)
    if sp.smooth is not None:
        H[:, :] += sp.smooth.term.H
        q[:] += sp.smooth.term.q
        r += sp.smooth.term.r
    return H, q, r, nonsmooth


def _solve_kkt(H, A, rhs_top, b):
    n, m = H.shape[0], A.shape[0]
    K = np.block([[H, A.T], [A, np.zeros((m, m))]])
    rhs = np.concatenate([rhs_top, b])
    try:
        sol = scipy.linalg.solve(K, rhs, assume_a="sym")
    except scipy.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    # one refinement step
    sol = sol + np.linalg.lstsq(K, rhs - K @ sol, rcond=None)[0]
    if np.linalg.norm(K @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
        raise NumericalError("KKT system could not be solved accurately")
    return sol[:n], sol[n:]


def _quadratic_reference(sp):
    H, q, _, nonsmooth = _smooth_parts(sp)
    assert not nonsmooth
    x, y = _solve_kkt(H, sp.A, -q, sp.b)
    resid = kkt_residual(sp, x, y)
    scale = 1.0 + float(np.linalg.norm(q)) + float(np.linalg.norm(sp.b))
    if resid > REF_TOL * scale:
        raise NumericalError(f"reference KKT residual {resid:.3e} exceeds tolerance")
    return x, y


class _Face:
    """Active-set description: l1 coordinates split into zero/signed-active,
    box coordinates pinned at a bound or left interior."""

    def __init__(self, nonsmooth, x):
        self.fixed = {}  # coord -> fixed value
        self.lin = {}  # coord -> extra linear coefficient (w * sign)
        self.parts = nonsmooth
        for part, s in nonsmooth:
            xs = x[s]
            if isinstance(part, L1):
                thresh = 1e-5 * max(1.0, float(np.max(np.abs(x))))
                for j in range(part.dim):
                    i = s.start + j
                    if abs(xs[j]) > thresh:
                        self.lin[i] = part.weight * math.copysign(1.0, xs[j])
                    else:
                        self.fixed[i] = 0.0
            elif isinstance(part, Box):
                lo, hi = part.lo, part.hi
                for j in range(part.dim):
                    i = s.start + j
                    if xs[j] <= lo[j] + 1e-7:
                        self.fixed[i] = lo[j]
                    elif xs[j] >= hi[j] - 1e-7:
                        self.fixed[i] = hi[j]
            else:
                raise ConfigError(
                    f"no face polish for term {type(part).__name__}"
                )

    def key(self):
        return (tuple(sorted(self.fixed.items())), tuple(sorted(self.lin.items())))


def _solve_on_face(sp, H, q, face):
    n = sp.n
    fixed_idx = np.array(sorted(face.fixed), dtype=int)
    free = np.array([i for i in range(n) if i not in face.fixed], dtype=int)
    x_fix = np.array([face.fixed[i] for i in fixed_idx], dtype=float)
    ell = np.zeros(n)
    for i, w in face.lin.items():
        ell[i] = w
    A_free = sp.A[:, free]
    rhs_b = sp.b - (sp.A[:, fixed_idx] @ x_fix if fixed_idx.size else 0.0)
    H_ff = H[np.ix_(free, free)]
    shift = H[np.ix_(free, fixed_idx)] @ x_fix if fixed_idx.size else 0.0
    rhs_top = -(q[free] + ell[free] + shift)
    x_free, y = _solve_kkt(H_ff, A_free, rhs_top, rhs_b)
    x = np.zeros(n)
    x[free] = x_free
    if fixed_idx.size:
        x[fixed_idx] = x_fix
    return x, y


def _update_face(face, sp, H, q, x, y):
    """Move misclassified coordinates; returns True when anything changed."""
    g = H @ x + q + sp.A.T @ y
    changed = False
    for part, s in face.parts:
        for j in range(part.dim):
            i = s.start + j
            if isinstance(part, L1):
                w = part.weight
                if i in face.fixed:
                    if abs(g[i]) > w * (1.0 + 1e-9) + 1e-12:
                        del face.fixed[i]
                        face.lin[i] = w * math.copysign(1.0, -g[i])
                        changed = True
                else:
                    sign = math.copysign(1.0, face.lin[i])
                    if x[i] * sign < -1e-12:
                        del face.lin[i]
                        face.fixed[i] = 0.0
                        changed = True
            else:  # Box
                lo, hi = part.lo[j], part.hi[j]
                if i in face.fixed:
                    at_lo = face.fixed[i] == lo
                    if (at_lo and g[i] < -1e-12) or (not at_lo and g[i] > 1e-12):
                        del face.fixed[i]
                        changed = True
                else:
                    if x[i] < lo - 1e-12:
                        face.fixed[i] = lo
                        changed = True
                    elif x[i] > hi + 1e-12:
                        face.fixed[i] = hi
                        changed = True
    return changed


def polish(sp, x_approx, rounds=5):
    """Exact KKT solve on the active face identified from x_approx, with up
    to `rounds` face corrections, verified via the subdifferential distance."""
    H, q, _, nonsmooth = _smooth_parts(sp)
    if not nonsmooth:
        return _quadratic_reference(sp)
    face = _Face(nonsmooth, np.asarray(x_approx, dtype=float))
    scale = 1.0 + float(np.linalg.norm(q)) + float(np.linalg.norm(sp.b))
    for _ in range(rounds):
        x, y = _solve_on_face(sp, H, q, face)
        if kkt_residual(sp, x, y) <= REF_TOL * scale:
            return x, y
        if not _update_face(face, sp, H, q, x, y):
            break
    raise UnreliableReferenceError(
        "face polish failed to reach a verified KKT point"
    )


def _penalty_route(sp, betas=(1e2, 1e4, 1e6), max_iter=5000):
    """Accelerated proximal gradient on Psi(x) + (beta/2)||Ax - b||^2 with
    warm-started continuation; the whole of Psi goes through its prox. Only
    needs enough accuracy to identify the active face (polish does the rest)."""
    from .prox import argmin_composite

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
        for _ in range(max_iter):
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            v = x + ((t - 1.0) / t_next) * (x - x_prev)
            anchor = v - grad_s(v) / L
            x_new = argmin_composite(sp.f, -L * anchor, W, name="penalty continuation")
            move = float(np.linalg.norm(x_new - x))
            x_prev, x = x, x_new
            t = t_next
            phi_new = phi(x)
            if phi_new > phi_prev:
                t = 1.0  # adaptive restart
            phi_prev = phi_new
            if move <= 1e-12 * (1.0 + float(np.linalg.norm(x))):
                break
    y_est = betas[-1] * (A @ x - b)
    return x, y_est


def _long_run_route(sp, cap=60000):
    """Classic-mode driver run until the iterates stop moving."""
    cfg = make_config("prox-lin-al", sp, rho=1.0)
    params = RunParams(cfg=cfg, mode="classic", iters=1, mu=1.0)
    resolved = resolve_params(sp, params)
    state = initial_state(sp, params, resolved)
    A, b = sp.A, sp.b
    for _ in range(cap):
        prev_z = state.z
        state = flag_iterate(state, resolved, sp)
        move = float(np.linalg.norm(state.z - prev_z))
        feas = float(np.linalg.norm(A @ state.z - b))
        if move <= 1e-10 * (1.0 + float(np.linalg.norm(state.z))) and feas <= 1e-9 * (
            1.0 + float(np.linalg.norm(b))
        ):
            break
    return state.z


def reference_solve(prob, c=None):
    """Verified reference solution; c defaults to exactly 2 ||y*||."""
    sp = single_problem(prob)
    if quadratic_data(sp.f) is not None:
        x, y = _quadratic_reference(sp)
    else:
        x_a = _penalty_route(sp)[0]
        x_b = _long_run_route(sp)
        xa, ya = polish(sp, x_a)
        xb, yb = polish(sp, x_b)
        disagreement = max(
            float(np.linalg.norm(xa - xb)),
            abs(eval_objective(sp, xa) - eval_objective(sp, xb)),
        )
        if disagreement > ROUTE_AGREEMENT_TOL:
            raise UnreliableReferenceError(
                f"reference routes disagree by {disagreement:.3e}"
            )
        x, y = xa, ya
    psi = eval_objective(sp, x)
    if c is None:
        c = 2.0 * float(np.linalg.norm(y))
    return ReferenceSolution(x_star=x, y_star=y, psi_star=psi, c=float(c))


def bound_constant(P, x_star, z0, y0, mu, rho, c, p):
    """B = factor * (||x* - z0||_P^2 + (||y0|| + c)^2 / (mu rho)), factor 4
    for p = 2 and 2 for p = 1."""
    if p not in (1, 2):
        raise ConfigError("p must be 1 or 2")
    if mu <= 0 or rho <= 0:
        raise ConfigError("mu and rho must be positive")
    x_star = np.asarray(x_star, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    factor = 4.0 if p == 2 else 2.0
    dual = (float(np.linalg.norm(y0)) + float(c)) ** 2 / (mu * rho)
    return factor * (quad_norm(P, x_star - z0) + dual)


def p2_condition(cert, prob):
    """Fast-rate eligibility: P_i <= (sigma_i/2) I on every block, where
    sigma_i is the strong convexity the map exploits there (none on blocks it
    does not accelerate)."""
    return all(
        linalg.lambda_max(P) <= (0.5 * sigma if accelerated else 0.0) + 1e-9
        for P, (accelerated, sigma) in zip(cert.block_P, block_sigmas(cert.kind, prob))
    )


def fit_slope(ks, values, tail_decade=True):
    """Least-squares slope of log(value) vs log(k); -99.0 when under two
    usable points remain after excluding values <= 1e-12."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (ks >= 1) & (values > 1e-12) & np.isfinite(values)
    if tail_decade and ks.size:
        keep &= ks >= max(2.0, ks.max() / 10.0)
    ks, values = ks[keep], values[keep]
    if ks.size < 2:
        return SLOPE_SENTINEL
    coeffs = np.polyfit(np.log(ks), np.log(values), 1)
    return float(coeffs[0])


def verify_rates(traj, ref, B, p, tol=1e-9, cert=None, prob=None):
    """Row-by-row bound check plus slope fit.

    Returns {"bounds_hold", "first_violation", "slope", "condition_P"}.
    condition_P is "met" or "unmet"; when p == 2 the accelerated bound only
    applies under lambda_max(P) <= sigma/2 (per block for two-block maps), so
    an unmet condition makes the harness refuse to certify (bounds_hold False,
    first_violation None) rather than assert inapplicable bounds. Passing
    neither cert nor prob with p == 2 leaves condition_P as None (unchecked).
    The feasibility bound is skipped when ref.c == 0 (unconstrained dual).
    """
    if p not in (1, 2):
        raise ConfigError("p must be 1 or 2")
    gap = traj.psi_x - ref.psi_star
    feas = traj.feas_x
    ks = np.asarray(traj.k)
    combined = gap + ref.c * feas
    condition = None
    if p == 1:
        condition = "met"
    elif cert is not None and prob is not None:
        condition = "met" if p2_condition(cert, prob) else "unmet"
    if condition == "unmet":
        return {
            "bounds_hold": False,
            "first_violation": None,
            "slope": fit_slope(ks, combined),
            "condition_P": "unmet",
            "max_gap_excess": None,
            "max_feas_excess": None,
            "note": "accelerated bound inapplicable: lambda_max(P) > sigma/2",
        }
    first_violation = None
    max_gap_excess = -math.inf
    max_feas_excess = -math.inf
    for i in range(len(ks)):
        k = int(ks[i])
        if k < 1:
            continue
        fn_bound = B / (2.0 * float(k) ** p)
        bad = gap[i] > fn_bound + tol
        max_gap_excess = max(max_gap_excess, gap[i] - fn_bound)
        if ref.c > 0:
            feas_bound = B / (ref.c * float(k) ** p)
            max_feas_excess = max(max_feas_excess, feas[i] - feas_bound)
            bad = bad or feas[i] > feas_bound + tol
        if bad and first_violation is None:
            first_violation = k
    return {
        "bounds_hold": first_violation is None,
        "first_violation": first_violation,
        "slope": fit_slope(ks, combined),
        "condition_P": condition,
        "max_gap_excess": float(max_gap_excess),
        "max_feas_excess": float(max_feas_excess) if ref.c > 0 else None,
    }
