"""Reference solutions and rate verification.

Every reference is an exact KKT solve on an active face (each solve gated
by linalg._refined), verified through the subdifferential distance
(`polish`). A purely quadratic problem has no nonsmooth term, so its face is
empty and one KKT solve of the whole system is the reference. A problem with
l1 or box terms is solved twice (quadratic-penalty continuation with
proximal-gradient acceleration, and a long run of the classic driver); each
candidate identifies a face that polish's face loop corrects and solves on,
and the two verified pairs must agree before either is trusted. The penalty
route factors its fixed prox weight once per continuation stage, and at steps
1, 2, 4, 8, ... of a stage returns the first verified pair its face loop yields.

verify_rates checks the trajectory's objective gap and feasibility against
B / (2 N^p) and B / (c N^p) row by row and fits a log-log slope to the
combined residual over the trailing decade of iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .driver import RunParams, flag_iterate, initial_state, next_t, resolve_params
from .errors import NumericalError, UnreliableReferenceError
from .lagrangian import quad_norm
from .maps import make_config, p2_condition
from .problems import L1, Quadratic, Separable, Zero, eval_objective, number
from .prox import Subproblem

REF_TOL = 1e-9
ROUTE_AGREEMENT_TOL = 1e-6
SLOPE_SENTINEL = -99.0
POLISH_ROUNDS = 5
LONG_RUN_CAP = 60000


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """Optimal primal/dual pair with the dual-bound radius c >= 2 ||y*||."""

    x_star: np.ndarray
    y_star: np.ndarray
    psi_star: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "x_star", np.asarray(self.x_star, dtype=float))
        object.__setattr__(self, "y_star", np.asarray(self.y_star, dtype=float))
        number(self.c, "c", 0)


def kkt_residual(prob, x, y):
    """max of the feasibility norm and the distance of -A'y to the
    subdifferential of Psi at x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    stat = prob.subgrad_dist(x, -(prob.A.T @ y))
    feas = float(np.linalg.norm(prob.A @ x - prob.b))
    return max(stat, feas)


def _smooth_parts(sp):
    """(H, q) of all quadratic pieces (zeros on nonsmooth coordinates) plus
    the list of (part, slice) nonsmooth pieces."""
    n = sp.n
    H = np.zeros((n, n))
    q = np.zeros(n)
    nonsmooth = []
    separable = isinstance(sp.f, Separable)
    for term, s in zip(sp.f.parts, sp.f.slices()) if separable else [(sp.f, slice(0, n))]:
        if isinstance(term, Quadratic):
            H[s, s] = term.H
            q[s] = term.q
        elif not isinstance(term, Zero):
            nonsmooth.append((term, s))
    if sp.smooth is not None:
        H[:, :] += sp.smooth.term.H
        q[:] += sp.smooth.term.q
    return H, q, nonsmooth


def _solve_kkt(H, A, rhs_top, b):
    """(x, y) with [[H, A'], [A, 0]] (x, y) = (rhs_top, b): an LU solve, or
    lstsq when K is singular or the LU solve is not finite or misses the
    1e-10 residual gate, gated by _refined."""
    n, m = H.shape[0], A.shape[0]
    K = np.block([[H, A.T], [A, np.zeros((m, m))]])

    def inv(r):
        # an ill-conditioned K takes the singular K's route, silently
        with np.errstate(all="ignore"):
            try:
                x = np.linalg.solve(K, r)
                e = r - K @ x
                if math.sqrt(e @ e) <= 1e-10 * (1.0 + math.sqrt(r @ r)):
                    return x
            except np.linalg.LinAlgError:
                pass
        return np.linalg.lstsq(K, r, rcond=None)[0]

    sol = linalg._refined(inv, K.__matmul__, np.concatenate([rhs_top, b]), "KKT system")
    return sol[:n], sol[n:]


def _initial_face(nonsmooth, x):
    """The face x identifies, as three arrays: a `fixed` mask, the pinned
    `value`s, and `lin`, the linear term weight * sign of each active l1
    coordinate. An l1 coordinate is active when |x_i| exceeds 1e-5 max(1,
    ||x||_inf), else pinned at 0; a box coordinate within 1e-7 of a bound is
    pinned there."""
    fixed = np.zeros(x.size, dtype=bool)
    value = np.zeros(x.size)
    lin = np.zeros(x.size)
    for part, s in nonsmooth:
        xs = x[s]
        if isinstance(part, L1):
            active = np.abs(xs) > 1e-5 * max(1.0, float(np.max(np.abs(x))))
            fixed[s] = ~active
            lin[s] = np.where(active, part.weight * np.copysign(1.0, xs), 0.0)
        else:  # Box
            at_lo = xs <= part.lo + 1e-7
            at_hi = ~at_lo & (xs >= part.hi - 1e-7)
            fixed[s] = at_lo | at_hi
            value[s] = np.where(at_lo, part.lo, np.where(at_hi, part.hi, 0.0))
    return fixed, value, lin


def _solve_on_face(sp, H, q, face):
    fixed, value, lin = face
    if not fixed.any():
        return _solve_kkt(H, sp.A, -(q + lin), sp.b)
    free = ~fixed
    x_fix = value[fixed]
    rhs_b = sp.b - sp.A[:, fixed] @ x_fix
    rhs_top = -(q[free] + lin[free] + H[np.ix_(free, fixed)] @ x_fix)
    x_free, y = _solve_kkt(H[np.ix_(free, free)], sp.A[:, free], rhs_top, rhs_b)
    x = value.copy()
    x[free] = x_free
    return x, y


def _update_face(face, nonsmooth, sp, H, q, x, y):
    """Move misclassified coordinates; returns True when anything changed.
    A pinned coordinate is released when the gradient g = Hx + q + A'y leaves
    its subdifferential; a free one is pinned when x crosses its l1 sign or
    its box bound."""
    fixed, value, lin = face
    g = H @ x + q + sp.A.T @ y
    changed = False
    for part, s in nonsmooth:
        pinned, gs, xs = fixed[s].copy(), g[s], x[s]
        if isinstance(part, L1):
            w = part.weight
            release = pinned & (np.abs(gs) > w * (1.0 + 1e-9) + 1e-12)
            pin = ~pinned & (xs * np.copysign(1.0, lin[s]) < -1e-12)
            lin[s] = np.where(release, w * np.copysign(1.0, -gs), np.where(pin, 0.0, lin[s]))
        else:  # Box
            release = pinned & np.where(value[s] == part.lo, gs < -1e-12, gs > 1e-12)
            pin_lo = ~pinned & (xs < part.lo - 1e-12)
            pin_hi = ~pinned & ~pin_lo & (xs > part.hi + 1e-12)
            pin = pin_lo | pin_hi
            value[s] = np.where(pin_lo, part.lo, np.where(pin_hi, part.hi, value[s]))
        fixed[s] = (pinned & ~release) | pin
        changed |= bool(release.any() or pin.any())
    return changed


def polish(sp, x_approx):
    """Exact KKT solve on the active face identified from x_approx, with up
    to POLISH_ROUNDS face corrections, verified via the subdifferential
    distance. Without a nonsmooth term the face is empty and x_approx is not
    read: one solve either passes (NumericalError otherwise)."""
    return _polish_faces(sp, _smooth_parts(sp), x_approx)


def _polish_faces(sp, parts, x_approx):
    """polish's face loop on the `_smooth_parts` of sp."""
    H, q, nonsmooth = parts
    face = _initial_face(nonsmooth, np.asarray(x_approx, dtype=float))
    scale = 1.0 + float(np.linalg.norm(q)) + float(np.linalg.norm(sp.b))
    for _ in range(POLISH_ROUNDS):
        x, y = _solve_on_face(sp, H, q, face)
        resid = kkt_residual(sp, x, y)
        if resid <= REF_TOL * scale:
            return x, y
        if not nonsmooth:
            raise NumericalError(f"reference KKT residual {resid:.3e} exceeds tolerance")
        if not _update_face(face, nonsmooth, sp, H, q, x, y):
            break
    raise UnreliableReferenceError(
        "face polish failed to reach a verified KKT point"
    )


def _penalty_route(sp, betas=(1e2, 1e4, 1e6), max_iter=5000):
    """Accelerated proximal gradient on Psi(x) + (beta/2)||Ax - b||^2 with
    warm-started continuation; the whole of Psi goes through its prox. Only
    needs enough accuracy to identify the active face (polish does the rest),
    so at steps k = 1, 2, 4, 8, ... of each beta stage it runs polish's face
    loop on the iterate and returns the first verified (x, y) it yields; when
    none does, the face loop's result on the last iterate (or its error).
    The prox weight L I is fixed within a beta stage, so each stage sets up
    one prox.Subproblem (one Cholesky of a quadratic part) for all its steps."""
    A, b = sp.A, sp.b
    lamA = linalg.lambda_max(A.T @ A)
    n = sp.n
    parts = _smooth_parts(sp)
    x = sp.feasible_point.copy() if sp.feasible_point is not None else np.zeros(n)
    for beta in betas:
        L = beta * lamA + (sp.smooth.lipschitz_grad if sp.smooth is not None else 0.0)
        prox = Subproblem(sp.f, L * np.eye(n), name="penalty continuation")

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
            t_prev, t = t, next_t(t, 2)
            v = x + ((t_prev - 1.0) / t) * (x - x_prev)
            anchor = v - grad_s(v) / L
            x_new = prox.solve(-L * anchor)
            move = float(np.linalg.norm(x_new - x))
            x_prev, x = x, x_new
            phi_new = phi(x)
            if phi_new > phi_prev:
                t = 1.0  # adaptive restart
            phi_prev = phi_new
            if k & (k - 1) == 0:
                try:
                    return _polish_faces(sp, parts, x)
                except (NumericalError, UnreliableReferenceError):
                    pass  # not yet
            if move <= 1e-12 * (1.0 + float(np.linalg.norm(x))):
                break
    return _polish_faces(sp, parts, x)


def _long_run_route(sp):
    """Classic-mode driver run until the iterates stop moving (at most
    LONG_RUN_CAP iterations)."""
    cfg = make_config("prox-lin-al", sp, rho=1.0)
    params = RunParams(cfg=cfg, mode="classic", iters=1, mu=1.0)
    resolved = resolve_params(sp, params)
    state = initial_state(sp, params, resolved)
    A, b = sp.A, sp.b
    for _ in range(LONG_RUN_CAP):
        prev_z = state.z
        state = flag_iterate(state, resolved, sp)
        move = float(np.linalg.norm(state.z - prev_z))
        feas = float(np.linalg.norm(A @ state.z - b))
        if move <= 1e-10 * (1.0 + float(np.linalg.norm(state.z))) and feas <= sp.feas_tol:
            break
    return state.z


def reference_solve(prob):
    """Verified reference solution with c = 2 ||y*||: polish on the empty
    face when Psi has no nonsmooth term, else the penalty route's verified
    pair, checked against the polished long-run route."""
    if not _smooth_parts(prob)[2]:
        x, y = polish(prob, np.zeros(prob.n))
    else:
        xa, ya = _penalty_route(prob)
        xb, _ = polish(prob, _long_run_route(prob))
        disagreement = max(
            float(np.linalg.norm(xa - xb)),
            abs(eval_objective(prob, xa) - eval_objective(prob, xb)),
        )
        if disagreement > ROUTE_AGREEMENT_TOL:
            raise UnreliableReferenceError(
                f"reference routes disagree by {disagreement:.3e}"
            )
        x, y = xa, ya
    psi = eval_objective(prob, x)
    return ReferenceSolution(x_star=x, y_star=y, psi_star=psi, c=2.0 * float(np.linalg.norm(y)))


def bound_constant(P, x_star, z0, y0, mu, rho, c, p):
    """B = factor * (||x* - z0||_P^2 + (||y0|| + c)^2 / (mu rho)), factor 4
    for p = 2 and 2 for p = 1."""
    number(p, "p", 1, 2, integer=True)
    number(mu, "mu", 0, strict=True)
    number(rho, "rho", 0, strict=True)
    x_star = np.asarray(x_star, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    factor = 4.0 if p == 2 else 2.0
    dual = (float(np.linalg.norm(y0)) + float(c)) ** 2 / (mu * rho)
    return factor * (quad_norm(P, x_star - z0) + dual)


def fit_slope(ks, values):
    """Least-squares slope of log(value) vs log(k) over the trailing decade
    k >= max(2, N/10); -99.0 when under two usable points remain after
    excluding values <= 1e-12."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (ks >= 1) & (values > 1e-12) & np.isfinite(values)
    if ks.size:
        keep &= ks >= max(2.0, ks.max() / 10.0)
    ks, values = ks[keep], values[keep]
    if ks.size < 2:
        return SLOPE_SENTINEL
    coeffs = np.polyfit(np.log(ks), np.log(values), 1)
    return float(coeffs[0])


def _max_excess(excess):
    """The largest entry of excess that is not NaN; None when there is none."""
    top = float(np.fmax.reduce(excess, initial=-math.inf))
    return None if top == -math.inf else top


def verify_rates(traj, ref, B, p, tol=1e-9, *, cert, prob):
    """Row-by-row bound check plus slope fit.

    Returns {"bounds_hold", "first_violation", "slope", "condition_P",
    "max_gap_excess", "max_feas_excess", "tol"}.
    condition_P is "met" or "unmet"; when p == 2 the accelerated bound only
    applies under lambda_max(P) <= sigma/2 (per block for two-block maps), so
    an unmet condition makes the harness refuse to certify (bounds_hold False,
    first_violation None) rather than assert inapplicable bounds.
    The feasibility bound is skipped when ref.c == 0 (unconstrained dual).
    """
    number(p, "p", 1, 2, integer=True)
    gap = traj.psi_x - ref.psi_star
    feas = traj.feas_x
    ks = np.asarray(traj.k)
    met = p == 1 or p2_condition(cert, prob)
    report = {
        "bounds_hold": False,
        "first_violation": None,
        "slope": fit_slope(ks, gap + ref.c * feas),
        "condition_P": "met" if met else "unmet",
        "max_gap_excess": None,
        "max_feas_excess": None,
        "tol": number(tol, "tol"),
    }
    if not met:
        report["note"] = "accelerated bound inapplicable: lambda_max(P) > sigma/2"
    else:
        # rows k >= 1; a NaN gap or feasibility fails "<= bound", so it is a
        # violation, and the excess maxima skip it (None when every row is NaN)
        rows = ks >= 1
        kp = ks[rows].astype(float) ** p
        fn_bound = B / (2.0 * kp)
        bad = ~(gap[rows] <= fn_bound + tol)
        report["max_gap_excess"] = _max_excess(gap[rows] - fn_bound)
        if ref.c > 0:
            feas_bound = B / (ref.c * kp)
            bad |= ~(feas[rows] <= feas_bound + tol)
            report["max_feas_excess"] = _max_excess(feas[rows] - feas_bound)
        violations = ks[rows][bad]
        report["bounds_hold"] = violations.size == 0
        report["first_violation"] = int(violations[0]) if violations.size else None
    return report
