"""Quantities the tests compute but the package does not need."""

import numpy as np

from flagopt import L1, ConfigError, Separable
from flagopt.lagrangian import quad_norm
from flagopt.linalg import rowdot, solve_spd
from flagopt.prox import soft_threshold


def delta_P(P, u, v, w):
    """0.5 (||u - v||_P^2 - ||u - w||_P^2), computed from the definition so it
    stays valid for singular PSD P: the reference for the three-point form
    that nice_parts evaluates."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (u.shape[-1:] == v.shape[-1:] == w.shape[-1:]):
        raise ConfigError("delta_P arguments must share a dimension")
    return 0.5 * (quad_norm(P, u - v) - quad_norm(P, u - w))


def delta_euclid(u, v, w):
    """delta_P with P = I, used for the multiplier terms."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return 0.5 * (rowdot(u - v, u - v) - rowdot(u - w, u - w))


def dense_subproblem_solve(term, g, V):
    """argmin term(x) + <g, x> + 0.5 x'Vx part by part: solve_spd on the
    quadratic parts, the closed-form prox on l1 parts (V diagonal there)."""
    parts = term.parts if isinstance(term, Separable) else (term,)
    out, start = [], 0
    for part in parts:
        s = slice(start, start + part.dim)
        start += part.dim
        if isinstance(part, L1):
            d = np.diag(V)[s]
            out.append(soft_threshold(-g[s] / d, part.weight / d))
        else:
            out.append(solve_spd(part.H + V[s, s], -(part.q + g[s])))
    return np.concatenate(out)


def dense_prim_step(plan, tau, z, lam, solve=None):
    """prim_step from the formula of the maps module docstring, in its
    operations and their order: block by block, g_i = A_i'(lambda + rho_t
    r_i) - w_i (M_i z_i) [+ q | + (H z + q)] with r_i at the new
    (Gauss-Seidel) or old (Jacobi) values of the other blocks [+ the block's
    own old term when it linearizes the penalty]. z_i+ solves V_i(tau),
    assembled densely as w_i M_i [+ rho_t A_i'A_i when exact] [+ H when h is
    folded in], by dense_subproblem_solve, or is solve(i, g_i) when given.
    A (k, n) stack of z with a (k, m) stack of lambda steps row by row."""
    if np.ndim(z) == 2:
        return np.array([dense_prim_step(plan, tau, *state, solve) for state in zip(z, lam)])
    spec, view, rho_t = plan.spec, plan.view, plan.cfg.rho * tau
    ends = np.cumsum([A.shape[1] for A in view.ops])
    old = np.split(np.asarray(z, dtype=float), ends[:-1])
    new = list(old)
    h = None if view.smooth is None else view.smooth.term
    for i, (block, A, term) in enumerate(zip(spec.blocks, view.ops, view.terms)):
        src = old if spec.jacobi else new
        r = -view.b
        for j, B in enumerate(view.ops):
            if j != i or not block.exact:
                r = r + B @ src[j]
        w = tau if block.accelerated else 1.0
        g = A.T @ (lam + rho_t * r) - w * (plan.M[i] @ old[i])
        V = w * plan.M[i] + (rho_t * A.T @ A if block.exact else 0.0)
        if h is not None and spec.smooth_linearized:
            g = g + (h.H @ z + h.q)
        elif h is not None:
            g, V = g + h.q, V + h.H
        new[i] = dense_subproblem_solve(term, g, V) if solve is None else solve(i, g)
    return np.concatenate(new)
