"""Closed-form proximal subproblem solvers.

Every map step reduces to  argmin_x  term(x) + <g, x> + 0.5 x'Vx  for a PSD
weight V assembled by the caller (the anchored form term(x) + <linear, x> +
0.5 ||x - anchor||_W^2 is g = linear - W anchor, V = W). Non-quadratic terms
require a strictly positive diagonal weight so the minimizer stays closed
form; configurations without one are rejected with a pointer to the
linearized map variants.
"""

import numpy as np

from . import linalg
from .errors import ConfigError, DegenerateSubproblemError
from .problems import Box, L1, Quadratic, Separable, Zero


def soft_threshold(w, t):
    """Componentwise sign(w) * max(|w| - t, 0); t > 0 scalar or per coordinate."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ConfigError("soft_threshold requires t > 0")
    w = np.asarray(w, dtype=float)
    return np.sign(w) * np.maximum(np.abs(w) - t, 0.0)


def _diag_of(V, context):
    if not linalg.is_diagonal(V):
        raise ConfigError(
            f"{context}: the effective Hessian must be diagonal for a "
            "closed-form prox of a nonsmooth term; use the linearized map variant"
        )
    d = np.diag(V).copy()
    if np.any(d < linalg.SINGULAR_FLOOR):
        raise DegenerateSubproblemError(
            f"{context}: diagonal weight has a (near-)zero entry; "
            "the subproblem has no unique minimizer"
        )
    return d


def argmin_composite(term, g, V, name="subproblem"):
    """Minimize term(x) + <g, x> + 0.5 x'Vx exactly.

    V must be symmetric PSD with the total curvature (term + V) strictly
    positive definite.
    """
    g = np.asarray(g, dtype=float)
    V = np.asarray(V, dtype=float)
    if V.shape != (term.dim, term.dim) or g.shape != (term.dim,):
        raise ConfigError(f"{name}: dimension mismatch")
    if isinstance(term, Quadratic):
        return linalg.solve_spd(term.H + V, -(term.q + g), name=name)
    if isinstance(term, Zero):
        return linalg.solve_spd(V, -g, name=name)
    if isinstance(term, L1):
        d = _diag_of(V, name)
        if term.weight == 0.0:
            return -g / d
        return soft_threshold(-g / d, term.weight / d)
    if isinstance(term, Box):
        d = _diag_of(V, name)
        return np.clip(-g / d, term.lo, term.hi)
    if isinstance(term, Separable):
        x = np.empty(term.dim)
        slices = term.slices()
        for i, (part, s) in enumerate(zip(term.parts, slices)):
            for j, s2 in enumerate(slices):
                if i != j and np.count_nonzero(V[s, s2]) != 0:
                    raise ConfigError(
                        f"{name}: the weight couples separable blocks {i} and {j}; "
                        "use the linearized map variant"
                    )
            x[s] = argmin_composite(part, g[s], V[s, s], name=f"{name}[{i}]")
        return x
    raise ConfigError(f"{name}: unsupported term {type(term).__name__}")
