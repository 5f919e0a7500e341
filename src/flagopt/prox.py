"""Closed-form proximal subproblem solvers.

Every map step reduces to  argmin_x  term(x) + <g, x> + 0.5 x'Vx  for a PSD
weight V, one value of a block's pencil V(c) = H0 + c K0 (the anchored form
term(x) + <linear, x> + 0.5 ||x - anchor||_W^2 is g = linear - W anchor,
V = W). Non-quadratic terms require a strictly positive diagonal weight so the
minimizer stays closed form; configurations without one are rejected with a
pointer to the linearized map variants.
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
    return np.diag(V).copy()


class Subproblem:
    """argmin_x term(x) + <g, x> + 0.5 x'V(c)x for the pencil V(c) = H0 + c K0
    (K0 = 0 by default), checked and set up once for every c.

    Quadratic and zero parts solve through a linalg.Pencil of (H + H0, K0); l1
    and box parts need H0 and K0 diagonal and keep the diagonals. H0 and K0
    must not couple the parts of a separable term.
    """

    def __init__(self, term, H0, K0=None, name="subproblem"):
        H0 = np.asarray(H0, dtype=float)
        K0 = np.zeros_like(H0) if K0 is None else K0
        if H0.shape != (term.dim, term.dim):
            raise ConfigError(f"{name}: dimension mismatch")
        separable = isinstance(term, Separable)
        parts = term.parts if separable else (term,)
        slices = term.slices() if separable else [slice(0, term.dim)]
        for i, s in enumerate(slices):
            for j, s2 in enumerate(slices):
                if i != j and np.count_nonzero(H0[s, s2]) + np.count_nonzero(K0[s, s2]):
                    raise ConfigError(
                        f"{name}: the weight couples separable blocks {i} and {j}; "
                        "use the linearized map variant"
                    )
        self.dim, self.leaves = term.dim, []
        for i, (part, s) in enumerate(zip(parts, slices)):
            leaf_name = f"{name}[{i}]" if separable else name
            if isinstance(part, (Quadratic, Zero)):
                H = H0[s, s] + part.H if isinstance(part, Quadratic) else H0[s, s]
                leaf = linalg.Pencil(H, K0[s, s], leaf_name)
            elif isinstance(part, (L1, Box)):
                leaf = _diag_of(H0[s, s], leaf_name), _diag_of(K0[s, s], leaf_name)
            else:
                raise ConfigError(f"{leaf_name}: unsupported term {type(part).__name__}")
            self.leaves.append((s, part, leaf, leaf_name))

    def solve(self, g, c=1.0):
        x = np.empty(self.dim)
        for s, term, leaf, name in self.leaves:
            if isinstance(leaf, linalg.Pencil):
                x[s] = leaf.solve(-(term.q + g[s]) if isinstance(term, Quadratic) else -g[s], c)
                continue
            d = leaf[0] + c * leaf[1]
            if np.any(d < linalg.SINGULAR_FLOOR):
                raise DegenerateSubproblemError(
                    f"{name}: diagonal weight has a (near-)zero entry; "
                    "the subproblem has no unique minimizer"
                )
            if isinstance(term, Box):
                x[s] = np.clip(-g[s] / d, term.lo, term.hi)
            else:
                x[s] = -g[s] / d if term.weight == 0.0 else soft_threshold(-g[s] / d, term.weight / d)
        return x

    def stats(self):
        """Factorization route ("diagonal" when no part needs one) and counts."""
        pencils = [leaf for _, _, leaf, _ in self.leaves if isinstance(leaf, linalg.Pencil)]
        return {
            "route": "+".join(sorted({str(p.route) for p in pencils})) or "diagonal",
            "factorizations": {r: sum(p.counts[r] for p in pencils) for r in linalg.ROUTES},
        }


def argmin_composite(term, g, V, name="subproblem"):
    """Minimize term(x) + <g, x> + 0.5 x'Vx exactly: one solve of
    Subproblem(term, V).

    V must be symmetric PSD with the total curvature (term + V) strictly
    positive definite.
    """
    g, V = np.asarray(g, dtype=float), np.asarray(V, dtype=float)
    if g.shape != (term.dim,) or V.shape != (term.dim, term.dim):
        raise ConfigError(f"{name}: dimension mismatch")
    return Subproblem(term, 0.5 * (V + V.T), name=name).solve(g)
