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
    return _shrink(np.asarray(w, dtype=float), t)


def _shrink(w, t):
    return np.sign(w) * np.maximum(np.abs(w) - t, 0.0)


def _diag_of(V, context):
    if not linalg.is_diagonal(V):
        raise ConfigError(
            f"{context}: the effective Hessian must be diagonal for a "
            "closed-form prox of a nonsmooth term; use the linearized map variant"
        )
    return np.diag(V).copy()


class _Diagonal:
    """Closed-form minimizer of an l1 or box leaf under the diagonal weight
    d(c) = h0 + c k0. Like a linalg.Pencil's Cholesky, d(c), its floor check
    and the l1 thresholds weight / d (t > 0, as soft_threshold requires) are
    kept while c keeps one value."""

    def __init__(self, term, h0, k0, name):
        self.h0, self.k0, self.name, self.c = h0, k0, name, None
        self.weight = term.weight if isinstance(term, L1) and term.weight != 0.0 else None
        if isinstance(term, Box):
            self.finish = lambda w: np.clip(w, term.lo, term.hi)
        elif self.weight is None:
            self.finish = lambda w: w
        else:
            self.finish = lambda w: _shrink(w, self.t)

    def _set(self, c):
        d = self.h0 + c * self.k0
        if np.any(d < linalg.SINGULAR_FLOOR):
            raise DegenerateSubproblemError(
                f"{self.name}: diagonal weight has a (near-)zero entry; "
                "the subproblem has no unique minimizer"
            )
        t = None if self.weight is None else self.weight / d
        self.c, self.d, self.t = c, d, t

    def solve(self, g, c):
        if c != self.c:
            self._set(c)
        return self.finish(-g / self.d)


class Subproblem:
    """argmin_x term(x) + <g, x> + 0.5 x'V(c)x for the pencil V(c) = H0 + c K0
    (K0 = 0 by default), checked and set up once for every c.

    Quadratic and zero parts solve through a linalg.Pencil of (H + H0, K0); l1
    and box parts need H0 and K0 diagonal and keep the diagonals. H0 and K0
    must not couple the parts of a separable term. Each part's solver is
    chosen here, so a solve only slices the last axis of g (one vector or a
    stack of rows) and calls them; a single part's result is returned as is.
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
        self.dim, self.leaves, self.pencils = term.dim, [], []
        for i, (part, s) in enumerate(zip(parts, slices)):
            leaf_name = f"{name}[{i}]" if separable else name
            if isinstance(part, (Quadratic, Zero)):
                H = H0[s, s] + part.H if isinstance(part, Quadratic) else H0[s, s]
                pencil = linalg.Pencil(H, K0[s, s], leaf_name)
                self.pencils.append(pencil)
                if isinstance(part, Quadratic):
                    solve = lambda g, c, p=pencil, q=part.q: p.solve(-(q + g), c)
                else:
                    solve = lambda g, c, p=pencil: p.solve(-g, c)
            elif isinstance(part, (L1, Box)):
                h0, k0 = _diag_of(H0[s, s], leaf_name), _diag_of(K0[s, s], leaf_name)
                solve = _Diagonal(part, h0, k0, leaf_name).solve
            else:
                raise ConfigError(f"{leaf_name}: unsupported term {type(part).__name__}")
            self.leaves.append((s, solve))

    def solve(self, g, c=1.0):
        if len(self.leaves) == 1:
            return self.leaves[0][1](g, c)
        x = np.empty(g.shape)
        for s, solve in self.leaves:
            x[..., s] = solve(g[..., s], c)
        return x

    def stats(self):
        """Factorization route ("diagonal" when no part needs one), counts per
        route, and the refinement steps the residual gate asked for."""
        return {
            "route": "+".join(sorted({str(p.route) for p in self.pencils})) or "diagonal",
            "factorizations": {r: sum(p.counts[r] for p in self.pencils) for r in linalg.ROUTES},
            "refinements": sum(p.counts["refinements"] for p in self.pencils),
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
