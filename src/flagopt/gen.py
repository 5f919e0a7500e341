"""Deterministic problem generators for the test harnesses.

All randomness flows through numpy's PCG64 via default_rng(seed), so a
(family, n, m, sigma, seed, conditioning) tuple always reproduces the same
instance bit for bit. Every generated problem stores a feasible point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .problems import (
    BlockProblem,
    ConstrainedProblem,
    L1,
    Quadratic,
    SmoothTerm,
    number,
)

FAMILIES = ("eq-qp", "lasso-split", "block-qp", "smooth-composite")


@dataclass(frozen=True)
class GenSpec:
    """Instance recipe.

    conditioning is the spectral spread of the dominant quadratic; sigma the
    declared strong convexity (block-qp assigns it to the second block,
    lasso-split ignores it: its f block has unit curvature by construction).
    a_identity forces the first block map to the identity (block-qp only).
    """

    family: str
    n: int
    m: int
    sigma: float = 1.0
    seed: int = 0
    conditioning: float = 10.0
    a_identity: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown family {self.family!r} (choose from {', '.join(FAMILIES)})"
            )
        number(self.n, "n", 1, integer=True)
        number(self.m, "m", 1, integer=True)
        number(self.seed, "seed", 0, integer=True)
        number(self.sigma, "sigma", 0)
        number(self.conditioning, "conditioning", 1)
        if self.a_identity and self.family != "block-qp":
            raise ConfigError("a_identity only applies to block-qp")


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _spd_with_spectrum(rng, eigs):
    n = len(eigs)
    Q = _orthogonal(rng, n)
    return (Q * eigs) @ Q.T


def _full_rank_map(rng, m, n):
    """m x n with singular values spread over [1, 2] (full row rank)."""
    if m > n:
        raise ConfigError("constraint rows must not exceed columns")
    U = _orthogonal(rng, m)
    V = _orthogonal(rng, n)
    svals = np.linspace(1.0, 2.0, m)
    return (U * svals) @ V[:, :m].T


def _eq_qp(spec, rng):
    number(spec.sigma, "eq-qp sigma", 0, strict=True)
    eigs = np.geomspace(spec.sigma, spec.sigma * spec.conditioning, spec.n)
    eigs[0] = spec.sigma
    eigs[-1] = spec.sigma * spec.conditioning
    H = _spd_with_spectrum(rng, eigs)
    q = rng.standard_normal(spec.n)
    A = _full_rank_map(rng, spec.m, spec.n)
    x_feas = rng.standard_normal(spec.n)
    f = Quadratic(H=H, q=q, strong_convexity=spec.sigma)
    return ConstrainedProblem(f=f, A=A, b=A @ x_feas, feasible_point=x_feas)


def _lasso_split(spec, rng):
    # min (1/2)||D u - e||^2 + ||w .* v||_1  s.t.  A u - v = 0
    n, m = spec.n, spec.m
    U = _orthogonal(rng, n)
    V = _orthogonal(rng, n)
    svals = np.geomspace(1.0, np.sqrt(spec.conditioning), n)
    svals[0] = 1.0
    D = (U * svals) @ V.T
    e = rng.standard_normal(n)
    A = _full_rank_map(rng, m, n)
    u_ls = np.linalg.solve(D, e)
    w = 0.1 * np.max(np.abs(A @ u_ls))
    f = Quadratic(H=D.T @ D, q=-D.T @ e, r=0.5 * float(e @ e), strong_convexity=1.0)
    g = L1(weight=w, dim=m)
    return BlockProblem(
        f_term=f,
        g_term=g,
        A=A,
        B=-np.eye(m),
        b=np.zeros(m),
        feasible_point=np.zeros(n + m),
    )


def _block_qp(spec, rng):
    n1 = spec.m if spec.a_identity else spec.n
    n2 = spec.n
    eigs_f = np.linspace(0.0, spec.conditioning, n1)
    H_f = _spd_with_spectrum(rng, eigs_f)
    sigma_g = spec.sigma
    if sigma_g > 0:
        eigs_g = np.geomspace(sigma_g, sigma_g * spec.conditioning, n2)
        eigs_g[0] = sigma_g
    else:
        eigs_g = np.linspace(0.0, spec.conditioning, n2)
    H_g = _spd_with_spectrum(rng, eigs_g)
    f = Quadratic(H=H_f, q=rng.standard_normal(n1))
    g = Quadratic(H=H_g, q=rng.standard_normal(n2), strong_convexity=sigma_g)
    A = np.eye(spec.m) if spec.a_identity else _full_rank_map(rng, spec.m, n1)
    B = _full_rank_map(rng, spec.m, n2)
    u = rng.standard_normal(n1)
    v = rng.standard_normal(n2)
    return BlockProblem(
        f_term=f,
        g_term=g,
        A=A,
        B=B,
        b=A @ u + B @ v,
        feasible_point=np.concatenate([u, v]),
    )


def _smooth_composite(spec, rng):
    number(spec.sigma, "smooth-composite sigma", 0, strict=True)
    n = spec.n
    eigs_f = np.geomspace(spec.sigma, spec.sigma * spec.conditioning, n)
    eigs_f[0] = spec.sigma
    H_f = _spd_with_spectrum(rng, eigs_f)
    f = Quadratic(H=H_f, q=rng.standard_normal(n), strong_convexity=spec.sigma)
    eigs_h = np.linspace(0.0, 1.0, n)
    eigs_h[-1] = 1.0
    H_h = _spd_with_spectrum(rng, eigs_h)
    h = SmoothTerm(term=Quadratic(H=H_h, q=rng.standard_normal(n)), lipschitz_grad=1.0)
    A = _full_rank_map(rng, spec.m, n)
    x_feas = rng.standard_normal(n)
    return ConstrainedProblem(f=f, A=A, b=A @ x_feas, smooth=h, feasible_point=x_feas)


def generate(spec):
    """Build the instance described by spec (deterministic in spec.seed)."""
    rng = np.random.default_rng(spec.seed)
    if spec.family == "eq-qp":
        return _eq_qp(spec, rng)
    if spec.family == "lasso-split":
        return _lasso_split(spec, rng)
    if spec.family == "block-qp":
        return _block_qp(spec, rng)
    return _smooth_composite(spec, rng)
