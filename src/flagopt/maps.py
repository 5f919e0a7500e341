"""Nice primal algorithmic maps and their certificates.

A primal map takes (z, lambda) to z+ under the schedule (rho_t, tau_t) and is
*nice* with certificate (delta, P, Q) when, for every feasible xi,

    L_{rho_t}(z+, lambda) - L_{rho_t}(xi, lambda)
        <= tau_t Delta_P(xi, z, z+) - (tau_t/2) ||z+ - z||_Q^2
           - (sigma/2) ||xi - z+||^2 - (delta rho_t / 2) ||A z+ - b||^2.

Every map kind is one row of KINDS: its blocks, their update order, and its
certificate formula. One generic step updates block i of z = (z_1, z_2) by

    z_i+ = argmin_x  f_i(x) + <g_i, x> + 0.5 x'V_i x,
    V_i  = w_i M_i [+ rho_t A_i'A_i] [+ H],
    g_i  = A_i'(lambda + rho_t r_i) - w_i M_i z_i [+ q | + grad h(z)],

with w_i = tau_t on accelerated blocks and 1 otherwise, and r_i the constraint
residual at the newest (Gauss-Seidel) or old (Jacobi) values of the other
blocks, plus the block's own old term when the block linearizes the penalty.
A single-block map folds a smooth part h = 0.5 x'Hx + q'x into V exactly, or
linearizes it through grad h(z). Two-block maps use the block form of the
inequality: accelerated blocks are weighted by tau_t and contribute their
strong convexity, the others carry weight 1 and no sigma term. nice_residual
evaluates left minus right numerically; certificates are produced exactly per
each kind's closed-form (delta, P, Q) with every spectral margin recorded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import linalg
from .errors import ConfigError, NotNiceError
from .lagrangian import delta_P, eval_aug_lagrangian, quad_norm
from .problems import (
    BlockProblem,
    SmoothTerm,
    constraint_map,
    nonsmooth_parts,
    single_problem,
)
from .prox import argmin_composite

PSD_TOL = 1e-10


@dataclass(frozen=True)
class ScheduleParams:
    """Per-iteration schedule: rho_t = rho t^{p-1}, tau_t = t^{p-1}."""

    rho_t: float
    tau_t: float
    p: int

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ConfigError("p must be 1 or 2")
        if self.p == 1 and self.tau_t != 1.0:
            raise ConfigError("p = 1 requires tau_t = 1")
        if self.rho_t <= 0 or self.tau_t <= 0:
            raise ConfigError("schedule scalars must be positive")


def schedule_at(rho, t, p):
    """Schedule values at sequence value t."""
    if t < 1.0 - 1e-12:
        raise ConfigError("t must be >= 1")
    if p == 1:
        return ScheduleParams(rho_t=float(rho), tau_t=1.0, p=1)
    return ScheduleParams(rho_t=float(rho) * float(t), tau_t=float(t), p=2)


@dataclass(frozen=True)
class MapConfig:
    """Map kind plus its proximal weight data and base penalty rho."""

    kind: str
    rho: float
    M: np.ndarray | None = None
    M1: np.ndarray | None = None
    M2: np.ndarray | None = None
    alpha: float | None = None

    def __post_init__(self):
        _spec(self.kind)
        if self.rho <= 0:
            raise ConfigError("base penalty rho must be positive")
        for name in ("M", "M1", "M2"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, linalg.check_psd(val, name))
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError("alpha must be positive")


@dataclass(frozen=True)
class Condition:
    """A named spectral condition with its evaluated margin; strict conditions
    require margin > 0, semidefinite ones allow margin >= -1e-10."""

    name: str
    margin: float
    strict: bool = True

    def holds(self):
        return self.margin > 0 if self.strict else self.margin >= -PSD_TOL


@dataclass(frozen=True)
class NiceCertificate:
    kind: str
    delta: float
    P: np.ndarray
    Q: np.ndarray
    conditions: tuple
    P1: np.ndarray | None = None
    P2: np.ndarray | None = None
    Q1: np.ndarray | None = None
    Q2: np.ndarray | None = None

    @property
    def block_P(self):
        """P per block of the map (one entry for single-block maps)."""
        return (self.P,) if self.P1 is None else (self.P1, self.P2)

    @property
    def block_Q(self):
        return (self.Q,) if self.Q1 is None else (self.Q1, self.Q2)


@dataclass(frozen=True)
class Block:
    """One block of a map's primal step.

    exact: V_i gets rho_t A_i'A_i and the residual leaves out the block's own
    term; otherwise the penalty is linearized at the old point.
    accelerated: M_i is scaled by tau_t, the block is weighted by tau_t in the
    niceness inequality, and its strong convexity is exploited.
    """

    exact: bool
    accelerated: bool = True


@dataclass(frozen=True)
class Kind:
    """One row of KINDS.

    certify(cfg, view, M, G, L) -> (delta, P_i list, Q_i list, conditions),
    from the weights M_i, the Grams G_i = A_i'A_i and the Lipschitz constant L
    of a linearized smooth part (else 0). floor: the auto policy's M_i is
    (floor_i rho lambda_max(G_i) [+ L] + margin) I. jacobi: each block reads
    the others' old values. smooth_linearized: the single block requires h and
    steps on grad h(z). alpha: M1 = 0 and M2 = I / alpha from the step alpha.
    """

    blocks: tuple
    certify: object
    floor: tuple
    jacobi: bool = False
    smooth_linearized: bool = False
    alpha: bool = False


class _View(NamedTuple):
    """A problem as the blocks of a map kind: operators A_i, terms f_i, strong
    convexity sigma_i, right-hand side b, smooth part (single block only)."""

    ops: tuple
    terms: tuple
    sigmas: tuple
    b: np.ndarray
    smooth: SmoothTerm | None = None

    @property
    def dims(self):
        return [A.shape[1] for A in self.ops]

    def split(self, z):
        n1 = self.ops[0].shape[1]
        return [z] if len(self.ops) == 1 else [z[:n1], z[n1:]]


def _nonneg(name, X):
    return Condition(name, linalg.lambda_min(X), strict=False)


def _dominance(cfg, M, G, i, factor=1):
    """(lambda_min(M_i), rho lambda_max(A_i'A_i), condition that M_i dominates
    factor * rho A_i'A_i)."""
    lam, rl = linalg.lambda_min(M[i]), cfg.rho * linalg.lambda_max(G[i])
    op = "AB"[i]
    coef = "rho" if factor == 1 else f"{factor} rho"
    name = f"lambda_min(M{i + 1}) - {coef} lambda_max({op}'{op}) > 0"
    return lam, rl, Condition(name, lam - factor * rl)


def _single_cert(cfg, view, M, G, L):
    # P = M, less rho A'A when the penalty is linearized; Q = P, less L I
    # when the smooth part is linearized
    spec = KINDS[cfg.kind]
    P, name = M[0], "M"
    if not spec.blocks[0].exact:
        P, name = P - cfg.rho * G[0], name + " - rho A'A"
    Q = P
    if spec.smooth_linearized:
        Q, name = P - L * np.eye(P.shape[0]), name + " - L I"
    return 1.0, [P], [Q], [_nonneg(f"lambda_min({name}) >= 0", Q)]


def _prox_admm_cert(cfg, view, M, G, L):
    lam2 = linalg.lambda_min(M[1])
    rl2 = cfg.rho * linalg.lambda_max(G[1])
    delta = 1.0 - rl2 / (rl2 + lam2) if lam2 > 0 else 0.0
    conds = [_nonneg("lambda_min(M1) >= 0", M[0]), Condition("lambda_min(M2) > 0", lam2)]
    return delta, [M[0], M[1] + cfg.rho * G[1]], [M[0], np.zeros_like(M[1])], conds


def _lin_admm_cert(cfg, view, M, G, L):
    # Gauss-Seidel with a linearized second block; P1 = Q1 = M1 [- rho A'A
    # when the first block linearizes the penalty too]
    P1, name = M[0], "M1"
    if not KINDS[cfg.kind].blocks[0].exact:
        P1, name = P1 - cfg.rho * G[0], name + " - rho A'A"
    lam2, rl2, cond2 = _dominance(cfg, M, G, 1)
    delta = 1.0 - rl2 / lam2 if lam2 > 0 else 0.0
    conds = [_nonneg(f"lambda_min({name}) >= 0", P1), cond2]
    return delta, [P1, M[1]], [P1, np.zeros_like(M[1])], conds


def _chambolle_pock_cert(cfg, view, M, G, L):
    A, m = view.ops[0], view.b.shape[0]
    if A.shape[1] != m or np.max(np.abs(A - np.eye(m)), initial=0.0) > 1e-12:
        raise ConfigError("chambolle-pock requires the first block map A = I")
    delta = 1.0 - cfg.rho * cfg.alpha * linalg.lambda_max(G[1])
    conds = [Condition("1 - rho alpha lambda_max(B'B) > 0", delta)]
    return delta, list(M), [M[0], np.zeros_like(M[1])], conds


def _prox_jacobi_cert(cfg, view, M, G, L):
    doms = [_dominance(cfg, M, G, i) for i in (0, 1)]
    delta = 1.0 - 2.0 * max(rl / (rl + lam) if rl + lam > 0 else 1.0 for lam, rl, _ in doms)
    P = [M[i] + cfg.rho * G[i] for i in (0, 1)]
    return delta, P, [np.zeros_like(X) for X in P], [c for _, _, c in doms]


def _pcpm_cert(cfg, view, M, G, L):
    if (view.sigmas[0] > 0) != (view.sigmas[1] > 0):
        raise ConfigError(
            "pcpm treats both blocks the same: sigma_f and sigma_g must "
            "share the regime (both zero or both positive)"
        )
    doms = [_dominance(cfg, M, G, i, factor=2) for i in (0, 1)]
    delta = 1.0 - 2.0 * max(rl / lam if lam > 0 else 1.0 for lam, rl, _ in doms)
    return delta, list(M), [np.zeros_like(X) for X in M], [c for _, _, c in doms]


EXACT = Block(exact=True)
LINEARIZED = Block(exact=False)
ADMM_FIRST = Block(exact=True, accelerated=False)

KINDS = {
    "prox-al": Kind((EXACT,), _single_cert, floor=(0,)),
    "prox-lin-al": Kind((LINEARIZED,), _single_cert, floor=(1,)),
    "smooth-prox-al": Kind((EXACT,), _single_cert, floor=(0,), smooth_linearized=True),
    "smooth-lin-al": Kind((LINEARIZED,), _single_cert, floor=(1,), smooth_linearized=True),
    "prox-admm": Kind((ADMM_FIRST, EXACT), _prox_admm_cert, floor=(0, 0)),
    "prox-lin-admm": Kind((ADMM_FIRST, LINEARIZED), _lin_admm_cert, floor=(0, 1)),
    "chambolle-pock": Kind(
        (ADMM_FIRST, LINEARIZED), _chambolle_pock_cert, floor=(0, 1), alpha=True
    ),
    "prox-jacobi": Kind((EXACT, EXACT), _prox_jacobi_cert, floor=(1, 1), jacobi=True),
    "pcpm": Kind((LINEARIZED, LINEARIZED), _pcpm_cert, floor=(2, 2), jacobi=True),
    "full-lin-admm": Kind((LINEARIZED, LINEARIZED), _lin_admm_cert, floor=(1, 1)),
}
MAP_KINDS = tuple(KINDS)


def _spec(kind):
    try:
        return KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown map kind {kind!r} (choose from {', '.join(MAP_KINDS)})"
        ) from None


def _view(kind, prob):
    """(table row, _View) of prob for the map kind."""
    spec = _spec(kind)
    if len(spec.blocks) == 1:
        sp = single_problem(prob)
        return spec, _View((sp.A,), (sp.f,), (sp.sigma,), sp.b, sp.smooth)
    if not isinstance(prob, BlockProblem):
        raise ConfigError(f"{kind} requires a two-block problem")
    bp = prob
    return spec, _View((bp.A, bp.B), (bp.f_term, bp.g_term), (bp.sigma_f, bp.sigma_g), bp.b)


def _weight_names(blocks):
    return ("M",) if blocks == 1 else ("M1", "M2")


def _weights(cfg, spec, view):
    dims = view.dims
    if spec.alpha:
        if cfg.alpha is None:
            raise ConfigError(f"{cfg.kind} requires alpha")
        return [np.zeros((dims[0], dims[0])), (1.0 / cfg.alpha) * np.eye(dims[1])]
    out = []
    for name, dim in zip(_weight_names(len(dims)), dims):
        M = getattr(cfg, name)
        if M is None:
            raise ConfigError(f"{cfg.kind} requires weight matrix {name}")
        if M.shape[0] != dim:
            raise ConfigError(f"{cfg.kind}: {name} has dimension {M.shape[0]}, expected {dim}")
        out.append(M)
    return out


def _block_name(kind, i, blocks):
    return kind if blocks == 1 else f"{kind} {('first', 'second')[i]} block"


def _hessian(spec, view, i, rho_t, w, M_i, G_i):
    """V_i = w M_i [+ rho_t G_i] [+ H], G_i = A_i'A_i read on exact blocks only."""
    V = w * M_i
    if spec.blocks[i].exact:
        V = rho_t * G_i + V
    if view.smooth is not None and not spec.smooth_linearized:
        V = V + view.smooth.term.H
    return V


def _check_exact_solvable(term, pattern, context):
    """Exact-minimization subproblems with nonsmooth terms need a diagonal
    effective Hessian on the nonsmooth coordinates (and no cross coupling)."""
    for part, s in nonsmooth_parts(term):
        block = pattern[s, s]
        coupling = pattern[s, :].copy()
        coupling[:, s] = 0.0
        if not linalg.is_diagonal(block) or np.count_nonzero(coupling) != 0:
            raise ConfigError(
                f"{context}: exact minimization needs a diagonal effective "
                "Hessian on the nonsmooth coordinates; use the linearized map variant"
            )


def certificate(cfg, prob):
    """Exact (delta, P, Q) certificate of the map on this problem.

    Raises NotNiceError naming the violated spectral condition when the map
    cannot be certified with the given weights and base rho.
    """
    kind = cfg.kind
    spec, view = _view(kind, prob)
    M = _weights(cfg, spec, view)
    L = 0.0
    if spec.smooth_linearized:
        if view.smooth is None:
            raise ConfigError(f"{kind} requires a smooth objective part")
        if view.smooth.term.strong_convexity != 0.0:
            raise ConfigError(
                f"{kind} handles the smooth part by gradient linearization; "
                "its declared strong-convexity contribution must be zero"
            )
        L = view.smooth.lipschitz_grad
    G = [A.T @ A for A in view.ops]
    delta, P, Q, conds = spec.certify(cfg, view, M, G, L)
    for i, block in enumerate(spec.blocks):
        if block.exact:
            pattern = _hessian(spec, view, i, cfg.rho, 1.0, M[i], G[i])
            _check_exact_solvable(view.terms[i], pattern, _block_name(kind, i, len(M)))
    if len(P) == 1:
        return _validated(NiceCertificate(kind, delta, P[0], Q[0], tuple(conds)))
    blocks = dict(P1=P[0], P2=P[1], Q1=Q[0], Q2=Q[1])
    P, Q = scipy.linalg.block_diag(*P), scipy.linalg.block_diag(*Q)
    return _validated(NiceCertificate(kind, delta, P, Q, tuple(conds), **blocks))


def _validated(cert):
    for cond in cert.conditions:
        if not cond.holds():
            raise NotNiceError(
                f"{cert.kind} is not certified: {cond.name} fails "
                f"(margin {cond.margin:.6e})"
            )
    if not 0.0 < cert.delta <= 1.0 + 1e-12:
        raise NotNiceError(
            f"{cert.kind} is not certified: delta = {cert.delta:.6e} outside (0, 1]"
        )
    for name in ("P", "Q", "P1", "P2", "Q1", "Q2"):
        M = getattr(cert, name)
        if M is not None:
            linalg.check_psd(M, f"certificate {name}")
    return cert


def prim_step(cfg, sched, z, lam, prob):
    """One primal update z+ from (z, lambda) under the given schedule."""
    spec, view = _view(cfg.kind, prob)
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if z.shape != (sum(view.dims),) or lam.shape != view.b.shape:
        raise ConfigError("prim_step dimension mismatch")
    M = _weights(cfg, spec, view)
    rho_t, tau_t = sched.rho_t, sched.tau_t
    old = view.split(z)
    new = list(old)
    for i, (block, A) in enumerate(zip(spec.blocks, view.ops)):
        src = old if spec.jacobi else new
        parts = [B @ src[j] for j, B in enumerate(view.ops) if j != i or not block.exact]
        r = sum(parts, -view.b)
        w = tau_t if block.accelerated else 1.0
        V = _hessian(spec, view, i, rho_t, w, M[i], A.T @ A if block.exact else None)
        g = A.T @ (lam + rho_t * r) - w * (M[i] @ old[i])
        if view.smooth is not None:
            g = g + (view.smooth.term.grad(z) if spec.smooth_linearized else view.smooth.term.q)
        new[i] = argmin_composite(view.terms[i], g, V, name=_block_name(cfg.kind, i, len(M)))
    return new[0] if len(new) == 1 else np.concatenate(new)


def nice_parts(cfg, sched, z, lam, xi, prob, cert=None, z_next=None, delta=None):
    """(residual, scale) of the niceness inequality at one sampled tuple."""
    if cert is None:
        cert = certificate(cfg, prob)
    if delta is None:
        delta = cert.delta
    z = np.asarray(z, dtype=float)
    xi = np.asarray(xi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    A = constraint_map(prob)
    b = prob.b
    feas_xi = float(np.linalg.norm(A @ xi - b))
    if feas_xi > 1e-9 * (1.0 + float(np.linalg.norm(b))):
        raise ConfigError(f"xi must be feasible (residual {feas_xi:.3e})")
    if z_next is None:
        z_next = prim_step(cfg, sched, z, lam, prob)
    rho_t, tau_t = sched.rho_t, sched.tau_t

    lhs = eval_aug_lagrangian(prob, z_next, lam, rho_t) - eval_aug_lagrangian(
        prob, xi, lam, rho_t
    )
    feas_next = float(np.linalg.norm(A @ z_next - b))
    pen_term = 0.5 * delta * rho_t * feas_next**2

    spec, view = _view(cert.kind, prob)
    bregman = q_term = sc_term = 0.0
    points = (view.split(xi), view.split(z), view.split(z_next))
    for block, sigma, P, Q, xi_i, z_i, zn_i in zip(
        spec.blocks, view.sigmas, cert.block_P, cert.block_Q, *points
    ):
        w = tau_t if block.accelerated else 1.0
        bregman += w * delta_P(P, xi_i, z_i, zn_i)
        q_term += 0.5 * w * quad_norm(Q, zn_i - z_i)
        if block.accelerated:
            sc_term += 0.5 * sigma * float(np.sum((xi_i - zn_i) ** 2))

    rhs = bregman - q_term - sc_term - pen_term
    residual = lhs - rhs
    scale = 1.0 + abs(lhs) + abs(bregman) + q_term + sc_term + pen_term
    return residual, scale


def nice_residual(cfg, sched, z, lam, xi, prob, cert=None, z_next=None, delta=None):
    """Left minus right of the niceness inequality; nice maps yield <= 0 up to
    roundoff (tolerance 1e-7 * scale in the sampling suite)."""
    residual, _ = nice_parts(
        cfg, sched, z, lam, xi, prob, cert=cert, z_next=z_next, delta=delta
    )
    return residual


def feasible_sampler(prob, seed=0, scale=1.0):
    """Yield feasible points xi = x_particular + null-space perturbations."""
    rng = np.random.default_rng(seed)
    A = constraint_map(prob)
    b = prob.b
    if prob.feasible_point is not None:
        x_part = prob.feasible_point
    else:
        x_part, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.linalg.norm(A @ x_part - b) > 1e-9 * (1.0 + np.linalg.norm(b)):
            raise ConfigError("problem admits no feasible point within tolerance")
    _, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    null_basis = Vt[rank:].T
    while True:
        if null_basis.shape[1] == 0:
            yield x_part.copy()
        else:
            w = scale * rng.standard_normal(null_basis.shape[1])
            yield x_part + null_basis @ w


def block_sigmas(kind, prob):
    """(accelerated, sigma_i) for each block of the map kind on prob; the
    analysis exploits sigma_i on accelerated blocks only."""
    spec, view = _view(kind, prob)
    return [(block.accelerated, s) for block, s in zip(spec.blocks, view.sigmas)]


def default_p(cfg, prob):
    """Regime implied by the strong convexity the map's analysis exploits."""
    return 2 if all(s > 0 for acc, s in block_sigmas(cfg.kind, prob) if acc) else 1


def sample_niceness(
    cfg,
    prob,
    states=100,
    xis=20,
    seed=0,
    p=None,
    t_values=(1.0, 2.5, 7.0, 19.5, 60.0),
    state_scale=2.0,
    xi_scale=1.5,
    delta=None,
):
    """Adversarial sampling of the niceness inequality.

    Draws `states` random (z, lambda, t) tuples and `xis` feasible points per
    state, and returns the worst residual both raw and relative to
    scale = 1 + sum of absolute inequality terms.
    """
    cert = certificate(cfg, prob)
    if p is None:
        p = default_p(cfg, prob)
    if p == 1:
        t_values = (1.0,)
    rng = np.random.default_rng(seed)
    xi_gen = feasible_sampler(prob, seed=seed + 1, scale=xi_scale)
    m, n = constraint_map(prob).shape
    center = prob.feasible_point if prob.feasible_point is not None else np.zeros(n)
    t_cycle = itertools.cycle(t_values)

    max_raw = -np.inf
    max_scaled = -np.inf
    checked = 0
    for _ in range(states):
        z = center + state_scale * rng.standard_normal(n)
        lam = state_scale * rng.standard_normal(m)
        sched = schedule_at(cfg.rho, next(t_cycle), p)
        z_next = prim_step(cfg, sched, z, lam, prob)
        for _ in range(xis):
            xi = next(xi_gen)
            residual, scale = nice_parts(
                cfg, sched, z, lam, xi, prob, cert=cert, z_next=z_next, delta=delta
            )
            checked += 1
            max_raw = max(max_raw, residual)
            max_scaled = max(max_scaled, residual / scale)
    return {
        "kind": cfg.kind,
        "delta": cert.delta,
        "p": p,
        "states": states,
        "xis": xis,
        "checked": checked,
        "max_residual": max_raw,
        "max_scaled_residual": max_scaled,
    }


def make_config(kind, prob, rho, policy="auto", scale=1.0, margin=1.0, alpha=None):
    """Build a MapConfig from a matrix policy.

    identity-scaled: M = scale * I on every block (chambolle-pock: alpha
    defaults to 1/scale). auto: the minimal scaled identity satisfying each
    certificate condition with absolute slack `margin`.
    """
    spec, view = _view(kind, prob)
    if policy not in ("identity-scaled", "auto"):
        raise ConfigError(f"unknown matrix policy {policy!r}")
    if policy == "identity-scaled":
        s = [scale] * len(view.ops)
    else:
        linearized = view.smooth is not None and spec.smooth_linearized
        L = view.smooth.lipschitz_grad if linearized else 0.0
        s = [
            (c * rho * linalg.lambda_max(A.T @ A) if c else 0.0) + L + margin
            for c, A in zip(spec.floor, view.ops)
        ]
    if spec.alpha:
        return MapConfig(kind=kind, rho=rho, alpha=1.0 / s[1] if alpha is None else alpha)
    weights = zip(_weight_names(len(s)), s, view.dims)
    return MapConfig(kind=kind, rho=rho, **{name: c * np.eye(n) for name, c, n in weights})
