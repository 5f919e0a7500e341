"""Nice primal algorithmic maps and their certificates.

Under the FLAG schedule rho_t = rho tau_t, tau_t = t^{p-1}, a primal map takes
(z, lambda) to z+ and is *nice* with certificate (delta, P, Q) when, for every
feasible xi,

    L_{rho_t}(z+, lambda) - L_{rho_t}(xi, lambda)
        <= tau_t Delta_P(xi, z, z+) - (tau_t/2) ||z+ - z||_Q^2
           - (sigma/2) ||xi - z+||^2 - (delta rho_t / 2) ||A z+ - b||^2.

Every map kind is one row of KINDS: its blocks, their update order, and its
certificate formula. One generic step updates block i of z = (z_1, z_2) by

    z_i+ = argmin_x  f_i(x) + <g_i, x> + 0.5 x'V_i(c) x,
    g_i  = A_i'(lambda + rho_t r_i) - w_i M_i z_i [+ q | + grad h(z)],

with w_i = tau_t on accelerated blocks and 1 otherwise, and r_i the constraint
residual at the newest (Gauss-Seidel) or old (Jacobi) values of the other
blocks, plus the block's own old term when the block linearizes the penalty.
As rho_t = rho tau_t, V_i moves only with c = tau_t: it is the pencil

    V_i(c) = H0_i + c K0_i,  H0_i = [M_i] [+ H],  K0_i = [M_i] [+ rho A_i'A_i],

with M_i in K0_i on accelerated blocks and in H0_i otherwise, rho A_i'A_i on
blocks that keep the penalty exactly, and H the smooth part h = 0.5 x'Hx +
q'x that a single-block map folds in (else it steps on grad h(z)); a
quadratic f_i adds its own Hessian to H0_i. A StepPlan is one map on one
problem: it builds the pencils once and its certificate on first use, and
prim_step(plan, tau_t, z, lambda) takes the schedule through tau_t alone.
Two-block maps use the block form of the inequality: accelerated blocks are
weighted by tau_t and contribute their strong convexity, the others carry
weight 1 and no sigma term. nice_parts(plan, tau_t, ...) evaluates left minus
right numerically at one state and one xi, or a (k, n) stack of xi: the terms
in z+ alone are computed once, the rest with matrix-matrix products.
sample_niceness calls it once per state with that state's points, and counts
only points with finite Psi(xi) (elsewhere the left side is -inf and nothing
is tested). Certificates are produced exactly per each kind's closed-form
(delta, P, Q) with every spectral margin recorded.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ConfigError, NotNiceError
from .lagrangian import delta_P, eval_aug_lagrangian, quad_norm
from .problems import BlockProblem, SmoothTerm, constraint_map, single_problem
from .prox import Subproblem

PSD_TOL = 1e-10
# sample_niceness: the tau_t its states cycle through when p = 2, and the
# spread of its states (z, lambda) and of its feasible points xi
SAMPLED_TAUS = (1.0, 2.5, 7.0, 19.5, 60.0)
STATE_SCALE = 2.0
XI_SCALE = 1.5


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
        return [z] if len(self.ops) == 1 else [z[..., :n1], z[..., n1:]]


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


def _pencil(spec, view, i, rho, M_i):
    """(H0, K0) of block i's V_i(c) = H0 + c K0 at c = tau_t; a single term
    is shared, not copied."""
    H0, K0 = ([], [M_i]) if spec.blocks[i].accelerated else ([M_i], [])
    if spec.blocks[i].exact:
        K0.append(rho * (view.ops[i].T @ view.ops[i]))
    if view.smooth is not None and not spec.smooth_linearized:
        H0.append(view.smooth.term.H)
    return tuple(sum(X[1:], X[0]) if X else np.zeros_like(M_i) for X in (H0, K0))


class StepPlan:
    """One map on one problem: its block view, weights M_i, stacked constraint
    map A, a prox.Subproblem per block for its pencil V_i(c) (checked once and
    factored as needed), and its certificate, computed on first use. The
    Grams A_i'A_i enter K0_i on exact blocks and are not kept."""

    def __init__(self, cfg, prob):
        self.cfg, self.prob = cfg, prob
        self.spec, self.view = spec, view = _view(cfg.kind, prob)
        self.M = _weights(cfg, spec, view)
        self.A = constraint_map(prob)
        self.solvers = [
            Subproblem(
                view.terms[i],
                *_pencil(spec, view, i, cfg.rho, self.M[i]),
                name=_block_name(cfg.kind, i, len(self.M)),
            )
            for i in range(len(self.M))
        ]

    @functools.cached_property
    def cert(self):
        """Exact (delta, P, Q) certificate of the map on this problem.

        Raises NotNiceError naming the violated spectral condition when the
        map cannot be certified with the given weights and base rho.
        """
        kind, spec, view = self.cfg.kind, self.spec, self.view
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
        delta, P, Q, conds = spec.certify(self.cfg, view, self.M, G, L)
        if len(P) == 1:
            return _validated(NiceCertificate(kind, delta, P[0], Q[0], tuple(conds)))
        blocks = dict(P1=P[0], P2=P[1], Q1=Q[0], Q2=Q[1])
        P, Q = _block_diag(*P), _block_diag(*Q)
        return _validated(NiceCertificate(kind, delta, P, Q, tuple(conds), **blocks))

    def stats(self):
        """Per block: its factorization route and counts (prox.Subproblem.stats)."""
        return [solver.stats() for solver in self.solvers]


def _block_diag(X1, X2):
    n1, n = X1.shape[0], X1.shape[0] + X2.shape[0]
    out = np.zeros((n, n))
    out[:n1, :n1], out[n1:, n1:] = X1, X2
    return out


def certificate(cfg, prob):
    """The certificate of the map on this problem (StepPlan.cert)."""
    return StepPlan(cfg, prob).cert


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


def prim_step(plan, tau, z, lam):
    """One primal update z+ of the plan's map from (z, lambda) at tau_t = tau
    (so rho_t = rho tau); the plan carries the factorizations across calls."""
    if not 0.0 < tau < math.inf:
        raise ConfigError(f"prim_step needs a positive finite tau_t, got {tau!r}")
    spec, view = plan.spec, plan.view
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if z.shape != (plan.A.shape[1],) or lam.shape != view.b.shape:
        raise ConfigError("prim_step dimension mismatch")
    rho_t = plan.cfg.rho * tau
    old = view.split(z)
    new = list(old)
    for i, (block, A, solver) in enumerate(zip(spec.blocks, view.ops, plan.solvers)):
        src = old if spec.jacobi else new
        parts = [B @ src[j] for j, B in enumerate(view.ops) if j != i or not block.exact]
        r = sum(parts, -view.b)
        w = tau if block.accelerated else 1.0
        g = A.T @ (lam + rho_t * r) - w * (plan.M[i] @ old[i])
        if view.smooth is not None:
            g = g + (view.smooth.term.grad(z) if spec.smooth_linearized else view.smooth.term.q)
        new[i] = solver.solve(g, tau)
    return new[0] if len(new) == 1 else np.concatenate(new)


def nice_parts(plan, tau, z, lam, xi, z_next=None, delta=None):
    """(residual, scale) of the niceness inequality of the plan's map at the
    state (z, lambda), tau_t = tau and one feasible xi (floats), or each row
    of a (k, n) stack of them (one value per row). The terms in z+ alone are
    computed once for the stack; delta defaults to the certificate's."""
    cert, prob = plan.cert, plan.prob
    if delta is None:
        delta = cert.delta
    z = np.asarray(z, dtype=float)
    xi = np.asarray(xi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    A, spec, view = plan.A, plan.spec, plan.view
    b = prob.b
    feas_xi = np.atleast_1d(np.linalg.norm(xi @ A.T - b, axis=-1))
    infeasible = np.flatnonzero(feas_xi > 1e-9 * (1.0 + float(np.linalg.norm(b))))
    if infeasible.size:
        raise ConfigError(f"xi must be feasible (residual {feas_xi[infeasible[0]]:.3e})")
    if z_next is None:
        z_next = prim_step(plan, tau, z, lam)
    rho_t = plan.cfg.rho * tau

    lhs = eval_aug_lagrangian(prob, z_next, lam, rho_t) - eval_aug_lagrangian(
        prob, xi, lam, rho_t
    )
    feas_next = float(np.linalg.norm(A @ z_next - b))
    pen_term = 0.5 * delta * rho_t * feas_next**2

    bregman = q_term = sc_term = 0.0
    points = (view.split(xi), view.split(z), view.split(z_next))
    for block, sigma, P, Q, xi_i, z_i, zn_i in zip(
        spec.blocks, view.sigmas, cert.block_P, cert.block_Q, *points
    ):
        w = tau if block.accelerated else 1.0
        bregman += w * delta_P(P, xi_i, z_i, zn_i)
        q_term += 0.5 * w * quad_norm(Q, zn_i - z_i)
        if block.accelerated:
            sc_term += 0.5 * sigma * np.sum((xi_i - zn_i) ** 2, axis=-1)

    rhs = bregman - q_term - sc_term - pen_term
    residual = lhs - rhs
    scale = 1.0 + abs(lhs) + abs(bregman) + q_term + sc_term + pen_term
    return (float(residual), float(scale)) if xi.ndim == 1 else (residual, scale)


def feasible_sampler(prob, seed=0, scale=1.0, size=None):
    """Yield feasible points xi = x_particular + null-space perturbations: one
    point per next(), or a (size, n) stack of them. A stack of k draws the
    same normal variates as k single points."""
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
    null_rows = Vt[rank:]
    shape = null_rows.shape[0] if size is None else (size, null_rows.shape[0])
    while True:
        yield x_part + scale * rng.standard_normal(shape) @ null_rows


def block_sigmas(kind, prob):
    """(accelerated, sigma_i) for each block of the map kind on prob; the
    analysis exploits sigma_i on accelerated blocks only."""
    spec, view = _view(kind, prob)
    return [(block.accelerated, s) for block, s in zip(spec.blocks, view.sigmas)]


def default_p(cfg, prob):
    """Regime implied by the strong convexity the map's analysis exploits."""
    return 2 if all(s > 0 for acc, s in block_sigmas(cfg.kind, prob) if acc) else 1


def sample_niceness(cfg, prob, states=100, xis=20, seed=0, delta=None, plan=None):
    """Adversarial sampling of the niceness inequality.

    Draws `states` random (z, lambda, tau_t) tuples (tau_t cycles through
    SAMPLED_TAUS when the map's default p is 2, else tau_t = 1) and `xis`
    feasible points per state, evaluates each state's points as one stack, and
    returns the worst residual both raw and relative to scale = 1 + sum of
    absolute inequality terms. A point outside the domain of Psi (where an
    indicator term is +inf) makes the left side -inf, so the inequality holds
    there trivially: such points count neither in `checked` nor in the maxima.
    plan (a StepPlan of cfg on prob) is built here unless given.
    """
    for name, count in (("states", states), ("xis", xis)):
        if count < 1:
            raise ConfigError(f"niceness sampling needs {name} >= 1, got {count}")
    if plan is None:
        plan = StepPlan(cfg, prob)
    elif plan.cfg is not cfg or plan.prob is not prob:
        raise ConfigError("sample_niceness: the plan was built for another map or problem")
    cert = plan.cert
    p = default_p(cfg, prob)
    rng = np.random.default_rng(seed)
    xi_gen = feasible_sampler(prob, seed=seed + 1, scale=XI_SCALE, size=xis)
    m, n = plan.A.shape
    center = prob.feasible_point if prob.feasible_point is not None else np.zeros(n)
    taus = itertools.cycle(SAMPLED_TAUS if p == 2 else (1.0,))

    max_raw = -np.inf
    max_scaled = -np.inf
    checked = 0
    for _ in range(states):
        z = center + STATE_SCALE * rng.standard_normal(n)
        lam = STATE_SCALE * rng.standard_normal(m)
        tau = next(taus)
        z_next = prim_step(plan, tau, z, lam)
        residual, scale = nice_parts(plan, tau, z, lam, next(xi_gen), z_next=z_next, delta=delta)
        tested = residual > -np.inf
        residual, scale = residual[tested], scale[tested]
        checked += residual.size
        max_raw = float(np.max(residual, initial=max_raw))
        max_scaled = float(np.max(residual / scale, initial=max_scaled))
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
