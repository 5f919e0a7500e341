"""Nice primal algorithmic maps and their certificates.

Under the FLAG schedule rho_t = rho tau_t, tau_t = t^{p-1}, a primal map takes
(z, lambda) to z+ and is *nice* with certificate (delta, P, Q) when, for every
feasible xi,

    L_{rho_t}(z+, lambda) - L_{rho_t}(xi, lambda)
        <= tau_t Delta_P(xi, z, z+) - (tau_t/2) ||z+ - z||_Q^2
           - (sigma/2) ||xi - z+||^2 - (delta rho_t / 2) ||A z+ - b||^2.

Every map kind is one row of KINDS: its blocks and their update order, from
which one formula derives its certificate. One generic step updates block i
of z = (z_1, z_2) by

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
problem: it builds the pencils and compiles each block's step (StepPlan.steps)
once, and its certificate on first use. prim_step(plan, tau_t, z, lambda)
runs those records with ndarray.dot products on rows (one state or a stack
at one tau_t), in the operations of the formula above, and takes the
schedule through tau_t alone.
Two-block maps use the block form of the inequality: accelerated blocks are
weighted by tau_t and contribute their strong convexity, the others carry
weight 1 and no sigma term. nice_parts(plan, tau_t, ...) evaluates left minus
right numerically, given z+, at one state and one xi, at one state and a
(X, n) stack of xi, or at a stack of k states with X points each: the terms
in z+ alone are computed once per state, the rest with matrix-matrix products.
sample_niceness steps all its states with one prim_step per distinct tau_t,
then calls nice_parts once per chunk of states (SAMPLE_FLOATS bounds only the
chunk's stacked points), and counts only points with finite Psi(xi)
(elsewhere the left side is -inf and nothing is tested). Every kind's
certificate is the closed form (delta, P, Q) of its block flags (_certify),
with every spectral margin recorded; _view first refuses a problem the kind
does not apply to. Each distinct matrix the certificate reads is decomposed
once, and it keeps each block's (lambda_min, lambda_max) of P_i and Q_i: the
fast-rate gate p2_condition, next to _floor, reads lambda_max(P_i) there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ConfigError, NotNiceError
from .lagrangian import eval_aug_lagrangian, quad_norm
from .problems import SmoothTerm, number
from .prox import Subproblem

# sample_niceness: the tau_t its states cycle through when p = 2, and the
# spread of its states (z, lambda) and of its feasible points xi
SAMPLED_TAUS = (1.0, 2.5, 7.0, 19.5, 60.0)
STATE_SCALE = 2.0
XI_SCALE = 1.5
# sample_niceness evaluates its states (drawn and stepped whole) in chunks whose
# stacked points hold at most this many floats (64 KB): one nice_parts call a
# chunk, while at large n the xi stack stays that of a single state's points
SAMPLE_FLOATS = 8192


@dataclass(frozen=True, eq=False)
class MapConfig:
    """Map kind plus its proximal weight data and base penalty rho."""

    kind: str
    rho: float
    M: np.ndarray | None = None
    M1: np.ndarray | None = None
    M2: np.ndarray | None = None
    alpha: float | None = None

    def __post_init__(self):
        map_spec(self.kind)
        number(self.rho, "base penalty rho", 0, strict=True)
        for name in ("M", "M1", "M2"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, linalg.check_psd(val, name))
        if self.alpha is not None:
            number(self.alpha, "alpha", 0, strict=True)


@dataclass(frozen=True)
class Condition:
    """A named spectral condition with its evaluated margin; strict conditions
    require margin > 0, semidefinite ones allow margin >= -1e-10."""

    name: str
    margin: float
    strict: bool = True

    def holds(self):
        return self.margin > 0 if self.strict else self.margin >= -linalg.PSD_TOL


@dataclass(frozen=True, eq=False)
class NiceCertificate:
    """delta with P_i and Q_i per block of the map (one entry for single-block
    maps); P and Q are their block diagonals. block_extremes maps "P" and "Q"
    to (lambda_min per block, lambda_max per block), extremes to those of P, Q."""

    kind: str
    delta: float
    block_P: tuple
    block_Q: tuple
    conditions: tuple
    block_extremes: dict

    @functools.cached_property
    def P(self):
        return _block_diag(self.block_P)

    @functools.cached_property
    def Q(self):
        return _block_diag(self.block_Q)

    @property
    def extremes(self):
        return {name: (min(lo), max(hi)) for name, (lo, hi) in self.block_extremes.items()}


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


class _View(NamedTuple):
    """A problem as the blocks of a map kind: operators A_i, terms f_i, strong
    convexity sigma_i, right-hand side b, smooth part (single block only) and
    the Lipschitz constant L of a linearized smooth part (else 0)."""

    ops: tuple
    terms: tuple
    sigmas: tuple
    b: np.ndarray
    smooth: SmoothTerm | None = None
    L: float = 0.0

    @property
    def dims(self):
        return [A.shape[1] for A in self.ops]


class _Spectra(dict):
    """The spectrum of each distinct array one certificate reads, decomposed
    once (linalg.spectrum, whose errors name the array `name`); each entry
    holds its array, so no id is reused meanwhile."""

    def __call__(self, X, name="matrix"):
        if id(X) not in self:
            self[id(X)] = (X, linalg.spectrum(X, name))
        return self[id(X)][1]


def _floor(spec, block):
    """f = [jacobi] + [the block linearizes the penalty]: how many times
    rho lambda_max(A_i'A_i) the block's weight M_i must exceed."""
    return int(spec.jacobi) + int(not block.exact)


def p2_condition(cert, prob):
    """Fast-rate eligibility: P_i <= (sigma_i/2) I on every block, where
    sigma_i is the strong convexity the map exploits there (none on blocks it
    does not accelerate); lambda_max(P_i) is read from the certificate."""
    spec, view = _view(cert.kind, prob)
    caps = [0.5 * s if block.accelerated else 0.0 for block, s in zip(spec.blocks, view.sigmas)]
    return all(top <= cap + 1e-9 for top, cap in zip(cert.block_extremes["P"][1], caps))


def _certify(spec, rho, M, G, L, spectra):
    """The certificate the block flags of the KINDS row give: (delta, P_i
    list, Q_i list, conditions) from the base penalty rho, the weights M_i,
    the Grams G_i = A_i'A_i, the Lipschitz constant L of a linearized smooth
    part (else 0) and the certificate's _Spectra.

    The lead block (the single block, or the first of a Gauss-Seidel pair)
    has P = M [- rho A'A when it linearizes the penalty], Q = P [- L I when
    the smooth part is linearized], and needs lambda_min(Q) >= 0. Any other
    block i is coupled: P_i = M_i [+ rho A_i'A_i when exact], Q_i = 0, and it
    needs lambda_min(M_i) - f rho l_i > 0 (f = _floor, l_i =
    lambda_max(A_i'A_i)). It costs rho l_i / (rho l_i + lambda_min(M_i)) of
    delta when exact and rho l_i / lambda_min(M_i) when linearized; delta is
    1 less the largest cost, counted twice under Jacobi updates.
    """
    P, Q, conds, costs = [], [], [], []
    for i, (block, name) in enumerate(zip(spec.blocks, _weight_names(len(M)))):
        k, op = name[1:], "AB"[i]
        if i == 0 and not spec.jacobi:
            with np.errstate(over="ignore"):  # a huge rho: refused just below
                P_i = M[i] if block.exact else M[i] - rho * G[i]
                Q_i = P_i - L * np.eye(len(P_i)) if spec.smooth_linearized else P_i
            _require_finite(rho, (f"P{k}", P_i), (f"Q{k}", Q_i))
            name += "" if block.exact else " - rho A'A"
            name += " - L I" if spec.smooth_linearized else ""
            margin = float(spectra(Q_i, f"certificate Q{k}")[0])
            conds.append(Condition(f"lambda_min({name}) >= 0", margin, strict=False))
        else:
            lam, rl = float(spectra(M[i], name)[0]), rho * float(spectra(G[i], f"{op}'{op}")[-1])
            with np.errstate(over="ignore"):
                P_i = M[i] + rho * G[i] if block.exact else M[i]
            _require_finite(rho, (f"P{k}", P_i), (f"rho lambda_max({op}'{op})", rl))
            Q_i = np.zeros_like(M[i])
            f = _floor(spec, block)
            coef = f" - {'rho' if f == 1 else '2 rho'} lambda_max({op}'{op})" if f else ""
            conds.append(Condition(f"lambda_min({name}){coef} > 0", lam - f * rl if f else lam))
            costs.append((rl / (rl + lam) if block.exact else rl / lam) if lam > 0 else 1.0)
        P.append(P_i)
        Q.append(Q_i)
    delta = 1.0 - (2.0 if spec.jacobi else 1.0) * max(costs) if costs else 1.0
    return delta, P, Q, conds


def _require_finite(rho, *named):
    """ConfigError naming the first (name, value) not finite at the base rho."""
    for name, X in named:
        if not np.isfinite(X).all():
            raise ConfigError(f"certificate {name} is not finite at rho = {rho:g}")


@dataclass(frozen=True)
class Kind:
    """One row of KINDS: its blocks and their update order.

    jacobi: each block reads the others' old values (else Gauss-Seidel).
    smooth_linearized: the single block requires h, with zero declared
    strong convexity, and steps on grad h(z).
    alpha: M1 = 0 and M2 = I / alpha from the step alpha; requires A1 = I.
    one_regime: requires sigma_f and sigma_g both zero or both positive.
    _certify gives every row's certificate and _view refuses a problem the
    row does not apply to. The auto policy's M_i is (f rho lambda_max(G_i)
    [+ L] + margin) I with the f of block i that _certify's conditions use
    (_floor).
    """

    blocks: tuple
    jacobi: bool = False
    smooth_linearized: bool = False
    alpha: bool = False
    one_regime: bool = False


EXACT = Block(exact=True)
LINEARIZED = Block(exact=False)
ADMM_FIRST = Block(exact=True, accelerated=False)

KINDS = {
    "prox-al": Kind((EXACT,)),
    "prox-lin-al": Kind((LINEARIZED,)),
    "smooth-prox-al": Kind((EXACT,), smooth_linearized=True),
    "smooth-lin-al": Kind((LINEARIZED,), smooth_linearized=True),
    "prox-admm": Kind((ADMM_FIRST, EXACT)),
    "prox-lin-admm": Kind((ADMM_FIRST, LINEARIZED)),
    "chambolle-pock": Kind((ADMM_FIRST, LINEARIZED), alpha=True),
    "prox-jacobi": Kind((EXACT, EXACT), jacobi=True),
    "pcpm": Kind((LINEARIZED, LINEARIZED), jacobi=True, one_regime=True),
    "full-lin-admm": Kind((LINEARIZED, LINEARIZED)),
}
MAP_KINDS = tuple(KINDS)


def map_spec(kind):
    """The KINDS row of a map kind; ConfigError naming the kinds otherwise."""
    try:
        return KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown map kind {kind!r} (choose from {', '.join(MAP_KINDS)})"
        ) from None


def _view(kind, prob):
    """(table row, _View) of prob for the map kind; ConfigError when the kind
    does not apply to prob (its block count, smooth part, A1 or regime)."""
    spec = map_spec(kind)
    if len(spec.blocks) == 1:
        smooth, L = prob.smooth, 0.0
        if spec.smooth_linearized:
            if smooth is None:
                raise ConfigError(f"{kind} requires a smooth objective part")
            if smooth.term.strong_convexity != 0.0:
                raise ConfigError(
                    f"{kind} handles the smooth part by gradient linearization; "
                    "its declared strong-convexity contribution must be zero"
                )
            L = smooth.lipschitz_grad
        return spec, _View((prob.A,), (prob.f,), (prob.sigma,), prob.b, smooth, L)
    if prob.n1 is None:
        raise ConfigError(f"{kind} requires a two-block problem")
    ops, terms = zip(*prob.blocks)
    sigmas = tuple(t.strong_convexity for t in terms)
    A, m = ops[0], prob.b.shape[0]
    if spec.alpha and (A.shape[1] != m or np.max(np.abs(A - np.eye(m)), initial=0.0) > 1e-12):
        raise ConfigError(f"{kind} requires the first block map A = I")
    if spec.one_regime and (sigmas[0] > 0) != (sigmas[1] > 0):
        raise ConfigError(
            f"{kind} treats both blocks the same: sigma_f and sigma_g must "
            "share the regime (both zero or both positive)"
        )
    return spec, _View(ops, terms, sigmas, prob.b)


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
    is shared, not copied, and an overflow left as inf for linalg.Pencil."""
    H0, K0 = ([], [M_i]) if spec.blocks[i].accelerated else ([M_i], [])
    if view.smooth is not None and not spec.smooth_linearized:
        H0.append(view.smooth.term.H)
    with np.errstate(over="ignore"):
        if spec.blocks[i].exact:
            K0.append(rho * (view.ops[i].T @ view.ops[i]))
        return tuple(sum(X[1:], X[0]) if X else np.zeros_like(M_i) for X in (H0, K0))


class StepPlan:
    """One map on one problem: its block view, weights M_i, stacked constraint
    map A, a prox.Subproblem per block for its pencil V_i(c) (checked once and
    factored as needed), and its certificate, computed on first use. The
    Grams A_i'A_i enter K0_i on exact blocks and are not kept.

    steps[i] is block i's step on rows z, compiled once: (reads, A_i, M_i',
    accelerated, q, H', solve), with reads the products z_j B_j' of r_i as
    (B_j' as a view, j, fresh), fresh when z_j is an earlier block's new
    value (Gauss-Seidel); g_i gains q (h folded into V_i) or z H' + q = grad
    h(z) (h linearized; H' is None otherwise). parts[i] slices z's last axis.
    """

    def __init__(self, cfg, prob):
        self.cfg, self.prob = cfg, prob
        self.spec, self.view = spec, view = _view(cfg.kind, prob)
        self.M = _weights(cfg, spec, view)
        self.A, self.neg_b = prob.A, -prob.b
        self.solvers = [
            Subproblem(
                view.terms[i],
                *_pencil(spec, view, i, cfg.rho, self.M[i]),
                name=_block_name(cfg.kind, i, len(self.M)),
            )
            for i in range(len(self.M))
        ]
        n1, ops = view.ops[0].shape[1], view.ops
        self.parts = [slice(None)] if len(ops) == 1 else [slice(None, n1), slice(n1, None)]
        q = None if view.smooth is None else view.smooth.term.q
        Ht = view.smooth.term.H.T if q is not None and spec.smooth_linearized else None
        self.steps = []
        for i, block in enumerate(spec.blocks):
            reads = tuple(
                (B.T, j, j < i and not spec.jacobi)
                for j, B in enumerate(ops)
                if j != i or not block.exact
            )
            solve = self.solvers[i].solve
            self.steps.append((reads, ops[i], self.M[i].T, block.accelerated, q, Ht, solve))

    @functools.cached_property
    def cert(self):
        """Exact (delta, P, Q) certificate of the map on this problem.

        Raises NotNiceError naming the violated spectral condition when the
        map cannot be certified with the given weights and base rho.
        """
        G = [A.T @ A for A in self.view.ops]
        spectra = _Spectra()
        delta, P, Q, conds = _certify(self.spec, self.cfg.rho, self.M, G, self.view.L, spectra)
        return _validated(self.cfg.kind, delta, P, Q, conds, spectra)

    def stats(self):
        """Per block: its factorization route and counts (prox.Subproblem.stats)."""
        return [solver.stats() for solver in self.solvers]


def _block_diag(blocks):
    if len(blocks) == 1:
        return blocks[0]
    X1, X2 = blocks
    n1, n = X1.shape[0], X1.shape[0] + X2.shape[0]
    out = np.zeros((n, n))
    out[:n1, :n1], out[n1:, n1:] = X1, X2
    return out


def certificate(cfg, prob):
    """The certificate of the map on this problem (StepPlan.cert)."""
    return StepPlan(cfg, prob).cert


def _validated(kind, delta, P, Q, conds, spectra):
    """The certificate, once its conditions hold (NotNiceError naming the
    first that fails), delta lies in (0, 1] and every P_i and Q_i is PSD
    (ConfigError); the spectra give the PSD checks and each block's extremes."""
    for cond in conds:
        if not cond.holds():
            raise NotNiceError(
                f"{kind} is not certified: {cond.name} fails "
                f"(margin {cond.margin:.6e})"
            )
    if not 0.0 < delta <= 1.0 + 1e-12:
        raise NotNiceError(
            f"{kind} is not certified: delta = {delta:.6e} outside (0, 1]"
        )
    extremes = {}
    for name, blocks in (("P", P), ("Q", Q)):
        labels = [name] if len(blocks) == 1 else [f"{name}1", f"{name}2"]
        spans = []
        for label, X in zip(labels, blocks):
            eigs = spectra(X, f"certificate {label}")
            linalg.require_psd(eigs, f"certificate {label}")
            spans.append((float(eigs[0]), float(eigs[-1])))
        extremes[name] = tuple(zip(*spans))
    return NiceCertificate(kind, delta, tuple(P), tuple(Q), tuple(conds), extremes)


def prim_step(plan, tau, z, lam):
    """One primal update z+ of the plan's map from (z, lambda) at tau_t = tau
    (so rho_t = rho tau): the plan's block records run in order, and the
    plan carries the factorizations across calls. z+ has z's shape: z (n,)
    and lambda (m,) are one state, z (k, n) and lambda (k, m) k states."""
    if not 0.0 < tau < math.inf:
        raise ConfigError(f"prim_step needs a positive finite tau_t, got {tau!r}")
    z, lam = np.asarray(z, dtype=float), np.asarray(lam, dtype=float)
    m, n = plan.A.shape
    if z.shape[-1:] != (n,) or z.ndim > 2 or lam.shape != z.shape[:-1] + (m,):
        raise ConfigError("prim_step dimension mismatch")
    rho_t = plan.cfg.rho * tau
    old = [z[..., part] for part in plan.parts]
    new = list(old)
    for i, (reads, A, Mt, accelerated, q, Ht, solve) in enumerate(plan.steps):
        r = plan.neg_b
        for Bt, j, fresh in reads:
            r = r + (new if fresh else old)[j].dot(Bt)
        Mz = old[i].dot(Mt)
        g = (lam + rho_t * r).dot(A) - (tau * Mz if accelerated else Mz)
        if q is not None:
            g = g + (q if Ht is None else z.dot(Ht) + q)
        new[i] = solve(g, tau)
    return new[0] if len(new) == 1 else np.concatenate(new, axis=-1)


def _three_point(P, gap, d):
    """Delta_P(xi, z, z+) from gap = xi - z+ and d = z+ - z (nice_parts)."""
    Pd = d.dot(P.T)
    return linalg.rowdot(gap, Pd) + 0.5 * linalg.rowdot(d, Pd)


def nice_parts(plan, tau, z, lam, xi, z_next, delta=None):
    """(residual, scale) of the niceness inequality of the plan's map at the
    state (z, lambda), tau_t = tau, its step z_next = prim_step(plan, tau, z,
    lambda) and one feasible xi (floats), or each row of a (X, n) stack of
    them (one value per row). States stack as well: z and z_next of shape
    (k, 1, n), lambda (k, 1, m) and tau (k, 1) test state j on the points
    xi[j] of a (k, X, n) stack, giving (k, X) values. The terms in z+ alone
    are computed once per state, as is P d, d = z+ - z, for Delta_P(xi, z, z+)
    = <xi - z+, P d> + 0.5 ||d||_P^2: one product with P per state, not per
    point, and exact for any PSD P. delta defaults to the certificate's."""
    cert, prob = plan.cert, plan.prob
    if delta is None:
        delta = cert.delta
    z = np.asarray(z, dtype=float)
    xi = np.asarray(xi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    A, b = plan.A, prob.b
    feas_xi = np.linalg.norm(xi @ A.T - b, axis=-1).ravel()
    infeasible = np.flatnonzero(feas_xi > prob.feas_tol)
    if infeasible.size:
        raise ConfigError(f"xi must be feasible (residual {feas_xi[infeasible[0]]:.3e})")
    rho_t = plan.cfg.rho * tau

    lhs = eval_aug_lagrangian(prob, z_next, lam, rho_t) - eval_aug_lagrangian(
        prob, xi, lam, rho_t
    )
    feas_next = np.linalg.norm(z_next @ A.T - b, axis=-1)
    pen_term = 0.5 * delta * rho_t * feas_next**2

    bregman = q_term = sc_term = 0.0
    blocks = zip(plan.spec.blocks, plan.parts, plan.view.sigmas, cert.block_P, cert.block_Q)
    for block, part, sigma, P, Q in blocks:
        gap, d = xi[..., part] - z_next[..., part], z_next[..., part] - z[..., part]
        w = tau if block.accelerated else 1.0
        bregman += w * _three_point(P, gap, d)
        q_term += 0.5 * w * quad_norm(Q, d)
        if block.accelerated:
            sc_term += 0.5 * sigma * np.sum(gap**2, axis=-1)

    rhs = bregman - q_term - sc_term - pen_term
    residual = lhs - rhs
    scale = 1.0 + abs(lhs) + abs(bregman) + q_term + sc_term + pen_term
    return (float(residual), float(scale)) if xi.ndim == 1 else (residual, scale)


def feasible_sampler(prob, seed=0, scale=1.0, size=None):
    """Yield feasible points xi = x_particular + null-space perturbations: one
    point per next(), or a (size, n) stack of them. A stack of k draws the
    same normal variates as k single points."""
    rng = np.random.default_rng(seed)
    A = prob.A
    b = prob.b
    if prob.feasible_point is not None:
        x_part = prob.feasible_point
    else:
        x_part, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.linalg.norm(A @ x_part - b) > prob.feas_tol:
            raise ConfigError("problem admits no feasible point within tolerance")
    _, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    null_rows = Vt[rank:]
    shape = null_rows.shape[0] if size is None else (size, null_rows.shape[0])
    while True:
        yield x_part + scale * rng.standard_normal(shape) @ null_rows


def default_p(cfg, prob):
    """Regime implied by the strong convexity the map exploits (accelerated blocks)."""
    spec, view = _view(cfg.kind, prob)
    return 2 if all(s > 0 for b, s in zip(spec.blocks, view.sigmas) if b.accelerated) else 1


def sample_niceness(cfg, prob, states=100, xis=20, seed=0, delta=None, plan=None):
    """Adversarial sampling of the niceness inequality.

    Draws `states` random (z, lambda, tau_t) tuples (tau_t cycles through
    SAMPLED_TAUS when the map's default p is 2, else tau_t = 1) and `xis`
    feasible points per state. It draws all states at once, in O(states (n +
    m)) floats and from the same random streams as one state at a time, steps
    them with one stacked prim_step per distinct tau_t, in order of first use,
    then evaluates chunks of max(1, SAMPLE_FLOATS // (xis n)) states in one
    nice_parts call each on their points, drawn at once. It returns the
    worst residual both raw and relative to scale = 1 + sum of absolute
    inequality terms. A point outside the domain of Psi (where an indicator
    term is +inf) makes the left side -inf, so the inequality holds there
    trivially: such points count neither in `checked` nor in the maxima.
    plan (a StepPlan of cfg on prob) is built here unless given.
    """
    for name, value, lo in (("states", states, 1), ("xis", xis, 1), ("seed", seed, 0)):
        number(value, name, lo, integer=True)
    if plan is None:
        plan = StepPlan(cfg, prob)
    elif plan.cfg is not cfg or plan.prob is not prob:
        raise ConfigError("sample_niceness: the plan was built for another map or problem")
    cert = plan.cert
    p = default_p(cfg, prob)
    rng = np.random.default_rng(seed)
    m, n = plan.A.shape
    center = prob.feasible_point if prob.feasible_point is not None else np.zeros(n)
    # per state, n values of z then m of lambda: the stream of one draw each
    draws = STATE_SCALE * rng.standard_normal((states, n + m))
    z, lam = center + draws[:, :n], draws[:, n:]
    tau = np.resize(SAMPLED_TAUS if p == 2 else 1.0, states)
    z_next = np.empty_like(z)
    # an overflow ends in an error: in linalg.Pencil (V(c)) or _refined (rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in dict.fromkeys(tau.tolist()):  # first-use order: each pencil factors as per state
            rows = tau == t
            z_next[rows] = prim_step(plan, t, z[rows], lam[rows])
    chunk = min(states, max(1, SAMPLE_FLOATS // (xis * n)))
    xi_gen = feasible_sampler(prob, seed=seed + 1, scale=XI_SCALE, size=chunk * xis)
    checked, max_raw, max_scaled = 0, -np.inf, -np.inf
    for start in range(0, states, chunk):
        s, k = slice(start, start + chunk), min(chunk, states - start)
        xi = next(xi_gen)[: k * xis].reshape(k, xis, n)
        residual, scale = nice_parts(
            plan, tau[s, None], z[s, None], lam[s, None], xi, z_next=z_next[s, None], delta=delta
        )
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
    margin = number(margin, "margin")
    if policy not in ("identity-scaled", "auto"):
        raise ConfigError(f"unknown matrix policy {policy!r}")
    if policy == "identity-scaled":
        s = [number(scale, "scale")] * len(view.ops)
    else:
        floors = [_floor(spec, block) for block in spec.blocks]
        s = [
            (f * rho * linalg.lambda_max(A.T @ A) if f else 0.0) + view.L + margin
            for f, A in zip(floors, view.ops)
        ]
    if spec.alpha:
        alpha = (1.0 / s[1] if s[1] else math.inf) if alpha is None else alpha
        return MapConfig(kind=kind, rho=rho, alpha=alpha)
    weights = zip(_weight_names(len(s)), s, view.dims)
    with np.errstate(invalid="ignore"):  # c = inf: MapConfig names the non-finite M_i
        weights = {name: c * np.eye(n) for name, c, n in weights}
    return MapConfig(kind=kind, rho=rho, **weights)
