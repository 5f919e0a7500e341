"""Accelerated Lagrangian driver.

One outer iteration at sequence value t_k with penalty rho_k = rho t_k^{p-1}:

    lambda^k = y^k + rho_k (t_k - 1) (A x^k - b)      (skipped in ergodic mode)
    z^{k+1}  = PrimalMap_{t_k}(z^k, lambda^k)
    y^{k+1}  = y^k + mu rho_k (A z^{k+1} - b)
    x^{k+1}  = (1 - 1/t_k) x^k + (1/t_k) z^{k+1}      (non-ergodic modes)

classic mode runs p = 1 with t_k = k + 1; fast mode runs p = 2 with the
accelerated sequence t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2 and requires the
strong convexity the map's analysis exploits. ergodic mode drops the x
sequence and the multiplier extrapolation (lambda^k = y^k) and reports the
weighted average of the z iterates instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .lagrangian import eval_lagrangian
from .maps import MapConfig, ScheduleParams, certificate, default_p, prim_step
from .problems import constraint_map, eval_objective

MODES = ("fast", "classic", "ergodic")

CSV_COLUMNS = (
    "k",
    "t",
    "rho_k",
    "psi_x",
    "feas_x",
    "psi_z",
    "feas_z",
    "y_norm",
    "s_k",
    "bound_fn",
    "bound_feas",
)


def next_t(t, p):
    """Sequence update: t + 1 for p = 1, (1 + sqrt(1 + 4 t^2)) / 2 for p = 2."""
    if p == 1:
        return t + 1.0
    if p == 2:
        return (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
    raise ConfigError("p must be 1 or 2")


def compute_lambda(y, rho_k, t_k, ax_minus_b):
    """Extrapolated multiplier y + rho_k (t_k - 1)(A x - b)."""
    return np.asarray(y, dtype=float) + rho_k * (t_k - 1.0) * np.asarray(
        ax_minus_b, dtype=float
    )


@dataclass(frozen=True)
class RunParams:
    """Driver configuration: the primal map, mode, and iteration budget.

    mu defaults to the certificate delta in fast/classic mode and to 1 in
    ergodic mode. z0 defaults to the problem's feasible point (zeros when
    absent); y0 defaults to zeros.
    """

    cfg: MapConfig
    mode: str = "classic"
    iters: int = 100
    mu: float | None = None
    z0: np.ndarray | None = None
    y0: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r} (choose from {', '.join(MODES)})")
        if self.iters < 1:
            raise ConfigError("iters must be >= 1")
        for name in ("z0", "y0"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, np.asarray(val, dtype=float))


@dataclass(frozen=True)
class ResolvedParams:
    cfg: MapConfig
    cert: object
    mode: str
    p: int
    mu: float
    rho: float


def resolve_params(prob, params):
    """Certify the map and fix (p, mu) for the requested mode."""
    cert = certificate(params.cfg, prob)
    dp = default_p(params.cfg, prob)
    if params.mode == "fast":
        if dp != 2:
            raise ConfigError(
                "fast mode requires the strong convexity exploited by the map"
            )
        p = 2
    elif params.mode == "classic":
        p = 1
    else:
        p = dp
    if params.mode == "ergodic":
        mu = 1.0 if params.mu is None else params.mu
        if not 0.0 < mu <= 1.0 + cert.delta + 1e-12:
            raise ConfigError(
                f"ergodic mode requires mu in (0, 1 + delta] = (0, {1 + cert.delta:.6g}]"
            )
    else:
        mu = cert.delta if params.mu is None else params.mu
        if not 0.0 < mu <= cert.delta + 1e-12:
            raise ConfigError(f"mu must lie in (0, delta] = (0, {cert.delta:.6g}]")
    return ResolvedParams(
        cfg=params.cfg, cert=cert, mode=params.mode, p=p, mu=mu, rho=params.cfg.rho
    )


@dataclass(frozen=True)
class FlagState:
    k: int
    t: float
    z: np.ndarray
    y: np.ndarray
    x: np.ndarray | None
    zbar_acc: np.ndarray | None = None


def initial_state(prob, params, resolved=None):
    if resolved is None:
        resolved = resolve_params(prob, params)
    A = constraint_map(prob)
    n, m = A.shape[1], A.shape[0]
    z0 = params.z0
    if z0 is None:
        z0 = prob.feasible_point.copy() if prob.feasible_point is not None else np.zeros(n)
    y0 = params.y0 if params.y0 is not None else np.zeros(m)
    if z0.shape != (n,):
        raise ConfigError(f"z0 has shape {z0.shape}, expected ({n},)")
    if y0.shape != (m,):
        raise ConfigError(f"y0 has shape {y0.shape}, expected ({m},)")
    ergodic = resolved.mode == "ergodic"
    return FlagState(
        k=0,
        t=1.0,
        z=z0.copy(),
        y=y0.copy(),
        x=None if ergodic else z0.copy(),
        zbar_acc=np.zeros(n) if ergodic else None,
    )


def flag_iterate(state, params, prob, resolved=None):
    """One outer iteration; returns the successor state."""
    if resolved is None:
        resolved = params if isinstance(params, ResolvedParams) else resolve_params(prob, params)
    p, mu, rho = resolved.p, resolved.mu, resolved.rho
    A = constraint_map(prob)
    b = prob.b
    t_k = state.t
    rho_k = rho * t_k ** (p - 1)
    if resolved.mode == "ergodic":
        lam = state.y
    else:
        lam = compute_lambda(state.y, rho_k, t_k, A @ state.x - b)
    sched = ScheduleParams(rho_t=rho_k, tau_t=t_k ** (p - 1), p=p)
    z_new = prim_step(resolved.cfg, sched, state.z, lam, prob)
    w = A @ z_new - b
    y_new = state.y + mu * rho_k * w
    if resolved.mode == "ergodic":
        x_new = None
        acc = state.zbar_acc + t_k ** (p - 1) * z_new
    else:
        x_new = (1.0 - 1.0 / t_k) * state.x + (1.0 / t_k) * z_new
        acc = None
    return FlagState(
        k=state.k + 1,
        t=next_t(t_k, p),
        z=z_new,
        y=y_new,
        x=x_new,
        zbar_acc=acc,
    )


def ergodic_weight_sum(t, p):
    """Printed normalization of the ergodic average after the iteration that
    used sequence value t: t^2 for p = 2 (since sum of t_j equals t_k^2), the
    plain count for p = 1."""
    return t * t if p == 2 else t


@dataclass
class Trajectory:
    """Per-iteration record, one row per state x^k / z^k (row 0 = start).

    In ergodic mode the psi_x / feas_x columns hold the running weighted
    average of the z iterates (row 0 holds z^0). The t and rho_k columns hold
    the values the *next* iteration will use. s_k and the bound columns are
    NaN unless a reference solution (and bound constant) was attached.
    """

    k: np.ndarray
    t: np.ndarray
    rho_k: np.ndarray
    psi_x: np.ndarray
    feas_x: np.ndarray
    psi_z: np.ndarray
    feas_z: np.ndarray
    y_norm: np.ndarray
    s_k: np.ndarray
    bound_fn: np.ndarray
    bound_feas: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def records(self):
        return len(self.k)

    def to_csv(self, path, timestamp=None):
        import datetime

        if timestamp is None:
            timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        data = np.column_stack([getattr(self, c) for c in CSV_COLUMNS])
        with open(path, "w") as fh:
            fh.write(f"# written {timestamp}\n")
            fh.write(",".join(CSV_COLUMNS) + "\n")
            np.savetxt(fh, data, delimiter=",", fmt="%.17g")


def trajectory_from_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise DataError(f"{path}: empty trajectory file")
    header = lines[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise DataError(f"{path}: unexpected columns {header}")
    try:
        body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise DataError(f"{path}: malformed trajectory rows ({exc})") from None
    if body.ndim != 2 or body.shape[1] != len(CSV_COLUMNS):
        raise DataError(f"{path}: malformed trajectory rows")
    cols = {name: body[:, i] for i, name in enumerate(CSV_COLUMNS)}
    cols["k"] = cols["k"].astype(int)
    return Trajectory(**cols)


def run(prob, params, reference=None, bound=None):
    """Run the driver for params.iters iterations and record the trajectory.

    reference (optional) enables the s_k column: the rho t_{k-1}^p augmented
    Lagrangian gap at (x^k, y*) against psi*. bound (optional, with
    reference) fills bound_fn = B / (2 k^p) and bound_feas = B / (c k^p).
    """
    resolved = resolve_params(prob, params)
    state = initial_state(prob, params, resolved)
    p, mode = resolved.p, resolved.mode
    N = params.iters
    A = constraint_map(prob)
    b = prob.b

    out = {c: np.full(N + 1, np.nan) for c in CSV_COLUMNS}
    out["k"] = np.arange(N + 1)

    def record(i, st, t_used):
        out["t"][i] = st.t
        out["rho_k"][i] = resolved.rho * st.t ** (p - 1)
        if mode == "ergodic":
            xbar = st.z if i == 0 else st.zbar_acc / ergodic_weight_sum(t_used, p)
            out["psi_x"][i] = eval_objective(prob, xbar)
            out["feas_x"][i] = np.linalg.norm(A @ xbar - b)
        else:
            out["psi_x"][i] = eval_objective(prob, st.x)
            out["feas_x"][i] = np.linalg.norm(A @ st.x - b)
            if reference is not None:
                aug = resolved.rho * t_used**p if i > 0 else 0.0
                out["s_k"][i] = (
                    eval_lagrangian(prob, st.x, reference.y_star)
                    + 0.5 * aug * out["feas_x"][i] ** 2
                    - reference.psi_star
                )
        out["psi_z"][i] = eval_objective(prob, st.z)
        out["feas_z"][i] = np.linalg.norm(A @ st.z - b)
        out["y_norm"][i] = np.linalg.norm(st.y)
        if reference is not None and bound is not None and i > 0:
            out["bound_fn"][i] = bound / (2.0 * float(i) ** p)
            if reference.c > 0:
                out["bound_feas"][i] = bound / (reference.c * float(i) ** p)

    record(0, state, 0.0)
    for _ in range(N):
        t_used = state.t
        state = flag_iterate(state, resolved, prob)
        record(state.k, state, t_used)

    meta = {
        "kind": resolved.cfg.kind,
        "mode": mode,
        "p": p,
        "mu": resolved.mu,
        "rho": resolved.rho,
        "delta": resolved.cert.delta,
        "iters": N,
    }
    if mode == "ergodic":
        meta["gamma_min"] = (1.0 + resolved.cert.delta - resolved.mu) * resolved.rho
    return Trajectory(**out, meta=meta)
