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

from .errors import ConfigError, DataError, NumericalError
from .linalg import rowdot
from .maps import MapConfig, StepPlan, default_p, prim_step
from .problems import eval_objective

MODES = ("fast", "classic", "ergodic")
# a run preallocates 11 (iters + 1) floats: 88 MB at the bound
MAX_ITERS = 1_000_000
# rows run() buffers before it evaluates their columns as one stack
CHUNK = 256

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
        if not 1 <= self.iters <= MAX_ITERS:
            raise ConfigError(f"iters must lie in [1, {MAX_ITERS}]")
        for name in ("z0", "y0"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, np.asarray(val, dtype=float))


@dataclass(frozen=True)
class ResolvedParams:
    """The mode's (p, mu) and the map's plan (its config and certificate)."""

    mode: str
    p: int
    mu: float
    rho: float
    plan: StepPlan


def mode_p(mode, cfg, prob):
    """The p a run in this mode uses: 2 for fast, 1 for classic, and the map's
    default_p for ergodic."""
    return {"fast": 2, "classic": 1}.get(mode) or default_p(cfg, prob)


def resolve_params(prob, params):
    """Build the map's step plan, certify the map and fix (p, mu) for the
    requested mode."""
    plan = StepPlan(params.cfg, prob)
    cert = plan.cert
    if params.mode == "fast" and default_p(params.cfg, prob) != 2:
        raise ConfigError("fast mode requires the strong convexity exploited by the map")
    p = mode_p(params.mode, params.cfg, prob)
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
    return ResolvedParams(mode=params.mode, p=p, mu=mu, rho=params.cfg.rho, plan=plan)


@dataclass(frozen=True)
class FlagState:
    k: int
    t: float
    z: np.ndarray
    y: np.ndarray
    x: np.ndarray | None
    zbar_acc: np.ndarray | None = None


def initial_state(prob, params, resolved):
    m, n = resolved.plan.A.shape
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


def flag_iterate(state, resolved, prob):
    """One outer iteration under the resolved params; returns the successor
    state."""
    p, mu, rho = resolved.p, resolved.mu, resolved.rho
    A = resolved.plan.A
    b = prob.b
    t_k = state.t
    rho_k = rho * t_k ** (p - 1)
    if resolved.mode == "ergodic":
        lam = state.y
    else:
        lam = compute_lambda(state.y, rho_k, t_k, A @ state.x - b)
    z_new = prim_step(resolved.plan, t_k ** (p - 1), state.z, lam)
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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file ({exc})") from None
    if not lines:
        raise DataError(f"{path}: empty trajectory file")
    header = lines[0].strip().split(",")
    if tuple(header) != CSV_COLUMNS:
        raise DataError(f"{path}: unexpected columns {header}")
    if len(lines) == 1:
        raise DataError(f"{path}: no trajectory rows")
    try:
        body = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: malformed trajectory rows ({exc})") from None
    if body.shape[1] != len(CSV_COLUMNS):
        raise DataError(f"{path}: malformed trajectory rows")
    cols = {name: body[:, i] for i, name in enumerate(CSV_COLUMNS)}
    if not np.array_equal(cols["k"], np.arange(len(body))):
        raise DataError(f"{path}: column k is not 0, 1, ..., {len(body) - 1}")
    cols["k"] = cols["k"].astype(int)
    return Trajectory(**cols)


class _Recorder:
    """The columns of one run's trajectory, evaluated CHUNK rows at a time.

    Each row's x^k (the running average in ergodic mode), z^k and y^k wait in
    a (CHUNK, n) / (CHUNK, m) buffer; flush() evaluates the buffered rows'
    psi, feas, y_norm and s_k columns as stacks (one eval_objective and one
    product with A' per point sequence) and then runs the finiteness guard
    on them."""

    def __init__(self, prob, resolved, N, reference):
        self.prob, self.resolved, self.reference = prob, resolved, reference
        self.A = resolved.plan.A
        m, n = self.A.shape
        self.ergodic = resolved.mode == "ergodic"
        self.with_gap = reference is not None and not self.ergodic
        # columns every row fills; s_k and the bounds are NaN where not computed
        self.guarded = CSV_COLUMNS[1:8] + (("s_k",) if self.with_gap else ())
        self.out = {c: np.full(N + 1, np.nan) for c in CSV_COLUMNS}
        self.out["k"] = np.arange(N + 1)
        rows = min(CHUNK, N + 1)
        self.X, self.Z, self.Y = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, m))
        self.aug = np.zeros(rows)
        self.lo = self.hi = 0  # rows [lo, hi) are buffered, not yet evaluated

    def add(self, st, t_used):
        """Buffer the row of state st; t_used is the t of the iteration that
        produced it (ignored for row 0)."""
        i, j = self.hi, self.hi - self.lo
        p, rho = self.resolved.p, self.resolved.rho
        self.out["t"][i] = st.t
        self.out["rho_k"][i] = rho * st.t ** (p - 1)
        if not self.ergodic:
            self.X[j] = st.x
        elif i == 0:
            self.X[j] = st.z
        else:
            np.divide(st.zbar_acc, ergodic_weight_sum(t_used, p), out=self.X[j])
        self.Z[j], self.Y[j] = st.z, st.y
        # the penalty rho t_{k-1}^p of the s_k gap
        self.aug[j] = rho * t_used**p if i > 0 else 0.0
        self.hi += 1
        if self.hi - self.lo == len(self.X):
            self.flush()

    def flush(self):
        """Evaluate the buffered rows, then raise NumericalError naming the
        first of them with a non-finite column (the first such column in
        CSV_COLUMNS order)."""
        lo, hi, out, prob = self.lo, self.hi, self.out, self.prob
        k, rows = hi - lo, slice(lo, hi)
        self.lo = hi
        if not k:
            return
        b, At = prob.b, self.A.T
        x = self.X[:k]
        r = x @ At - b
        psi = eval_objective(prob, x)
        out["psi_x"][rows] = psi
        out["feas_x"][rows] = feas = np.linalg.norm(r, axis=1)
        if self.with_gap:
            # the Lagrangian at (x^k, y*) from the Psi and residual above:
            # bitwise lagrangian.eval_lagrangian of the stack
            ref = self.reference
            gap = psi + rowdot(r, ref.y_star) + 0.5 * self.aug[:k] * feas**2
            out["s_k"][rows] = gap - ref.psi_star
        out["psi_z"][rows] = eval_objective(prob, self.Z[:k])
        out["feas_z"][rows] = np.linalg.norm(self.Z[:k] @ At - b, axis=1)
        out["y_norm"][rows] = np.linalg.norm(self.Y[:k], axis=1)
        bad = ~np.isfinite(np.stack([out[c][rows] for c in self.guarded]))
        if bad.any():
            i = lo + int(np.argmax(bad.any(axis=0)))
            c = self.guarded[int(np.argmax(bad[:, i - lo]))]
            raise NumericalError(f"iteration {i}: {c} is not finite ({out[c][i]})")


def run(prob, params, reference=None, bound=None):
    """Run the driver for params.iters iterations and record the trajectory.

    reference (optional) enables the s_k column: the rho t_{k-1}^p augmented
    Lagrangian gap at (x^k, y*) against psi*. bound (optional, with
    reference) fills bound_fn = B / (2 k^p) and bound_feas = B / (c k^p).

    Rows are recorded in chunks of CHUNK, so the recording holds at most
    CHUNK x (2n + m) floats besides the output columns. A chunk's columns
    are evaluated when it is full, at the end, and before an exception from
    a later step leaves the loop. The finiteness guard therefore names the
    earliest iteration with a non-finite t, rho_k, psi, feas, y_norm or s_k
    and the first such column in CSV_COLUMNS order, and raises
    NumericalError; no trajectory is returned.
    """
    resolved = resolve_params(prob, params)
    state = start = initial_state(prob, params, resolved)
    p, mode = resolved.p, resolved.mode
    N = params.iters
    rec = _Recorder(prob, resolved, N, reference)

    # the finiteness guard in _Recorder.flush reports any overflow as a
    # NumericalError
    with np.errstate(all="ignore"):
        try:
            rec.add(state, 0.0)
            for _ in range(N):
                t_used = state.t
                state = flag_iterate(state, resolved, prob)
                rec.add(state, t_used)
        except Exception:
            rec.flush()  # a non-finite row before the failing step wins
            raise
        rec.flush()
    out = rec.out
    if reference is not None and bound is not None:
        k_p = np.arange(1, N + 1, dtype=float) ** p
        out["bound_fn"][1:] = bound / (2.0 * k_p)
        if reference.c > 0:
            out["bound_feas"][1:] = bound / (reference.c * k_p)

    plan = resolved.plan
    meta = {
        "kind": plan.cfg.kind,
        "mode": mode,
        "p": p,
        "mu": resolved.mu,
        "rho": resolved.rho,
        "delta": plan.cert.delta,
        "iters": N,
        "z0": start.z.tolist(),
        "y0": start.y.tolist(),
        "subproblems": plan.stats(),
    }
    if mode == "ergodic":
        meta["gamma_min"] = (1.0 + plan.cert.delta - resolved.mu) * resolved.rho
    return Trajectory(**out, meta=meta)
