"""Accelerated Lagrangian driver.

One outer iteration at sequence value t_k with penalty rho_k = rho t_k^{p-1}:

    lambda^k = y^k + rho_k (t_k - 1) (A x^k - b)      (skipped in ergodic mode)
    z^{k+1}  = PrimalMap_{t_k}(z^k, lambda^k)
    y^{k+1}  = y^k + mu rho_k (A z^{k+1} - b)
    x^{k+1}  = (1 - 1/t_k) x^k + (1/t_k) z^{k+1}      (non-ergodic modes)
    x^{k+1}  = x^k + tau_k z^{k+1},  x^0 = 0          (ergodic mode)

classic mode runs p = 1 with t_k = k + 1; fast mode runs p = 2 with the
accelerated sequence t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2 and requires the
strong convexity the map's analysis exploits. ergodic mode drops the
multiplier extrapolation (lambda^k = y^k); its x is the weighted sum
sum_j tau_j z^{j+1} (tau_j = t_j^{p-1}), and the run reports that sum over
ergodic_weight_sum, the weighted average of the z iterates.

A state is one start, z and x (n,) with y (m,), or a stack of starts at one
t_k, z and x (k, n) with y (k, m); flag_iterate steps either through the
same lines. run() records one start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .linalg import rowdot
from .maps import MapConfig, StepPlan, default_p, prim_step
from .problems import eval_objective, number

MODES = ("fast", "classic", "ergodic")
# a run preallocates 9 (iters + 1) floats: 72 MB at the bound
MAX_ITERS = 1_000_000
# rows run() buffers before it evaluates their columns as one stack
CHUNK = 256


def check_mode(mode):
    """ConfigError unless mode is one of MODES."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r} (choose from {', '.join(MODES)})")


def next_t(t, p):
    """Sequence update: t + 1 for p = 1, (1 + sqrt(1 + 4 t^2)) / 2 for p = 2."""
    if p == 1:
        return t + 1.0
    if p == 2:
        return (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
    raise ConfigError("p must be 1 or 2")


def compute_lambda(y, rho_k, t_k, ax_minus_b):
    """Extrapolated multiplier y + rho_k (t_k - 1)(A x - b) of arrays y and
    ax_minus_b."""
    return y + rho_k * (t_k - 1.0) * ax_minus_b


@dataclass(frozen=True, eq=False)
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
        check_mode(self.mode)
        number(self.iters, "iters", 1, MAX_ITERS, integer=True)
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


def resolve_params(prob, params, plan=None):
    """Certify the map on its step plan (built here unless given) and fix
    (p, mu) for the requested mode."""
    if plan is None:
        plan = StepPlan(params.cfg, prob)
    elif plan.cfg is not params.cfg or plan.prob is not prob:
        raise ConfigError("run: the plan was built for another map or problem")
    cert = plan.cert
    if params.mode == "fast" and default_p(params.cfg, prob) != 2:
        raise ConfigError("fast mode requires the strong convexity exploited by the map")
    p = mode_p(params.mode, params.cfg, prob)
    if params.mode == "ergodic":
        mu = 1.0 if params.mu is None else number(params.mu, "mu")
        if not 0.0 < mu <= 1.0 + cert.delta + 1e-12:
            raise ConfigError(
                f"ergodic mode requires mu in (0, 1 + delta] = (0, {1 + cert.delta:.6g}]"
            )
    else:
        mu = cert.delta if params.mu is None else number(params.mu, "mu")
        if not 0.0 < mu <= cert.delta + 1e-12:
            raise ConfigError(f"mu must lie in (0, delta] = (0, {cert.delta:.6g}]")
    return ResolvedParams(mode=params.mode, p=p, mu=mu, rho=params.cfg.rho, plan=plan)


@dataclass(frozen=True, eq=False)
class FlagState:
    """The state (z, y, x) after k iterations, with t the sequence value the
    next iteration uses: one start or a stack of starts (module docstring).
    x is the running average of the z iterates in fast and classic mode and
    their weighted sum sum_j tau_j z^{j+1} (zeros at k = 0) in ergodic mode."""

    k: int
    t: float
    z: np.ndarray
    y: np.ndarray
    x: np.ndarray


def initial_state(params, resolved):
    """The one-start state at k = 0 of the resolved plan's problem: z0
    defaults to its feasible point (zeros when absent), y0 to zeros."""
    prob = resolved.plan.prob
    m, n = resolved.plan.A.shape
    z0 = params.z0
    if z0 is None:
        z0 = prob.feasible_point if prob.feasible_point is not None else np.zeros(n)
    y0 = params.y0 if params.y0 is not None else np.zeros(m)
    if z0.shape != (n,):
        raise ConfigError(f"z0 has shape {z0.shape}, expected ({n},)")
    if y0.shape != (m,):
        raise ConfigError(f"y0 has shape {y0.shape}, expected ({m},)")
    x0 = np.zeros(n) if resolved.mode == "ergodic" else z0.copy()
    return FlagState(0, 1.0, z0.copy(), y0.copy(), x0)


def flag_iterate(state, resolved):
    """One outer iteration under the resolved params, of one start or of each
    row of a stack of starts; returns the successor state."""
    p, mu, plan = resolved.p, resolved.mu, resolved.plan
    At, neg_b = plan.A.T, plan.neg_b
    t_k = state.t
    tau = t_k ** (p - 1)
    rho_k = resolved.rho * tau
    ergodic = resolved.mode == "ergodic"
    lam = state.y if ergodic else compute_lambda(state.y, rho_k, t_k, state.x.dot(At) + neg_b)
    z_new = prim_step(plan, tau, state.z, lam)
    y_new = state.y + mu * rho_k * (z_new.dot(At) + neg_b)
    if ergodic:
        x_new = state.x + tau * z_new
    else:
        x_new = (1.0 - 1.0 / t_k) * state.x + (1.0 / t_k) * z_new
    return FlagState(state.k + 1, next_t(t_k, p), z_new, y_new, x_new)


def ergodic_weight_sum(t, p):
    """Printed normalization of the ergodic average after the iteration that
    used sequence value t: t^2 for p = 2 (since sum of t_j equals t_k^2), the
    plain count for p = 1."""
    return t * t if p == 2 else t


@dataclass(eq=False)
class Trajectory:
    """Per-iteration record, one row per state x^k / z^k (row 0 = start).

    In ergodic mode the psi_x / feas_x columns hold the running weighted
    average of the z iterates (row 0 holds z^0). The t and rho_k columns hold
    the values the *next* iteration will use. s_k is NaN unless a reference
    solution was attached.
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
    meta: dict = field(default_factory=dict)

    @property
    def records(self):
        return len(self.k)

    def to_csv(self, path):
        data = np.column_stack([getattr(self, c) for c in CSV_COLUMNS])
        # one %-format per CHUNK rows: the bytes np.savetxt(fmt="%.17g") writes
        row = ",".join(["%.17g"] * data.shape[1]) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for lo in range(0, len(data), CHUNK):
                rows = data[lo : lo + CHUNK]
                fh.write((row * len(rows)) % tuple(rows.ravel().tolist()))


# the trajectory CSV's columns: every Trajectory field but meta, in order
CSV_COLUMNS = tuple(f.name for f in fields(Trajectory) if f.name != "meta")


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

    add() keeps each FlagState that flag_iterate returned (its arrays are new
    on every step); flush() stacks the kept states' x^k (z^0 at row 0; in
    ergodic mode the weighted sum over its weights), z^k and y^k, evaluates
    the chunk's t, rho_k, psi, feas, y_norm and s_k columns as stacks (one
    eval_objective and one product with A' per point sequence), and then runs
    the finiteness guard on them."""

    def __init__(self, prob, resolved, N, reference):
        self.prob, self.resolved, self.reference = prob, resolved, reference
        self.At = resolved.plan.A.T
        self.ergodic = resolved.mode == "ergodic"
        self.with_gap = reference is not None and not self.ergodic
        # columns every row fills; s_k is NaN where not computed
        self.guarded = CSV_COLUMNS[1:8] + (("s_k",) if self.with_gap else ())
        self.out = {c: np.full(N + 1, np.nan) for c in CSV_COLUMNS}
        self.out["k"] = np.arange(N + 1)
        self.states = []

    def add(self, state):
        """Keep the row of state; a full chunk is evaluated at once."""
        self.states.append(state)
        if len(self.states) == CHUNK:
            self.flush()

    def flush(self):
        """Evaluate the kept rows, then raise NumericalError naming the first
        of them with a non-finite column (the first such column in
        CSV_COLUMNS order)."""
        states, out, prob = self.states, self.out, self.prob
        if not states:
            return
        self.states = []
        lo = states[0].k
        rows = slice(lo, lo + len(states))
        p, rho = self.resolved.p, self.resolved.rho
        out["t"][rows] = t = [st.t for st in states]
        out["rho_k"][rows] = [rho * tk ** (p - 1) for tk in t]
        # row k >= 1 came from the step at t_{k-1}, the t of the row before
        t_used = [float(out["t"][lo - 1]) if lo else 0.0] + t[:-1]
        x = np.stack([st.x if st.k else st.z for st in states])
        if self.ergodic:
            # row 0 is z^0; row k >= 1 the weighted average of z^1..z^k
            avg = slice(1 if lo == 0 else 0, None)
            x[avg] /= ergodic_weight_sum(np.array(t_used[avg]), p)[:, None]
        r = x @ self.At - prob.b
        psi = eval_objective(prob, x)
        out["psi_x"][rows] = psi
        out["feas_x"][rows] = feas = np.linalg.norm(r, axis=1)
        if self.with_gap:
            # the Lagrangian at (x^k, y*) from the Psi and residual above:
            # bitwise lagrangian.eval_lagrangian of the stack; the penalty
            # rho t_{k-1}^p in Python's float pow (numpy's t**2 is t*t)
            ref = self.reference
            aug = np.array([rho * tk**p for tk in t_used])
            gap = psi + rowdot(r, ref.y_star) + 0.5 * aug * feas**2
            out["s_k"][rows] = gap - ref.psi_star
        z = np.stack([st.z for st in states])
        out["psi_z"][rows] = eval_objective(prob, z)
        out["feas_z"][rows] = np.linalg.norm(z @ self.At - prob.b, axis=1)
        out["y_norm"][rows] = np.linalg.norm(np.stack([st.y for st in states]), axis=1)
        bad = ~np.isfinite(np.stack([out[c][rows] for c in self.guarded]))
        if bad.any():
            i = lo + int(np.argmax(bad.any(axis=0)))
            c = self.guarded[int(np.argmax(bad[:, i - lo]))]
            raise NumericalError(f"iteration {i}: {c} is not finite ({out[c][i]})")


def run(prob, params, reference=None, plan=None):
    """Run the driver for params.iters iterations and record the trajectory.

    reference (optional) enables the s_k column: the rho t_{k-1}^p augmented
    Lagrangian gap at (x^k, y*) against psi*. plan (a fresh StepPlan of
    params.cfg on prob) is built here unless given.

    The recorder keeps the states flag_iterate returns, at most CHUNK of
    them, and evaluates their columns as one chunk when CHUNK are kept, at
    the end, and before an exception from a later step leaves the loop. The
    finiteness guard therefore names the earliest iteration with a
    non-finite t, rho_k, psi, feas, y_norm or s_k and the first such column
    in CSV_COLUMNS order, and raises NumericalError; no trajectory is
    returned.
    """
    resolved = resolve_params(prob, params, plan)
    state = start = initial_state(params, resolved)
    mode = resolved.mode
    N = params.iters
    rec = _Recorder(prob, resolved, N, reference)

    # the finiteness guard in _Recorder.flush reports any overflow as a
    # NumericalError
    with np.errstate(all="ignore"):
        try:
            rec.add(state)
            for _ in range(N):
                state = flag_iterate(state, resolved)
                rec.add(state)
        except Exception:
            rec.flush()  # a non-finite row before the failing step wins
            raise
        rec.flush()

    plan = resolved.plan
    meta = {
        "kind": plan.cfg.kind,
        "mode": mode,
        "p": resolved.p,
        "mu": resolved.mu,
        "rho": resolved.rho,
        "delta": plan.cert.delta,
        "iters": N,
        "z0": start.z.tolist(),
        "y0": start.y.tolist(),
        "subproblems": plan.stats(),
    }
    return Trajectory(**rec.out, meta=meta)
