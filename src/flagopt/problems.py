"""Problem data model.

A problem is  min_x  Psi(x)  subject to  A x = b,  where Psi = f (+ optional
smooth quadratic h) is built from a closed enumeration of convex terms so that
every proximal subproblem has a closed-form solver. Strong convexity is
declared per term and validated, never inferred. Each term's value, and
eval_objective, take one point, giving a float, or a (k, n) stack of points,
giving one value per row.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConfigError, DataError

SIGMA_SLACK = 1e-8
FEAS_TOL = 1e-9
BOX_TOL = 1e-9


def _vector(v, name="vector"):
    v = linalg.as_array(v)
    if v.ndim != 1:
        raise ConfigError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{name} has non-finite entries")
    return v


def _matrix(M, name="matrix"):
    M = linalg.as_array(M)
    if M.ndim != 2:
        raise ConfigError(f"{name} must be 2-D, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ConfigError(f"{name} has non-finite entries")
    return M


def _per_point(v, x):
    """v as a float when x is one point, else one value per row of x."""
    return float(v) if x.ndim == 1 else v


@dataclass(frozen=True)
class Quadratic:
    """0.5 x'Hx + q'x + r with symmetric PSD H.

    strong_convexity is the declared sigma-contribution; it must not exceed
    lambda_min(H) + 1e-8.
    """

    H: np.ndarray
    q: np.ndarray
    r: float = 0.0
    strong_convexity: float = 0.0

    def __post_init__(self):
        H = linalg.check_psd(_matrix(self.H, "H"), "H")
        q = _vector(self.q, "q")
        if H.shape[0] != q.shape[0]:
            raise ConfigError(f"H/q dimension mismatch: {H.shape} vs {q.shape}")
        if self.strong_convexity < 0:
            raise ConfigError("strong_convexity must be nonnegative")
        if self.strong_convexity > 0 and self.strong_convexity > linalg.lambda_min(H) + SIGMA_SLACK:
            raise ConfigError(
                f"declared strong_convexity {self.strong_convexity} exceeds "
                f"lambda_min(H) = {linalg.lambda_min(H):.6e}"
            )
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "strong_convexity", float(self.strong_convexity))

    @property
    def dim(self):
        return self.q.shape[0]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return linalg.rowdot(0.5 * x, x @ self.H.T) + linalg.rowdot(x, self.q) + self.r

    def grad(self, x):
        return self.H @ np.asarray(x, dtype=float) + self.q

    def subgrad_dist(self, x, g):
        return float(np.linalg.norm(np.asarray(g, dtype=float) - self.grad(x)))


@dataclass(frozen=True)
class L1:
    """weight * ||x||_1 with nonnegative scalar weight."""

    weight: float
    dim: int

    def __post_init__(self):
        if self.weight < 0:
            raise ConfigError("l1 weight must be nonnegative")
        if self.dim <= 0:
            raise ConfigError("l1 dim must be positive")
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def strong_convexity(self):
        return 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return _per_point(self.weight * np.sum(np.abs(x), axis=-1), x)

    def subgrad_dist(self, x, g):
        # per coordinate: distance to w*sign(x_i) when x_i != 0, else to [-w, w]
        x = np.asarray(x, dtype=float)
        g = np.asarray(g, dtype=float)
        w = self.weight
        on = x != 0.0
        d = np.where(on, np.abs(g - w * np.sign(x)), np.maximum(np.abs(g) - w, 0.0))
        return float(np.linalg.norm(d))


@dataclass(frozen=True)
class Box:
    """Indicator of the box [lo, hi] (componentwise)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lo, "lo")
        hi = _vector(self.hi, "hi")
        if lo.shape != hi.shape:
            raise ConfigError("lo/hi dimension mismatch")
        if np.any(lo > hi):
            raise ConfigError("box requires lo <= hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    @property
    def strong_convexity(self):
        return 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.all((x >= self.lo - BOX_TOL) & (x <= self.hi + BOX_TOL), axis=-1)
        return _per_point(np.where(inside, 0.0, math.inf), x)

    def subgrad_dist(self, x, g):
        # distance to the normal cone of the box at x
        x = np.asarray(x, dtype=float)
        g = np.asarray(g, dtype=float)
        if self.value(x) == math.inf:
            return math.inf
        at_lo = x <= self.lo + BOX_TOL
        at_hi = x >= self.hi - BOX_TOL
        d = np.abs(g).astype(float)
        d[at_lo] = np.maximum(g[at_lo], 0.0)  # normal cone (-inf, 0]
        d[at_hi] = np.maximum(-g[at_hi], 0.0)  # normal cone [0, +inf)
        d[at_lo & at_hi] = 0.0
        return float(np.linalg.norm(d))


@dataclass(frozen=True)
class Zero:
    """The zero function on R^dim."""

    dim: int

    def __post_init__(self):
        if self.dim <= 0:
            raise ConfigError("zero-term dim must be positive")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def strong_convexity(self):
        return 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return _per_point(np.zeros(x.shape[:-1]), x)

    def grad(self, x):
        return np.zeros(self.dim)

    def subgrad_dist(self, x, g):
        return float(np.linalg.norm(np.asarray(g, dtype=float)))


@dataclass(frozen=True)
class Separable:
    """Sum of terms on consecutive slices of the stacked variable."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ConfigError("separable term needs at least one part")
        for part in parts:
            if isinstance(part, Separable):
                raise ConfigError("separable terms must not be nested")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self):
        return sum(p.dim for p in self.parts)

    @property
    def strong_convexity(self):
        return min(p.strong_convexity for p in self.parts)

    def slices(self):
        out, start = [], 0
        for p in self.parts:
            out.append(slice(start, start + p.dim))
            start += p.dim
        return out

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return _per_point(sum(p.value(x[..., s]) for p, s in zip(self.parts, self.slices())), x)

    def subgrad_dist(self, x, g):
        x = np.asarray(x, dtype=float)
        g = np.asarray(g, dtype=float)
        ds = [p.subgrad_dist(x[s], g[s]) for p, s in zip(self.parts, self.slices())]
        if any(math.isinf(d) for d in ds):
            return math.inf
        return float(np.sqrt(sum(d * d for d in ds)))


TERM_TYPES = (Quadratic, L1, Box, Zero, Separable)


@dataclass(frozen=True)
class SmoothTerm:
    """Differentiable quadratic h with declared gradient Lipschitz constant L."""

    term: Quadratic
    lipschitz_grad: float

    def __post_init__(self):
        if not isinstance(self.term, Quadratic):
            raise ConfigError("smooth term must be quadratic")
        L = float(self.lipschitz_grad)
        if L <= 0:
            raise ConfigError("lipschitz_grad must be positive")
        if L < linalg.lambda_max(self.term.H) - SIGMA_SLACK:
            raise ConfigError(
                f"lipschitz_grad {L} below lambda_max(H) = "
                f"{linalg.lambda_max(self.term.H):.6e}"
            )
        object.__setattr__(self, "lipschitz_grad", L)


@dataclass(frozen=True)
class ConstrainedProblem:
    """min f(x) + h(x)  s.t.  A x = b, with declared strong convexity sigma.

    Attributes
    ----------
    f : term
        Prox-friendly part of the objective.
    A : (m, n) ndarray
        Constraint map; m >= 1, n >= 1.
    b : (m,) ndarray
        Right-hand side.
    smooth : SmoothTerm or None
        Optional smooth quadratic h, handled by gradient steps in the
        smooth map variants and folded exactly elsewhere.
    sigma : float
        Strong convexity of Psi = f + h; must equal the sum of declared
        per-term contributions. Defaults to that sum.
    feasible_point : ndarray or None
        Optional stored point with A x = b (residual <= 1e-9).
    """

    f: object
    A: np.ndarray
    b: np.ndarray
    smooth: SmoothTerm | None = None
    sigma: float | None = None
    feasible_point: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.f, TERM_TYPES):
            raise ConfigError(f"unsupported objective term {type(self.f).__name__}")
        A = _matrix(self.A, "A")
        b = _vector(self.b, "b")
        m, n = A.shape
        if m < 1 or n < 1:
            raise ConfigError("constraint map dimensions must be strictly positive")
        if n != self.f.dim:
            raise ConfigError(
                f"constraint map has {n} columns but objective dimension is {self.f.dim}"
            )
        if b.shape[0] != m:
            raise ConfigError(f"rhs length {b.shape[0]} != row count {m}")
        if self.smooth is not None:
            if not isinstance(self.smooth, SmoothTerm):
                raise ConfigError("smooth must be a SmoothTerm")
            if self.smooth.term.dim != n:
                raise ConfigError("smooth term dimension mismatch")
        declared = self.f.strong_convexity
        if self.smooth is not None:
            declared += self.smooth.term.strong_convexity
        sigma = declared if self.sigma is None else float(self.sigma)
        if abs(sigma - declared) > 1e-12:
            raise ConfigError(
                f"sigma {sigma} does not equal the sum of declared "
                f"strong-convexity contributions {declared}"
            )
        fp = self.feasible_point
        if fp is not None:
            fp = _vector(fp, "feasible_point")
            if fp.shape[0] != n:
                raise ConfigError("feasible_point dimension mismatch")
            resid = float(np.linalg.norm(A @ fp - b))
            if resid > FEAS_TOL * (1.0 + float(np.linalg.norm(b))):
                raise ConfigError(f"feasible_point residual {resid:.3e} too large")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "feasible_point", fp)

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def m(self):
        return self.A.shape[0]

    def psi(self, x):
        v = self.f.value(x)
        if self.smooth is not None:
            v += self.smooth.term.value(x)
        return v

    def subgrad_dist(self, x, g):
        """Distance from g to the subdifferential of Psi at x."""
        g = np.asarray(g, dtype=float)
        if self.smooth is not None:
            g = g - self.smooth.term.grad(x)
        return self.f.subgrad_dist(x, g)


@dataclass(frozen=True)
class BlockProblem:
    """min f(u) + g(v)  s.t.  A u + B v = b, with per-block strong convexity."""

    f_term: object
    g_term: object
    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    sigma_f: float | None = None
    sigma_g: float | None = None
    feasible_point: np.ndarray | None = None

    def __post_init__(self):
        for name, term in (("f_term", self.f_term), ("g_term", self.g_term)):
            if not isinstance(term, TERM_TYPES):
                raise ConfigError(f"unsupported {name} {type(term).__name__}")
        A = _matrix(self.A, "A")
        B = _matrix(self.B, "B")
        b = _vector(self.b, "b")
        if A.shape[0] != B.shape[0]:
            raise ConfigError(
                f"A and B must have equal row counts, got {A.shape[0]} and {B.shape[0]}"
            )
        if A.shape[0] != b.shape[0]:
            raise ConfigError(f"rhs length {b.shape[0]} != row count {A.shape[0]}")
        if A.shape[1] != self.f_term.dim:
            raise ConfigError(
                f"A has {A.shape[1]} columns but f dimension is {self.f_term.dim}"
            )
        if B.shape[1] != self.g_term.dim:
            raise ConfigError(
                f"B has {B.shape[1]} columns but g dimension is {self.g_term.dim}"
            )
        sf = self.f_term.strong_convexity if self.sigma_f is None else float(self.sigma_f)
        sg = self.g_term.strong_convexity if self.sigma_g is None else float(self.sigma_g)
        if abs(sf - self.f_term.strong_convexity) > 1e-12:
            raise ConfigError("sigma_f does not match the declared f contribution")
        if abs(sg - self.g_term.strong_convexity) > 1e-12:
            raise ConfigError("sigma_g does not match the declared g contribution")
        fp = self.feasible_point
        if fp is not None:
            fp = _vector(fp, "feasible_point")
            if fp.shape[0] != A.shape[1] + B.shape[1]:
                raise ConfigError("feasible_point dimension mismatch")
            resid = float(np.linalg.norm(A @ fp[: A.shape[1]] + B @ fp[A.shape[1] :] - b))
            if resid > FEAS_TOL * (1.0 + float(np.linalg.norm(b))):
                raise ConfigError(f"feasible_point residual {resid:.3e} too large")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sigma_f", sf)
        object.__setattr__(self, "sigma_g", sg)
        object.__setattr__(self, "feasible_point", fp)

    @property
    def n1(self):
        return self.A.shape[1]

    @property
    def n2(self):
        return self.B.shape[1]

    @property
    def m(self):
        return self.A.shape[0]

    def split(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., : self.n1], x[..., self.n1 :]


def flatten_block(bp):
    """Stack a block problem into a single-variable problem.

    x = (u, v), constraint [A B] x = b, objective f(u) + g(v), sigma =
    min(sigma_f, sigma_g) (the stacked objective is only min-strongly convex).
    """
    if not isinstance(bp, BlockProblem):
        raise ConfigError("flatten_block expects a BlockProblem")
    return ConstrainedProblem(
        f=Separable((bp.f_term, bp.g_term)),
        A=np.hstack([bp.A, bp.B]),
        b=bp.b,
        sigma=min(bp.sigma_f, bp.sigma_g),
        feasible_point=bp.feasible_point,
    )


def single_problem(p):
    """p as a single-variable problem (block problems are flattened)."""
    if isinstance(p, BlockProblem):
        return flatten_block(p)
    if isinstance(p, ConstrainedProblem):
        return p
    raise ConfigError(f"unsupported problem type {type(p).__name__}")


def constraint_map(p):
    """Full constraint matrix of a problem (stacked [A B] for block problems)."""
    if isinstance(p, BlockProblem):
        return np.hstack([p.A, p.B])
    return p.A


def feasibility_residual(p, x):
    """||A x - b||_2 at x (block problems use the stacked map)."""
    x = np.asarray(x, dtype=float)
    A = constraint_map(p)
    if x.shape[0] != A.shape[1]:
        raise ConfigError(f"point dimension {x.shape[0]} != {A.shape[1]}")
    return float(np.linalg.norm(A @ x - p.b))


def eval_objective(p, x):
    """Psi(x), +inf when x violates an indicator term; a (k, n) stack of
    points gives one value per row."""
    if isinstance(p, BlockProblem):
        u, v = p.split(x)
        return p.f_term.value(u) + p.g_term.value(v)
    return p.psi(x)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------
#
# Problem file schema (dense row-major matrices):
# {
#   "n": int, "m": int,
#   "A": [[...], ...], "b": [...],
#   "f": <term>, "h": <smooth> | null,
#   "sigma": float,
#   "block": {"n1": int, "sigma_f": float, "sigma_g": float} | null,
#   "feasible_point": [...] | null
# }
# Term schema: {"kind": "quadratic", "H": [[...]], "q": [...], "r": float,
#               "strong_convexity": float}
#            | {"kind": "l1", "weight": float, "dim": int}
#            | {"kind": "box", "lo": [...], "hi": [...]}
#            | {"kind": "zero", "dim": int}
#            | {"kind": "separable", "parts": [<term>, ...]}
# Smooth schema: {"term": <quadratic term>, "lipschitz_grad": float}
# When "block" is present the top-level fields hold the flattened view; the
# block pieces are recovered by slicing columns of A and the parts of f.


def term_to_json(term):
    if isinstance(term, Quadratic):
        return {
            "kind": "quadratic",
            "H": term.H.tolist(),
            "q": term.q.tolist(),
            "r": term.r,
            "strong_convexity": term.strong_convexity,
        }
    if isinstance(term, L1):
        return {"kind": "l1", "weight": term.weight, "dim": term.dim}
    if isinstance(term, Box):
        return {"kind": "box", "lo": term.lo.tolist(), "hi": term.hi.tolist()}
    if isinstance(term, Zero):
        return {"kind": "zero", "dim": term.dim}
    if isinstance(term, Separable):
        return {"kind": "separable", "parts": [term_to_json(p) for p in term.parts]}
    raise ConfigError(f"unsupported term {type(term).__name__}")


def term_from_json(d):
    try:
        kind = d["kind"]
        if kind == "quadratic":
            return Quadratic(
                H=d["H"], q=d["q"], r=d.get("r", 0.0),
                strong_convexity=d.get("strong_convexity", 0.0),
            )
        if kind == "l1":
            return L1(weight=d["weight"], dim=d["dim"])
        if kind == "box":
            return Box(lo=d["lo"], hi=d["hi"])
        if kind == "zero":
            return Zero(dim=d["dim"])
        if kind == "separable":
            return Separable(tuple(term_from_json(p) for p in d["parts"]))
    except KeyError as e:
        raise DataError(f"term JSON missing field {e}") from None
    raise DataError(f"unknown term kind {kind!r}")


def problem_to_json(p):
    if isinstance(p, BlockProblem):
        flat = flatten_block(p)
        doc = problem_to_json(flat)
        doc["block"] = {"n1": p.n1, "sigma_f": p.sigma_f, "sigma_g": p.sigma_g}
        return doc
    doc = {
        "n": p.n,
        "m": p.m,
        "A": p.A.tolist(),
        "b": p.b.tolist(),
        "f": term_to_json(p.f),
        "h": None
        if p.smooth is None
        else {
            "term": term_to_json(p.smooth.term),
            "lipschitz_grad": p.smooth.lipschitz_grad,
        },
        "sigma": p.sigma,
        "block": None,
        "feasible_point": None if p.feasible_point is None else p.feasible_point.tolist(),
    }
    return doc


def problem_from_json(doc):
    """The problem of a JSON document. DataError when the document is not one
    (not an object, a missing field, a value of the wrong JSON type, a ragged
    or non-numeric array); a well-formed invalid problem raises ConfigError."""
    if type(doc) is not dict:
        raise DataError(f"problem JSON must be an object, got {type(doc).__name__}")
    try:
        return _problem_from_doc(doc)
    except KeyError as e:
        raise DataError(f"problem JSON missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"malformed problem JSON ({type(e).__name__}: {e})") from None


def _problem_from_doc(doc):
    f = term_from_json(doc["f"])
    A = np.asarray(doc["A"], dtype=float)
    b = np.asarray(doc["b"], dtype=float)
    sigma = doc.get("sigma")
    block = doc.get("block")
    fp = doc.get("feasible_point")
    h = doc.get("h")
    if block is not None:
        if h is not None:
            raise DataError("block problems do not carry a smooth term")
        if not isinstance(f, Separable) or len(f.parts) != 2:
            raise DataError("block problem must have a two-part separable objective")
        n1 = int(block["n1"])
        return BlockProblem(
            f_term=f.parts[0],
            g_term=f.parts[1],
            A=A[:, :n1],
            B=A[:, n1:],
            b=b,
            sigma_f=block.get("sigma_f"),
            sigma_g=block.get("sigma_g"),
            feasible_point=fp,
        )
    smooth = None
    if h is not None:
        term = term_from_json(h["term"])
        if not isinstance(term, Quadratic):
            raise DataError("smooth term must be quadratic")
        smooth = SmoothTerm(term=term, lipschitz_grad=h["lipschitz_grad"])
    return ConstrainedProblem(
        f=f, A=A, b=b, smooth=smooth, sigma=sigma, feasible_point=fp
    )


def save_problem(p, path):
    doc = problem_to_json(p)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_problem(path, with_sha256=False):
    """The problem in a JSON file; with_sha256=True also returns the hex
    sha256 of the very bytes that were parsed, so a caller can record which
    file it solved without reading it a second time."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data.decode("utf-8"))
    except OSError as e:
        raise DataError(f"cannot read problem file: {e}") from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise DataError(f"malformed problem JSON: {e}") from None
    prob = problem_from_json(doc)
    return (prob, hashlib.sha256(data).hexdigest()) if with_sha256 else prob
