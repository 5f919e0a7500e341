"""Problem data model.

A problem is  min_x  Psi(x)  subject to  A x = b,  where Psi = f (+ optional
smooth quadratic h) is built from a closed enumeration of convex terms so that
every proximal subproblem has a closed-form solver. Strong convexity is
declared per term and validated, never inferred. Each term's value, and
eval_objective, take one point, giving a float, or a (k, n) stack of points,
giving one value per row.

A two-block problem  min f(u) + g(v)  s.t.  A u + B v = b  is the same type
on x = (u, v): the stacked map [A B], a Separable f whose parts are those of
f and g, and the split point n1 = dim u (BlockProblem builds it). Two-block
maps read (A_i, f_i) from its `blocks`; single-block maps see one variable.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import linalg
from .errors import ConfigError, DataError

SIGMA_SLACK = 1e-8
FEAS_TOL = 1e-9
BOX_TOL = 1e-9


def number(v, name, lo=-math.inf, hi=math.inf, *, strict=False, integer=False):
    """float(v), or int(v) when integer is set. TypeError naming `name` for a
    bool, a string or another non-number, and for a float when integer is set;
    ConfigError for NaN, infinity or a value outside [lo, hi] ((lo, hi] when
    strict). The comparisons are exact: NaN fails each, and an int beyond the
    float range fails the last."""
    what = "an integer" if integer else "a number"
    types = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if not isinstance(v, types) or isinstance(v, bool):
        raise TypeError(f"{name} must be {what}, got {v!r:.60}")
    finite = integer or abs(v) <= sys.float_info.max
    if not ((lo < v if strict else lo <= v) and v <= hi and finite):
        low = ("positive" if lo == 0 else f"> {lo}") if strict else f">= {lo}"
        terms = [low] if lo > -math.inf else []
        terms += ([f"<= {hi}"] if hi < math.inf else []) + ([] if integer else ["finite"])
        raise ConfigError(f"{name} must be {' and '.join(terms)}, got {v!s:.60}")
    return int(v) if integer else float(v)


def _finite(a, ndim, name):
    """a as a contiguous float array of ndim axes with finite entries."""
    a = linalg.as_array(a)
    if a.ndim != ndim:
        raise ConfigError(f"{name} must be {ndim}-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ConfigError(f"{name} has non-finite entries")
    return a


def _per_point(v, x):
    """v as a float when x is one point, else one value per row of x."""
    return float(v) if x.ndim == 1 else v


@dataclass(frozen=True, eq=False)
class Quadratic:
    """0.5 x'Hx + q'x + r with symmetric PSD H.

    strong_convexity is the declared sigma-contribution; it must not exceed
    lambda_min(H) + 1e-8. lambda_max (not a field) is the top of H's spectrum.
    """

    H: np.ndarray
    q: np.ndarray
    r: float = 0.0
    strong_convexity: float = 0.0

    def __post_init__(self):
        H = linalg.check_symmetric(_finite(self.H, 2, "H"), "H")
        eigs = linalg.eigvalsh(H)  # one decomposition: both checks and lambda_max
        linalg.require_psd(eigs, "H")
        q = _finite(self.q, 1, "q")
        if H.shape[0] != q.shape[0]:
            raise ConfigError(f"H/q dimension mismatch: {H.shape} vs {q.shape}")
        sigma = number(self.strong_convexity, "strong_convexity", 0)
        r = number(self.r, "r")
        if sigma > 0 and sigma > eigs[0] + SIGMA_SLACK:
            raise ConfigError(
                f"declared strong_convexity {sigma} exceeds lambda_min(H) = {eigs[0]:.6e}"
            )
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "strong_convexity", sigma)
        object.__setattr__(self, "lambda_max", float(eigs[-1]))

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

    strong_convexity = 0.0

    weight: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "weight", number(self.weight, "l1 weight", 0))
        object.__setattr__(self, "dim", number(self.dim, "l1 dim", 1, integer=True))

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


@dataclass(frozen=True, eq=False)
class Box:
    """Indicator of the box [lo, hi] (componentwise)."""

    strong_convexity = 0.0

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _finite(self.lo, 1, "lo")
        hi = _finite(self.hi, 1, "hi")
        if lo.shape != hi.shape:
            raise ConfigError("lo/hi dimension mismatch")
        if np.any(lo > hi):
            raise ConfigError("box requires lo <= hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

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

    strong_convexity = 0.0

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", number(self.dim, "zero-term dim", 1, integer=True))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return _per_point(np.zeros(x.shape[:-1]), x)

    def subgrad_dist(self, x, g):
        return float(np.linalg.norm(np.asarray(g, dtype=float)))


@dataclass(frozen=True, eq=False)
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


# each term type under its JSON "kind"; its other JSON keys are its fields
TERM_KINDS = {"quadratic": Quadratic, "l1": L1, "box": Box, "zero": Zero, "separable": Separable}
TERM_TYPES = tuple(TERM_KINDS.values())


@dataclass(frozen=True, eq=False)
class SmoothTerm:
    """Differentiable quadratic h with declared gradient Lipschitz constant L."""

    term: Quadratic
    lipschitz_grad: float

    def __post_init__(self):
        if not isinstance(self.term, Quadratic):
            raise ConfigError("smooth term must be quadratic")
        L = number(self.lipschitz_grad, "lipschitz_grad", 0, strict=True)
        top = self.term.lambda_max
        if L < top - SIGMA_SLACK:
            raise ConfigError(f"lipschitz_grad {L} below lambda_max(H) = {top:.6e}")
        object.__setattr__(self, "lipschitz_grad", L)


@dataclass(frozen=True, eq=False)
class ConstrainedProblem:
    """min f(x) + h(x)  s.t.  A x = b. Not fields: sigma, the strong convexity
    of Psi = f + h that the terms declare (f's, the min over its parts when f
    is separable, plus h's), and feas_tol = FEAS_TOL (1 + ||b||).

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
    feasible_point : ndarray or None
        Optional stored point with A x = b (residual <= feas_tol).
    n1 : int or None
        Set on a two-block problem  min f_1(u) + f_2(v)  s.t.  A_1 u + A_2 v
        = b  with x = (u, v) and u the first n1 coordinates: f is then a
        Separable with n1 on a boundary between its parts, there is no
        smooth term, and sigma = min(sigma_1, sigma_2). `blocks` holds
        (A_i, f_i) per block.
    """

    f: object
    A: np.ndarray
    b: np.ndarray
    smooth: SmoothTerm | None = None
    feasible_point: np.ndarray | None = None
    n1: int | None = None

    def __post_init__(self):
        if not isinstance(self.f, TERM_TYPES):
            raise ConfigError(f"unsupported objective term {type(self.f).__name__}")
        A = _finite(self.A, 2, "A")
        b = _finite(self.b, 1, "b")
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
        sigma = self.f.strong_convexity
        if self.smooth is not None:
            sigma += self.smooth.term.strong_convexity
        feas_tol = FEAS_TOL * (1.0 + float(np.linalg.norm(b)))
        fp = self.feasible_point
        if fp is not None:
            fp = _finite(fp, 1, "feasible_point")
            if fp.shape[0] != n:
                raise ConfigError("feasible_point dimension mismatch")
            resid = float(np.linalg.norm(A @ fp - b))
            if resid > feas_tol:
                raise ConfigError(f"feasible_point residual {resid:.3e} too large")
        if self.n1 is not None:
            if self.smooth is not None:
                raise ConfigError("block problems do not carry a smooth term")
            n1 = number(self.n1, "n1", integer=True)
            if _part_index(self.f, n1) is None:
                raise ConfigError(f"n1 = {n1!r} is not a boundary between parts of f")
            object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "feas_tol", feas_tol)
        object.__setattr__(self, "feasible_point", fp)

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def m(self):
        return self.A.shape[0]

    @functools.cached_property
    def blocks(self):
        """((A_1, f_1), (A_2, f_2)) of a two-block problem: A_i a contiguous
        copy of block i's columns of A, f_i its part of f (a Separable when
        the block has several)."""
        if self.n1 is None:
            raise ConfigError("not a two-block problem")
        k = _part_index(self.f, self.n1)
        groups = (self.f.parts[:k], self.f.parts[k:])
        cols = (slice(None, self.n1), slice(self.n1, None))
        return tuple(
            (np.ascontiguousarray(self.A[:, c]), g[0] if len(g) == 1 else Separable(g))
            for c, g in zip(cols, groups)
        )

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


def _part_index(f, n1):
    """k such that the first k parts of f span n1 coordinates, with parts on
    both sides; None when n1 is no such boundary."""
    if isinstance(f, Separable):
        ends = [s.stop for s in f.slices()[:-1]]
        if n1 in ends:
            return ends.index(n1) + 1
    return None


def BlockProblem(f_term, g_term, A, B, b, feasible_point=None):
    """The two-block problem min f(u) + g(v)  s.t.  A u + B v = b: the
    ConstrainedProblem on x = (u, v) with map [A B] and the parts of f and g
    as one Separable, split at n1 = dim u."""
    for name, term in (("f_term", f_term), ("g_term", g_term)):
        if not isinstance(term, TERM_TYPES):
            raise ConfigError(f"unsupported {name} {type(term).__name__}")
    A = _finite(A, 2, "A")
    B = _finite(B, 2, "B")
    if A.shape[0] != B.shape[0]:
        raise ConfigError(
            f"A and B must have equal row counts, got {A.shape[0]} and {B.shape[0]}"
        )
    if A.shape[1] != f_term.dim:
        raise ConfigError(f"A has {A.shape[1]} columns but f dimension is {f_term.dim}")
    if B.shape[1] != g_term.dim:
        raise ConfigError(f"B has {B.shape[1]} columns but g dimension is {g_term.dim}")
    parts = [t.parts if isinstance(t, Separable) else (t,) for t in (f_term, g_term)]
    return ConstrainedProblem(
        f=Separable(parts[0] + parts[1]),
        A=np.hstack([A, B]),
        b=b,
        feasible_point=feasible_point,
        n1=A.shape[1],
    )


def flatten_block(p):
    """p as one variable x = (u, v): the same stacked problem without its
    split, so sigma = min(sigma_f, sigma_g) (the stacked objective is only
    min-strongly convex)."""
    return replace(p, n1=None)


def constraint_map(p):
    """The constraint matrix A (the stacked [A B] of a two-block problem)."""
    return p.A


def feasibility_residual(p, x):
    """||A x - b||_2 at x."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != p.n:
        raise ConfigError(f"point dimension {x.shape[0]} != {p.n}")
    return float(np.linalg.norm(p.A @ x - p.b))


def eval_objective(p, x):
    """Psi(x), +inf when x violates an indicator term; a (k, n) stack of
    points gives one value per row."""
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
# A two-block problem is stored as it is held: the stacked A, a separable f
# split at n1 (a boundary between its parts), sigma = min(sigma_f, sigma_g),
# and "block" with n1 and each block's declared strong convexity. The reader
# checks these optional copies of what the terms declare. Each float and each
# array entry is a JSON number and each int a JSON integer: a string, a boolean,
# null or a fractional count in their place is a DataError (number()).


def term_to_json(term):
    for kind, cls in TERM_KINDS.items():
        if isinstance(term, cls):
            doc = {"kind": kind}
            for field in fields(cls):
                value = getattr(term, field.name)
                if isinstance(value, np.ndarray):
                    value = value.tolist()
                elif isinstance(value, tuple):  # the parts of a Separable
                    value = [term_to_json(part) for part in value]
                doc[field.name] = value
            return doc
    raise ConfigError(f"unsupported term {type(term).__name__}")


def _entries(v, name):
    """v; number()'s TypeError for an entry of the JSON array v (or of an array
    nested in it) that is not a number: a string, a boolean or null."""
    for x in v if type(v) is list else ():
        if type(x) is list:
            _entries(x, name)
        elif type(x) not in (int, float):
            number(x, f"an entry of {name}")
    return v


def term_from_json(d):
    try:
        kind = d["kind"]
        cls = TERM_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise DataError(f"unknown term kind {kind!r}")
        # a field with a default may be left out
        args = {f.name: d[f.name] for f in fields(cls) if f.default is MISSING or f.name in d}
        if cls is Separable:
            args["parts"] = tuple(term_from_json(p) for p in args["parts"])
        else:
            args = {key: _entries(value, key) for key, value in args.items()}
        return cls(**args)
    except KeyError as e:
        raise DataError(f"term JSON missing field {e}") from None


def problem_to_json(p):
    block = None
    if p.n1 is not None:
        sigma_f, sigma_g = (term.strong_convexity for _, term in p.blocks)
        block = {"n1": p.n1, "sigma_f": sigma_f, "sigma_g": sigma_g}
    return {
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
        "block": block,
        "feasible_point": None if p.feasible_point is None else p.feasible_point.tolist(),
    }


def problem_from_json(doc):
    """The problem of a JSON document. DataError when the document is not one
    (not an object, a missing field, a value of the wrong JSON type, a ragged
    or non-numeric array, an n or m that A's shape contradicts); a
    well-formed invalid problem raises ConfigError."""
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
    A = np.asarray(_entries(doc["A"], "A"), dtype=float)
    b = np.asarray(_entries(doc["b"], "b"), dtype=float)
    block = doc.get("block")
    h = doc.get("h")
    n1 = smooth = None
    if block is not None:
        if h is not None:
            raise DataError("block problems do not carry a smooth term")
        n1 = block["n1"]
        if _part_index(f, n1) is None:
            raise DataError(
                f"block n1 = {n1!r} is not a boundary between parts of a separable f"
            )
    elif h is not None:
        term = term_from_json(h["term"])
        if not isinstance(term, Quadratic):
            raise DataError("smooth term must be quadratic")
        smooth = SmoothTerm(term=term, lipschitz_grad=h["lipschitz_grad"])
    fp = _entries(doc.get("feasible_point"), "feasible_point")
    prob = ConstrainedProblem(f, A, b, smooth, fp, n1)
    # the recorded copies of what the terms declare
    sigma = doc.get("sigma")
    if sigma is not None and abs(number(sigma, "sigma") - prob.sigma) > 1e-12:
        raise ConfigError(
            f"sigma {float(sigma)} does not equal the declared strong convexity {prob.sigma} "
            "of Psi: f's (the min over its parts when separable) plus h's"
        )
    shape = number(doc["m"], "m", integer=True), number(doc["n"], "n", integer=True)
    if shape != A.shape:
        raise DataError(f"problem JSON has n = {shape[1]}, m = {shape[0]}; A is {A.shape}")
    if block is not None:
        for name, (_, term) in zip(("sigma_f", "sigma_g"), prob.blocks):
            declared = term.strong_convexity
            if block.get(name) is not None and abs(number(block[name], name) - declared) > 1e-12:
                raise ConfigError(f"{name} does not match the declared {name[-1]} contribution")
    return prob


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
