"""Lagrangian, augmented Lagrangian, and the weighted norm ||v||_P^2.

Every function here takes one point, giving a float, or points stacked along
leading axes, giving one value per point.
"""

import numpy as np

from .errors import ConfigError
from .linalg import rowdot
from .problems import eval_objective


def _lagrangian(p, x, y):
    """(Psi(x) + <y, Ax - b>, Ax - b)."""
    x = np.asarray(x, dtype=float)
    r = x @ p.A.T - p.b
    return eval_objective(p, x) + rowdot(r, np.asarray(y, dtype=float)), r


def eval_lagrangian(p, x, y):
    """Psi(x) + <y, Ax - b>; +inf propagates from indicator terms."""
    return _lagrangian(p, x, y)[0]


def eval_aug_lagrangian(p, x, y, rho):
    """Lagrangian plus (rho/2) ||Ax - b||^2; rho = 0 recovers the Lagrangian.
    rho may be an array that broadcasts against the values (one per state)."""
    if np.any(np.asarray(rho) < 0):
        raise ConfigError("rho must be nonnegative")
    v, r = _lagrangian(p, x, y)
    return v + 0.5 * rho * rowdot(r, r)


def quad_norm(P, v):
    """||v||_P^2 = v'Pv."""
    v = np.asarray(v, dtype=float)
    return rowdot(v, v @ np.asarray(P, dtype=float).T)

