"""Quantities the tests compute but the package does not need."""

import numpy as np

from flagopt.linalg import rowdot


def delta_euclid(u, v, w):
    """delta_P with P = I, used for the multiplier terms."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return 0.5 * (rowdot(u - v, u - v) - rowdot(u - w, u - w))
