"""Distances between ranking vectors, cardinal and ordinal.

Every distance reduces over the last axis, so one vector against a (k, n)
stack gives the k distances, each bitwise what a single pair gives.
"""

from __future__ import annotations

import numpy as np

from .core import PriorityVector
from .errors import ShapeError


def _pair(u, v) -> tuple[np.ndarray, np.ndarray]:
    a = u.weights if isinstance(u, PriorityVector) else np.asarray(u, dtype=float)
    b = v.weights if isinstance(v, PriorityVector) else np.asarray(v, dtype=float)
    if a.shape[-1:] != b.shape[-1:]:
        raise ShapeError(f"vector lengths differ: {a.shape} vs {b.shape}")
    return a, b


def _out(d):
    # a Python number for one pair, an array for a stack
    return d if np.ndim(d) else d.item()


def manhattan(u, v):
    """Sum of absolute componentwise differences; at most 2 for normalized vectors."""
    a, b = _pair(u, v)
    return _out(np.sum(np.abs(a - b), axis=-1))


def manhattan_mean(u, v):
    """Manhattan distance averaged over the n components."""
    a, b = _pair(u, v)
    return _out(np.mean(np.abs(a - b), axis=-1))


def chebyshev(u, v):
    """Largest componentwise gap."""
    a, b = _pair(u, v)
    return _out(np.max(np.abs(a - b), axis=-1))


def euclidean(u, v):
    a, b = _pair(u, v)
    d = a - b
    return _out(np.sqrt(np.vecdot(d, d)))


def kendall_tau_distance(u, v):
    """Number of index pairs whose order disagrees between u and v, an int for one pair.

    A pair tied in one vector but strictly ordered in the other counts as
    a disagreement (the sign of the difference is compared directly, and
    sign 0 is its own class).
    """
    a, b = _pair(u, v)
    su = np.sign(a[..., :, None] - a[..., None, :])
    sv = np.sign(b[..., :, None] - b[..., None, :])
    # both sign matrices are exactly antisymmetric: each pair disagrees twice
    return _out(np.add.reduce(su != sv, axis=(-2, -1)) // 2)


CARDINAL_METRICS = {
    "manhattan": manhattan,
    "euclidean": euclidean,
    "chebyshev": chebyshev,
}
