"""Domain types: pairwise comparison matrices, priority vectors, expert panels.

All types validate their invariants at construction time and are immutable
afterwards, so instances can be shared freely between threads.  A PCMatrix
memoises its GMM vector and CI; memo writes are idempotent, so sharing stays safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError

RECIPROCITY_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PCMatrix:
    """Positive reciprocal n x n matrix of pairwise preference ratios.

    Entry (i, j) states how many times alternative i is preferred over
    alternative j.  The diagonal must be exactly 1 and off-diagonal pairs
    must satisfy c_ij * c_ji = 1 within a small tolerance.  No upper bound
    (such as the 1-9 scale) is enforced: perturbed matrices may exceed it.
    """

    values: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 2:
            raise ShapeError("a comparison matrix needs at least 2 alternatives")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError("all matrix entries must be positive finite numbers")
        if np.any(np.diag(arr) != 1.0):
            raise DomainError("diagonal entries must equal 1 exactly")
        if np.max(np.abs(arr * arr.T - 1.0)) > RECIPROCITY_TOL:
            raise DomainError(
                f"reciprocity violated beyond tolerance {RECIPROCITY_TOL:g}"
            )
        object.__setattr__(self, "values", arr)

    def __setstate__(self, state):
        # unpickled arrays come back writable; the memo needs read-only values
        state["values"].setflags(write=False)
        self.__dict__.update(state)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PriorityVector:
    """Normalized positive weight vector over n alternatives."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.weights)
        if arr.ndim != 1 or arr.size < 2:
            raise ShapeError("a priority vector needs at least 2 components")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError("all priorities must be positive finite numbers")
        if abs(arr.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError("priorities must sum to 1")
        object.__setattr__(self, "weights", arr)

    @classmethod
    def from_raw(cls, values) -> "PriorityVector":
        """Normalize an arbitrary positive vector into a PriorityVector."""
        arr = np.asarray(values, dtype=float)
        s = arr.sum()
        if not np.isfinite(s) or s <= 0.0:
            raise DomainError("cannot normalize a non-positive vector")
        return cls(arr / s)

    @property
    def n(self) -> int:
        return self.weights.size

    def ranking(self) -> np.ndarray:
        """Alternative indices ordered from most to least preferred."""
        # stable sort so ties break towards the lower index
        return np.argsort(-self.weights, kind="stable")


@dataclass(frozen=True)
class ExpertPanel:
    """Ordered collection of comparison matrices over the same alternatives."""

    matrices: tuple[PCMatrix, ...]

    def __post_init__(self):
        mats = tuple(self.matrices)
        if not mats:
            raise ShapeError("a panel needs at least one expert")
        n = mats[0].n
        if any(m.n != n for m in mats):
            raise ShapeError("all panel matrices must share the same size")
        object.__setattr__(self, "matrices", mats)

    @property
    def k(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].n

    def replace(self, index: int, matrix: PCMatrix) -> "ExpertPanel":
        """Return a new panel with one expert's matrix swapped out."""
        if not 0 <= index < self.k:
            raise ShapeError(f"expert index {index} out of range")
        mats = list(self.matrices)
        mats[index] = matrix
        return ExpertPanel(tuple(mats))


@dataclass(frozen=True)
class ExpertWeights:
    """Positive expert weights r_1..r_k summing to 1.

    Strict positivity is required: a zero weight would make the weighted
    geometric mean drop an expert entirely, and none of the weighting
    schemes in this package produce zeros.
    """

    r: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.r)
        if arr.ndim != 1 or arr.size < 1:
            raise ShapeError("expert weights must be a non-empty vector")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError("expert weights must be strictly positive")
        if abs(arr.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError("expert weights must sum to 1")
        object.__setattr__(self, "r", arr)

    @classmethod
    def uniform(cls, k: int) -> "ExpertWeights":
        return cls(np.full(k, 1.0 / k))

    @property
    def k(self) -> int:
        return self.r.size


def pcm_from_upper_triangle(n: int, upper) -> PCMatrix:
    """Build a reciprocal matrix from its strict upper triangle (row-major).

    The lower triangle is filled with exact reciprocals, so the result is
    reciprocal by construction.
    """
    vals = np.asarray(upper, dtype=float)
    expected = n * (n - 1) // 2
    if vals.size != expected:
        raise ShapeError(f"expected {expected} upper-triangle entries, got {vals.size}")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise DomainError("upper-triangle entries must be positive")
    m = np.ones((n, n))
    iu = np.triu_indices(n, k=1)
    m[iu] = vals
    m[(iu[1], iu[0])] = 1.0 / vals
    return PCMatrix(m)


def resymmetrize(values) -> PCMatrix:
    """Force exact reciprocity on a nearly reciprocal matrix.

    Keeps the upper triangle and recomputes the lower one as reciprocals.
    Used when loading matrices printed with rounded decimals.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    iu = np.triu_indices(n, k=1)
    return pcm_from_upper_triangle(n, arr[iu])


def consistent_matrix_from_priorities(w: PriorityVector) -> PCMatrix:
    """The unique consistent matrix generated by w: c_ij = w_i / w_j."""
    v = w.weights
    m = np.outer(v, 1.0 / v)
    np.fill_diagonal(m, 1.0)
    return PCMatrix(m)
