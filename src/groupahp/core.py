"""Domain types: pairwise comparison matrices, priority vectors, expert panels.

All types validate their invariants at construction time and are immutable
afterwards, so instances can be shared freely between threads.  A panel built
from a (k, n, n) stack is validated as one array, and its slices are not checked
again.  A PCMatrix memoises its GMM vector and CI, and an ExpertPanel its (k, n)
GMM matrix and that matrix's log; memo writes are idempotent, so sharing stays safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError

RECIPROCITY_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _unchecked(cls, **fields):
    """An instance of a frozen type whose fields were validated in bulk."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_stack(A: np.ndarray) -> None:
    """Raise unless A is a (k, n, n) stack of positive reciprocal matrices.

    The checks and messages are PCMatrix's, so a malformed slice is reported
    as PCMatrix would report it alone.
    """
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ShapeError(f"expected a square matrix, got shape {A.shape[1:]}")
    if A.shape[1] < 2:
        raise ShapeError("a comparison matrix needs at least 2 alternatives")
    # ndarray methods, not np.all/np.any, whose Python wrappers cost more than the test
    if not np.isfinite(A).all() or (A <= 0.0).any():
        raise DomainError("all matrix entries must be positive finite numbers")
    if (A.diagonal(axis1=1, axis2=2) != 1.0).any():
        raise DomainError("diagonal entries must equal 1 exactly")
    if (np.abs(A * A.transpose(0, 2, 1) - 1.0) > RECIPROCITY_TOL).any():
        raise DomainError(
            f"reciprocity violated beyond tolerance {RECIPROCITY_TOL:g}"
        )


def _check_rows(W: np.ndarray, what: str = "priorities", least: int = 2) -> np.ndarray:
    """W, unless a row of the 2-D array W has fewer than ``least`` positive finite ``what``
    or does not sum to 1: each row a priority vector, or a panel's expert weights (least 1)."""
    if W.ndim != 2 or W.shape[1] < least:
        raise ShapeError(f"expected at least {least} {what} per row")
    if not np.isfinite(W).all() or (W <= 0.0).any():
        raise DomainError(f"all {what} must be positive finite numbers")
    if (np.abs(W.sum(axis=1) - 1.0) > WEIGHT_SUM_TOL).any():
        raise DomainError(f"{what} must sum to 1")
    return W


class _ReadOnlyArrays:
    """Base of the frozen types: keeps their arrays read-only through pickling."""

    def __setstate__(self, state):
        # unpickled arrays come back writable
        for value in (*state.values(), *state.get("_memo", {}).values()):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)


@dataclass(frozen=True)
class PCMatrix(_ReadOnlyArrays):
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
        _check_stack(arr[None])
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PriorityVector(_ReadOnlyArrays):
    """Normalized positive weight vector over n alternatives."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.weights)
        _check_rows(arr[None])
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
class ExpertPanel(_ReadOnlyArrays):
    """Ordered collection of comparison matrices over the same alternatives."""

    matrices: tuple[PCMatrix, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = tuple(self.matrices)
        if not mats:
            raise ShapeError("a panel needs at least one expert")
        n = mats[0].n
        if any(m.n != n for m in mats):
            raise ShapeError("all panel matrices must share the same size")
        object.__setattr__(self, "matrices", mats)

    @classmethod
    def from_stack(cls, A) -> "ExpertPanel":
        """Validate a (k, n, n) stack once and wrap each read-only slice as a PCMatrix."""
        arr = _frozen_array(A)
        _check_stack(arr)
        panel = cls(tuple(_unchecked(PCMatrix, values=m, _memo={}) for m in arr))
        panel.__dict__["stack"] = arr
        return panel

    @cached_property
    def stack(self) -> np.ndarray:
        """The read-only (k, n, n) array of the matrices, stacked at most once."""
        return _frozen_array([m.values for m in self.matrices])

    def __getstate__(self):  # unpickled, the stack is rebuilt on demand, not sent twice
        return {key: value for key, value in self.__dict__.items() if key != "stack"}

    @property
    def k(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].n


@dataclass(frozen=True)
class ExpertWeights(_ReadOnlyArrays):
    """Positive expert weights r_1..r_k summing to 1.

    Strict positivity is required: a zero weight would make the weighted
    geometric mean drop an expert entirely, and none of the weighting
    schemes in this package produce zeros.
    """

    r: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.r)
        _check_rows(arr[None], "expert weights", 1)
        object.__setattr__(self, "r", arr)

    @classmethod
    def uniform(cls, k: int) -> "ExpertWeights":
        if k < 1:
            raise ShapeError("a panel needs at least one expert")
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
    m[np.triu_indices(n, k=1)] = vals
    return PCMatrix(resymmetrize(m))


def resymmetrize(values) -> np.ndarray:
    """Force exact reciprocity on a (..., n, n) stack of nearly reciprocal matrices.

    Keeps each strict upper triangle, sets the diagonal to 1 and recomputes
    the lower triangle as reciprocals.  Used when loading matrices printed
    with rounded decimals; the caller checks that the upper entries are
    positive.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ShapeError(f"expected square matrices, got shape {arr.shape}")
    i, j = np.triu_indices(arr.shape[-1], k=1)
    upper = arr[..., i, j]
    out = np.ones_like(arr)
    out[..., i, j] = upper
    out[..., j, i] = 1.0 / upper
    return out


def consistent_matrix_from_priorities(w: PriorityVector) -> PCMatrix:
    """The unique consistent matrix generated by w: c_ij = w_i / w_j."""
    v = w.weights
    m = np.outer(v, 1.0 / v)
    np.fill_diagonal(m, 1.0)
    return PCMatrix(m)
