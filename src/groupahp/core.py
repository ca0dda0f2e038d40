"""Domain types: pairwise comparison matrices, priority vectors, expert panels.

All types validate their invariants at construction time and are immutable
afterwards, so instances can be shared freely between threads.  A panel is its
(k, n, n) stack, validated as one array; its matrices are views of the stack's
slices, not checked again.  An instance keeps nothing derived from it: each
derivation reads its arrays anew.  Equality and hashing are by identity: compare
``values``, ``weights``, ``r`` or ``stack`` with numpy to compare contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError

RECIPROCITY_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12
MAX_JUDGMENT = 1e100  # judgments lie in [1e-100, 1e100], so a product of three is finite


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _unchecked(cls, **fields):
    """An instance of a frozen type whose fields were validated in bulk."""
    obj = object.__new__(cls)
    for key, value in fields.items():  # one by one, so that no per-instance __dict__ is made
        object.__setattr__(obj, key, value)
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


def _ranking(W: np.ndarray) -> np.ndarray:
    """Indices along W's last axis from largest to smallest value, ties to the lower index."""
    return np.argsort(-W, axis=-1, kind="stable")


class _ReadOnlyArrays:
    """Base of the frozen types: keeps their arrays read-only through pickling."""

    def __setstate__(self, state):
        # unpickled arrays come back writable
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)


@dataclass(frozen=True, eq=False)
class PCMatrix(_ReadOnlyArrays):
    """Positive reciprocal n x n matrix of pairwise preference ratios.

    Entry (i, j) states how many times alternative i is preferred over
    alternative j.  The diagonal must be exactly 1 and off-diagonal pairs
    must satisfy c_ij * c_ji = 1 within a small tolerance.  No upper bound
    (such as the 1-9 scale) is enforced: perturbed matrices may exceed it.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        _check_stack(arr[None])
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
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
        return _ranking(self.weights)


@dataclass(frozen=True, eq=False, init=False)
class ExpertPanel(_ReadOnlyArrays):
    """Comparison matrices over the same alternatives, held as one read-only (k, n, n) ``stack``:
    stacked once from ``ExpertPanel(matrices)``, or the checked stack it was made from."""

    stack: np.ndarray

    def __init__(self, matrices):
        mats = tuple(matrices)
        if not mats:
            raise ShapeError("a panel needs at least one expert")
        if any(m.n != mats[0].n for m in mats):
            raise ShapeError("all panel matrices must share the same size")
        object.__setattr__(self, "stack", _frozen_array([m.values for m in mats]))

    @classmethod
    def from_stack(cls, A) -> "ExpertPanel":
        """Copy a (k, n, n) stack and validate it once."""
        arr = _frozen_array(A)
        _check_stack(arr)
        return _checked_panel(arr)

    @cached_property
    def matrices(self) -> tuple[PCMatrix, ...]:
        """Each expert's matrix, a read-only view of its slice of the stack, made on first read."""
        return tuple(_unchecked(PCMatrix, values=m) for m in self.stack)

    def __getstate__(self):
        return {"stack": self.stack}  # not the matrices, which are views of it

    @property
    def k(self) -> int:
        return len(self.stack)

    @property
    def n(self) -> int:
        return self.stack.shape[-1]


def _checked_panel(arr: np.ndarray) -> ExpertPanel:
    """The panel whose stack is ``arr``, a read-only (k, n, n) array that passes ``_check_stack``,
    which passes k = 0: an empty stack is rejected here."""
    if not len(arr):
        raise ShapeError("a panel needs at least one expert")
    return _unchecked(ExpertPanel, stack=arr)


@dataclass(frozen=True, eq=False)
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
    """Build a reciprocal matrix from its strict upper triangle (row-major) with ``_from_upper``."""
    vals = np.asarray(upper, dtype=float)
    expected = n * (n - 1) // 2
    if vals.size != expected:
        raise ShapeError(f"expected {expected} upper-triangle entries, got {vals.size}")
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise DomainError("upper-triangle entries must be positive")
    return PCMatrix(_from_upper(n, vals.reshape(expected)))


def _from_upper(n: int, U: np.ndarray) -> np.ndarray:
    """The new read-only (..., n, n) stack of reciprocal matrices whose strict upper triangles
    (row-major) are the last axis of the float array U: diagonal 1, lower triangle 1.0 / U."""
    i, j = np.triu_indices(n, k=1)
    out = np.ones((*U.shape[:-1], n, n))
    out[..., i, j] = U
    out[..., j, i] = 1.0 / U
    out.setflags(write=False)
    return out


def resymmetrize(values) -> np.ndarray:
    """Force exact reciprocity on a (..., n, n) stack of nearly reciprocal matrices.

    Keeps each strict upper triangle and rebuilds the matrices from it with
    ``_from_upper``, in a new read-only array.  Used when loading matrices
    printed with rounded decimals; the caller checks that the upper entries
    are positive.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ShapeError(f"expected square matrices, got shape {arr.shape}")
    n = arr.shape[-1]
    i, j = np.triu_indices(n, k=1)
    return _from_upper(n, arr[..., i, j])


def consistent_matrix_from_priorities(w: PriorityVector) -> PCMatrix:
    """The unique consistent matrix generated by w: c_ij = w_i / w_j."""
    v = w.weights
    m = np.outer(v, 1.0 / v)
    np.fill_diagonal(m, 1.0)
    return PCMatrix(m)
