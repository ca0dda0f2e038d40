"""Inconsistency indices of pairwise comparison matrices."""

from __future__ import annotations

import numpy as np

from .core import ExpertPanel, PCMatrix
from .derive import _evm_stack, _row_gmm
from .errors import DomainError

_TRIAD_BLOCK = 1 << 16


def _stack_cis(A: np.ndarray, G: np.ndarray | None = None) -> np.ndarray:
    """The CIs of a (k, n, n) stack, from one power iteration started at its (k, n) GMM vectors
    ``G``, derived here when None; see ``saaty_ci``."""
    lam = _evm_stack(A, _row_gmm(A) if G is None else G.copy())[1]
    return np.maximum((lam - A.shape[-1]) / (A.shape[-1] - 1), 0.0)


def saaty_ci(C: PCMatrix) -> float:
    """Consistency index (lambda_max - n) / (n - 1): ``_stack_cis`` on a stack of one.

    Mathematically non-negative for reciprocal matrices; tiny negative
    values produced by floating point on consistent matrices are clamped
    to zero.
    """
    return float(_stack_cis(C.values[None])[0])


def panel_cis(panel: ExpertPanel) -> list[float]:
    """Each expert's CI, from one power iteration over the panel's stack."""
    return _stack_cis(panel.stack).tolist()


def _stack_k(A: np.ndarray) -> np.ndarray:
    """Koczkodaj's K, the worst triad's relative deviation from consistency, in [0, 1), of each
    matrix of a (k, n, n) stack.  Triads go in blocks of their largest index, about _TRIAD_BLOCK
    ratios (or one index) at a time, so memory grows with the stack's size, not with k n^3."""
    n = A.shape[-1]
    if n < 3:
        raise DomainError("the triad index requires at least 3 alternatives")
    r = np.arange(n)
    i_below_j = (r[:, None] < r)[:, :, None]
    step = max(1, _TRIAD_BLOCK // A.size)
    worst = np.zeros(len(A))
    for k0 in range(2, n, step):
        ks = slice(k0, k0 + step)
        # ratio[q, i, j, k] = a_ik * a_kj / a_ij, over the triads i < j < k
        ratio = A[:, :, None, ks] * A.transpose(0, 2, 1)[:, None, :, ks] / A[..., None]
        ratio = ratio[:, i_below_j & (r[:, None] < r[ks])]
        worst = np.maximum(worst, np.minimum(abs(1.0 - ratio), abs(1.0 - 1.0 / ratio)).max(axis=1))
    return worst


def koczkodaj_k(C: PCMatrix) -> float:
    """Koczkodaj's K of one matrix: ``_stack_k`` on a stack of one."""
    return float(_stack_k(C.values[None])[0])


def panel_mean_ci(panel: ExpertPanel) -> float:
    """Arithmetic mean of the consistency index over the panel."""
    return float(np.mean(panel_cis(panel)))
