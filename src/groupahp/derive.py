"""Priority derivation from a single comparison matrix: GMM and EVM."""

from __future__ import annotations

import numpy as np

from .core import PCMatrix, PriorityVector
from .errors import ConvergenceError, DomainError


def gmm_priorities(C: PCMatrix) -> PriorityVector:
    """Geometric mean method: normalized row geometric means, memoised per matrix."""
    if "gmm" not in C._memo:
        s = np.exp(np.mean(np.log(C.values), axis=1))
        C._memo["gmm"] = PriorityVector(s / s.sum())
    return C._memo["gmm"]


def evm_priorities(
    C: PCMatrix, tol: float = 1e-12, max_iter: int = 10_000
) -> tuple[PriorityVector, float]:
    """Eigenvalue method via power iteration.

    Returns the normalized principal eigenvector and the principal
    eigenvalue lambda_max.  The iteration starts from the row geometric
    means, which is already close to the fixed point for nearly consistent
    matrices, and stops when successive normalized vectors differ by less
    than ``tol`` in the max norm.  For a positive matrix the dominant
    eigenpair is positive and unique (Perron-Frobenius), so convergence
    failure signals a bad iteration budget rather than bad data.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    A = C.values
    v = np.exp(np.mean(np.log(A), axis=1))
    v /= v.sum()
    for _ in range(max_iter):
        av = A @ v
        v_next = av / av.sum()
        if abs(v_next - v).max() < tol:
            v = v_next
            break
        v = v_next
    else:
        raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")
    lam = float(np.mean((A @ v) / v))
    return PriorityVector(v / v.sum()), lam
