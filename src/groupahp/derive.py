"""Priority derivation: GMM and EVM, for one matrix or a whole panel."""

from __future__ import annotations

import numpy as np

from .core import ExpertPanel, PCMatrix, PriorityVector
from .errors import ConvergenceError, DomainError


def _row_gmm(A: np.ndarray) -> np.ndarray:
    """Normalized row geometric means of each matrix in a (k, n, n) stack."""
    s = np.exp(np.mean(np.log(A), axis=2))
    return s / s.sum(axis=1, keepdims=True)


def _memoise_gmm(mats: list[PCMatrix]) -> None:
    if mats:
        for m, s in zip(mats, _row_gmm(np.stack([m.values for m in mats]))):
            m._memo["gmm"] = PriorityVector(s)


def gmm_priorities(C: PCMatrix) -> PriorityVector:
    """Geometric mean method: normalized row geometric means, memoised per matrix."""
    if "gmm" not in C._memo:
        _memoise_gmm([C])
    return C._memo["gmm"]


def panel_gmm(panel: ExpertPanel) -> list[PriorityVector]:
    """Each expert's GMM vector; the ones not yet memoised come from one log-mean."""
    _memoise_gmm([m for m in panel.matrices if "gmm" not in m._memo])
    return [gmm_priorities(m) for m in panel.matrices]


def evm_stack(
    A: np.ndarray, tol: float = 1e-12, max_iter: int = 10_000
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue method via power iteration over a (k, n, n) stack of matrices.

    Returns the (k, n) normalized principal eigenvectors and the k eigenvalues
    lambda_max.  Iteration starts from the row geometric means, and each matrix
    stops on its own once successive normalized vectors differ by less than
    ``tol`` in the max norm, so its result does not depend on the rest of the
    stack.  A positive matrix has a unique positive dominant eigenpair
    (Perron-Frobenius), so convergence failure means too small a budget.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    v = _row_gmm(A)
    active = np.arange(len(A))
    for _ in range(max_iter):
        av = (A[active] @ v[active, :, None])[..., 0]
        v_next = av / av.sum(axis=1, keepdims=True)
        moving = ~(abs(v_next - v[active]).max(axis=1) < tol)  # NaN keeps moving
        v[active] = v_next
        active = active[moving]
        if not active.size:
            break
    else:
        raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")
    lam = np.mean((A @ v[..., None])[..., 0] / v, axis=1)
    return v / v.sum(axis=1, keepdims=True), lam


def evm_priorities(
    C: PCMatrix, tol: float = 1e-12, max_iter: int = 10_000
) -> tuple[PriorityVector, float]:
    """Eigenvalue method for one matrix: ``evm_stack`` on a stack of one."""
    v, lam = evm_stack(C.values[None], tol, max_iter)
    return PriorityVector(v[0]), float(lam[0])
