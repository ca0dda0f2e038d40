"""Priority derivation: GMM and EVM, for one matrix or a whole panel."""

from __future__ import annotations

import numpy as np

from .core import ExpertPanel, PCMatrix, PriorityVector
from .errors import ConvergenceError

EVM_TOL = 1e-12  # a matrix has converged once a step moves its vector less than this
EVM_MAX_ITER = 10_000  # power-iteration steps before ConvergenceError


def _row_gmm(A: np.ndarray) -> np.ndarray:
    """Normalized row geometric means of each matrix in a (..., n, n) stack."""
    s = np.exp(np.mean(np.log(A), axis=-1))
    return s / s.sum(axis=-1, keepdims=True)


def gmm_priorities(C: PCMatrix) -> PriorityVector:
    """Geometric mean method: normalized row geometric means, memoised per matrix."""
    if "gmm" not in C._memo:
        C._memo["gmm"] = PriorityVector.from_rows(_row_gmm(C.values[None]))[0]
    return C._memo["gmm"]


def panel_gmm(panel: ExpertPanel) -> list[PriorityVector]:
    """Each expert's GMM vector; the missing ones come from one log-mean over the panel's stack.

    Also memoises, read-only on the panel, the (k, n) matrix of these vectors
    and its log, which the aggregation kernels work on.
    """
    memoised = "log_gmm" in panel._memo  # then so is every expert's vector
    missing = [] if memoised else [i for i, m in enumerate(panel.matrices) if "gmm" not in m._memo]
    if missing:
        for i, v in zip(missing, PriorityVector.from_rows(_row_gmm(panel.stack[missing]))):
            panel.matrices[i]._memo["gmm"] = v
    vectors = [gmm_priorities(m) for m in panel.matrices]
    if not memoised:
        G = np.stack([v.weights for v in vectors])
        panel._memo.update(gmm=G, log_gmm=np.log(G))
        for x in panel._memo.values():
            x.setflags(write=False)
    return vectors


def _panel_gmm_matrix(panel: ExpertPanel) -> tuple[np.ndarray, np.ndarray]:
    """The panel's read-only (k, n) GMM matrix and its log, through ``panel_gmm``."""
    panel_gmm(panel)
    return panel._memo["gmm"], panel._memo["log_gmm"]


def evm_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue method via power iteration over a (k, n, n) stack of matrices.

    Returns the (k, n) normalized principal eigenvectors and the k eigenvalues
    lambda_max.  Iteration starts from the row geometric means, and each matrix
    stops on its own once successive normalized vectors differ by less than
    ``EVM_TOL`` in the max norm, so its result does not depend on the rest of the
    stack.  A positive matrix has a unique positive dominant eigenpair
    (Perron-Frobenius); failure means |lambda_2| / lambda_max is too near 1 for the budget.
    """
    v = _row_gmm(A)
    active = np.arange(len(A))
    A_act, v_act = A, v
    for _ in range(EVM_MAX_ITER):
        av = (A_act @ v_act[..., None])[..., 0]
        v_next = av / av.sum(axis=1, keepdims=True)
        moving = ~(abs(v_next - v_act).max(axis=1) < EVM_TOL)  # NaN keeps moving
        if moving.all():
            v_act = v_next
            continue
        # some matrix has converged: store every vector, then drop the converged
        v[active] = v_next
        active, A_act, v_act = active[moving], A_act[moving], v_next[moving]
        if not active.size:
            break
    else:
        raise ConvergenceError(f"power iteration did not converge in {EVM_MAX_ITER} steps")
    lam = np.mean((A @ v[..., None])[..., 0] / v, axis=1)
    return v / v.sum(axis=1, keepdims=True), lam


def evm_priorities(C: PCMatrix) -> tuple[PriorityVector, float]:
    """Eigenvalue method for one matrix: ``evm_stack`` on a stack of one."""
    v, lam = evm_stack(C.values[None])
    return PriorityVector(v[0]), float(lam[0])
