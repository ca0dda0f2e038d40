"""Priority derivation: GMM and EVM, for one matrix or a whole panel."""

from __future__ import annotations

import numpy as np

from .core import ExpertPanel, PCMatrix, PriorityVector, _check_rows, _unchecked

EVM_TOL = 1e-12  # a matrix has converged once a step moves its vector less than this
EVM_MAX_ITER = 1_000  # power-iteration steps before LAPACK finishes the matrices still moving


def _row_gmm(A: np.ndarray) -> np.ndarray:
    """Normalized row geometric means of each matrix in a (..., n, n) stack."""
    s = np.exp(np.mean(np.log(A), axis=-1))
    return s / s.sum(axis=-1, keepdims=True)


def _checked_gmm(A: np.ndarray) -> np.ndarray:
    """The checked, read-only (k, n) GMM matrix of a (k, n, n) stack."""
    G = _check_rows(_row_gmm(A))
    G.setflags(write=False)
    return G


def gmm_priorities(C: PCMatrix) -> PriorityVector:
    """Geometric mean method: normalized row geometric means, memoised per matrix."""
    if "gmm" not in C._memo:
        C._memo["gmm"] = _unchecked(PriorityVector, weights=_checked_gmm(C.values[None])[0])
    return C._memo["gmm"]


def panel_gmm(panel: ExpertPanel) -> list[PriorityVector]:
    """Each expert's GMM vector, from one log-mean over the panel's stack.

    The first call memoises, read-only on the panel, the (k, n) matrix of these
    vectors and its log, which the aggregation kernels work on, and gives each
    matrix without a vector its row of that matrix.
    """
    if "log_gmm" not in panel._memo:
        G = _checked_gmm(panel.stack)
        L = np.log(G)
        L.setflags(write=False)
        panel._memo.update(gmm=G, log_gmm=L)
        for m, w in zip(panel.matrices, G):  # a vector memoised before is kept
            m._memo.setdefault("gmm", _unchecked(PriorityVector, weights=w))
    return [gmm_priorities(m) for m in panel.matrices]


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
    (Perron-Frobenius).  A matrix still moving after ``EVM_MAX_ITER`` steps
    (|lambda_2| / lambda_max near 1) takes the eigenvector of its largest real
    eigenvalue from LAPACK instead.
    """
    v = _row_gmm(A)
    active = np.arange(len(A))
    A_act, v_act = A, v
    for _ in range(EVM_MAX_ITER):
        if not active.size:
            break
        av = (A_act @ v_act[..., None])[..., 0]
        v_next = av / av.sum(axis=1, keepdims=True)
        moving = ~(abs(v_next - v_act).max(axis=1) < EVM_TOL)  # NaN keeps moving
        if moving.all():
            v_act = v_next
            continue
        # some matrix has converged: store every vector, then drop the converged
        v[active] = v_next
        active, A_act, v_act = active[moving], A_act[moving], v_next[moving]
    if active.size:
        vals, vecs = np.linalg.eig(A_act)
        v[active] = vecs[np.arange(len(active)), :, vals.real.argmax(axis=1)].real
    lam = np.mean((A @ v[..., None])[..., 0] / v, axis=1)
    return v / v.sum(axis=1, keepdims=True), lam


def evm_priorities(C: PCMatrix) -> tuple[PriorityVector, float]:
    """Eigenvalue method for one matrix: ``evm_stack`` on a stack of one."""
    v, lam = evm_stack(C.values[None])
    return PriorityVector(v[0]), float(lam[0])
