"""Priority derivation: GMM and EVM, for one matrix or a whole panel."""

from __future__ import annotations

from functools import reduce

import numpy as np

from .core import ExpertPanel, PCMatrix, PriorityVector, _check_rows, _unchecked

EVM_TOL = 1e-12  # a matrix has converged once a step moves its vector less than this
EVM_MAX_ITER = 1_000  # power-iteration steps before LAPACK finishes the matrices still moving
EVM_BLOCK = 8  # power-iteration steps between two convergence tests
EVM_SLAB = 4_096  # matrices iterated together: a block keeps EVM_BLOCK + 1 vectors of each


def _row_gmm(A: np.ndarray) -> np.ndarray:
    """Normalized row geometric means of each matrix in a (..., n, n) stack."""
    s = np.exp(np.mean(np.log(A), axis=-1))
    return s / s.sum(axis=-1, keepdims=True)


def _checked_gmm(A: np.ndarray) -> np.ndarray:
    """The checked, read-only (..., n) GMM vectors of a (..., n, n) stack."""
    G = _row_gmm(A)
    _check_rows(G.reshape(-1, G.shape[-1]))
    G.setflags(write=False)
    return G


def gmm_priorities(C: PCMatrix) -> PriorityVector:
    """Geometric mean method, normalized row geometric means: ``_checked_gmm`` on a stack of one."""
    return _unchecked(PriorityVector, weights=_checked_gmm(C.values[None])[0])


def panel_gmm(panel: ExpertPanel) -> list[PriorityVector]:
    """Each expert's GMM vector: a read-only row of one ``_checked_gmm`` of the panel's stack."""
    return [_unchecked(PriorityVector, weights=w) for w in _checked_gmm(panel.stack)]


def _power_iterate(A: np.ndarray, v: np.ndarray, lam: np.ndarray) -> None:
    """Power iteration on a (k, n, n) stack from the start vectors ``v``, written into ``v``.

    A block of steps does only the product and its normalisation, and keeps each
    step's vectors.  After the block, each matrix that passed the test at some
    step keeps that step's vector and leaves the stack; LAPACK's eigenvalues go in ``lam``.
    """
    active = np.arange(len(A))
    A_act, v_act = A, v
    for done_steps in range(0, EVM_MAX_ITER, EVM_BLOCK):
        if not active.size:
            break
        H = np.empty((min(EVM_BLOCK, EVM_MAX_ITER - done_steps) + 1, *v_act.shape))
        H[0] = v_act  # H[s] is the vector after step s of the block
        for s in range(1, len(H)):
            av = (A_act @ H[s - 1][..., None])[..., 0]
            H[s] = av / av.sum(axis=1, keepdims=True)
        # the max norm column by column: numpy reduces a short last axis slowly
        passed = reduce(np.maximum, np.moveaxis(abs(H[1:] - H[:-1]), -1, 0)) < EVM_TOL
        stopped = passed.any(axis=0)  # NaN never passes
        v[active[stopped]] = H[passed[:, stopped].argmax(axis=0) + 1, stopped]
        moving = ~stopped
        active, A_act, v_act = active[moving], A_act[moving], H[-1, moving]
    if active.size:
        vals, vecs = np.linalg.eig(A_act)
        top = np.arange(len(active)), vals.real.argmax(axis=1)
        v[active], lam[active] = vecs[top[0], :, top[1]].real, vals[top].real


def evm_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue method via power iteration over a (k, n, n) stack of matrices.

    Returns the (k, n) normalized principal eigenvectors and the k eigenvalues
    lambda_max.  Iteration starts from the row geometric means.  Each matrix
    keeps the vector of the first step that moves it by less than ``EVM_TOL``
    in the max norm, so its result does not depend on the rest of the stack,
    although the test runs once per ``EVM_BLOCK`` steps.  A positive matrix has
    a unique positive dominant eigenpair (Perron-Frobenius).  A matrix that no
    step of the first ``EVM_MAX_ITER`` passes (|lambda_2| / lambda_max near 1)
    takes its largest real eigenvalue, and that eigenvalue's vector, from LAPACK.
    The stack is iterated ``EVM_SLAB`` matrices at a time, which bounds the
    memory of a block's vectors.
    """
    return _evm_stack(A, _row_gmm(A))


def _evm_stack(A: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``evm_stack`` started from the (k, n) vectors ``v``, which it overwrites."""
    lam = np.full(len(A), np.nan)
    for lo in range(0, len(A), EVM_SLAB):
        _power_iterate(A[lo:lo + EVM_SLAB], v[lo:lo + EVM_SLAB], lam[lo:lo + EVM_SLAB])
    iterated = np.isnan(lam)  # a vector of LAPACK's may have a zero component
    lam[iterated] = np.mean((A[iterated] @ v[iterated, :, None])[..., 0] / v[iterated], axis=1)
    return v / v.sum(axis=1, keepdims=True), lam


def evm_priorities(C: PCMatrix) -> tuple[PriorityVector, float]:
    """Eigenvalue method for one matrix: ``evm_stack`` on a stack of one."""
    v, lam = evm_stack(C.values[None])
    return PriorityVector(v[0]), float(lam[0])
