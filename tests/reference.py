"""The paper's formulas written out one expert and one matrix at a time, for checking the package.

This module imports only numpy and shares no code with ``groupahp``, whose kernels work on
whole stacks of matrices at once.  Where a result is discrete (a ranking, a bribe queue, the
success test), the attack also returns its smallest deciding margin, so that a caller can skip
a case that rounding could decide either way.
"""

from __future__ import annotations

import numpy as np


def gmm(A: np.ndarray) -> np.ndarray:
    """Geometric mean method: the normalised n-th roots of the row products of one matrix."""
    n = len(A)
    roots = np.array([np.prod(row) ** (1.0 / n) for row in A])
    return roots / roots.sum()


def saaty_ci(A: np.ndarray) -> float:
    """Saaty's consistency index (lambda_max - n) / (n - 1), clamped at 0, where lambda_max
    is the largest real part of the matrix's eigenvalues."""
    n = len(A)
    lam = np.linalg.eig(A)[0].real.max()
    return max((lam - n) / (n - 1), 0.0)


def aip(vectors: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Aggregation of individual priorities: the normalised product of v_q ** r_q over the
    experts q, with equal weights r_q = 1 / k when none are given."""
    k, n = vectors.shape
    r = np.full(k, 1.0 / k) if weights is None else weights
    product = np.ones(n)
    for q in range(k):
        product = product * vectors[q] ** r[q]
    return product / product.sum()


def _first_argmax(w: np.ndarray) -> int:
    best = 0
    for i in range(1, len(w)):
        if w[i] > w[best]:
            best = i
    return best


def bribe(A: np.ndarray, promoted: int, demoted: int, saturation: float) -> np.ndarray:
    """A doctored copy of one matrix: the demoted alternative's row becomes 1 / s and its
    column s, then the promoted alternative's row s and its column 1 / s, diagonal 1."""
    B = A.copy()
    for alt, row, col in ((demoted, 1.0 / saturation, saturation),
                          (promoted, saturation, 1.0 / saturation)):
        for j in range(len(B)):
            B[alt, j] = row
            B[j, alt] = col
        B[alt, alt] = 1.0
    return B


def attack(stack: np.ndarray, max_bribes: int | None = None, saturation: float = 9.0) -> dict:
    """The bribery attack on one panel, a (k, n, n) array, expert by expert.

    The honest winner and runner-up are the first two alternatives of the equal-weight AIP,
    ties to the lower index.  Experts are queued by descending GMM support for the winner,
    ties to the lower index, and bribed one at a time, up to ``max_bribes`` (all k when None),
    until the runner-up is the first argmax of the aggregate.

    Returns the bribed indices, the success flag, the bribed stack, the manipulated and honest
    aggregates, and ``margin``: the smallest gap that decided a discrete step (winner against
    runner-up, runner-up against the third, adjacent supports of different matrices up to the
    last bribe, and the runner-up against its closest rival after each bribe).
    """
    k, n = len(stack), len(stack[0])
    matrices = [A.copy() for A in stack]
    G = [gmm(A) for A in matrices]
    honest = aip(np.array(G))
    order = sorted(range(n), key=lambda i: (-honest[i], i))
    winner, runner_up = order[0], order[1]
    margins = [honest[order[i]] - honest[order[i + 1]] for i in range(min(2, n - 1))]
    support = [G[q][winner] for q in range(k)]
    queue = sorted(range(k), key=lambda q: (-support[q], q))
    budget = k if max_bribes is None else max(max_bribes, 0)
    bribed, succeeded, ranking = [], False, honest
    for q in queue[:budget]:
        matrices[q] = bribe(matrices[q], runner_up, winner, saturation)
        G[q] = gmm(matrices[q])
        bribed.append(q)
        ranking = aip(np.array(G))
        rival = max(ranking[i] for i in range(n) if i != runner_up)
        margins.append(abs(ranking[runner_up] - rival))
        if _first_argmax(ranking) == runner_up:
            succeeded = True
            break
    # experts with equal matrices tie exactly in any implementation: the lower index goes first
    margins += [support[a] - support[b] for a, b in zip(queue, queue[1:len(bribed) + 1])
                if not np.array_equal(stack[a], stack[b])]
    return {
        "bribed": tuple(bribed),
        "succeeded": succeeded,
        "stack": np.array(matrices),
        "manipulated": ranking,
        "honest": honest,
        "margin": min(margins),
    }
