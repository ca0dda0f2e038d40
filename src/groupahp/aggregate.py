"""Classical group aggregation: AIJ and AIP with optional expert weights.

Both routes use weighted geometric means.  Under the geometric mean
derivation they commute: deriving priorities from the AIJ matrix gives
exactly the AIP of the individual priorities, so downstream code can use
whichever form is cheaper.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .core import ExpertPanel, ExpertWeights, PCMatrix, PriorityVector, resymmetrize
from .derive import _panel_gmm_matrix
from .errors import ShapeError


def _weights_or_uniform(r: ExpertWeights | None, k: int) -> np.ndarray:
    if r is None:
        return np.full(k, 1.0 / k)
    if r.k != k:
        raise ShapeError(f"got {r.k} expert weights for {k} experts")
    return r.r


def aij(panel: ExpertPanel, r: ExpertWeights | None = None) -> PCMatrix:
    """Aggregate judgments: entrywise weighted geometric mean of the matrices."""
    w = _weights_or_uniform(r, panel.k)
    # exact reciprocity can drift by a few ulp; restore it from the upper triangle
    return PCMatrix(resymmetrize(np.exp(np.tensordot(w, np.log(panel.stack), axes=1))))


def _wgm_stack(W: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Normalized exp(w @ logs) per batch: (S, k) weights over (S, k, n) log priorities."""
    combined = np.exp(np.matmul(W[:, None, :], L)[:, 0])
    return combined / combined.sum(axis=1, keepdims=True)


def _weighted_geometric_mean(logs: np.ndarray, r: ExpertWeights | None) -> PriorityVector:
    """``_wgm_stack`` on a batch of one (k, n) matrix of log priorities."""
    return PriorityVector(_wgm_stack(_weights_or_uniform(r, len(logs))[None], logs[None])[0])


def aip(
    priority_vectors: Sequence[PriorityVector], r: ExpertWeights | None = None
) -> PriorityVector:
    """Aggregate priorities: normalized weighted geometric mean of the vectors."""
    if not priority_vectors:
        raise ShapeError("need at least one priority vector")
    n = priority_vectors[0].n
    if any(v.n != n for v in priority_vectors):
        raise ShapeError("all priority vectors must have the same length")
    return _weighted_geometric_mean(np.log([v.weights for v in priority_vectors]), r)


def aggregate_panel(panel: ExpertPanel, r: ExpertWeights | None = None) -> PriorityVector:
    """Group ranking of a panel: AIP over the per-expert GMM priorities.

    Works on the panel's memoised log-GMM matrix.  Equivalent to deriving GMM
    priorities from the AIJ matrix (the two routes commute under the geometric
    mean; covered by property tests).
    """
    return _weighted_geometric_mean(_panel_gmm_matrix(panel)[1], r)
