"""Classical group aggregation: AIJ and AIP with optional expert weights.

Both routes use weighted geometric means.  Under the geometric mean
derivation they commute: deriving priorities from the AIJ matrix gives
exactly the AIP of the individual priorities, so downstream code can use
whichever form is cheaper.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .core import ExpertPanel, ExpertWeights, PCMatrix, PriorityVector
from .derive import panel_gmm
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
    logs = np.stack([np.log(m.values) for m in panel.matrices])
    agg = np.exp(np.tensordot(w, logs, axes=1))
    np.fill_diagonal(agg, 1.0)
    # exact reciprocity can drift by a few ulp; restore it from the upper triangle
    iu = np.triu_indices(panel.n, k=1)
    agg[(iu[1], iu[0])] = 1.0 / agg[iu]
    return PCMatrix(agg)


def aip(
    priority_vectors: Sequence[PriorityVector], r: ExpertWeights | None = None
) -> PriorityVector:
    """Aggregate priorities: normalized weighted geometric mean of the vectors."""
    if not priority_vectors:
        raise ShapeError("need at least one priority vector")
    n = priority_vectors[0].n
    if any(v.n != n for v in priority_vectors):
        raise ShapeError("all priority vectors must have the same length")
    w = _weights_or_uniform(r, len(priority_vectors))
    logs = np.stack([np.log(v.weights) for v in priority_vectors])
    combined = np.exp(np.tensordot(w, logs, axes=1))
    return PriorityVector(combined / combined.sum())


def aggregate_panel(panel: ExpertPanel, r: ExpertWeights | None = None) -> PriorityVector:
    """Group ranking of a panel: AIP over the per-expert GMM priorities.

    Equivalent to deriving GMM priorities from the AIJ matrix (the two
    routes commute under the geometric mean; covered by property tests).
    """
    return aip(panel_gmm(panel), r)
