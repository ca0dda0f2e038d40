"""Classical group aggregation: AIJ and AIP with optional expert weights.

Both routes use weighted geometric means.  Under the geometric mean
derivation they commute: deriving priorities from the AIJ matrix gives
exactly the AIP of the individual priorities, so downstream code can use
whichever form is cheaper.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .core import (ExpertPanel, ExpertWeights, PCMatrix, PriorityVector, _check_rows, _unchecked,
                   resymmetrize)
from .derive import _checked_gmm
from .errors import ShapeError


def _weights(r: ExpertWeights | None, k: int) -> np.ndarray | None:
    if r is not None and r.k != k:
        raise ShapeError(f"got {r.k} expert weights for {k} experts")
    return None if r is None else r.r[None]


def aij(panel: ExpertPanel, r: ExpertWeights | None = None) -> PCMatrix:
    """Aggregate judgments: entrywise weighted geometric mean of the matrices."""
    w = np.full(panel.k, 1.0 / panel.k) if r is None else _weights(r, panel.k)[0]
    # exact reciprocity can drift by a few ulp; restore it from the upper triangle
    return PCMatrix(resymmetrize(np.exp(np.tensordot(w, np.log(panel.stack), axes=1))))


def _wgm_stack(W: np.ndarray | None, G: np.ndarray) -> np.ndarray:
    """AIP of (S, k, n) priority vectors G, the one place their logs are taken: the checked,
    read-only, normalized exp(w @ log G), with (S, k) weights W, None for equal ones."""
    W = np.full(G.shape[:2], 1.0 / G.shape[1]) if W is None else W
    combined = np.exp(np.matmul(W[:, None, :], np.log(G))[:, 0])
    combined /= combined.sum(axis=1, keepdims=True)
    combined.setflags(write=False)
    return _check_rows(combined)


def aip(
    priority_vectors: Sequence[PriorityVector], r: ExpertWeights | None = None
) -> PriorityVector:
    """Aggregate priorities: normalized weighted geometric mean of the vectors."""
    if not priority_vectors:
        raise ShapeError("need at least one priority vector")
    if len({v.n for v in priority_vectors}) > 1:
        raise ShapeError("all priority vectors must have the same length")
    G = np.array([v.weights for v in priority_vectors])
    return _unchecked(PriorityVector, weights=_wgm_stack(_weights(r, len(G)), G[None])[0])


def aggregate_panel(panel: ExpertPanel, r: ExpertWeights | None = None) -> PriorityVector:
    """Group ranking of a panel: AIP over the per-expert GMM priorities.

    ``_wgm_stack`` of one ``_checked_gmm`` of the panel's stack.  Equivalent to
    deriving GMM priorities from the AIJ matrix (the two routes commute under the
    geometric mean; covered by property tests).
    """
    G = _checked_gmm(panel.stack)[None]
    return _unchecked(PriorityVector, weights=_wgm_stack(_weights(r, panel.k), G)[0])
