"""Inconsistency indices of pairwise comparison matrices."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import ExpertPanel, PCMatrix
from .derive import evm_priorities
from .errors import DomainError


def saaty_ci(C: PCMatrix) -> float:
    """Consistency index (lambda_max - n) / (n - 1).

    Mathematically non-negative for reciprocal matrices; tiny negative
    values produced by floating point on consistent matrices are clamped
    to zero.  Derived once per matrix; later calls return the memoised value.
    """
    if "ci" not in C._memo:
        _, lam = evm_priorities(C)
        C._memo["ci"] = max(0.0, (lam - C.n) / (C.n - 1))
    return C._memo["ci"]


def koczkodaj_k(C: PCMatrix) -> float:
    """Worst-triad relative deviation from consistency, in [0, 1)."""
    n = C.n
    if n < 3:
        raise DomainError("the triad index requires at least 3 alternatives")
    a = C.values
    worst = 0.0
    for i, j, k in combinations(range(n), 3):
        ratio = a[i, k] * a[k, j] / a[i, j]
        worst = max(worst, min(abs(1.0 - ratio), abs(1.0 - 1.0 / ratio)))
    return worst


def panel_mean_ci(panel: ExpertPanel) -> float:
    """Arithmetic mean of the consistency index over the panel."""
    return float(np.mean([saaty_ci(m) for m in panel.matrices]))
