"""Inconsistency indices of pairwise comparison matrices."""

from __future__ import annotations

import numpy as np

from .core import ExpertPanel, PCMatrix
from .derive import evm_stack
from .errors import DomainError


def _memoise_cis(mats: list[PCMatrix]) -> None:
    if mats:
        _, lam = evm_stack(np.stack([m.values for m in mats]))
        for m, x in zip(mats, lam):
            m._memo["ci"] = max(0.0, (float(x) - m.n) / (m.n - 1))


def saaty_ci(C: PCMatrix) -> float:
    """Consistency index (lambda_max - n) / (n - 1).

    Mathematically non-negative for reciprocal matrices; tiny negative
    values produced by floating point on consistent matrices are clamped
    to zero.  Derived once per matrix; later calls return the memoised value.
    """
    if "ci" not in C._memo:
        _memoise_cis([C])
    return C._memo["ci"]


def panel_cis(panel: ExpertPanel) -> list[float]:
    """Each expert's CI; the ones not yet memoised come from one power iteration."""
    _memoise_cis([m for m in panel.matrices if "ci" not in m._memo])
    return [saaty_ci(m) for m in panel.matrices]


def koczkodaj_k(C: PCMatrix) -> float:
    """Worst-triad relative deviation from consistency, in [0, 1)."""
    n = C.n
    if n < 3:
        raise DomainError("the triad index requires at least 3 alternatives")
    a = C.values
    i, j, k = np.indices((n, n, n))
    # ratio[i, j, k] = a_ik * a_kj / a_ij, over the triads i < j < k
    ratio = (a[:, None, :] * a.T[None, :, :] / a[:, :, None])[(i < j) & (j < k)]
    return float(np.minimum(abs(1.0 - ratio), abs(1.0 - 1.0 / ratio)).max())


def panel_mean_ci(panel: ExpertPanel) -> float:
    """Arithmetic mean of the consistency index over the panel."""
    return float(np.mean(panel_cis(panel)))
