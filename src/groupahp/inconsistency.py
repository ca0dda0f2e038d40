"""Inconsistency indices of pairwise comparison matrices."""

from __future__ import annotations

import numpy as np

from .core import ExpertPanel, PCMatrix
from .derive import evm_stack
from .errors import DomainError

_TRIAD_BLOCK = 1 << 16


def _stack_cis(A: np.ndarray) -> np.ndarray:
    """The CIs of a (k, n, n) stack, from one power iteration; see ``saaty_ci``."""
    return np.maximum((evm_stack(A)[1] - A.shape[-1]) / (A.shape[-1] - 1), 0.0)


def _memoise_cis(mats) -> None:
    """Memoise the CI of each matrix in ``mats`` that lacks one: one power iteration per size."""
    by_n: dict[int, list[PCMatrix]] = {}
    for m in mats:
        if "ci" not in m._memo:
            by_n.setdefault(m.n, []).append(m)
    for group in by_n.values():
        for m, ci in zip(group, _stack_cis(np.stack([m.values for m in group]))):
            m._memo["ci"] = float(ci)


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
    _memoise_cis(panel.matrices)
    return [saaty_ci(m) for m in panel.matrices]


def fill_cis(panels) -> None:
    """Memoise the CI of every matrix in ``panels`` that lacks one, across all of them."""
    _memoise_cis(m for p in panels for m in p.matrices)


def koczkodaj_k(C: PCMatrix) -> float:
    """Worst-triad relative deviation from consistency, in [0, 1).

    Triads are taken in blocks of their largest index, about _TRIAD_BLOCK
    ratios (or one index) at a time, so memory grows as n^2, not n^3.
    """
    n = C.n
    if n < 3:
        raise DomainError("the triad index requires at least 3 alternatives")
    a = C.values
    r = np.arange(n)
    i_below_j = (r[:, None] < r)[:, :, None]
    step = max(1, _TRIAD_BLOCK // (n * n))
    worst = 0.0
    for k0 in range(2, n, step):
        ks = slice(k0, k0 + step)
        # ratio[i, j, k] = a_ik * a_kj / a_ij, over the triads i < j < k
        ratio = a[:, None, ks] * a.T[None, :, ks] / a[:, :, None]
        ratio = ratio[i_below_j & (r[:, None] < r[ks])]
        worst = max(worst, float(np.minimum(abs(1.0 - ratio), abs(1.0 - 1.0 / ratio)).max()))
    return worst


def panel_mean_ci(panel: ExpertPanel) -> float:
    """Arithmetic mean of the consistency index over the panel."""
    return float(np.mean(panel_cis(panel)))
