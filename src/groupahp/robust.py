"""Manipulation-resistant expert weighting: APDD, AID, and their MX blend.

APDD down-weights experts whose individual priority vector sits far from
the group aggregate.  AID down-weights experts whose consistency index
deviates from the panel's mean inconsistency.  Both map the deviation
linearly onto credibility anchors; MX is a convex blend of the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .aggregate import _weighted_geometric_mean, aggregate_panel
from .core import ExpertPanel, ExpertWeights, PCMatrix, PriorityVector
from .derive import _panel_gmm_matrix, gmm_priorities
from .errors import CredibilityOrderError, DomainError
from .inconsistency import panel_cis
from .metrics import CARDINAL_METRICS

MetricName = Literal["manhattan", "euclidean", "chebyshev"]
MethodName = Literal["APDD", "AID", "MX"]


@dataclass(frozen=True)
class CredibilityScale2:
    """Anchor weights for the most (h) and least (l) trusted expert, h > l > 0."""

    h: float = 5.0
    l: float = 1.0

    def __post_init__(self):
        if not (self.h > self.l > 0.0):
            raise DomainError("credibility scale requires h > l > 0")


@dataclass(frozen=True)
class CredibilityScale3:
    """Anchor weights (h, m, l) for the most, middle and least consistent expert.

    Ordering h >= m >= l > 0 is required; the strict form is enforced where
    the anchors come from a credibility comparison matrix.  Equal anchors
    arise only from equal explicit trust ratios.
    """

    h: float
    m: float
    l: float

    def __post_init__(self):
        if not (self.h >= self.m >= self.l > 0.0):
            raise DomainError("credibility scale requires h >= m >= l > 0")

    @classmethod
    def from_ratios(cls, h: float, m: float, l: float) -> "CredibilityScale3":
        """Normalize explicit trust ratios (e.g. 9:4:1) to sum 1."""
        if not all(x > 0.0 for x in (h, m, l)):
            raise DomainError("credibility ratios must be positive")
        s = h + m + l
        return cls(h / s, m / s, l / s)


#: Default trust ratios for batch runs where no credibility matrix is supplied.
DEFAULT_SCALE3 = CredibilityScale3.from_ratios(9.0, 4.0, 1.0)

#: Credibility matrix used in the worked example bundled with the package.
EXAMPLE_CREDIBILITY_MATRIX = PCMatrix(
    np.array([[1.0, 2.0, 7.0], [0.5, 1.0, 4.0], [1.0 / 7.0, 0.25, 1.0]])
)


def _metric(name: str):
    """The distance function called ``name``; an unknown name raises DomainError."""
    if name not in CARDINAL_METRICS:
        raise DomainError(f"metric must be one of {sorted(CARDINAL_METRICS)}, got {name!r}")
    return CARDINAL_METRICS[name]


@dataclass(frozen=True)
class RobustConfig:
    """Anchors, blend weight and distance metric of the three weighting schemes."""

    scale2: CredibilityScale2 = field(default_factory=CredibilityScale2)
    scale3: CredibilityScale3 = DEFAULT_SCALE3
    beta: float = 0.5
    metric: MetricName = "manhattan"

    def __post_init__(self):
        _metric(self.metric)
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError(f"beta must lie in [0, 1], got {self.beta!r}")


def preferential_distances(
    panel: ExpertPanel, metric: MetricName = RobustConfig.metric
) -> np.ndarray:
    """Distance of each expert's GMM vector from the equal-weight aggregate."""
    G, L = _panel_gmm_matrix(panel)
    return _metric(metric)(_weighted_geometric_mean(L, None), G)


def inconsistency_distances(panel: ExpertPanel) -> tuple[np.ndarray, np.ndarray]:
    """Each expert's CI minus the panel mean (the deviations sum to zero), and the CIs."""
    ci = np.array(panel_cis(panel))
    d = ci - ci.mean()
    d -= d.mean()  # kill the last ulp of centering error
    return d, ci


def _credibility(d: np.ndarray, xp: list, fp: list) -> ExpertWeights:
    """Map the deviations ``d`` linearly through the anchors (xp, fp), normalised.

    Anchors less than 1e-12 apart leave the map undefined: the weights are then
    uniform, so batch experiments survive perfectly symmetric panels.
    """
    if xp[-1] - xp[0] < 1e-12:
        return ExpertWeights.uniform(d.size)
    f = np.interp(d, xp, fp)
    return ExpertWeights(f / f.sum())


def apdd_weights(panel: ExpertPanel, config: RobustConfig = RobustConfig()) -> ExpertWeights:
    """Preferential-distance weights: a decreasing line from (d_min, h) to (d_max, l)."""
    d = preferential_distances(panel, config.metric)
    return _credibility(d, [d.min(), d.max()], [config.scale2.h, config.scale2.l])


def aid_weights(panel: ExpertPanel, config: RobustConfig = RobustConfig()) -> ExpertWeights:
    """Inconsistency-deviation weights: a two-segment line through (h, m, l) anchors.

    The anchors sit at the centered CI deviations of the most consistent
    expert (h), the middle expert (m) and the least consistent expert (l).
    The middle anchor is the deviation closest to zero among the experts
    strictly between the two extremes; an exact |d| tie goes to the lower d.
    When no expert lies strictly between, the map is the line from the best
    (h) to the worst (l) deviation, so tied-best experts get h and tied-worst
    experts get l.  The rule reads deviations, not positions, so the weights
    do not depend on the order in which experts are listed.
    """
    d, _ = inconsistency_distances(panel)
    lo, hi = d.min(), d.max()
    inner = np.sort(d[(d > lo) & (d < hi)])
    s = config.scale3
    if inner.size:
        mid = inner[np.argmin(np.abs(inner))]  # first of a tie is the lower d
        return _credibility(d, [lo, mid, hi], [s.h, s.m, s.l])
    return _credibility(d, [lo, hi], [s.h, s.l])


def mx_weights(panel: ExpertPanel, config: RobustConfig = RobustConfig()) -> ExpertWeights:
    """Convex blend beta * APDD + (1 - beta) * AID of the two weight vectors."""
    r1 = apdd_weights(panel, config).r
    r2 = aid_weights(panel, config).r
    return ExpertWeights(config.beta * r1 + (1.0 - config.beta) * r2)


def credibility_from_matrix(c_ex: PCMatrix) -> CredibilityScale3:
    """Resolve a 3x3 credibility comparison matrix into (h, m, l) anchors.

    The matrix compares the most consistent, middle and least consistent
    expert, in that order, so its upper triangle must be >= 1 (the more
    trusted expert dominates).  The anchors are its GMM priorities and must
    come out strictly ordered.
    """
    if c_ex.n != 3:
        raise DomainError("credibility matrix must be 3x3")
    iu = np.triu_indices(3, k=1)
    if np.any(c_ex.values[iu] < 1.0):
        raise DomainError("upper-triangle credibility ratios must be >= 1")
    h, m, l = gmm_priorities(c_ex).weights
    if not (h > m > l):
        raise CredibilityOrderError("credibility anchors must satisfy h > m > l")
    return CredibilityScale3(float(h), float(m), float(l))


_METHODS = {"APDD": apdd_weights, "AID": aid_weights, "MX": mx_weights}


def method_weights(
    panel: ExpertPanel, method: MethodName, config: RobustConfig = RobustConfig()
) -> ExpertWeights:
    if method not in _METHODS:
        raise DomainError(f"unknown method {method!r}")
    return _METHODS[method](panel, config)


def robust_aggregate(
    panel: ExpertPanel, method: MethodName, config: RobustConfig = RobustConfig()
) -> PriorityVector:
    """Group ranking using the chosen weighting scheme and weighted AIP."""
    return aggregate_panel(panel, method_weights(panel, method, config))
