"""Manipulation-resistant expert weighting: APDD, AID, and their MX blend.

APDD down-weights experts whose individual priority vector sits far from
the group aggregate.  AID down-weights experts whose consistency index
deviates from the panel's mean inconsistency.  MX is a convex combination
of the two weight vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .aggregate import aip
from .core import ExpertPanel, ExpertWeights, PCMatrix, PriorityVector
from .derive import gmm_priorities, panel_gmm
from .errors import CredibilityOrderError, DegenerateMapError, DomainError
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
    arise legitimately from the procedural rule when all inconsistencies
    coincide.
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


def linear_map(X: tuple[float, float], Y: tuple[float, float], x: float) -> float:
    """Value at x of the straight line through points X and Y."""
    x1, y1 = X
    x2, y2 = Y
    if x1 == x2:
        raise DegenerateMapError("line endpoints share the same abscissa")
    slope = (y1 - y2) / (x1 - x2)
    return y1 + slope * (x - x1)


def preferential_distances(
    panel: ExpertPanel, metric: MetricName = "manhattan"
) -> np.ndarray:
    """Distance of each expert's GMM vector from the equal-weight aggregate."""
    dist = CARDINAL_METRICS[metric]
    vectors = panel_gmm(panel)
    group = aip(vectors)
    return np.array([dist(group, v) for v in vectors])


def inconsistency_distances(panel: ExpertPanel) -> tuple[np.ndarray, np.ndarray]:
    """Signed deviation of each expert's CI from the panel mean.

    Returns the deviations, which sum to zero, together with the raw CI values.
    """
    ci = np.array(panel_cis(panel))
    d = ci - ci.mean()
    d -= d.mean()  # kill the last ulp of centering error
    return d, ci


def apdd_weights(
    panel: ExpertPanel,
    scale: CredibilityScale2 = CredibilityScale2(),
    metric: MetricName = "manhattan",
) -> ExpertWeights:
    """Preferential-distance weights: a decreasing line from (d_min, h) to (d_max, l).

    When all experts are equally distant the line is undefined and the
    scheme degenerates to uniform weights, so batch experiments survive
    perfectly symmetric panels.
    """
    d = preferential_distances(panel, metric)
    d_min, d_max = d.min(), d.max()
    if d_max - d_min < 1e-12:
        return ExpertWeights.uniform(panel.k)
    f = np.array([linear_map((d_min, scale.h), (d_max, scale.l), x) for x in d])
    return ExpertWeights(f / f.sum())


def _piecewise_eval(
    x: float,
    A: tuple[float, float],
    B: tuple[float, float],
    C: tuple[float, float],
) -> float:
    # segment A-B below the mean (x < 0), B-C at or above it
    if x < 0.0:
        lo, hi = A, B
    else:
        lo, hi = B, C
    if lo[0] == hi[0]:
        # anchors collapsed (e.g. the extreme expert is also the middle one);
        # fall back to the other segment, which still spans distinct abscissae
        lo, hi = (B, C) if lo is A else (A, B)
    return linear_map(lo, hi, x)


def aid_weights(
    panel: ExpertPanel, scale: CredibilityScale3 = DEFAULT_SCALE3
) -> ExpertWeights:
    """Inconsistency-deviation weights via a two-segment piecewise-linear map.

    Anchors sit at the centered deviations of the most consistent, closest
    to mean, and least consistent expert, carrying the scale's h, m and l.
    Ties for the middle expert break towards the lowest index.  As the middle
    anchor minimises |d|, no deviation leaves its segment: weights stay in [l, h].
    """
    d, ci = inconsistency_distances(panel)
    if ci.max() - ci.min() < 1e-12:
        return ExpertWeights.uniform(panel.k)
    i_min = int(np.argmin(ci))
    i_max = int(np.argmax(ci))
    i_mid = int(np.argmin(np.abs(d)))
    A = (d[i_min], scale.h)
    B = (d[i_mid], scale.m)
    C = (d[i_max], scale.l)
    f = np.array([_piecewise_eval(x, A, B, C) for x in d])
    return ExpertWeights(f / f.sum())


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


def procedural_credibility(
    i_min: float, i_mid: float, i_max: float, alpha: float = 1.0
) -> CredibilityScale3:
    """Derive (h, m, l) from inconsistency ratios instead of explicit judgments.

    h = alpha * i_max / i_min, m = alpha * i_mid / i_min, l = 1, normalized
    to sum 1.  Undefined for a perfectly consistent best expert (i_min = 0).
    """
    if alpha < 1.0:
        raise DomainError("gain factor alpha must be >= 1")
    if i_min <= 0.0:
        raise DomainError("procedural credibility needs i_min > 0")
    if not i_min <= i_mid <= i_max:
        raise DomainError("need i_min <= i_mid <= i_max")
    h = alpha * i_max / i_min
    m = alpha * i_mid / i_min
    return CredibilityScale3.from_ratios(h, m, 1.0)


def mx_weights(
    panel: ExpertPanel,
    scale2: CredibilityScale2 = CredibilityScale2(),
    scale3: CredibilityScale3 = DEFAULT_SCALE3,
    beta: float = 0.5,
    metric: MetricName = "manhattan",
) -> ExpertWeights:
    """Convex blend beta * APDD + (1 - beta) * AID of the two weight vectors."""
    if not 0.0 <= beta <= 1.0:
        raise DomainError("beta must lie in [0, 1]")
    r1 = apdd_weights(panel, scale2, metric).r
    r2 = aid_weights(panel, scale3).r
    return ExpertWeights(beta * r1 + (1.0 - beta) * r2)


@dataclass(frozen=True)
class RobustConfig:
    """Bundled configuration for the three weighting schemes."""

    scale2: CredibilityScale2 = field(default_factory=CredibilityScale2)
    scale3: CredibilityScale3 = DEFAULT_SCALE3
    beta: float = 0.5
    metric: MetricName = "manhattan"

    def __post_init__(self):
        if self.metric not in CARDINAL_METRICS:
            raise DomainError(
                f"metric must be one of {sorted(CARDINAL_METRICS)}, got {self.metric!r}"
            )


def method_weights(
    panel: ExpertPanel, method: MethodName, config: RobustConfig = RobustConfig()
) -> ExpertWeights:
    if method == "APDD":
        return apdd_weights(panel, config.scale2, config.metric)
    if method == "AID":
        return aid_weights(panel, config.scale3)
    if method == "MX":
        return mx_weights(panel, config.scale2, config.scale3, config.beta, config.metric)
    raise DomainError(f"unknown method {method!r}")


def robust_aggregate(
    panel: ExpertPanel, method: MethodName, config: RobustConfig = RobustConfig()
) -> PriorityVector:
    """Group ranking using the chosen weighting scheme and weighted AIP."""
    r = method_weights(panel, method, config)
    return aip(panel_gmm(panel), r)
