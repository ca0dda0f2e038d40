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

from .aggregate import _wgm_stack
from .core import ExpertPanel, ExpertWeights, PCMatrix, PriorityVector, _check_rows, _unchecked
from .derive import _checked_gmm, gmm_priorities
from .errors import CredibilityOrderError, DomainError
from .inconsistency import _stack_cis, panel_cis
from .metrics import CARDINAL_METRICS

MetricName = Literal["manhattan", "euclidean", "chebyshev"]
MethodName = Literal["APDD", "AID", "MX"]
METHODS = ("APDD", "AID", "MX")


@dataclass(frozen=True)
class CredibilityScale2:
    """Anchor weights for the most (h) and least (l) trusted expert, finite h > l > 0."""

    h: float = 5.0
    l: float = 1.0

    def __post_init__(self):
        if not (np.inf > self.h > self.l > 0.0):
            raise DomainError("credibility scale requires finite h > l > 0")


@dataclass(frozen=True)
class CredibilityScale3:
    """Anchor weights (h, m, l) for the most, middle and least consistent expert.

    Finite anchors ordered h >= m >= l > 0 are required; the strict form is enforced where
    the anchors come from a credibility comparison matrix.  Equal anchors
    arise only from equal explicit trust ratios.
    """

    h: float
    m: float
    l: float

    def __post_init__(self):
        if not (np.inf > self.h >= self.m >= self.l > 0.0):
            raise DomainError("credibility scale requires finite h >= m >= l > 0")

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
    G = _checked_gmm(panel.stack)
    return _metric(metric)(_wgm_stack(None, G[None]), G)


def _centred(CI: np.ndarray) -> np.ndarray:
    """Each row of an (S, k) array minus its mean, as np.mean computes it (sum / k)."""
    D = CI - CI.sum(axis=1, keepdims=True) / CI.shape[1]
    D -= D.sum(axis=1, keepdims=True) / CI.shape[1]  # kill the last ulp of centering error
    return D


def inconsistency_distances(panel: ExpertPanel) -> np.ndarray:
    """Each expert's CI minus the panel mean; the deviations sum to zero."""
    return _centred(np.array(panel_cis(panel))[None])[0]


def _credibility(D: np.ndarray, XP: np.ndarray, fp: list) -> np.ndarray:
    """Map each row of D (S, k) through np.interp on its anchors XP (S, m) onto fp, normalised;
    anchors less than 1e-12 apart give uniform weights, so batch runs survive symmetric panels.
    Row by row: a vectorised np.interp formula took 21 us on a batch of one, np.interp 9 us."""
    f = np.array([np.interp(d, xp, fp) if xp[-1] - xp[0] >= 1e-12 else np.ones(d.size)
                  for d, xp in zip(D, XP)])
    return f / f.sum(axis=1, keepdims=True)


def _apdd_stack(D: np.ndarray, config: RobustConfig) -> np.ndarray:
    """APDD weights of each row of distances D (S, k); see ``apdd_weights``."""
    return _credibility(D, np.sort(D, axis=1)[:, [0, -1]], [config.scale2.h, config.scale2.l])


def _aid_stack(D: np.ndarray, config: RobustConfig) -> np.ndarray:
    """AID weights of each row of centred CI deviations D (S, k); see ``aid_weights``."""
    Ds = np.sort(D, axis=1)
    lo, hi = Ds[:, :1], Ds[:, -1:]
    # the middle anchor is the inner deviation nearest zero, the first (lower) of a tie;
    # with none, the largest deviation, so that every deviation maps to h or l
    key = np.abs(Ds)
    key[Ds >= hi] = np.finfo(float).max
    key[Ds <= lo] = np.inf
    mid = Ds[np.arange(len(D)), key.argmin(axis=1)][:, None]
    s = config.scale3
    return _credibility(D, np.concatenate([lo, mid, hi], axis=1), [s.h, s.m, s.l])


def _robust_weights_stack(G, CI, config: RobustConfig) -> tuple[np.ndarray, ...]:
    """The (S, k) expert weights of S panels by each method, in METHODS order, from their
    (S, k, n) GMM vectors G and (S, k) CIs.  APDD measures from each panel's equal-weight
    aggregate.  Each gets ExpertWeights' checks."""
    apdd = _apdd_stack(_metric(config.metric)(_wgm_stack(None, G)[:, None], G), config)
    aid = _aid_stack(_centred(CI), config)
    mx = config.beta * apdd + (1.0 - config.beta) * aid
    return tuple(_check_rows(W, "expert weights", 1) for W in (apdd, aid, mx))


def _robust_aggregate_stack(G, CI, config: RobustConfig) -> tuple[np.ndarray, ...]:
    """``robust_aggregate`` of S panels by each method: ``_robust_weights_stack``'s aggregates."""
    return tuple(_wgm_stack(W, G) for W in _robust_weights_stack(G, CI, config))


def _panel_weights(panel: ExpertPanel, config: RobustConfig):
    """A panel's (k, n) GMM vectors, its (k,) CIs from one power iteration started at them, and
    its (1, k) weights by each method: the one scorer of the single-panel API and ``aggregate``."""
    G = _checked_gmm(panel.stack)
    CI = _stack_cis(panel.stack, G)
    return G, CI, _robust_weights_stack(G[None], CI[None], config)


def _method_index(method: str) -> int:
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}")
    return METHODS.index(method)


def apdd_weights(panel: ExpertPanel, config: RobustConfig = RobustConfig()) -> ExpertWeights:
    """Preferential-distance weights: a decreasing line from (d_min, h) to (d_max, l)."""
    return method_weights(panel, "APDD", config)


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
    return method_weights(panel, "AID", config)


def mx_weights(panel: ExpertPanel, config: RobustConfig = RobustConfig()) -> ExpertWeights:
    """Convex blend beta * APDD + (1 - beta) * AID of the two weight vectors."""
    return method_weights(panel, "MX", config)


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


def method_weights(
    panel: ExpertPanel, method: MethodName, config: RobustConfig = RobustConfig()
) -> ExpertWeights:
    i = _method_index(method)
    return ExpertWeights(_panel_weights(panel, config)[2][i][0])


def robust_aggregate(
    panel: ExpertPanel, method: MethodName, config: RobustConfig = RobustConfig()
) -> PriorityVector:
    """Group ranking using the chosen weighting scheme and weighted AIP."""
    i = _method_index(method)
    G, _, weights = _panel_weights(panel, config)
    return _unchecked(PriorityVector, weights=_wgm_stack(weights[i], G[None])[0])
