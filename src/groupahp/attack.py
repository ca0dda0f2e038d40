"""Bribery attack: flip the group winner to the runner-up by buying experts.

A bribed expert submits a doctored matrix in which the promoted
alternative saturates against every other one and the incumbent leader is
saturated against.  Experts are bought in descending order of their
individual support for the incumbent until the runner-up wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import _weighted_geometric_mean, aggregate_panel
from .core import ExpertPanel, PCMatrix, PriorityVector
from .derive import _panel_gmm_matrix, gmm_priorities
from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class AttackOutcome:
    bribed_indices: tuple[int, ...]
    manipulated_panel: ExpertPanel
    succeeded: bool
    manipulated_ranking: PriorityVector
    honest_ranking: PriorityVector  # the aggregate of the panel before any bribe


def bribe_matrix(
    C: PCMatrix, promoted: int, demoted: int, saturation: float = 9.0
) -> PCMatrix:
    """Doctor one expert's matrix in favor of ``promoted`` over ``demoted``.

    The promoted alternative's row is set to the saturation value against
    all others, the demoted one's row to its reciprocal; columns mirror the
    rows.  Entries not involving either alternative are left untouched.
    """
    n = C.n
    if not (0 <= promoted < n and 0 <= demoted < n):
        raise ShapeError("alternative index out of range")
    if promoted == demoted:
        raise DomainError("promoted and demoted alternatives must differ")
    if saturation <= 1.0:
        raise DomainError("saturation must exceed 1")
    m = C.values.copy()
    others = [j for j in range(n) if j != demoted]
    m[demoted, others] = 1.0 / saturation
    m[others, demoted] = saturation
    others = [j for j in range(n) if j != promoted]
    m[promoted, others] = saturation
    m[others, promoted] = 1.0 / saturation
    return PCMatrix(m)


def run_attack(
    panel: ExpertPanel, max_bribes: int | None = None, saturation: float = 9.0
) -> AttackOutcome:
    """Bribe experts one by one until the honest runner-up tops the ranking.

    Support for the incumbent is ranked once, on the honest panel: a bribe
    changes only the bribed expert's matrix, and nobody is bribed twice.  So
    each bribe rewrites one row of a copy of the panel's log-GMM matrix, and
    the manipulated panel is built once, at the end.
    """
    budget = panel.k if max_bribes is None else max(max_bribes, 0)

    honest = aggregate_panel(panel)
    order = honest.ranking()
    winner, runner_up = int(order[0]), int(order[1])
    G, L = _panel_gmm_matrix(panel)
    # descending support, ties towards the lower expert index
    queue = np.argsort(-G[:, winner], kind="stable")[:budget].tolist()

    mats, L = list(panel.matrices), L.copy()
    ranking, used, succeeded = honest, 0, False
    for used, target in enumerate(queue, start=1):
        mats[target] = bribe_matrix(mats[target], runner_up, winner, saturation)
        L[target] = np.log(gmm_priorities(mats[target]).weights)
        ranking = _weighted_geometric_mean(L, None)
        succeeded = int(ranking.ranking()[0]) == runner_up
        if succeeded:
            break
    manipulated = ExpertPanel(tuple(mats)) if used else panel
    return AttackOutcome(tuple(queue[:used]), manipulated, succeeded, ranking, honest)
