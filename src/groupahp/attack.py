"""Bribery attack: flip the group winner to the runner-up by buying experts.

A bribed expert submits a doctored matrix in which the promoted
alternative saturates against every other one and the incumbent leader is
saturated against.  Experts are bought in descending order of their
individual support for the incumbent until the runner-up wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregate import aggregate_panel
from .core import ExpertPanel, PCMatrix, PriorityVector
from .derive import gmm_priorities
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
    changes only the bribed expert's matrix, and nobody is bribed twice.
    """
    budget = panel.k if max_bribes is None else max(max_bribes, 0)

    honest = aggregate_panel(panel)
    order = honest.ranking()
    winner, runner_up = int(order[0]), int(order[1])
    backing = [gmm_priorities(m).weights[winner] for m in panel.matrices]
    # descending support, ties towards the lower expert index
    queue = sorted(range(panel.k), key=lambda q: (-backing[q], q))

    current, ranking = panel, honest
    for used, target in enumerate(queue[:budget], start=1):
        current = current.replace(
            target, bribe_matrix(current.matrices[target], runner_up, winner, saturation)
        )
        ranking = aggregate_panel(current)
        if int(ranking.ranking()[0]) == runner_up:
            return AttackOutcome(tuple(queue[:used]), current, True, ranking, honest)
    return AttackOutcome(tuple(queue[:budget]), current, False, ranking, honest)
