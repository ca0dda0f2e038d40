"""Bribery attack: flip the group winner to the runner-up by buying experts.

A bribed expert submits a doctored matrix in which the promoted
alternative saturates against every other one and the incumbent leader is
saturated against.  Experts are bought in descending order of their
individual support for the incumbent until the runner-up wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import _wgm_stack
from .core import (MAX_JUDGMENT, ExpertPanel, PCMatrix, PriorityVector, _check_rows,
                   _checked_panel, _ranking, _unchecked)
from .derive import _checked_gmm, _row_gmm
from .errors import DomainError, ShapeError

SATURATION = 9.0  # the top of Saaty's 1-9 scale


@dataclass(frozen=True)
class AttackOutcome:
    bribed_indices: tuple[int, ...]
    manipulated_panel: ExpertPanel
    succeeded: bool
    manipulated_ranking: PriorityVector
    honest_ranking: PriorityVector  # the aggregate of the panel before any bribe


def _check_saturation(saturation: float) -> None:
    if not 1.0 < saturation <= MAX_JUDGMENT:  # NaN too
        raise DomainError(f"saturation must exceed 1 and be at most {MAX_JUDGMENT:g}")


def _bribe_stack(A: np.ndarray, promoted, demoted, saturation: float) -> None:
    """Doctor each (n, n) matrix of the stack A in place: promoted[s]'s row saturates against
    all others, demoted[s]'s row gets the reciprocal, columns mirror rows; valid stays valid."""
    s, inv = np.arange(len(A)), 1.0 / saturation
    for alt, row, col in ((demoted, inv, saturation), (promoted, saturation, inv)):
        A[s, alt, :], A[s, :, alt], A[s, alt, alt] = row, col, 1.0


def bribe_matrix(C: PCMatrix, promoted: int, demoted: int,
                 saturation: float = SATURATION) -> PCMatrix:
    """Doctor one expert's matrix in favor of ``promoted``: ``_bribe_stack`` on a stack of one."""
    if not (0 <= promoted < C.n and 0 <= demoted < C.n):
        raise ShapeError("alternative index out of range")
    if promoted == demoted:
        raise DomainError("promoted and demoted alternatives must differ")
    _check_saturation(saturation)
    m = C.values[None].copy()
    _bribe_stack(m, promoted, demoted, saturation)
    return PCMatrix(m[0])


def _attack_stack(A, G, max_bribes: int | None, saturation: float):
    """Attack S panels with (S, k, n, n) matrices A and their checked (S, k, n) GMM vectors G,
    both rewritten in place: only a bribed matrix's vector is derived again.

    Support is ranked once, as nobody is bribed twice; step b bribes the b-th queued
    expert of every panel not yet flipped.  Returns the (S, budget) queues, bribes used,
    success flags, manipulated and honest aggregates, and the final GMM vectors' logs."""
    _check_saturation(saturation)
    S, k = A.shape[:2]
    L = np.log(G)
    honest = _wgm_stack(None, L)
    winner, runner_up = _ranking(honest)[:, :2].T
    budget = k if max_bribes is None else max(max_bribes, 0)
    queue = _ranking(G[np.arange(S), :, winner])[:, :budget]  # descending support
    ranking, used, succeeded = honest.copy(), np.zeros(S, int), np.zeros(S, bool)
    for b in range(queue.shape[1]):
        s = np.flatnonzero(~succeeded)
        if not s.size:
            break
        t, M = queue[s, b], A[s, queue[s, b]]
        _bribe_stack(M, runner_up[s], winner[s], saturation)
        g = _check_rows(_row_gmm(M))
        A[s, t], G[s, t], L[s, t] = M, g, np.log(g)
        r = _wgm_stack(None, L[s])
        # argmax takes the first of a tie, as the stable ranking does
        ranking[s], used[s], succeeded[s] = r, b + 1, r.argmax(axis=1) == runner_up[s]
    return queue, used, succeeded, ranking, honest, L


def run_attack(
    panel: ExpertPanel, max_bribes: int | None = None, saturation: float = SATURATION
) -> AttackOutcome:
    """Bribe experts one by one until the honest runner-up tops the ranking:
    ``_attack_stack`` on a batch of one."""
    A, G = panel.stack[None].copy(), _checked_gmm(panel.stack[None]).copy()
    queue, used, ok, ranking, honest, _ = _attack_stack(A, G, max_bribes, saturation)
    A.setflags(write=False)
    ranking.setflags(write=False)  # both aggregates passed _wgm_stack's row check
    bribed = tuple(queue[0, :used[0]].tolist())
    return AttackOutcome(bribed, _checked_panel(A[0]) if bribed else panel, bool(ok[0]),
                         *(_unchecked(PriorityVector, weights=w[0]) for w in (ranking, honest)))
