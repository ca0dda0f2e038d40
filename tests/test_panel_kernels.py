"""Properties of the stacked panel kernels: panel_cis, panel_gmm and evm_stack."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupahp import (
    ConvergenceError,
    ExpertPanel,
    PCMatrix,
    PriorityVector,
    bribe_matrix,
    consistent_matrix_from_priorities,
    evm_stack,
    gmm_priorities,
    panel_cis,
    panel_gmm,
    saaty_ci,
)
from groupahp import derive, inconsistency
from tests.test_core import random_pcm

KINDS = ("perturbed", "consistent", "bribed", "tied")


def draw_panel(n: int, k: int, alpha: float, seed: int) -> ExpertPanel:
    """k experts over n alternatives, each perturbed, consistent, bribed or a tie.

    A tie repeats an earlier expert, as the same object or as an equal copy.
    """
    rng = np.random.default_rng(seed)
    mats: list[PCMatrix] = []
    for kind in rng.choice(KINDS, size=k):
        if kind == "consistent":
            w = rng.dirichlet(np.ones(n)) + 1e-6
            mats.append(consistent_matrix_from_priorities(PriorityVector(w / w.sum())))
        elif kind == "bribed":
            mats.append(bribe_matrix(random_pcm(n, rng, alpha), 0, n - 1))
        elif kind == "tied" and mats:
            prev = mats[int(rng.integers(len(mats)))]
            mats.append(prev if rng.random() < 0.5 else PCMatrix(prev.values.copy()))
        else:
            mats.append(random_pcm(n, rng, alpha))
    return ExpertPanel(tuple(mats))


panels = st.builds(
    draw_panel,
    n=st.integers(2, 30),
    k=st.integers(1, 24),
    alpha=st.floats(1.0, 81.0),
    seed=st.integers(0, 2**32 - 1),
)


def fresh(m: PCMatrix) -> PCMatrix:
    return PCMatrix(m.values.copy())


@given(panels)
@settings(max_examples=60, deadline=None)
def test_panel_kernels_match_single_matrix_derivation(panel):
    cis = panel_cis(panel)
    vectors = panel_gmm(panel)
    for m, ci, v in zip(panel.matrices, cis, vectors):
        assert ci >= 0.0
        assert ci == saaty_ci(fresh(m))
        assert np.array_equal(v.weights, gmm_priorities(fresh(m)).weights)


@given(panels, st.data())
@settings(max_examples=40, deadline=None)
def test_partly_memoised_panel_computes_only_the_missing(panel, data):
    # copies, so that no matrix shares a memo with another panel position
    panel = ExpertPanel(tuple(fresh(m) for m in panel.matrices))
    known = data.draw(st.sets(st.integers(0, panel.k - 1)))
    before = {i: (saaty_ci(panel.matrices[i]), gmm_priorities(panel.matrices[i])) for i in known}
    with mock.patch.object(inconsistency, "evm_stack", wraps=evm_stack) as power:
        cis = panel_cis(panel)
    with mock.patch.object(derive, "_row_gmm", wraps=derive._row_gmm) as log_mean:
        vectors = panel_gmm(panel)
    missing = panel.k - len(known)
    for spy in (power, log_mean):
        stacks = [call.args[0].shape[0] for call in spy.call_args_list]
        assert stacks == ([missing] if missing else [])
    for i, (ci, v) in before.items():
        assert cis[i] == ci and vectors[i] is v


def test_evm_stack_raises_on_exhausted_budget():
    rng = np.random.default_rng(19)
    stack = np.stack([random_pcm(5, rng).values for _ in range(4)])
    with pytest.raises(ConvergenceError):
        evm_stack(stack, tol=1e-300, max_iter=3)


def test_each_matrix_stops_on_its_own_test():
    # a consistent matrix converges at once; a far-off one needs many steps
    rng = np.random.default_rng(23)
    slow = random_pcm(7, rng, 81.0)
    fast = consistent_matrix_from_priorities(PriorityVector.from_raw(np.arange(1.0, 8.0)))
    v, lam = evm_stack(np.stack([fast.values, slow.values]))
    for i, m in enumerate((fast, slow)):
        alone_v, alone_lam = evm_stack(m.values[None])
        assert np.array_equal(v[i], alone_v[0]) and lam[i] == alone_lam[0]
