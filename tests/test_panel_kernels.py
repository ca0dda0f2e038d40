"""Properties of the stacked panel kernels: panel_cis, fill_cis, panel_gmm, evm_stack, aggregation."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from groupahp import (
    ExpertPanel,
    ExpertWeights,
    PCMatrix,
    PriorityVector,
    aggregate_panel,
    aip,
    bribe_matrix,
    consistent_matrix_from_priorities,
    evm_stack,
    fill_cis,
    gmm_priorities,
    panel_cis,
    panel_gmm,
    pcm_from_upper_triangle,
    preferential_distances,
    saaty_ci,
)
from groupahp import derive, inconsistency
from groupahp.metrics import CARDINAL_METRICS
from tests.conftest import SLOW_EVM_UPPER
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
def test_partly_memoised_panel_keeps_what_it_has(panel, data):
    # copies, so that no matrix shares a memo with another panel position
    panel = ExpertPanel(tuple(fresh(m) for m in panel.matrices))
    known = data.draw(st.sets(st.integers(0, panel.k - 1)))
    before = {i: (saaty_ci(panel.matrices[i]), gmm_priorities(panel.matrices[i])) for i in known}
    with mock.patch.object(inconsistency, "evm_stack", wraps=evm_stack) as power:
        cis = panel_cis(panel)
    with mock.patch.object(derive, "_row_gmm", wraps=derive._row_gmm) as log_mean:
        vectors = panel_gmm(panel)
    # CIs: one power iteration over the missing ones; GMM: one log-mean over all k
    missing = panel.k - len(known)
    assert [c.args[0].shape[0] for c in power.call_args_list] == ([missing] if missing else [])
    assert [c.args[0].shape[0] for c in log_mean.call_args_list] == [panel.k]
    for i, (ci, v) in before.items():
        assert cis[i] == ci and vectors[i] is v


@given(st.lists(panels, min_size=1, max_size=6), st.data())
@settings(max_examples=40, deadline=None)
def test_fill_cis_runs_one_power_iteration_per_size(corpus, data):
    # a panel that repeats another's matrices, and some CIs memoised beforehand
    corpus.append(ExpertPanel(data.draw(st.permutations(corpus[0].matrices))))
    everything = [m for p in corpus for m in p.matrices]
    for i in data.draw(st.sets(st.integers(0, len(everything) - 1))):
        saaty_ci(everything[i])
    missing: dict[int, int] = {}
    for m in everything:
        if "ci" not in m._memo:
            missing[m.n] = missing.get(m.n, 0) + 1  # a repeated matrix counts each time
    with mock.patch.object(inconsistency, "evm_stack", wraps=evm_stack) as power:
        fill_cis(corpus)
    stacks = sorted((a.shape[1], len(a)) for a in (call.args[0] for call in power.call_args_list))
    assert stacks == sorted(missing.items())  # (n, matrices without a CI)
    for m in everything:
        assert m._memo["ci"] == saaty_ci(fresh(m))


@given(
    n=st.integers(2, 30),
    alpha=st.one_of(st.just(81.0), st.floats(1.0, 81.0)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_power_iteration_ci_matches_lapack(n, alpha, seed):
    m = random_pcm(n, np.random.default_rng(seed), alpha)
    lam = float(np.max(np.linalg.eigvals(m.values).real))
    assert abs(saaty_ci(m) - max(0.0, (lam - n) / (n - 1))) <= 3e-11


def test_evm_stack_finishes_past_the_budget():
    # three matrices that converge and one that runs out of steps: LAPACK finishes
    # only the slow one, and the others keep their power-iteration bits
    rng = np.random.default_rng(19)
    slow = pcm_from_upper_triangle(4, SLOW_EVM_UPPER).values
    fast = [random_pcm(4, rng).values for _ in range(3)]
    with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as lapack:
        v, lam = evm_stack(np.stack(fast + [slow]))
    assert [len(c.args[0]) for c in lapack.call_args_list] == [1]
    for i, m in enumerate(fast):
        alone_v, alone_lam = evm_stack(m[None])
        assert np.array_equal(v[i], alone_v[0]) and lam[i] == alone_lam[0]
    reference = float(np.max(np.linalg.eigvals(slow).real))
    assert abs(lam[3] - reference) <= 1e-12 * reference


def test_each_matrix_stops_on_its_own_test():
    # a consistent matrix converges at once; a far-off one needs many steps
    rng = np.random.default_rng(23)
    slow = random_pcm(7, rng, 81.0)
    fast = consistent_matrix_from_priorities(PriorityVector.from_raw(np.arange(1.0, 8.0)))
    v, lam = evm_stack(np.stack([fast.values, slow.values]))
    for i, m in enumerate((fast, slow)):
        alone_v, alone_lam = evm_stack(m.values[None])
        assert np.array_equal(v[i], alone_v[0]) and lam[i] == alone_lam[0]


def reference_aip(vectors, w) -> np.ndarray:
    """The weighted geometric mean written out, one log vector per expert."""
    combined = np.exp(np.tensordot(w, np.stack([np.log(v.weights) for v in vectors]), axes=1))
    return combined / combined.sum()


@given(panels, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_aggregation_kernel_on_the_panel_memo(panel, seed):
    vectors = panel_gmm(panel)
    G, L = panel._memo["gmm"], panel._memo["log_gmm"]
    assert np.array_equal(G, np.stack([v.weights for v in vectors]))
    assert np.array_equal(L, np.log(G))
    assert not (G.flags.writeable or L.flags.writeable)
    w = np.random.default_rng(seed).dirichlet(np.ones(panel.k))
    for r, weights in ((None, np.full(panel.k, 1.0 / panel.k)), (ExpertWeights(w), w)):
        expected = reference_aip(vectors, weights)
        assert np.array_equal(aggregate_panel(panel, r).weights, expected)
        assert np.array_equal(aip(vectors, r).weights, expected)
    group = aip(vectors)
    for metric, dist in CARDINAL_METRICS.items():
        expected = [dist(group, v) for v in vectors]
        assert preferential_distances(panel, metric).tolist() == expected


def test_panel_memo_is_filled_once():
    rng = np.random.default_rng(29)
    panel = ExpertPanel(tuple(random_pcm(5, rng) for _ in range(4)))
    first = panel_gmm(panel)
    G = panel._memo["gmm"]
    assert panel_gmm(panel) == first
    aggregate_panel(panel)
    assert panel._memo["gmm"] is G
    # a panel with one expert swapped out is a new panel with its own memo
    other = ExpertPanel((random_pcm(5, rng), *panel.matrices[1:]))
    assert not other._memo
    aggregate_panel(other)
    assert not np.array_equal(other._memo["gmm"][0], G[0])
    assert np.array_equal(other._memo["gmm"][1:], G[1:])
