"""Properties of the stacked panel kernels: panel_cis, panel_gmm, evm_stack, aggregation,
and corpus generation."""

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
    aid_weights,
    aip,
    bribe_matrix,
    consistent_matrix_from_priorities,
    evm_stack,
    generate_corpus,
    gmm_priorities,
    panel_cis,
    panel_gmm,
    pcm_from_upper_triangle,
    perturb,
    preferential_distances,
    random_priority_vector,
    saaty_ci,
)
from groupahp import derive, inconsistency
from groupahp.metrics import CARDINAL_METRICS
from tests.conftest import SLOW_EVM_UPPER, ZERO_COMPONENT_UPPER, random_pcm

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
    with mock.patch.object(inconsistency, "_evm_stack", wraps=inconsistency._evm_stack) as power:
        cis = panel_cis(panel)
    with mock.patch.object(derive, "_row_gmm", wraps=derive._row_gmm) as log_mean:
        vectors = panel_gmm(panel)
    # one power iteration and one log-mean, each over all k matrices
    assert [c.args[0].shape[0] for c in power.call_args_list] == [panel.k]
    assert [c.args[0].shape[0] for c in log_mean.call_args_list] == [panel.k]
    for m, ci, v in zip(panel.matrices, cis, vectors):
        assert ci >= 0.0
        assert ci == saaty_ci(fresh(m))
        assert np.array_equal(v.weights, gmm_priorities(fresh(m)).weights)


def reference_corpus(seed, counts, alphas, k, distribution):
    """The corpus drawn one panel at a time: bases in increasing n, then one
    ``perturb`` per (base, alpha) and one ``saaty_ci`` per matrix."""
    rng = np.random.default_rng(seed)
    bases = []
    for n in sorted(counts):
        for _ in range(counts[n]):
            while True:
                w = random_priority_vector(n, rng)
                top = np.sort(w.weights)[::-1]
                if top[0] - top[1] >= 1e-6:
                    break
            bases.append(w)
    panels = [(w, alpha, perturb(consistent_matrix_from_priorities(w), alpha, rng, distribution, k))
              for w in bases for alpha in alphas]
    cis = [[saaty_ci(fresh(m)) for m in panel.matrices] for *_, panel in panels]
    return panels, cis, rng


@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.dictionaries(st.integers(2, 12), st.integers(1, 3), min_size=1, max_size=3),
    alphas=st.lists(st.floats(1.0, 81.0), max_size=3).flatmap(
        lambda drawn: st.permutations([1.0, 81.0, *drawn])),
    k=st.integers(1, 24),
    distribution=st.sampled_from(["log-uniform", "uniform"]),
)
@settings(max_examples=30, deadline=None)
def test_generate_corpus_matches_per_panel_draws(seed, counts, alphas, k, distribution):
    real_rng, made = np.random.default_rng, []
    with mock.patch.object(np.random, "default_rng",
                           side_effect=lambda s: made.append(real_rng(s)) or made[-1]), \
            mock.patch.object(inconsistency, "_evm_stack", wraps=inconsistency._evm_stack) as power:
        corpus = generate_corpus(seed, counts, alphas, k, distribution)
    panels, cis, rng = reference_corpus(seed, counts, alphas, k, distribution)
    # one power iteration per matrix size, over all of that size's matrices
    stacks = [call.args[0].shape for call in power.call_args_list]
    assert stacks == [(counts[n] * len(alphas) * k, n, n) for n in sorted(counts)]
    assert made[0].bit_generator.state == rng.bit_generator.state
    assert len(corpus) == len(panels)
    for sid, (s, (w, alpha, panel), ref_cis) in enumerate(zip(corpus, panels, cis)):
        assert (s.scenario_id, s.alpha) == (sid, alpha)
        assert np.array_equal(s.base_vector.weights, w.weights)
        assert s.panel.stack.tobytes() == panel.stack.tobytes()
        assert not s.panel.stack.flags.writeable
        assert s.cis.tolist() == ref_cis
        assert s.mean_ci == float(np.mean(ref_cis))
        # the vectors the power iteration started from, kept for the experiments
        gmm = [gmm_priorities(fresh(m)).weights for m in panel.matrices]
        assert s.gmm.tobytes() == np.array(gmm).tobytes()
        assert not any(a.flags.writeable for a in (s.cis, s.gmm, s.base_vector.weights))


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


def test_lapack_eigenvalue_where_its_eigenvector_has_a_zero_component():
    m = pcm_from_upper_triangle(5, ZERO_COMPONENT_UPPER)
    lam = float(np.max(np.linalg.eigvals(m.values).real))
    assert abs(saaty_ci(m) - (lam - 5) / 4) <= 1e-12 * lam
    # so AID trusts the consistent expert more than this one
    consistent = consistent_matrix_from_priorities(PriorityVector.from_raw(np.arange(1.0, 6.0)))
    assert np.allclose(aid_weights(ExpertPanel((m, consistent))).r, [0.1, 0.9])


def test_each_matrix_stops_on_its_own_test():
    # a consistent matrix converges at once; a far-off one needs many steps
    rng = np.random.default_rng(23)
    slow = random_pcm(7, rng, 81.0)
    fast = consistent_matrix_from_priorities(PriorityVector.from_raw(np.arange(1.0, 8.0)))
    v, lam = evm_stack(np.stack([fast.values, slow.values]))
    for i, m in enumerate((fast, slow)):
        alone_v, alone_lam = evm_stack(m.values[None])
        assert np.array_equal(v[i], alone_v[0]) and lam[i] == alone_lam[0]


def per_step_evm(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The power iteration with a test after every step, written out: each matrix stops
    at its first passing step, and LAPACK takes the ones no step of the first
    ``EVM_MAX_ITER`` passes, eigenvalue and eigenvector.  Also returns each matrix's
    stopping step (0 for LAPACK)."""
    v, lam = derive._row_gmm(A), np.full(len(A), np.nan)
    steps = np.zeros(len(A), int)
    active = np.arange(len(A))
    A_act, v_act = A, v
    for step in range(1, derive.EVM_MAX_ITER + 1):
        if not active.size:
            break
        av = (A_act @ v_act[..., None])[..., 0]
        v_next = av / av.sum(axis=1, keepdims=True)
        moving = ~(abs(v_next - v_act).max(axis=1) < derive.EVM_TOL)
        v[active] = v_next
        steps[active[~moving]] = step
        active, A_act, v_act = active[moving], A_act[moving], v_next[moving]
    if active.size:
        vals, vecs = np.linalg.eig(A_act)
        top = np.arange(len(active)), vals.real.argmax(axis=1)
        v[active], lam[active] = vecs[top[0], :, top[1]].real, vals[top].real
    iterated = np.isnan(lam)
    lam[iterated] = np.mean((A[iterated] @ v[iterated, :, None])[..., 0] / v[iterated], axis=1)
    return v / v.sum(axis=1, keepdims=True), lam, steps


def draw_evm_stack(n: int, k: int, alpha: float, seed: int) -> np.ndarray:
    """k matrices over n alternatives: perturbed, consistent (they stop at step 1) or,
    for n = 4, the slow matrix that only LAPACK finishes."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["perturbed", "consistent", "slow" if n == 4 else "perturbed"], size=k)
    mats = []
    for kind in kinds:
        if kind == "consistent":
            w = rng.dirichlet(np.ones(n)) + 1e-6
            mats.append(consistent_matrix_from_priorities(PriorityVector(w / w.sum())))
        elif kind == "slow":
            mats.append(pcm_from_upper_triangle(4, SLOW_EVM_UPPER))
        else:
            mats.append(random_pcm(n, rng, alpha))
    return np.stack([m.values for m in mats])


@given(
    A=st.builds(draw_evm_stack, n=st.integers(2, 30), k=st.integers(1, 40),
                alpha=st.floats(1.0, 81.0), seed=st.integers(0, 2**32 - 1)),
    budget=st.one_of(st.just(derive.EVM_MAX_ITER), st.integers(1, 60)),
)
@settings(max_examples=60, deadline=None)
def test_evm_stack_matches_the_per_step_loop(A, budget):
    # a small budget sends perturbed matrices to LAPACK and clips the last block anywhere
    with mock.patch.object(derive, "EVM_MAX_ITER", budget):
        v, lam = evm_stack(A)
        ref_v, ref_lam, _ = per_step_evm(A)
    assert v.tobytes() == ref_v.tobytes() and lam.tobytes() == ref_lam.tobytes()


def test_matrices_stopping_at_every_offset_of_a_block():
    A = draw_evm_stack(5, 40, 81.0, 31)
    v, lam = evm_stack(A)
    ref_v, ref_lam, steps = per_step_evm(A)
    assert {s % derive.EVM_BLOCK for s in steps} == set(range(derive.EVM_BLOCK))
    assert v.tobytes() == ref_v.tobytes() and lam.tobytes() == ref_lam.tobytes()


def reference_aip(vectors, w) -> np.ndarray:
    """The weighted geometric mean written out, one log vector per expert."""
    combined = np.exp(np.tensordot(w, np.stack([np.log(v.weights) for v in vectors]), axes=1))
    return combined / combined.sum()


@given(panels, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_aggregation_kernel_on_the_panel_memo(panel, seed):
    # aggregate_panel and preferential_distances work on the logs of panel_gmm's vectors
    vectors = panel_gmm(panel)
    w = np.random.default_rng(seed).dirichlet(np.ones(panel.k))
    for r, weights in ((None, np.full(panel.k, 1.0 / panel.k)), (ExpertWeights(w), w)):
        expected = reference_aip(vectors, weights)
        assert np.array_equal(aggregate_panel(panel, r).weights, expected)
        assert np.array_equal(aip(vectors, r).weights, expected)
    group = aip(vectors)
    for metric, dist in CARDINAL_METRICS.items():
        expected = [dist(group, v) for v in vectors]
        assert preferential_distances(panel, metric).tolist() == expected
