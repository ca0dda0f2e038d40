import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupahp import (
    ExpertPanel,
    ExpertWeights,
    PriorityVector,
    ShapeError,
    aggregate_panel,
    aij,
    aip,
    gmm_priorities,
)
from tests.conftest import random_pcm


def random_panel(rng, k=None, n=None):
    k = k or int(rng.integers(2, 6))
    n = n or int(rng.integers(3, 6))
    return ExpertPanel(tuple(random_pcm(n, rng) for _ in range(k)))


class TestAIJ:
    def test_single_expert_is_identity(self):
        rng = np.random.default_rng(43)
        m = random_pcm(4, rng)
        panel = ExpertPanel((m,))
        assert np.allclose(aij(panel).values, m.values)

    def test_identical_experts_reproduce_matrix(self):
        rng = np.random.default_rng(47)
        m = random_pcm(4, rng)
        panel = ExpertPanel((m, m, m))
        assert np.max(np.abs(aij(panel).values - m.values)) <= 1e-12

    def test_entrywise_geometric_mean(self):
        rng = np.random.default_rng(53)
        panel = random_panel(rng, k=3, n=4)
        stacked = np.stack([m.values for m in panel.matrices])
        expected = np.exp(np.mean(np.log(stacked), axis=0))
        agg = aij(panel).values
        iu = np.triu_indices(4, 1)
        assert np.max(np.abs(agg[iu] - expected[iu])) <= 1e-12

    def test_result_is_reciprocal(self):
        rng = np.random.default_rng(59)
        panel = random_panel(rng)
        agg = aij(panel).values
        assert np.max(np.abs(agg * agg.T - 1.0)) <= 1e-12

    def test_weights_shift_towards_heavy_expert(self):
        rng = np.random.default_rng(61)
        m1, m2 = random_pcm(3, rng), random_pcm(3, rng)
        panel = ExpertPanel((m1, m2))
        heavy = aij(panel, ExpertWeights(np.array([0.999, 0.001]))).values
        assert np.max(np.abs(heavy - m1.values)) < 0.1


class TestAIP:
    def test_identical_vectors_are_fixed_point(self):
        v = PriorityVector.from_raw([1.0, 3.0, 2.0])
        assert np.allclose(aip([v, v, v]).weights, v.weights)

    def test_two_vector_hand_value(self):
        a = PriorityVector.from_raw([1.0, 1.0])
        b = PriorityVector.from_raw([1.0, 4.0])
        # entrywise geometric means: sqrt(0.5*0.2), sqrt(0.5*0.8), then renormalize
        expected = np.array([np.sqrt(0.1), np.sqrt(0.4)])
        expected /= expected.sum()
        assert np.allclose(aip([a, b]).weights, expected)

    def test_weighted_mean_respects_weights(self):
        a = PriorityVector.from_raw([1.0, 2.0])
        b = PriorityVector.from_raw([2.0, 1.0])
        r = ExpertWeights(np.array([0.999, 0.001]))
        assert np.max(np.abs(aip([a, b], r).weights - a.weights)) < 0.01

    def test_order_preserved_under_unanimity(self):
        rng = np.random.default_rng(67)
        base = PriorityVector(rng.dirichlet(np.ones(5)))
        agg = aip([base] * 7)
        assert list(agg.ranking()) == list(base.ranking())


class TestShapeErrors:
    def test_weights_for_the_wrong_number_of_experts(self):
        panel = random_panel(np.random.default_rng(71), k=3, n=4)
        v = PriorityVector.from_raw([1.0, 2.0, 3.0, 4.0])
        for call in (lambda r: aggregate_panel(panel, r), lambda r: aij(panel, r),
                     lambda r: aip([v] * 3, r)):
            with pytest.raises(ShapeError, match="got 4 expert weights for 3 experts"):
                call(ExpertWeights.uniform(4))

    def test_aip_of_no_vectors(self):
        with pytest.raises(ShapeError, match="need at least one priority vector"):
            aip([])

    def test_aip_of_ragged_vectors(self):
        vectors = [PriorityVector.from_raw([1.0, 2.0]), PriorityVector.from_raw([1.0, 2.0, 3.0])]
        with pytest.raises(ShapeError, match="all priority vectors must have the same length"):
            aip(vectors)


class TestCommutation:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_aij_then_gmm_equals_aip_of_gmm(self, seed):
        rng = np.random.default_rng(seed)
        panel = random_panel(rng)
        via_matrices = gmm_priorities(aij(panel))
        via_vectors = aip([gmm_priorities(m) for m in panel.matrices])
        assert np.max(np.abs(via_matrices.weights - via_vectors.weights)) <= 1e-12

    def test_commutation_holds_with_weights(self):
        rng = np.random.default_rng(71)
        panel = random_panel(rng, k=4)
        r = ExpertWeights(PriorityVector.from_raw(rng.uniform(0.5, 2.0, 4)).weights)
        via_matrices = gmm_priorities(aij(panel, r))
        via_vectors = aip([gmm_priorities(m) for m in panel.matrices], r)
        assert np.max(np.abs(via_matrices.weights - via_vectors.weights)) <= 1e-12

    def test_aggregate_panel_is_equal_weight_aip(self):
        rng = np.random.default_rng(73)
        panel = random_panel(rng)
        direct = aip([gmm_priorities(m) for m in panel.matrices])
        assert np.allclose(aggregate_panel(panel).weights, direct.weights)


class TestWorkedExample:
    def test_eight_expert_equal_weight_aggregate(self, eight_panel):
        from tests.conftest import normalized

        # published group vector (rounded, unnormalized geometric means)
        target = normalized([0.266227, 0.334807, 0.192645, 0.160465])
        agg = aggregate_panel(eight_panel)
        assert np.max(np.abs(agg.weights - target)) <= 1e-3
        assert list(agg.ranking()) == [1, 0, 2, 3]  # two outliers flip the winner
