import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupahp import (
    DomainError,
    ExpertPanel,
    ExpertWeights,
    PCMatrix,
    PriorityVector,
    ShapeError,
    consistent_matrix_from_priorities,
    gmm_priorities,
    pcm_from_upper_triangle,
    resymmetrize,
)

positive_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=8
)


def random_pcm(n, rng, spread=9.0):
    upper = np.exp(rng.uniform(-np.log(spread), np.log(spread), n * (n - 1) // 2))
    return pcm_from_upper_triangle(n, upper)


class TestPCMatrix:
    def test_accepts_valid_reciprocal_matrix(self):
        m = PCMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
        assert m.n == 2

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            PCMatrix(np.ones((2, 3)))

    def test_rejects_1x1(self):
        with pytest.raises(ShapeError):
            PCMatrix(np.ones((1, 1)))

    def test_rejects_nonpositive_entry(self):
        with pytest.raises(DomainError):
            PCMatrix(np.array([[1.0, -2.0], [-0.5, 1.0]]))

    def test_rejects_nonunit_diagonal(self):
        with pytest.raises(DomainError):
            PCMatrix(np.array([[1.0, 2.0], [0.5, 1.1]]))

    def test_rejects_broken_reciprocity(self):
        with pytest.raises(DomainError):
            PCMatrix(np.array([[1.0, 2.0], [0.6, 1.0]]))

    def test_values_are_immutable(self):
        m = PCMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(ValueError):
            m.values[0, 1] = 3.0

    def test_entries_above_nine_allowed(self):
        m = PCMatrix(np.array([[1.0, 50.0], [0.02, 1.0]]))
        assert m.values[0, 1] == 50.0


class TestPriorityVector:
    def test_from_raw_normalizes(self):
        v = PriorityVector.from_raw([2.0, 6.0])
        assert np.allclose(v.weights, [0.25, 0.75])

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            PriorityVector(np.array([0.5, 0.6]))

    def test_rejects_zero_component(self):
        with pytest.raises(DomainError):
            PriorityVector.from_raw([0.0, 1.0])

    def test_rejects_scalar(self):
        with pytest.raises(ShapeError):
            PriorityVector(np.array(1.0))

    @given(positive_weights)
    def test_from_raw_always_sums_to_one(self, raw):
        v = PriorityVector.from_raw(raw)
        assert abs(v.weights.sum() - 1.0) <= 1e-12

    def test_ranking_descending(self):
        v = PriorityVector.from_raw([1.0, 5.0, 3.0])
        assert list(v.ranking()) == [1, 2, 0]

    def test_ranking_ties_break_to_lower_index(self):
        v = PriorityVector(np.array([0.25, 0.25, 0.5]))
        assert list(v.ranking()) == [2, 0, 1]


class TestExpertPanel:
    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            ExpertPanel(())

    def test_rejects_mixed_sizes(self):
        m2 = PCMatrix(np.eye(2) + np.ones((2, 2)) - np.eye(2))
        m3 = PCMatrix(np.ones((3, 3)))
        with pytest.raises(ShapeError):
            ExpertPanel((m2, m3))

    def test_replace_is_out_of_place(self):
        rng = np.random.default_rng(0)
        panel = ExpertPanel(tuple(random_pcm(3, rng) for _ in range(3)))
        other = random_pcm(3, rng)
        updated = panel.replace(1, other)
        assert updated.matrices[1] is other
        assert panel.matrices[1] is not other

    def test_replace_rejects_bad_index(self):
        rng = np.random.default_rng(0)
        panel = ExpertPanel(tuple(random_pcm(3, rng) for _ in range(2)))
        with pytest.raises(ShapeError):
            panel.replace(5, panel.matrices[0])


class TestExpertWeights:
    def test_uniform(self):
        w = ExpertWeights.uniform(4)
        assert np.allclose(w.r, 0.25)

    def test_rejects_zero_weight(self):
        with pytest.raises(DomainError):
            ExpertWeights(np.array([0.0, 1.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            ExpertWeights(np.array([0.6, 0.6]))


class TestConstruction:
    def test_upper_triangle_round_trip(self):
        upper = [2.0, 3.0, 5.0]
        m = pcm_from_upper_triangle(3, upper)
        assert np.allclose(m.values[np.triu_indices(3, 1)], upper)
        assert np.allclose(m.values * m.values.T, 1.0)

    def test_upper_triangle_wrong_count(self):
        with pytest.raises(ShapeError):
            pcm_from_upper_triangle(3, [2.0, 3.0])

    def test_resymmetrize_keeps_upper_triangle(self):
        rounded = np.array([[1.0, 0.333, 2.0], [3.0, 1.0, 5.0], [0.5, 0.2, 1.0]])
        m = resymmetrize(rounded)
        assert m.values[0, 1] == 0.333
        assert m.values[1, 0] == pytest.approx(1 / 0.333, abs=0)

    @given(positive_weights)
    @settings(max_examples=50)
    def test_consistent_matrix_round_trip(self, raw):
        w = PriorityVector.from_raw(raw)
        again = gmm_priorities(consistent_matrix_from_priorities(w))
        assert np.max(np.abs(again.weights - w.weights)) <= 1e-10

    def test_consistent_matrix_entries_are_ratios(self):
        w = PriorityVector.from_raw([1.0, 2.0, 4.0])
        m = consistent_matrix_from_priorities(w)
        assert m.values[2, 0] == pytest.approx(4.0)
        assert m.values[0, 2] == pytest.approx(0.25)


class TestPickle:
    @pytest.mark.parametrize(
        "obj, attr",
        [
            (pcm_from_upper_triangle(3, [2.0, 4.0, 0.5]), "values"),
            (PriorityVector.from_raw([1.0, 2.0, 3.0]), "weights"),
            (ExpertWeights(np.array([0.25, 0.75])), "r"),
        ],
        ids=["PCMatrix", "PriorityVector", "ExpertWeights"],
    )
    def test_round_trip_keeps_arrays_read_only(self, obj, attr):
        copy = pickle.loads(pickle.dumps(obj))
        assert np.array_equal(getattr(copy, attr), getattr(obj, attr))
        assert not getattr(copy, attr).flags.writeable
        with pytest.raises(ValueError):
            getattr(copy, attr)[0] = 1.0

    def test_memoised_vector_comes_back_read_only(self):
        m = pcm_from_upper_triangle(3, [2.0, 4.0, 0.5])
        gmm_priorities(m)
        copy = pickle.loads(pickle.dumps(m))
        assert not gmm_priorities(copy).weights.flags.writeable
