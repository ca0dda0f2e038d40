import pickle
from unittest import mock

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
    panel_gmm,
    pcm_from_upper_triangle,
    resymmetrize,
)
from groupahp.core import _check_rows
from groupahp.derive import _panel_gmm_matrix

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


MALFORMATIONS = ("nan", "inf", "zero", "negative", "diagonal", "reciprocity")


def malform(m: np.ndarray, defect: str, i: int, j: int) -> None:
    """Break one off-diagonal entry (i, j), i != j, or the diagonal entry (i, i)."""
    if defect == "diagonal":
        m[i, i] = 1.0 + 1e-15
    elif defect == "reciprocity":
        m[i, j] *= 1.0 + 1e-8
    else:
        m[i, j] = {"nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -m[i, j]}[defect]


def raised(fn, *args) -> tuple[type, str]:
    with pytest.raises((ShapeError, DomainError)) as info:
        fn(*args)
    return info.type, str(info.value)


class TestFromStack:
    def test_wraps_read_only_slices(self):
        rng = np.random.default_rng(5)
        stack = np.stack([random_pcm(4, rng).values for _ in range(3)])
        panel = ExpertPanel.from_stack(stack)
        assert (panel.k, panel.n) == (3, 4)
        for m, values in zip(panel.matrices, stack):
            assert isinstance(m, PCMatrix)
            assert np.array_equal(m.values, values)
            assert not m.values.flags.writeable
        stack[0, 0, 1] = 100.0  # the panel holds its own copy
        assert panel.matrices[0].values[0, 1] != 100.0
        assert panel.matrices[0]._memo is not panel.matrices[1]._memo

    @given(
        k=st.integers(1, 24),
        n=st.integers(2, 9),
        defect=st.sampled_from(MALFORMATIONS),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_rejects_a_malformed_slice_as_pcmatrix_does(self, k, n, defect, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        stack = np.stack([random_pcm(n, rng).values for _ in range(k)])
        q = data.draw(st.integers(0, k - 1))
        i, j = data.draw(st.permutations(range(n)))[:2]
        malform(stack[q], defect, i, j)
        assert raised(ExpertPanel.from_stack, stack) == raised(PCMatrix, stack[q])

    @pytest.mark.parametrize(
        "shape", [(3, 2, 3), (2, 1, 1), (2, 0, 0)], ids=["non-square", "1x1", "0x0"]
    )
    def test_rejects_bad_shapes_as_pcmatrix_does(self, shape):
        stack = np.ones(shape)
        assert raised(ExpertPanel.from_stack, stack) == raised(PCMatrix, stack[0])

    def test_rejects_an_empty_stack(self):
        with pytest.raises(ShapeError, match="at least one expert"):
            ExpertPanel.from_stack(np.ones((0, 3, 3)))

    def test_keeps_the_validated_stack(self):
        # the matrices are views of the panel's stack, so panel_gmm stacks nothing again
        rng = np.random.default_rng(7)
        panel = ExpertPanel.from_stack(np.stack([random_pcm(4, rng).values for _ in range(3)]))
        assert not panel.stack.flags.writeable
        assert all(m.values.base is panel.stack for m in panel.matrices)
        with mock.patch.object(np, "stack", wraps=np.stack) as stacked:
            panel_gmm(panel)
        assert not stacked.called

    def test_a_panel_of_matrices_stacks_them_once(self):
        rng = np.random.default_rng(11)
        panel = ExpertPanel(tuple(random_pcm(3, rng) for _ in range(4)))
        stack = panel.stack
        assert stack is panel.stack and not stack.flags.writeable
        assert np.array_equal(stack, [m.values for m in panel.matrices])


class TestFromRows:
    """Priority vectors made from the rows of a (k, n) array: checked once by
    ``_check_rows``, then each read-only row wrapped unchecked."""

    def test_wraps_read_only_rows(self):
        rng = np.random.default_rng(9)
        panel = ExpertPanel(tuple(random_pcm(3, rng) for _ in range(2)))
        G, _ = _panel_gmm_matrix(panel)
        for v, row in zip(panel_gmm(panel), G):
            assert isinstance(v, PriorityVector)
            assert v.weights.base is G and np.array_equal(v.weights, row)
            assert not v.weights.flags.writeable

    @pytest.mark.parametrize(
        "row", [[0.5, 0.6], [0.0, 1.0], [np.nan, 1.0], [-0.5, 1.5]],
        ids=["unnormalized", "zero", "nan", "negative"],
    )
    def test_rejects_a_bad_row_as_priorityvector_does(self, row):
        rows = np.array([[0.25, 0.75], row, [0.5, 0.5]])
        assert raised(_check_rows, rows) == raised(PriorityVector, rows[1])

    def test_rejects_single_component_rows(self):
        rows = np.ones((2, 1))
        assert raised(_check_rows, rows) == raised(PriorityVector, rows[0])


class TestExpertWeights:
    def test_uniform(self):
        w = ExpertWeights.uniform(4)
        assert np.allclose(w.r, 0.25)

    def test_uniform_needs_an_expert(self):
        with pytest.raises(ShapeError, match="at least one expert"):
            ExpertWeights.uniform(0)

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
        m = PCMatrix(resymmetrize(rounded))
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

    def test_panel_stack_is_not_pickled_but_rebuilt(self):
        rng = np.random.default_rng(13)
        panel = ExpertPanel.from_stack(np.stack([random_pcm(4, rng).values for _ in range(3)]))
        data = pickle.dumps(panel)
        assert len(data) < len(pickle.dumps(panel.matrices)) + panel.stack.nbytes
        copy = pickle.loads(data)
        assert "stack" not in copy.__dict__
        assert np.array_equal(copy.stack, panel.stack) and not copy.stack.flags.writeable

    def test_panel_memo_comes_back_read_only(self):
        rng = np.random.default_rng(3)
        panel = ExpertPanel.from_stack(np.stack([random_pcm(4, rng).values for _ in range(3)]))
        panel_gmm(panel)
        copy = pickle.loads(pickle.dumps(panel))
        assert copy._memo.keys() == panel._memo.keys() == {"gmm", "log_gmm"}
        for key, value in copy._memo.items():
            assert np.array_equal(value, panel._memo[key])
            assert not value.flags.writeable
        for m in copy.matrices:
            assert not m.values.flags.writeable
