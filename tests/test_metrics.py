import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupahp import (
    PriorityVector,
    ShapeError,
    chebyshev,
    euclidean,
    kendall_tau_distance,
    manhattan,
    manhattan_mean,
)

vectors = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=8)


def pair(draw_a, draw_b):
    a = PriorityVector.from_raw(draw_a)
    b = PriorityVector.from_raw(draw_b[: a.n] + [1.0] * max(0, a.n - len(draw_b)))
    return a, b


def brute_force_kendall(u: np.ndarray, v: np.ndarray) -> int:
    count = 0
    for i, j in itertools.combinations(range(len(u)), 2):
        if np.sign(u[i] - u[j]) != np.sign(v[i] - v[j]):
            count += 1
    return count


class TestCardinalMetrics:
    def test_manhattan_hand_value(self):
        a = PriorityVector(np.array([0.5, 0.3, 0.2]))
        b = PriorityVector(np.array([0.2, 0.3, 0.5]))
        assert manhattan(a, b) == pytest.approx(0.6)
        assert manhattan_mean(a, b) == pytest.approx(0.2)
        assert chebyshev(a, b) == pytest.approx(0.3)
        assert euclidean(a, b) == pytest.approx(np.sqrt(0.18))

    def test_accepts_raw_arrays(self):
        assert manhattan(np.array([0.5, 0.5]), np.array([0.4, 0.6])) == pytest.approx(0.2)

    @given(vectors, vectors)
    @settings(max_examples=100)
    def test_metric_axioms(self, raw_a, raw_b):
        a, b = pair(raw_a, raw_b)
        for d in (manhattan, chebyshev, euclidean):
            assert d(a, b) == pytest.approx(d(b, a))
            assert d(a, a) == 0.0
            assert d(a, b) >= 0.0

    @given(vectors, vectors)
    @settings(max_examples=100)
    def test_manhattan_bounded_by_two(self, raw_a, raw_b):
        a, b = pair(raw_a, raw_b)
        assert manhattan(a, b) <= 2.0 + 1e-12

    @given(vectors, vectors)
    @settings(max_examples=100)
    def test_chebyshev_below_manhattan(self, raw_a, raw_b):
        a, b = pair(raw_a, raw_b)
        assert chebyshev(a, b) <= manhattan(a, b) + 1e-12

    @given(
        n=st.integers(2, 30),
        k=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_stack_is_bitwise_the_pairs(self, n, k, seed):
        rng = np.random.default_rng(seed)
        group = PriorityVector(rng.dirichlet(np.ones(n)))
        stack = rng.dirichlet(np.ones(n), size=k)
        for d in (manhattan, chebyshev, euclidean, manhattan_mean):
            stacked = d(group, stack)
            assert stacked.shape == (k,)
            assert stacked.tolist() == [d(group, row) for row in stack]
            assert isinstance(d(group, stack[0]), float)
        # the row-wise sum of squares (np.linalg.norm(..., axis=-1)) differs in
        # the last bit; a pair's Euclidean distance stays its dot-product norm
        assert [euclidean(group, row) for row in stack] == [
            float(np.linalg.norm(group.weights - row)) for row in stack
        ]

    def test_rejects_different_lengths(self):
        for d in (manhattan, chebyshev, euclidean, manhattan_mean, kendall_tau_distance):
            with pytest.raises(ShapeError):
                d(np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ShapeError):
            manhattan(np.array([0.5, 0.5]), np.ones((4, 3)) / 3)

    def test_manhattan_mean_is_manhattan_over_n(self):
        a = PriorityVector.from_raw([1.0, 2.0, 3.0, 4.0])
        b = PriorityVector.from_raw([4.0, 3.0, 2.0, 1.0])
        assert manhattan_mean(a, b) == pytest.approx(manhattan(a, b) / 4)


class TestKendall:
    def test_identical_orders_give_zero(self):
        a = PriorityVector.from_raw([1.0, 2.0, 3.0])
        b = PriorityVector.from_raw([2.0, 3.0, 9.0])
        assert kendall_tau_distance(a, b) == 0

    def test_full_reversal_gives_maximum(self):
        a = PriorityVector.from_raw([1.0, 2.0, 3.0, 4.0])
        b = PriorityVector.from_raw([4.0, 3.0, 2.0, 1.0])
        assert kendall_tau_distance(a, b) == 6  # all n(n-1)/2 pairs disagree

    def test_single_swap(self):
        a = PriorityVector.from_raw([1.0, 2.0, 3.0])
        b = PriorityVector.from_raw([2.0, 1.0, 3.0])
        assert kendall_tau_distance(a, b) == 1

    def test_tie_counts_against_strict_order(self):
        # a ties the first pair, b orders it strictly: that pair disagrees
        a = PriorityVector(np.array([0.25, 0.25, 0.5]))
        b = PriorityVector.from_raw([1.0, 2.0, 4.0])
        assert kendall_tau_distance(a, b) == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = PriorityVector(rng.dirichlet(np.ones(6)))
            b = PriorityVector(rng.dirichlet(np.ones(6)))
            assert kendall_tau_distance(a, b) == brute_force_kendall(
                a.weights, b.weights
            )

    def test_stack_reduces_over_the_last_axis(self):
        # row by row, as the cardinal distances do: [0, 3], not one count over the stack
        a, b = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
        assert np.array_equal(kendall_tau_distance(np.array([a, b]), np.array([a, a])), [0, 3])
        rng = np.random.default_rng(7)
        U, V = rng.integers(1, 4, size=(2, 30, 6)).astype(float)  # small integers: many ties
        for x, y in ((U, V), (U[0], V), (U, V[0])):
            got = kendall_tau_distance(x, y)
            assert got.shape == (30,) and got.dtype.kind == "i"
            want = [brute_force_kendall(p, q) for p, q in zip(*np.broadcast_arrays(x, y))]
            assert got.tolist() == want
        assert type(kendall_tau_distance(U[0], V[0])) is int

    @given(
        st.lists(st.integers(1, 4), min_size=2, max_size=12),
        st.lists(st.integers(1, 4), min_size=2, max_size=12),
    )
    @settings(max_examples=200)
    def test_matches_brute_force_with_ties(self, raw_a, raw_b):
        n = min(len(raw_a), len(raw_b))
        a, b = np.array(raw_a[:n], dtype=float), np.array(raw_b[:n], dtype=float)
        assert kendall_tau_distance(a, b) == brute_force_kendall(a, b)
