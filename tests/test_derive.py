import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupahp import (
    PCMatrix,
    PriorityVector,
    consistent_matrix_from_priorities,
    evm_priorities,
    evm_stack,
    gmm_priorities,
    pcm_from_upper_triangle,
)
from tests.conftest import SLOW_EVM_UPPER, derived_matrices, random_pcm


class TestGMM:
    def test_known_3x3(self):
        # row geometric means of [[1,2,4],[1/2,1,2],[1/4,1/2,1]] are 2, 1, 1/2,
        # so the normalized priorities are 4/7, 2/7, 1/7
        m = pcm_from_upper_triangle(3, [2.0, 4.0, 2.0])
        w = gmm_priorities(m)
        assert np.allclose(w.weights, [4 / 7, 2 / 7, 1 / 7], atol=1e-14)

    def test_identity_comparisons_give_uniform(self):
        m = pcm_from_upper_triangle(3, [1.0, 1.0, 1.0])
        assert np.allclose(gmm_priorities(m).weights, 1 / 3)

    def test_matches_direct_product_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_pcm(5, rng)
            direct = np.prod(m.values, axis=1) ** (1 / 5)
            direct /= direct.sum()
            assert np.max(np.abs(gmm_priorities(m).weights - direct)) <= 1e-12

    def test_scale_free_in_row_permutation(self):
        rng = np.random.default_rng(3)
        m = random_pcm(4, rng)
        perm = np.array([2, 0, 3, 1])
        permuted = m.values[np.ix_(perm, perm)]
        w = gmm_priorities(m).weights
        from groupahp import PCMatrix

        w_p = gmm_priorities(PCMatrix(permuted)).weights
        assert np.allclose(w_p, w[perm])


class TestEVM:
    def test_consistent_matrix_recovers_vector_and_lambda_n(self):
        w = PriorityVector.from_raw([5.0, 2.0, 1.0, 3.0])
        m = consistent_matrix_from_priorities(w)
        v, lam = evm_priorities(m)
        assert np.max(np.abs(v.weights - w.weights)) <= 1e-10
        assert lam == pytest.approx(4.0, abs=1e-10)

    def test_lambda_max_matches_eigendecomposition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_pcm(5, rng)
            _, lam = evm_priorities(m)
            eigs = np.linalg.eigvals(m.values)
            assert lam == pytest.approx(float(np.max(eigs.real)), abs=1e-8)

    def test_vector_matches_principal_eigenvector(self):
        rng = np.random.default_rng(13)
        m = random_pcm(6, rng)
        v, _ = evm_priorities(m)
        vals, vecs = np.linalg.eig(m.values)
        principal = np.abs(vecs[:, np.argmax(vals.real)].real)
        principal /= principal.sum()
        assert np.max(np.abs(v.weights - principal)) <= 1e-8

    def test_agrees_with_gmm_on_consistent_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            w = PriorityVector(rng.dirichlet(np.ones(5)))
            m = consistent_matrix_from_priorities(w)
            v, _ = evm_priorities(m)
            assert np.max(np.abs(v.weights - gmm_priorities(m).weights)) <= 1e-10

    def test_finishes_past_the_budget_and_matches_lapack(self):
        # |lambda_2| / lambda_max = 0.9985: the power iteration runs out of steps
        m = pcm_from_upper_triangle(4, SLOW_EVM_UPPER)
        v, lam = evm_priorities(m)
        vals, vecs = np.linalg.eig(m.values)
        principal = np.abs(vecs[:, np.argmax(vals.real)].real)
        assert lam == pytest.approx(float(np.max(vals.real)), rel=1e-12)
        assert np.allclose(v.weights, principal / principal.sum(), rtol=1e-10, atol=0)

    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_lambda_max_matches_lapack_on_wide_entries(self, n, seed):
        # log-uniform entries up to 1e6: some matrices converge, some finish on LAPACK
        m = random_pcm(n, np.random.default_rng(seed), 1e6)
        v, lam = evm_stack(m.values[None])
        reference = float(np.max(np.linalg.eigvals(m.values).real))
        assert (v > 0.0).all()
        assert abs(lam[0] - reference) <= 1e-7 * reference

    def test_empty_stack_returns_at_once(self):
        v, lam = evm_stack(np.ones((0, 3, 3)))
        assert v.shape == (0, 3) and lam.shape == (0,)


class TestGMMMemo:
    """``gmm_priorities`` keeps nothing on the matrix: each call derives the vector afresh."""

    def test_repeated_call_returns_the_same_vector(self):
        m = random_pcm(5, np.random.default_rng(41))
        first, again = gmm_priorities(m), gmm_priorities(m)
        assert first.weights.tobytes() == again.weights.tobytes()
        assert not (first.weights.flags.writeable or again.weights.flags.writeable)

    def test_new_matrices_get_their_own_vector(self):
        rng = np.random.default_rng(43)
        m = random_pcm(5, rng)
        source = gmm_priorities(m)
        for how, d in derived_matrices(m, rng).items():
            fresh = gmm_priorities(PCMatrix(d.values.copy())).weights
            assert not np.array_equal(gmm_priorities(d).weights, source.weights), how
            assert np.array_equal(gmm_priorities(d).weights, fresh), how

    def test_pickle_round_trip_is_bitwise_equal(self):
        m = random_pcm(6, np.random.default_rng(47))
        before = pickle.loads(pickle.dumps(m))
        w = gmm_priorities(m)
        after = pickle.loads(pickle.dumps(m))
        for copy in (before, after):
            assert np.array_equal(gmm_priorities(copy).weights, w.weights)
            assert not copy.values.flags.writeable

    def test_memo_is_not_in_repr(self):
        # a derivation leaves the matrix as it was: its repr shows its values only
        m = random_pcm(3, np.random.default_rng(53))
        gmm_priorities(m)
        assert repr(m) == f"PCMatrix(values={m.values!r})" == repr(PCMatrix(m.values.copy()))
