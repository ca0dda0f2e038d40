import itertools
import pickle

import numpy as np
import pytest

from groupahp import (
    DomainError,
    PCMatrix,
    PriorityVector,
    consistent_matrix_from_priorities,
    koczkodaj_k,
    panel_mean_ci,
    saaty_ci,
)
from tests.test_core import random_pcm
from tests.test_derive import derived_matrices


def brute_force_koczkodaj(values: np.ndarray) -> float:
    worst = 0.0
    n = values.shape[0]
    for i, j, k in itertools.combinations(range(n), 3):
        ratio = values[i, k] * values[k, j] / values[i, j]
        worst = max(worst, min(abs(1 - ratio), abs(1 - 1 / ratio)))
    return worst


class TestSaatyCI:
    def test_zero_on_consistent_matrix(self):
        w = PriorityVector.from_raw([3.0, 1.0, 2.0, 5.0])
        assert saaty_ci(consistent_matrix_from_priorities(w)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_nonnegative_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert saaty_ci(random_pcm(4, rng)) >= 0.0

    def test_matches_eigenvalue_formula(self):
        rng = np.random.default_rng(23)
        for n in (3, 5, 7):
            m = random_pcm(n, rng)
            lam = float(np.max(np.linalg.eigvals(m.values).real))
            assert saaty_ci(m) == pytest.approx((lam - n) / (n - 1), abs=1e-8)

    def test_known_single_triad(self):
        # [[1,2,1],[1/2,1,2],[1,1/2,1]] has principal eigenvalue 3.0536...
        from groupahp import pcm_from_upper_triangle

        m = pcm_from_upper_triangle(3, [2.0, 1.0, 2.0])
        lam = float(np.max(np.linalg.eigvals(m.values).real))
        assert saaty_ci(m) == pytest.approx((lam - 3) / 2, abs=1e-10)
        assert saaty_ci(m) > 0.02


class TestSaatyCIMemo:
    def test_repeated_call_returns_the_same_value(self):
        m = random_pcm(5, np.random.default_rng(59))
        assert saaty_ci(m) is saaty_ci(m)

    def test_new_matrices_get_their_own_value(self):
        rng = np.random.default_rng(61)
        m = random_pcm(5, rng)
        source = saaty_ci(m)  # fill the source's memo first
        for how, d in derived_matrices(m, rng).items():
            fresh = saaty_ci(PCMatrix(d.values.copy()))
            assert saaty_ci(d) == fresh and saaty_ci(d) != source, how

    def test_pickle_round_trip_is_bitwise_equal(self):
        m = random_pcm(6, np.random.default_rng(67))
        before = pickle.loads(pickle.dumps(m))  # memo still empty
        ci = saaty_ci(m)
        after = pickle.loads(pickle.dumps(m))  # memo carried along
        assert saaty_ci(before) == ci and saaty_ci(after) == ci

    def test_memo_is_not_in_repr(self):
        m = random_pcm(3, np.random.default_rng(71))
        saaty_ci(m)
        assert repr(m) == repr(PCMatrix(m.values.copy()))


class TestKoczkodaj:
    def test_zero_on_consistent_matrix(self):
        w = PriorityVector.from_raw([1.0, 4.0, 2.0])
        assert koczkodaj_k(consistent_matrix_from_priorities(w)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_requires_three_alternatives(self):
        from groupahp import pcm_from_upper_triangle

        with pytest.raises(DomainError):
            koczkodaj_k(pcm_from_upper_triangle(2, [2.0]))

    def test_single_triad_by_hand(self):
        # triad (1,2,3): c13*c32/c12 = 1*(1/2)/2 = 1/4,
        # so K = min(|1 - 1/4|, |1 - 4|) = 3/4
        from groupahp import pcm_from_upper_triangle

        m = pcm_from_upper_triangle(3, [2.0, 1.0, 2.0])
        assert koczkodaj_k(m) == pytest.approx(0.75)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for n in (3, 4, 6, 12):
            for _ in range(10):
                m = random_pcm(n, rng)
                assert koczkodaj_k(m) == brute_force_koczkodaj(m.values)

    def test_bounded_below_one(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            assert 0.0 <= koczkodaj_k(random_pcm(5, rng)) < 1.0


class TestPanelMeanCI:
    def test_average_of_member_cis(self):
        from groupahp import ExpertPanel

        rng = np.random.default_rng(37)
        mats = tuple(random_pcm(4, rng) for _ in range(5))
        panel = ExpertPanel(mats)
        assert panel_mean_ci(panel) == pytest.approx(
            np.mean([saaty_ci(m) for m in mats]), abs=1e-12
        )

    def test_bundled_panel_values(self, eight_panel):
        # spot-check against an eigendecomposition oracle
        cis = [saaty_ci(m) for m in eight_panel.matrices]
        for m, ci in zip(eight_panel.matrices, cis):
            lam = float(np.max(np.linalg.eigvals(m.values).real))
            assert ci == pytest.approx((lam - 4) / 3, abs=1e-8)
        assert cis[2] == min(cis)  # the third expert is the most consistent
        assert max(cis) < 0.1
