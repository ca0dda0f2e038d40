import numpy as np
import pytest

from groupahp import (
    DomainError,
    PriorityVector,
    consistent_matrix_from_priorities,
    generate_corpus,
    panel_mean_ci,
    perturb,
    random_priority_vector,
)
from groupahp.errors import EmptyReportError
from groupahp.montecarlo import (
    METHODS,
    _classify,
    experiment1,
    experiment2,
    headline_stats,
    summarize,
)

SMALL_COUNTS = {4: 2, 5: 2}
SMALL_ALPHAS = (1.2, 2.0)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(123, SMALL_COUNTS, SMALL_ALPHAS, 6, "log-uniform")


class TestGeneration:
    def test_random_vector_is_valid(self):
        rng = np.random.default_rng(151)
        for n in (2, 5, 9):
            v = random_priority_vector(n, rng)
            assert v.n == n
            assert np.all(v.weights > 0)

    def test_perturb_keeps_reciprocity(self):
        rng = np.random.default_rng(157)
        w = random_priority_vector(5, rng)
        base = consistent_matrix_from_priorities(w)
        m = perturb(base, 3.0, rng, "log-uniform", 1).matrices[0]
        assert np.max(np.abs(m.values * m.values.T - 1.0)) <= 1e-12

    def test_perturb_bounded_by_alpha(self):
        rng = np.random.default_rng(163)
        w = random_priority_vector(4, rng)
        base = consistent_matrix_from_priorities(w)
        for dist in ("log-uniform", "uniform"):
            m = perturb(base, 2.0, rng, dist, 1).matrices[0]
            ratio = m.values / base.values
            iu = np.triu_indices(4, 1)
            assert np.all(ratio[iu] >= 0.5 - 1e-12)
            assert np.all(ratio[iu] <= 2.0 + 1e-12)

    def test_perturb_alpha_one_is_identity(self):
        rng = np.random.default_rng(167)
        base = consistent_matrix_from_priorities(random_priority_vector(4, rng))
        m = perturb(base, 1.0, rng, "log-uniform", 1).matrices[0]
        assert np.allclose(m.values, base.values)

    @pytest.mark.parametrize("dist", ["log-uniform", "uniform"])
    @pytest.mark.parametrize("alpha", [1.0, 1.1, 2.4, 5.0])
    def test_panel_draw_matches_sequential_draws(self, dist, alpha):
        w = random_priority_vector(6, np.random.default_rng(181))
        base = consistent_matrix_from_priorities(w)
        one, many = np.random.default_rng(191), np.random.default_rng(191)
        singles = [perturb(base, alpha, one, dist, 1).matrices[0] for _ in range(7)]
        panel = perturb(base, alpha, many, dist, 7)
        for a, b in zip(singles, panel.matrices, strict=True):
            assert np.array_equal(a.values, b.values)
        assert one.random() == many.random()  # both streams stand at the same place

    def test_perturb_rejects_alpha_below_one(self):
        rng = np.random.default_rng(173)
        base = consistent_matrix_from_priorities(random_priority_vector(3, rng))
        with pytest.raises(DomainError):
            perturb(base, 0.5, rng, "log-uniform", 1)

    def test_perturb_rejects_unknown_distribution(self):
        rng = np.random.default_rng(179)
        base = consistent_matrix_from_priorities(random_priority_vector(3, rng))
        with pytest.raises(DomainError):
            perturb(base, 2.0, rng, "gaussian", 1)

    def test_corpus_shape(self, small_corpus):
        assert len(small_corpus) == 4 * len(SMALL_ALPHAS)
        sizes = sorted({s.panel.n for s in small_corpus})
        assert sizes == [4, 5]
        assert all(s.panel.k == 6 for s in small_corpus)
        assert [s.scenario_id for s in small_corpus] == list(range(len(small_corpus)))

    def test_corpus_deterministic(self, small_corpus):
        again = generate_corpus(123, SMALL_COUNTS, SMALL_ALPHAS, 6, "log-uniform")
        for a, b in zip(small_corpus, again):
            assert np.array_equal(a.base_vector.weights, b.base_vector.weights)
            for ma, mb in zip(a.panel.matrices, b.panel.matrices):
                assert np.array_equal(ma.values, mb.values)

    def test_different_seeds_differ(self):
        a = generate_corpus(1, {4: 1}, (1.5,), 3, "log-uniform")
        b = generate_corpus(2, {4: 1}, (1.5,), 3, "log-uniform")
        assert not np.allclose(a[0].base_vector.weights, b[0].base_vector.weights)

    def test_base_vectors_have_clear_leaders(self, small_corpus):
        for s in small_corpus:
            top = np.sort(s.base_vector.weights)[::-1]
            assert top[0] - top[1] >= 1e-6

    def test_mean_ci_grows_with_disturbance(self):
        corpus = generate_corpus(31, {5: 10}, (1.2, 3.5), 10, "log-uniform")
        low = np.mean([s.mean_ci for s in corpus if s.alpha == 1.2])
        high = np.mean([s.mean_ci for s in corpus if s.alpha == 3.5])
        assert high > low

    def test_mean_ci_matches_panel(self, small_corpus):
        s = small_corpus[0]
        assert s.mean_ci == pytest.approx(panel_mean_ci(s.panel))


class TestClassification:
    def test_full_match_is_rr(self):
        a = PriorityVector.from_raw([4.0, 3.0, 2.0, 1.0])
        b = PriorityVector.from_raw([10.0, 5.0, 2.0, 1.0])
        assert _classify(a, b) == "RR"

    def test_top_two_only_is_wr(self):
        a = PriorityVector.from_raw([4.0, 3.0, 2.0, 1.0])
        b = PriorityVector.from_raw([4.0, 3.0, 1.0, 2.0])
        assert _classify(a, b) == "WR"

    def test_swapped_leaders_fail(self):
        a = PriorityVector.from_raw([4.0, 3.0, 2.0, 1.0])
        b = PriorityVector.from_raw([3.0, 4.0, 2.0, 1.0])
        assert _classify(a, b) == "FAILURE"


@pytest.fixture(scope="module")
def exp1(small_corpus):
    return experiment1(small_corpus)


@pytest.fixture(scope="module")
def exp2(small_corpus):
    return experiment2(small_corpus)


class TestExperiments:
    def test_experiment1_record_shape(self, exp1, small_corpus):
        assert len(exp1) == len(small_corpus)
        for rec in exp1:
            assert rec["attack_succeeded"] in (0, 1)
            for m in (m.lower() for m in METHODS):
                assert rec[f"class_{m}"] in ("WR", "RR", "FAILURE")
                assert rec[f"manhattan_{m}"] >= 0.0

    def test_experiment2_record_shape(self, exp2, small_corpus):
        assert len(exp2) == len(small_corpus)
        for rec in exp2:
            for m in (m.lower() for m in METHODS):
                assert rec[f"manhattan_{m}"] >= 0
                assert isinstance(rec[f"kendall_{m}"], int)

    def test_parallel_matches_serial(self, small_corpus, exp2):
        assert experiment2(small_corpus, workers=2) == exp2

    def test_summary_rows_sorted_and_typed(self, exp1):
        rows = summarize(exp1)
        assert rows == sorted(rows, key=lambda r: (r[2], r[1], r[0]))
        for bucket, method, metric, value, count in rows:
            assert method in METHODS
            assert count > 0
            if metric.endswith("_rate"):
                assert 0.0 <= value <= 1.0

    def test_summary_rates_dominate(self, exp1):
        rows = summarize(exp1)
        wr = {(r[0], r[1]): r[3] for r in rows if r[2] == "wr_rate"}
        rr = {(r[0], r[1]): r[3] for r in rows if r[2] == "rr_rate"}
        assert wr.keys() == rr.keys()
        for key in wr:
            assert wr[key] >= rr[key]

    def test_summary_experiment2_has_kendall_histogram(self, exp2):
        rows = summarize(exp2)
        freqs = {}
        for bucket, method, metric, value, count in rows:
            if metric.startswith("kendall_"):
                freqs.setdefault(method, 0.0)
                freqs[method] += value
        for method in METHODS:
            assert freqs[method] == pytest.approx(1.0)

    def test_headline_stats_keys(self, exp1, exp2):
        h1 = headline_stats(exp1)
        assert set(h1) == set(METHODS)
        assert {"wr_rate", "rr_rate", "mean_manhattan"} <= set(h1["APDD"])
        h2 = headline_stats(exp2)
        assert {"corpus_mean_manhattan", "kendall_zero_freq"} <= set(h2["MX"])

    def test_empty_records_rejected(self):
        with pytest.raises(EmptyReportError):
            summarize([])
        with pytest.raises(EmptyReportError):
            headline_stats([])
