import collections
import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupahp import core, inconsistency, montecarlo
from groupahp import (
    DomainError,
    PriorityVector,
    RobustConfig,
    Scenario,
    aggregate_panel,
    consistent_matrix_from_priorities,
    generate_corpus,
    kendall_tau_distance,
    load_panel,
    manhattan_mean,
    panel_cis,
    panel_gmm,
    panel_mean_ci,
    perturb,
    random_priority_vector,
    robust_aggregate,
    run_attack,
    save_panel,
)
from groupahp.cli import main
from groupahp.errors import EmptyReportError
from groupahp.montecarlo import (
    MAX_ALPHA,
    METHODS,
    _classify,
    experiment1,
    experiment2,
    headline_stats,
    summarize,
)
from tests.conftest import record_log_means

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
        state = rng.bit_generator.state
        m = perturb(base, 1.0, rng, "log-uniform", 1).matrices[0]
        assert np.allclose(m.values, base.values)
        assert rng.bit_generator.state == state  # a log-uniform level of 1 takes no random numbers

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

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    @pytest.mark.parametrize("dist", ["log-uniform", "uniform"])
    def test_perturb_rejects_non_finite_alpha(self, dist, alpha):
        rng = np.random.default_rng(174)
        base = consistent_matrix_from_priorities(random_priority_vector(3, rng))
        with pytest.raises(DomainError, match="alpha"):
            perturb(base, alpha, rng, dist, 1)

    @pytest.mark.parametrize("alpha", [1e91, 1e300])
    def test_alpha_past_the_cap_is_rejected(self, alpha):
        # at 1e300 a corpus held judgments up to 3.5e283, and its saved panels did not load
        rng = np.random.default_rng(181)
        base = consistent_matrix_from_priorities(random_priority_vector(4, rng))
        with pytest.raises(DomainError, match="alpha must be >= 1 and at most 1e\\+90"):
            generate_corpus(1, {4: 1}, [1.5, alpha], 2, "log-uniform")
        with pytest.raises(DomainError, match="alpha must be >= 1 and at most 1e\\+90"):
            perturb(base, alpha, rng, "uniform", 2)

    def test_panel_at_the_alpha_cap_loads_back(self, tmp_path):
        (scenario,) = generate_corpus(1, {4: 1}, [MAX_ALPHA], 2, "log-uniform")
        path = tmp_path / "panel.json"
        save_panel(path, scenario.panel)
        assert load_panel(path)[0].stack.tobytes() == scenario.panel.stack.tobytes()

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


def two_chunk_corpus():
    # 40 scenarios, 20 of each matrix size
    return generate_corpus(321, {4: 10, 5: 10}, SMALL_ALPHAS, 4, "log-uniform")


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

    def test_serial_experiment1_is_one_batch_per_matrix_size(self):
        corpus = two_chunk_corpus()
        with mock.patch.object(montecarlo, "_attack_stack", wraps=montecarlo._attack_stack) as attack, \
                mock.patch.object(inconsistency, "_evm_stack",
                                  wraps=inconsistency._evm_stack) as power:
            experiment1(corpus)
        # one stacked attack over each size's 20 panels, and one power iteration over
        # each size's bribed matrices (the corpus's own CIs come with its scenarios)
        assert [c.args[0].shape for c in attack.call_args_list] == [(20, 4, 4, 4), (20, 4, 5, 5)]
        assert [c.args[0].shape[1:] for c in power.call_args_list] == [(4, 4), (5, 5)]

    def test_experiment2_is_one_batch_per_matrix_size(self):
        corpus = two_chunk_corpus()
        matrices = {m.tobytes() for s in corpus for m in s.panel.stack}
        with mock.patch.object(montecarlo, "_robust_aggregate_stack",
                               wraps=montecarlo._robust_aggregate_stack) as scoring, \
                mock.patch.object(inconsistency, "_evm_stack",
                                  wraps=inconsistency._evm_stack) as power:
            experiment2(corpus)
            # one robust scoring of each size's 20 panels
            assert [c.args[0].shape for c in scoring.call_args_list] == [(20, 4, 4), (20, 4, 5)]
            experiment1(corpus)
        # both experiments take the corpus's CIs from its scenarios; only experiment 1's
        # bribed matrices go through the power iteration
        assert power.call_count == 2
        assert not any(m.tobytes() in matrices for c in power.call_args_list for m in c.args[0])
        # sizes that interleave (n = 5, 3, 5): the rows come back in input order
        scenarios = [drawn_scenario(sid, n, 4, 2.0, seed)
                     for sid, n, seed in ((7, 5, 1), (3, 3, 2), (5, 5, 3))]
        rows = experiment2(scenarios)
        assert [r["scenario_id"] for r in rows] == [7, 3, 5]
        assert rows == [experiment2_one_at_a_time(s, RobustConfig()) for s in scenarios]

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


class TestStudyBuildsNoPerMatrixObjects:
    """Generation, both experiments and ``gen`` work on arrays: no PCMatrix, one ExpertPanel per
    scenario, and no GMM vector of a corpus matrix derived after generation."""

    @pytest.fixture
    def made(self, monkeypatch):
        made, real = collections.Counter(), core._unchecked

        def unchecked(cls, **fields):
            made[cls.__name__] += 1
            return real(cls, **fields)

        def built(self, *args, **kwargs):
            raise AssertionError(f"a {type(self).__name__} was built")

        for name, module in list(sys.modules.items()):
            if name.startswith("groupahp.") and hasattr(module, "_unchecked"):
                monkeypatch.setattr(module, "_unchecked", unchecked)
        for cls in (core.PCMatrix, core.ExpertPanel):
            monkeypatch.setattr(cls, "__init__", built)
        return made

    def test_generation_and_experiments(self, made, monkeypatch):
        corpus = two_chunk_corpus()
        assert made["PCMatrix"] == 0
        assert made["ExpertPanel"] == len(corpus)
        matrices = {m.tobytes() for s in corpus for m in s.panel.stack}
        log_means = record_log_means(monkeypatch)
        experiment2(corpus)
        assert not log_means
        rows = experiment1(corpus)
        # experiment 1 derives the GMM vectors of its bribed matrices only, each once
        assert sum(len(A) for A in log_means) == sum(r["bribes_used"] for r in rows) > 0
        assert not any(m.tobytes() in matrices for A in log_means for m in A)
        assert made["PCMatrix"] == 0
        assert made["ExpertPanel"] == len(corpus)

    def test_gen_command(self, made, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"counts": {"4": 2, "5": 1}, "alpha_start": 1.5,
                                      "alpha_stop": 2.5, "alpha_step": 0.5, "panel_size": 3}))
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("wrote 9 scenarios")
        assert len(list((tmp_path / "out").glob("scenario_*.json"))) == 9
        assert made["PCMatrix"] == 0
        assert made["ExpertPanel"] == 9


def exp1_record(ci, succeeded, classes, distances):
    return {
        "scenario_id": 0, "mean_ci": ci, "bribes_used": 1, "attack_succeeded": succeeded,
        **{f"class_{m.lower()}": c for m, c in zip(METHODS, classes)},
        **{f"manhattan_{m.lower()}": d for m, d in zip(METHODS, distances)},
    }


def exp2_record(ci, distances, kendalls):
    return {
        "scenario_id": 0, "mean_ci": ci,
        **{f"manhattan_{m.lower()}": d for m, d in zip(METHODS, distances)},
        **{f"kendall_{m.lower()}": d for m, d in zip(METHODS, kendalls)},
    }


class TestReportStatistics:
    """summarize and headline_stats on hand-built records; every distance is
    dyadic, so each expected value below is exact."""

    EXP1 = [
        exp1_record(0.053, 1, ("RR", "WR", "FAILURE"), (0.25, 0.5, 0.75)),
        exp1_record(0.1, 1, ("WR", "RR", "RR"), (0.5, 0.25, 0.125)),  # bucket 0.11, headline
        exp1_record(0.053, 0, ("RR", "RR", "RR"), (8.0, 8.0, 8.0)),  # failed attacks count nowhere
        exp1_record(0.257, 1, ("RR", "FAILURE", "WR"), (1.0, 2.0, 4.0)),
        exp1_record(0.5, 0, ("RR", "RR", "RR"), (8.0, 8.0, 8.0)),
    ]
    EXP2 = [
        exp2_record(0.053, (0.25, 0.5, 0.125), (0, 1, 0)),
        exp2_record(0.1, (0.75, 0.25, 0.375), (0, 0, 2)),
        exp2_record(0.305, (0.5, 0.5, 0.5), (3, 0, 1)),  # outside the Kendall region
    ]

    def test_summarize_experiment1(self):
        # (bucket, method): (wr, rr, mean Manhattan) over one record each
        cells = {
            (0.06, "APDD"): (1.0, 1.0, 0.25), (0.06, "AID"): (1.0, 0.0, 0.5),
            (0.06, "MX"): (0.0, 0.0, 0.75),
            (0.11, "APDD"): (1.0, 0.0, 0.5), (0.11, "AID"): (1.0, 1.0, 0.25),
            (0.11, "MX"): (1.0, 1.0, 0.125),
            (0.26, "APDD"): (1.0, 1.0, 1.0), (0.26, "AID"): (0.0, 0.0, 2.0),
            (0.26, "MX"): (1.0, 0.0, 4.0),
        }
        expected = [
            (b, m, metric, value, 1)
            for (b, m), values in cells.items()
            for metric, value in zip(("wr_rate", "rr_rate", "mean_manhattan"), values)
        ]
        assert summarize(self.EXP1) == sorted(expected, key=lambda r: (r[2], r[1], r[0]))

    def test_headline_experiment1(self):
        # the successful attacks at mean CI <= 0.1: the first two records
        assert headline_stats(self.EXP1) == {
            "APDD": {"wr_rate": 1.0, "rr_rate": 0.5, "mean_manhattan": 0.375},
            "AID": {"wr_rate": 1.0, "rr_rate": 0.5, "mean_manhattan": 0.375},
            "MX": {"wr_rate": 0.5, "rr_rate": 0.5, "mean_manhattan": 0.4375},
        }

    def test_summarize_experiment2(self):
        distances = {0.06: (0.25, 0.5, 0.125), 0.11: (0.75, 0.25, 0.375), 0.31: (0.5, 0.5, 0.5)}
        expected = [
            (b, m, "mean_manhattan", d, 1)
            for b, ds in distances.items() for m, d in zip(METHODS, ds)
        ]
        # Kendall histogram over the first two records, labelled with the threshold
        histograms = {"APDD": [1.0], "AID": [0.5, 0.5], "MX": [0.5, 0.0, 0.5]}
        expected += [
            (0.1, m, f"kendall_{d}_freq", freq, 2)
            for m, freqs in histograms.items() for d, freq in enumerate(freqs)
        ]
        assert summarize(self.EXP2) == sorted(expected, key=lambda r: (r[2], r[1], r[0]))

    def test_headline_experiment2(self):
        stats = headline_stats(self.EXP2)
        assert stats == {
            "APDD": {"corpus_mean_manhattan": 0.5, "kendall_zero_freq": 1.0},
            "AID": {"corpus_mean_manhattan": pytest.approx(1.25 / 3), "kendall_zero_freq": 0.5},
            "MX": {"corpus_mean_manhattan": pytest.approx(1 / 3), "kendall_zero_freq": 0.5},
        }
        zero = {r[1]: r[3] for r in summarize(self.EXP2) if r[2] == "kendall_0_freq"}
        assert {m: s["kendall_zero_freq"] for m, s in stats.items()} == zero


def one_scenario_at_a_time(scenario, config, max_bribes, saturation) -> dict:
    """Experiment 1's row for one scenario, from the single-panel API."""
    outcome = run_attack(scenario.panel, max_bribes, saturation)
    honest = outcome.honest_ranking
    restored = {m: robust_aggregate(outcome.manipulated_panel, m, config) for m in METHODS}
    return {
        "scenario_id": scenario.scenario_id,
        "mean_ci": scenario.mean_ci,
        "bribes_used": len(outcome.bribed_indices),
        "attack_succeeded": int(outcome.succeeded),
        **{f"class_{m.lower()}": _classify(honest, r) for m, r in restored.items()},
        **{f"manhattan_{m.lower()}": manhattan_mean(honest, r) for m, r in restored.items()},
    }


def drawn_scenario(sid, n, k, alpha, seed) -> Scenario:
    rng = np.random.default_rng(seed)
    w = PriorityVector.from_raw(rng.dirichlet(np.ones(n)) + 1e-3)
    panel = perturb(consistent_matrix_from_priorities(w), alpha, rng, "log-uniform", k)
    cis, gmm = np.array(panel_cis(panel)), np.array([v.weights for v in panel_gmm(panel)])
    cis.setflags(write=False)
    gmm.setflags(write=False)
    return Scenario(sid, w, alpha, panel, float(np.mean(cis)), cis, gmm)


scenario_draws = st.lists(
    st.tuples(
        st.integers(2, 9),
        st.integers(1, 24),
        st.one_of(st.just(1.0), st.floats(1.0, 81.0)),  # alpha 1 ties every expert
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=8,
)


class TestExperiment1Arrays:
    """experiment1 attacks and scores a chunk as arrays; each row must be the one the
    single-panel API gives for its scenario, bit for bit."""

    @given(
        draws=scenario_draws,
        shared_k=st.one_of(st.none(), st.integers(1, 24)),
        budget=st.sampled_from(["none", 0, 1, "k+1"]),
        saturation=st.floats(2.0, 9.0),
        metric=st.sampled_from(["manhattan", "euclidean", "chebyshev"]),
        beta=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_single_panel_api(self, draws, shared_k, budget, saturation,
                                             metric, beta):
        # one k for the corpus, as a study draws it, or one per scenario; n always mixes
        scenarios = [drawn_scenario(sid, n, shared_k or k, alpha, seed)
                     for sid, (n, k, alpha, seed) in enumerate(draws)]
        top_k = max(s.panel.k for s in scenarios)
        max_bribes = {"none": None, "k+1": top_k + 1}.get(budget, budget)
        config = RobustConfig(beta=beta, metric=metric)
        rows = experiment1(scenarios, config, max_bribes, saturation)
        assert rows == [one_scenario_at_a_time(s, config, max_bribes, saturation)
                        for s in scenarios]

    def test_chunks_of_a_study_corpus_match(self, small_corpus):
        # 8 scenarios with n 4 and 5 in one batch
        expected = [one_scenario_at_a_time(s, RobustConfig(), None, 9.0) for s in small_corpus]
        assert experiment1(small_corpus) == expected

    @pytest.mark.parametrize("saturation", [1.0, 0.5, float("inf"), 1e101])
    def test_rejects_saturation_up_to_one(self, small_corpus, saturation):
        with pytest.raises(DomainError, match="saturation"):
            experiment1(small_corpus, max_bribes=0, saturation=saturation)


def experiment2_one_at_a_time(scenario, config) -> dict:
    """Experiment 2's row for one scenario, from the single-panel API."""
    honest = aggregate_panel(scenario.panel)
    restored = {m: robust_aggregate(scenario.panel, m, config) for m in METHODS}
    return {
        "scenario_id": scenario.scenario_id,
        "mean_ci": scenario.mean_ci,
        **{f"manhattan_{m.lower()}": manhattan_mean(honest, r) for m, r in restored.items()},
        **{f"kendall_{m.lower()}": kendall_tau_distance(honest, r) for m, r in restored.items()},
    }


class TestExperiment2Rows:
    """Each experiment-2 row must be the one the single-panel API gives for its scenario:
    the same columns in the same order, each of the same type and value, bit for bit."""

    @given(
        draws=scenario_draws,
        shared_k=st.one_of(st.none(), st.integers(1, 24)),
        metric=st.sampled_from(["manhattan", "euclidean", "chebyshev"]),
        beta=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_single_panel_api(self, draws, shared_k, metric, beta):
        scenarios = [drawn_scenario(sid, n, shared_k or k, alpha, seed)
                     for sid, (n, k, alpha, seed) in enumerate(draws)]
        config = RobustConfig(beta=beta, metric=metric)

        def typed(row):
            return [(column, type(v), v) for column, v in row.items()]

        assert [typed(r) for r in experiment2(scenarios, config)] == [
            typed(experiment2_one_at_a_time(s, config)) for s in scenarios]
