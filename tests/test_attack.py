import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupahp import (
    DomainError,
    ExpertPanel,
    PCMatrix,
    PriorityVector,
    ShapeError,
    aggregate_panel,
    bribe_matrix,
    bundled_panel,
    consistent_matrix_from_priorities,
    experiment1,
    generate_corpus,
    gmm_priorities,
    perturb,
    run_attack,
)
from groupahp import core
from tests.conftest import normalized, random_pcm


def unanimous_panel(raw, k):
    w = PriorityVector.from_raw(raw)
    return ExpertPanel((consistent_matrix_from_priorities(w),) * k)


class TestBribeMatrix:
    def test_saturates_promoted_and_demoted(self):
        rng = np.random.default_rng(127)
        m = random_pcm(5, rng)
        doctored = bribe_matrix(m, promoted=2, demoted=0)
        for j in range(5):
            if j != 2:
                assert doctored.values[2, j] == 9.0
                assert doctored.values[j, 2] == pytest.approx(1 / 9)
            if j not in (0, 2):
                assert doctored.values[0, j] == pytest.approx(1 / 9)
                assert doctored.values[j, 0] == 9.0

    def test_promoted_dominates_demoted(self):
        rng = np.random.default_rng(131)
        doctored = bribe_matrix(random_pcm(4, rng), promoted=1, demoted=3)
        assert doctored.values[1, 3] == 9.0

    def test_unrelated_entries_untouched(self):
        rng = np.random.default_rng(137)
        m = random_pcm(5, rng)
        doctored = bribe_matrix(m, promoted=0, demoted=1)
        assert doctored.values[2, 3] == m.values[2, 3]
        assert doctored.values[3, 4] == m.values[3, 4]

    def test_result_is_reciprocal(self):
        rng = np.random.default_rng(139)
        doctored = bribe_matrix(random_pcm(6, rng), 4, 2, saturation=7.0)
        v = doctored.values
        assert np.max(np.abs(v * v.T - 1.0)) <= 1e-12

    @given(
        n=st.integers(2, 12),
        saturation=st.floats(1.01, 81.0),
        spread=st.floats(1.0, 81.0),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_and_local(self, n, saturation, spread, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        promoted, demoted = data.draw(st.permutations(range(n)))[:2]
        m = random_pcm(n, rng, spread)
        v = bribe_matrix(m, promoted, demoted, saturation).values
        assert np.max(np.abs(v * v.T - 1.0)) <= 1e-12
        touched = np.zeros((n, n), dtype=bool)
        touched[[promoted, demoted], :] = touched[:, [promoted, demoted]] = True
        np.fill_diagonal(touched, False)
        assert np.array_equal(v[~touched], m.values[~touched])

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(149)
        m = random_pcm(4, rng)
        with pytest.raises(ShapeError):
            bribe_matrix(m, 0, 9)
        with pytest.raises(DomainError):
            bribe_matrix(m, 1, 1)
        with pytest.raises(DomainError):
            bribe_matrix(m, 0, 1, saturation=1.0)

    @pytest.mark.parametrize("saturation", [float("inf"), 1e101])
    def test_rejects_saturation_past_the_judgment_bound(self, saturation):
        m = random_pcm(4, np.random.default_rng(151))
        with pytest.raises(DomainError, match="saturation must exceed 1 and be at most 1e"):
            bribe_matrix(m, 0, 1, saturation)


class TestRunAttack:
    def test_flips_winner_to_runner_up(self):
        panel = unanimous_panel([5.0, 4.0, 1.0, 2.0], k=6)
        outcome = run_attack(panel)
        assert outcome.succeeded
        assert int(outcome.manipulated_ranking.ranking()[0]) == 1

    def test_stops_at_first_success(self):
        panel = unanimous_panel([5.0, 4.9, 1.0, 2.0], k=6)
        outcome = run_attack(panel)
        # near-tied leaders: a single doctored matrix must already flip it
        assert outcome.succeeded
        assert len(outcome.bribed_indices) == 1

    def test_bribes_strongest_supporters_first(self, five_alt_panel):
        backing = [
            gmm_priorities(m).weights[1] for m in five_alt_panel.matrices
        ]  # a2 is the honest winner
        outcome = run_attack(five_alt_panel)
        assert outcome.bribed_indices[0] == int(np.argmax(backing))

    def test_max_bribes_caps_the_budget(self):
        panel = unanimous_panel([8.0, 1.0, 1.5], k=8)
        outcome = run_attack(panel, max_bribes=1)
        assert not outcome.succeeded
        assert len(outcome.bribed_indices) == 1

    @pytest.mark.parametrize("max_bribes", [0, 1, None])
    @pytest.mark.parametrize("saturation", [1.0, 0.5, float("nan"), float("inf"), 1e101])
    def test_rejects_saturation_up_to_one_whatever_the_budget(self, max_bribes, saturation):
        panel = unanimous_panel([3.0, 2.0, 1.0], k=4)
        with pytest.raises(DomainError, match="saturation must exceed 1"):
            run_attack(panel, max_bribes, saturation)

    @pytest.mark.parametrize("max_bribes", [-1, -20])
    def test_rejects_a_negative_budget(self, max_bribes):
        panel = unanimous_panel([3.0, 2.0, 1.0], k=4)
        corpus = generate_corpus(5, {3: 1}, [1.5], 4, "log-uniform")
        message = f"max_bribes must be >= 0 or None, got {max_bribes}"
        with pytest.raises(DomainError, match=message):
            run_attack(panel, max_bribes)
        with pytest.raises(DomainError, match=message):
            experiment1(corpus, max_bribes=max_bribes)

    @pytest.mark.parametrize("max_bribes", [1.5, 2.0, "2", True, False, np.float64(1.0)])
    def test_rejects_a_budget_that_is_not_an_integer(self, max_bribes):
        panel = unanimous_panel([3.0, 2.0, 1.0], k=4)
        corpus = generate_corpus(5, {3: 1}, [1.5], 4, "log-uniform")
        message = "max_bribes must be an integer or None, got "
        with pytest.raises(DomainError, match=message):
            run_attack(panel, max_bribes)
        with pytest.raises(DomainError, match=message):
            experiment1(corpus, max_bribes=max_bribes)

    def test_numpy_integer_budget(self):
        panel, _ = bundled_panel("bribery_demo_panel")
        corpus = generate_corpus(5, {3: 2}, [1.5, 2.0], 4, "log-uniform")
        for budget in (0, 1, 2):
            for numpy_budget in (np.int64(budget), np.int32(budget), np.uint8(budget)):
                outcome, want = run_attack(panel, numpy_budget), run_attack(panel, budget)
                assert outcome.bribed_indices == want.bribed_indices
                assert experiment1(corpus, max_bribes=numpy_budget) == experiment1(
                    corpus, max_bribes=budget)

    def test_zero_budget_changes_nothing(self):
        panel = unanimous_panel([3.0, 2.0, 1.0], k=4)
        outcome = run_attack(panel, max_bribes=0)
        assert not outcome.succeeded
        assert outcome.manipulated_panel is panel
        assert np.allclose(
            outcome.manipulated_ranking.weights, aggregate_panel(panel).weights
        )

    def test_reports_the_honest_aggregate(self, five_alt_panel):
        outcome = run_attack(five_alt_panel)
        honest = aggregate_panel(five_alt_panel)
        assert np.array_equal(outcome.honest_ranking.weights, honest.weights)

    def test_original_panel_untouched(self):
        panel = unanimous_panel([4.0, 3.0, 2.0, 1.0], k=5)
        before = [m.values.copy() for m in panel.matrices]
        run_attack(panel)
        for m, b in zip(panel.matrices, before):
            assert np.array_equal(m.values, b)

    def test_manipulated_panel_is_the_bribed_stack_unchecked(self, five_alt_panel, monkeypatch):
        # a bribe writes only s, 1/s and 1 into a checked matrix, so the stack is not checked again
        want = one_panel_per_bribe(five_alt_panel, None, 9.0)[1].stack

        def check_stack(A):
            raise AssertionError("the bribed stack was checked again")

        monkeypatch.setattr(core, "_check_stack", check_stack)
        outcome = run_attack(five_alt_panel)
        got = outcome.manipulated_panel.stack
        assert outcome.bribed_indices == (0,)
        assert not got.flags.writeable
        assert not any(m.values.flags.writeable for m in outcome.manipulated_panel.matrices)
        assert got.tobytes() == want.tobytes()


def one_panel_per_bribe(panel, max_bribes, saturation):
    """The attack written out: a new panel and a full aggregation after every bribe."""
    budget = panel.k if max_bribes is None else max(max_bribes, 0)
    honest = aggregate_panel(panel)
    order = honest.ranking()
    winner, runner_up = int(order[0]), int(order[1])
    backing = [gmm_priorities(m).weights[winner] for m in panel.matrices]
    queue = sorted(range(panel.k), key=lambda q: (-backing[q], q))
    current, ranking = panel, honest
    for used, target in enumerate(queue[:budget], start=1):
        mats = list(current.matrices)
        mats[target] = bribe_matrix(mats[target], runner_up, winner, saturation)
        current = ExpertPanel(tuple(mats))
        ranking = aggregate_panel(current)
        if int(ranking.ranking()[0]) == runner_up:
            return tuple(queue[:used]), current, True, ranking, honest
    return tuple(queue[:budget]), current, False, ranking, honest


def copied(panel):
    return ExpertPanel(tuple(PCMatrix(m.values.copy()) for m in panel.matrices))


class TestInPlaceBribes:
    @given(
        k=st.integers(1, 24),
        n=st.integers(2, 9),
        alpha=st.one_of(st.just(1.0), st.floats(1.0, 81.0)),
        budget=st.sampled_from(["none", 0, 1, "k+1"]),
        saturation=st.floats(2.0, 9.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_one_panel_per_bribe(self, k, n, alpha, budget, saturation, seed):
        rng = np.random.default_rng(seed)
        w = PriorityVector.from_raw(rng.dirichlet(np.ones(n)) + 1e-3)
        base = consistent_matrix_from_priorities(w)
        panel = perturb(base, alpha, rng, "log-uniform", k)  # alpha 1 ties every expert
        max_bribes = {"none": None, "k+1": k + 1}.get(budget, budget)
        outcome = run_attack(copied(panel), max_bribes, saturation)
        bribed, manipulated, succeeded, ranking, honest = one_panel_per_bribe(
            copied(panel), max_bribes, saturation
        )
        assert outcome.bribed_indices == bribed
        assert outcome.succeeded == succeeded
        for got, want in zip(outcome.manipulated_panel.matrices, manipulated.matrices, strict=True):
            assert np.array_equal(got.values, want.values)
        assert np.array_equal(outcome.manipulated_ranking.weights, ranking.weights)
        assert np.array_equal(outcome.honest_ranking.weights, honest.weights)


class TestClosedForm:
    """A bribe moves the expert's log-GMM gap g_i = L[i, winner] - L[i, runner-up]
    to -c, c = 2(n-1)/n ln(saturation).  So the runner-up passes the winner once
    the first b experts of the queue give sum(g_i + c) > sum(g) over all experts."""

    @given(
        k=st.integers(1, 24),
        n=st.integers(2, 9),
        alpha=st.floats(1.0, 81.0),
        saturation=st.floats(2.0, 9.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_bribes_used_is_the_closed_form(self, k, n, alpha, saturation, seed):
        rng = np.random.default_rng(seed)
        w = PriorityVector.from_raw(rng.dirichlet(np.ones(n)) + 1e-3)
        panel = perturb(consistent_matrix_from_priorities(w), alpha, rng, "log-uniform", k)
        G = np.array([gmm_priorities(m).weights for m in panel.matrices])
        order = aggregate_panel(panel).ranking()
        winner, runner_up = int(order[0]), int(order[1])
        g = np.log(G[:, winner]) - np.log(G[:, runner_up])
        queue = np.argsort(-G[:, winner], kind="stable")
        c = 2 * (n - 1) / n * np.log(saturation)
        # k times the runner-up's log lead over the winner after b = 1, 2, ... bribes
        margin = np.cumsum(g[queue] + c) - g.sum()
        b = int(np.argmax(margin > 0)) + 1

        def tied(bribes):
            return abs(margin[bribes - 1]) <= 1e-9

        # a low saturation can leave a third alternative on top even after every bribe
        used = len(run_attack(panel, saturation=saturation).bribed_indices)
        assert used >= b or tied(used)
        if used > b and not tied(b):
            # the runner-up has passed the winner, but a third alternative still leads
            top = run_attack(panel, b, saturation).manipulated_ranking.ranking()[0]
            assert top not in (winner, runner_up)


class TestPublishedReplay:
    def test_honest_aggregate(self, five_alt_panel):
        target = normalized([0.145, 0.417, 0.072, 0.107, 0.233])
        agg = aggregate_panel(five_alt_panel)
        assert np.max(np.abs(agg.weights - target)) <= 2e-3
        assert int(agg.ranking()[0]) == 1

    def test_one_bribe_flips_to_last_alternative(self, five_alt_panel):
        target = normalized([0.148, 0.183, 0.08, 0.113, 0.31])
        outcome = run_attack(five_alt_panel)
        assert outcome.bribed_indices == (0,)
        assert outcome.succeeded
        assert np.max(np.abs(outcome.manipulated_ranking.weights - target)) <= 2e-3
        assert int(outcome.manipulated_ranking.ranking()[0]) == 4
