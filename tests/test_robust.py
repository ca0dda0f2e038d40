from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupahp import (
    CredibilityScale2,
    CredibilityScale3,
    DomainError,
    EXAMPLE_CREDIBILITY_MATRIX,
    ExpertPanel,
    PriorityVector,
    RobustConfig,
    aggregate_panel,
    aid_weights,
    apdd_weights,
    consistent_matrix_from_priorities,
    credibility_from_matrix,
    method_weights,
    mx_weights,
    panel_cis,
    pcm_from_upper_triangle,
    preferential_distances,
    robust_aggregate,
)
from groupahp import inconsistency
from groupahp.errors import CredibilityOrderError
from groupahp.robust import DEFAULT_SCALE3, _aid_stack, _apdd_stack, inconsistency_distances
from tests.conftest import normalized, random_pcm, record_log_means


def random_panel(rng, k=5, n=4):
    return ExpertPanel(tuple(random_pcm(n, rng) for _ in range(k)))


def pooled_panel(rng, k, distinct):
    """k experts drawn with repetition from a pool of at most `distinct` matrices.

    CIs tie often, and spreads run from consistent (CI 0) to far off the 1-9 scale.
    """
    n = int(rng.integers(3, 6))
    pool = [
        random_pcm(n, rng, spread) if spread > 1.0
        else consistent_matrix_from_priorities(PriorityVector(rng.dirichlet(np.ones(n))))
        for spread in rng.choice([1.0, 1.5, 9.0, 81.0], size=min(distinct, k))
    ]
    return ExpertPanel(tuple(pool[i] for i in rng.integers(len(pool), size=k)))


class TestScales:
    def test_scale2_requires_order(self):
        with pytest.raises(DomainError):
            CredibilityScale2(1.0, 5.0)

    def test_scale3_requires_order(self):
        with pytest.raises(DomainError):
            CredibilityScale3(0.1, 0.5, 0.4)

    def test_from_ratios_normalizes(self):
        s = CredibilityScale3.from_ratios(9.0, 4.0, 1.0)
        assert s.h + s.m + s.l == pytest.approx(1.0)
        assert s.h / s.l == pytest.approx(9.0)

    def test_equal_anchors_allowed(self):
        CredibilityScale3(0.4, 0.4, 0.2)  # what equal credibility_ratios give

    @pytest.mark.parametrize(
        "make", [lambda x: CredibilityScale2(x, 1.0), lambda x: CredibilityScale3(x, 1.0, 0.5)],
        ids=["scale2", "scale3"],
    )
    @pytest.mark.parametrize("x", [float("inf"), float("nan")])
    def test_rejects_non_finite_anchors(self, make, x):
        with pytest.raises(DomainError, match="finite"):
            make(x)


class TestRobustConfig:
    @pytest.mark.parametrize("beta", [1.5, -0.1, float("nan")])
    def test_rejects_beta_outside_unit_interval(self, beta):
        # APDD and AID read the same config, so a bad beta cannot slip past them
        with pytest.raises(DomainError, match="beta"):
            RobustConfig(beta=beta)

    def test_unknown_metric_is_a_domain_error(self):
        panel = random_panel(np.random.default_rng(131))
        with pytest.raises(DomainError, match="metric"):
            preferential_distances(panel, "cosine")
        with pytest.raises(DomainError, match="metric"):
            RobustConfig(metric="cosine")


class TestAPDD:
    def test_weights_decrease_with_distance(self):
        rng = np.random.default_rng(79)
        panel = random_panel(rng, k=6)
        d = preferential_distances(panel)
        r = apdd_weights(panel).r
        order = np.argsort(d)
        assert np.all(np.diff(r[order]) <= 1e-12)

    def test_extreme_experts_hit_scale_anchors(self):
        rng = np.random.default_rng(83)
        panel = random_panel(rng, k=6)
        d = preferential_distances(panel)
        r = apdd_weights(panel).r
        # before rescaling the closest expert carries h and the farthest l,
        # so their weight ratio equals h / l
        assert r[np.argmin(d)] / r[np.argmax(d)] == pytest.approx(5.0)

    def test_uniform_fallback_for_identical_experts(self):
        m = random_pcm(4, np.random.default_rng(89))
        panel = ExpertPanel((m, m, m))
        assert np.allclose(apdd_weights(panel).r, 1 / 3)

    @given(
        n=st.integers(2, 8),
        copies=st.integers(1, 3),
        metric=st.sampled_from(["manhattan", "euclidean", "chebyshev"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_equidistant_panel_gets_uniform_weights(self, n, copies, metric, seed):
        # every cyclic shift of one vector: the aggregate is uniform, and each
        # expert sits at the same distance from it
        w = np.random.default_rng(seed).dirichlet(np.ones(n)) + 1e-3
        shifts = [PriorityVector.from_raw(np.roll(w, s)) for s in range(n)]
        panel = ExpertPanel(tuple(consistent_matrix_from_priorities(v) for v in shifts) * copies)
        d = preferential_distances(panel, metric)
        assert d.max() - d.min() < 1e-12
        r = apdd_weights(panel, RobustConfig(metric=metric)).r
        assert np.array_equal(r, np.full(panel.k, 1 / panel.k))

    def test_published_example_weights(self, eight_panel):
        printed = normalized([0.165, 0.11, 0.16, 0.15, 0.16, 0.15, 0.0331, 0.054])
        assert np.max(np.abs(apdd_weights(eight_panel).r - printed)) <= 0.01

    def test_published_example_final_vector(self, eight_panel):
        target = normalized([0.327, 0.317, 0.182, 0.152])
        v = robust_aggregate(eight_panel, "APDD")
        assert np.max(np.abs(v.weights - target)) <= 5e-3
        assert int(v.ranking()[0]) == 0  # the down-weighting restores a1


class TestAID:
    def test_inconsistency_profile_is_centered(self):
        rng = np.random.default_rng(97)
        panel = random_panel(rng)
        d, ci = inconsistency_distances(panel), np.array(panel_cis(panel))
        assert abs(d.sum()) <= 1e-10
        assert np.allclose(d, ci - ci.mean(), atol=1e-12)

    def test_most_consistent_expert_gets_top_weight(self):
        rng = np.random.default_rng(101)
        panel = random_panel(rng, k=6)
        ci = panel_cis(panel)
        r = aid_weights(panel).r
        assert np.argmax(r) == np.argmin(ci)
        assert np.argmin(r) == np.argmax(ci)

    def test_uniform_fallback_for_equal_inconsistency(self):
        w = PriorityVector.from_raw([1.0, 2.0, 3.0])
        m = consistent_matrix_from_priorities(w)
        panel = ExpertPanel((m, m, m, m))
        assert np.allclose(aid_weights(panel).r, 0.25)

    def test_published_example_weights(self, eight_panel):
        scale = credibility_from_matrix(EXAMPLE_CREDIBILITY_MATRIX)
        printed = normalized([0.149, 0.109, 0.208, 0.159, 0.122, 0.19, 0.028, 0.03])
        r = aid_weights(eight_panel, RobustConfig(scale3=scale)).r
        assert np.max(np.abs(r - printed)) <= 2e-3

    def test_published_example_final_vector(self, eight_panel):
        scale = credibility_from_matrix(EXAMPLE_CREDIBILITY_MATRIX)
        target = normalized([0.339, 0.314, 0.1793, 0.151])
        v = robust_aggregate(eight_panel, "AID", RobustConfig(scale3=scale))
        assert np.max(np.abs(v.weights - target)) <= 5e-3

    @given(st.integers(2, 24), st.integers(1, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_weight_ratio_stays_within_scale(self, k, distinct, seed):
        panel = pooled_panel(np.random.default_rng(seed), k, distinct)
        r = aid_weights(panel).r
        assert r.max() / r.min() <= DEFAULT_SCALE3.h / DEFAULT_SCALE3.l * (1 + 1e-12)

    def test_two_experts_get_h_and_l_in_either_order(self):
        # no expert lies between the extremes, so the middle anchor is unused
        good = consistent_matrix_from_priorities(PriorityVector.from_raw([1.0, 2.0, 3.0]))
        bad = pcm_from_upper_triangle(3, [9.0, 1.0 / 9.0, 9.0])
        h, l = DEFAULT_SCALE3.h, DEFAULT_SCALE3.l
        expected = np.array([h, l]) / (h + l)
        assert aid_weights(ExpertPanel((good, bad))).r == pytest.approx(expected, abs=1e-15)
        assert aid_weights(ExpertPanel((bad, good))).r == pytest.approx(expected[::-1], abs=1e-15)

    def test_exact_deviation_tie_goes_to_the_lower_deviation(self, monkeypatch):
        cis = [0.0, 0.25, 0.75, 1.0]  # centred exactly: -1/2, -1/4, 1/4, 1/2
        monkeypatch.setattr("groupahp.robust._stack_cis", lambda A, G: np.array(cis))
        panel = random_panel(np.random.default_rng(127), k=4)
        h, m, l = DEFAULT_SCALE3.h, DEFAULT_SCALE3.m, DEFAULT_SCALE3.l
        f = np.array([h, m, m + (l - m) * 2 / 3, l])
        assert aid_weights(panel).r == pytest.approx(f / f.sum(), abs=1e-15)
        cis.reverse()
        assert aid_weights(panel).r == pytest.approx(f[::-1] / f.sum(), abs=1e-15)

    def test_weights_stay_positive_for_extreme_outlier(self):
        rng = np.random.default_rng(103)
        mats = [random_pcm(4, rng, spread=2.0) for _ in range(5)]
        mats.append(random_pcm(4, rng, spread=500.0))  # wildly inconsistent
        r = aid_weights(ExpertPanel(tuple(mats))).r
        assert np.all(r > 0.0)


class TestCredibilityResolution:
    def test_example_matrix_anchors(self):
        s = credibility_from_matrix(EXAMPLE_CREDIBILITY_MATRIX)
        assert (s.h, s.m, s.l) == pytest.approx((0.603, 0.315, 0.082), abs=1e-3)

    def test_rejects_wrong_size(self):
        with pytest.raises(DomainError):
            credibility_from_matrix(pcm_from_upper_triangle(2, [2.0]))

    def test_rejects_submissive_upper_triangle(self):
        with pytest.raises(DomainError):
            credibility_from_matrix(pcm_from_upper_triangle(3, [0.5, 2.0, 2.0]))

    def test_rejects_tied_anchors(self):
        with pytest.raises(CredibilityOrderError):
            credibility_from_matrix(pcm_from_upper_triangle(3, [1.0, 1.0, 1.0]))


class TestMX:
    def test_convex_combination_of_components(self):
        rng = np.random.default_rng(107)
        panel = random_panel(rng)
        for beta in (0.0, 0.3, 0.5, 1.0):
            r = mx_weights(panel, RobustConfig(beta=beta)).r
            expected = beta * apdd_weights(panel).r + (1 - beta) * aid_weights(panel).r
            assert np.max(np.abs(r - expected)) <= 1e-12

    def test_rejects_beta_outside_unit_interval(self):
        rng = np.random.default_rng(109)
        with pytest.raises(DomainError):
            mx_weights(random_panel(rng), RobustConfig(beta=1.5))

    def test_published_example_final_vector(self, eight_panel):
        scale = credibility_from_matrix(EXAMPLE_CREDIBILITY_MATRIX)
        target = normalized([0.333, 0.316, 0.18, 0.151])
        v = robust_aggregate(eight_panel, "MX", RobustConfig(scale3=scale))
        assert np.max(np.abs(v.weights - target)) <= 5e-3


class TestDispatch:
    def test_method_names(self):
        rng = np.random.default_rng(113)
        panel = random_panel(rng)
        for name in ("APDD", "AID", "MX"):
            assert method_weights(panel, name).k == panel.k
        with pytest.raises(DomainError):
            method_weights(panel, "NOPE")

    def test_default_scale_ratios(self):
        assert DEFAULT_SCALE3.h / DEFAULT_SCALE3.l == pytest.approx(9.0)
        assert DEFAULT_SCALE3.m / DEFAULT_SCALE3.l == pytest.approx(4.0)


class TestExpertOrder:
    @given(st.integers(2, 24), st.integers(1, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_permuting_experts_permutes_weights(self, k, distinct, seed):
        # summation order moves the last ulps, hence the 1e-12 tolerance
        rng = np.random.default_rng(seed)
        panel = pooled_panel(rng, k, distinct)
        perm = rng.permutation(k)
        shuffled = ExpertPanel(tuple(panel.matrices[i] for i in perm))
        classic = aggregate_panel(panel).weights
        assert np.max(np.abs(aggregate_panel(shuffled).weights - classic)) <= 1e-12
        for method in ("APDD", "AID", "MX"):
            r = method_weights(panel, method).r
            assert np.max(np.abs(method_weights(shuffled, method).r - r[perm])) <= 1e-12, method
            v = robust_aggregate(panel, method).weights
            assert np.max(np.abs(robust_aggregate(shuffled, method).weights - v)) <= 1e-12, method


def interp_weights(d, xp, fp) -> np.ndarray:
    """The credibility map written with np.interp, one panel at a time."""
    if xp[-1] - xp[0] < 1e-12:
        return np.full(d.size, 1.0 / d.size)
    f = np.interp(d, xp, fp)
    return f / f.sum()


def interp_aid(d, s) -> np.ndarray:
    lo, hi = d.min(), d.max()
    inner = np.sort(d[(d > lo) & (d < hi)])
    if inner.size:
        return interp_weights(d, [lo, inner[np.argmin(np.abs(inner))], hi], [s.h, s.m, s.l])
    return interp_weights(d, [lo, hi], [s.h, s.l])


scales3 = st.sampled_from([
    DEFAULT_SCALE3,
    CredibilityScale3(0.5, 0.3, 0.2),
    CredibilityScale3(0.4, 0.4, 0.2),  # equal anchors, as equal trust ratios give
    CredibilityScale3(0.6, 0.2, 0.2),
])


class TestInterpReference:
    """APDD and AID weights, bit for bit what np.interp on the written-out anchors gives."""

    @given(
        k=st.integers(1, 24),
        distinct=st.integers(1, 4),  # 1 or 2 distinct matrices: no inner AID expert
        metric=st.sampled_from(["manhattan", "euclidean", "chebyshev"]),
        scale3=scales3,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_weights_of_a_panel(self, k, distinct, metric, scale3, seed):
        panel = pooled_panel(np.random.default_rng(seed), k, distinct)
        config = RobustConfig(scale3=scale3, metric=metric)
        d = preferential_distances(panel, metric)
        apdd = interp_weights(d, [d.min(), d.max()], [config.scale2.h, config.scale2.l])
        assert np.array_equal(apdd_weights(panel, config).r, apdd)
        aid = interp_aid(inconsistency_distances(panel), scale3)
        assert np.array_equal(aid_weights(panel, config).r, aid)

    @given(
        rows=st.integers(1, 12).flatmap(lambda k: st.lists(
            st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=1, max_size=6)),
        scale3=scales3,
    )
    @settings(max_examples=120, deadline=None)
    def test_stacked_rows_with_tied_deviations(self, rows, scale3):
        # small integers tie often, sit at both ends at once, or leave no inner value
        D = np.array(rows, dtype=float) / 4
        config = RobustConfig(scale3=scale3)
        aid, apdd = _aid_stack(D, config), _apdd_stack(D, config)
        for d, a, p in zip(D, aid, apdd):
            assert np.array_equal(a, interp_aid(d, scale3))
            assert np.array_equal(p, interp_weights(d, [d.min(), d.max()], [5.0, 1.0]))


class TestOnePanelDerivesOnce:
    """The single-panel API derives a panel's GMM vectors once and its CIs once: every method
    goes through the one scorer, which also reads the CIs for APDD."""

    @pytest.mark.parametrize("method, power_iterations", [("APDD", 1), ("AID", 1), ("MX", 1)])
    def test_weights_and_aggregate(self, method, power_iterations, monkeypatch):
        panel = random_panel(np.random.default_rng(149), k=20, n=7)
        for call in (method_weights, robust_aggregate):
            with monkeypatch.context() as patched, mock.patch.object(
                    inconsistency, "_evm_stack", wraps=inconsistency._evm_stack) as power:
                log_means = record_log_means(patched)
                call(panel, method)
            assert [A.shape for A in log_means] == [(20, 7, 7)], call
            assert power.call_count == power_iterations, call
