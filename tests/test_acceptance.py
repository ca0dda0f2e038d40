"""End-to-end acceptance checks.

Criteria 1-2 replay the published worked examples.  Criteria 3-4 and 6
evaluate the full-scale Monte Carlo experiments (4,000 scenarios x 20
matrices; a few minutes of runtime) against published summary statistics.
Criterion 5 checks structural properties with no tolerance bands.

Published group vectors are rounded, unnormalized entrywise geometric
means; they are normalized before comparison (the library only returns
normalized priority vectors).  One verdict line per criterion is printed
in the terminal summary.
"""

import json
import time

import numpy as np
import pytest

from groupahp import (
    EXAMPLE_CREDIBILITY_MATRIX,
    ExpertPanel,
    PriorityVector,
    RobustConfig,
    RunConfig,
    aggregate_panel,
    aid_weights,
    aij,
    aip,
    apdd_weights,
    bundled_panel,
    consistent_matrix_from_priorities,
    credibility_from_matrix,
    generate_corpus,
    gmm_priorities,
    kendall_tau_distance,
    mx_weights,
    preferential_distances,
    robust_aggregate,
    run_attack,
    saaty_ci,
)
from groupahp.montecarlo import METHODS, experiment1, experiment2, summarize
from tests.conftest import ACCEPTANCE_REPORT, normalized, random_pcm

CI_THRESHOLD = 0.1


def report(criterion: str, checks: list[tuple[str, bool, str]]) -> None:
    failed = [f"{label} ({detail})" for label, ok, detail in checks if not ok]
    verdict = "PASS" if not failed else "FAIL: " + "; ".join(failed)
    line = f"{criterion}: {verdict}"
    ACCEPTANCE_REPORT.append(line)
    assert not failed, line


@pytest.fixture(scope="module")
def corpus():
    cfg = RunConfig()
    return generate_corpus(
        cfg.seed, cfg.counts, cfg.alphas, cfg.panel_size, cfg.epsilon_distribution
    )


@pytest.fixture(scope="module")
def exp1_records(corpus):
    return experiment1(corpus)


@pytest.fixture(scope="module")
def exp2_records(corpus):
    return experiment2(corpus)


def low_ci(records, succeeded_only):
    out = [r for r in records if r["mean_ci"] <= CI_THRESHOLD]
    if succeeded_only:
        out = [r for r in out if r["attack_succeeded"]]
    return out


def test_criterion_1_worked_example_replay(eight_panel):
    start = time.perf_counter()
    scale = credibility_from_matrix(EXAMPLE_CREDIBILITY_MATRIX)
    cfg = RobustConfig(scale3=scale)

    agg = aggregate_panel(eight_panel).weights
    target_a = normalized([0.266227, 0.334807, 0.192645, 0.160465])

    apdd = robust_aggregate(eight_panel, "APDD", cfg)
    target_b = normalized([0.327, 0.317, 0.182, 0.152])

    aid = robust_aggregate(eight_panel, "AID", cfg).weights
    target_c = normalized([0.339, 0.314, 0.1793, 0.151])

    mx = robust_aggregate(eight_panel, "MX", cfg).weights
    target_d = normalized([0.333, 0.316, 0.18, 0.151])

    elapsed = time.perf_counter() - start
    checks = [
        ("1a equal-weight aggregate", np.max(np.abs(agg - target_a)) <= 1e-3,
         f"max dev {np.max(np.abs(agg - target_a)):.2e}"),
        ("1b APDD vector", np.max(np.abs(apdd.weights - target_b)) <= 5e-3,
         f"max dev {np.max(np.abs(apdd.weights - target_b)):.2e}"),
        ("1b APDD winner", int(apdd.ranking()[0]) == 0,
         f"winner a{int(apdd.ranking()[0]) + 1}"),
        ("1c AID vector", np.max(np.abs(aid - target_c)) <= 5e-3,
         f"max dev {np.max(np.abs(aid - target_c)):.2e}"),
        ("1d MX vector", np.max(np.abs(mx - target_d)) <= 5e-3,
         f"max dev {np.max(np.abs(mx - target_d)):.2e}"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f}s"),
    ]
    report("criterion 1 (worked-example replay)", checks)


def test_criterion_2_attack_example_replay(five_alt_panel):
    start = time.perf_counter()
    honest = aggregate_panel(five_alt_panel).weights
    target_h = normalized([0.145, 0.417, 0.072, 0.107, 0.233])
    outcome = run_attack(five_alt_panel)
    manip = outcome.manipulated_ranking
    target_m = normalized([0.148, 0.183, 0.08, 0.113, 0.31])
    elapsed = time.perf_counter() - start
    checks = [
        ("honest aggregate", np.max(np.abs(honest - target_h)) <= 2e-3,
         f"max dev {np.max(np.abs(honest - target_h)):.2e}"),
        ("single bribe of first expert", outcome.bribed_indices == (0,),
         f"bribed {outcome.bribed_indices}"),
        ("manipulated vector", np.max(np.abs(manip.weights - target_m)) <= 2e-3,
         f"max dev {np.max(np.abs(manip.weights - target_m)):.2e}"),
        ("manipulated winner a5", int(manip.ranking()[0]) == 4,
         f"winner a{int(manip.ranking()[0]) + 1}"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f}s"),
    ]
    report("criterion 2 (attack-example replay)", checks)


def test_criterion_3_restoration_rates_and_distances(exp1_records):
    low = low_ci(exp1_records, succeeded_only=True)
    assert low, "no low-inconsistency records"
    targets = {
        "APDD": (0.89, 0.86, 0.0336),
        "AID": (0.85, 0.83, 0.047),
        "MX": (0.88, 0.86, 0.0327),
    }
    checks = []
    for method, (wr_t, rr_t, dist_t) in targets.items():
        cls = [r[f"class_{method.lower()}"] for r in low]
        wr = sum(c in ("WR", "RR") for c in cls) / len(cls)
        rr = sum(c == "RR" for c in cls) / len(cls)
        dist = float(np.mean([r[f"manhattan_{method.lower()}"] for r in low]))
        checks.append(
            (f"{method} WR rate", abs(wr - wr_t) <= 0.05, f"{wr:.3f} vs {wr_t}±0.05")
        )
        checks.append(
            (f"{method} RR rate", abs(rr - rr_t) <= 0.05, f"{rr:.3f} vs {rr_t}±0.05")
        )
        checks.append(
            (f"{method} mean distance", abs(dist - dist_t) <= 0.02,
             f"{dist:.4f} vs {dist_t}±0.02")
        )
    report("criterion 3 (attack-recovery statistics)", checks)


def test_criterion_4_honest_disturbance(exp2_records):
    low = low_ci(exp2_records, succeeded_only=False)
    assert low, "no low-inconsistency records"
    mean_t = {"APDD": 0.017, "AID": 0.011, "MX": 0.009}
    k0_t = {"APDD": 0.92, "AID": 0.944, "MX": 0.951}
    means = {
        m: float(np.mean([r[f"manhattan_{m.lower()}"] for r in exp2_records])) for m in METHODS
    }
    k0 = {m: float(np.mean([r[f"kendall_{m.lower()}"] == 0 for r in low])) for m in METHODS}
    checks = []
    for m in METHODS:
        checks.append(
            (f"{m} corpus-mean distance", abs(means[m] - mean_t[m]) <= 0.01,
             f"{means[m]:.4f} vs {mean_t[m]}±0.01")
        )
        checks.append(
            (f"{m} rank-agreement frequency", abs(k0[m] - k0_t[m]) <= 0.04,
             f"{k0[m]:.3f} vs {k0_t[m]}±0.04")
        )
    checks.append(
        ("distance ordering MX < AID < APDD",
         means["MX"] < means["AID"] < means["APDD"],
         f"MX {means['MX']:.4f}, AID {means['AID']:.4f}, APDD {means['APDD']:.4f}")
    )
    checks.append(
        ("agreement ordering MX > AID > APDD",
         k0["MX"] > k0["AID"] > k0["APDD"],
         f"MX {k0['MX']:.3f}, AID {k0['AID']:.3f}, APDD {k0['APDD']:.3f}")
    )
    report("criterion 4 (honest-panel disturbance)", checks)


def test_criterion_5_property_suites(exp1_records):
    rng = np.random.default_rng(20230)
    checks = []

    # aggregation-order invariance on 1,000 random panels
    worst = 0.0
    for _ in range(1000):
        k, n = int(rng.integers(2, 6)), int(rng.integers(3, 6))
        panel = ExpertPanel(tuple(random_pcm(n, rng) for _ in range(k)))
        via_m = gmm_priorities(aij(panel)).weights
        via_v = aip([gmm_priorities(m) for m in panel.matrices]).weights
        worst = max(worst, float(np.max(np.abs(via_m - via_v))))
    checks.append(("aggregation-order invariance", worst <= 1e-10, f"max dev {worst:.1e}"))

    # consistent-matrix round trip
    worst = 0.0
    for _ in range(200):
        w = PriorityVector(rng.dirichlet(np.ones(int(rng.integers(3, 8)))))
        again = gmm_priorities(consistent_matrix_from_priorities(w)).weights
        worst = max(worst, float(np.max(np.abs(again - w.weights))))
    checks.append(("round trip", worst <= 1e-10, f"max dev {worst:.1e}"))

    # consistency index bounds
    ok = True
    for _ in range(200):
        m = random_pcm(int(rng.integers(3, 7)), rng)
        ok = ok and saaty_ci(m) >= 0.0
    for _ in range(50):
        w = PriorityVector(rng.dirichlet(np.ones(5)))
        ok = ok and saaty_ci(consistent_matrix_from_priorities(w)) <= 1e-10
    checks.append(("CI nonnegative, zero iff consistent", ok, "violated"))

    # rank-distance bounds and reversal maximum
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 8))
        a = PriorityVector(rng.dirichlet(np.ones(n)))
        b = PriorityVector(rng.dirichlet(np.ones(n)))
        d = kendall_tau_distance(a, b)
        ok = ok and 0 <= d <= n * (n - 1) // 2
    fwd = PriorityVector.from_raw(np.arange(1.0, 7.0))
    rev = PriorityVector.from_raw(np.arange(6.0, 0.0, -1.0))
    ok = ok and kendall_tau_distance(fwd, rev) == 15
    checks.append(("rank-distance bounds and reversal maximum", ok, "violated"))

    # distance-driven weights decrease with distance
    ok = True
    for _ in range(100):
        panel = ExpertPanel(tuple(random_pcm(4, rng) for _ in range(6)))
        d = preferential_distances(panel)
        r = apdd_weights(panel).r
        order = np.argsort(d)
        ok = ok and bool(np.all(np.diff(r[order]) <= 1e-12))
    checks.append(("distance-driven weight monotonicity", ok, "violated"))

    # blended weights are the exact convex combination
    ok = True
    for _ in range(100):
        panel = ExpertPanel(tuple(random_pcm(4, rng) for _ in range(5)))
        beta = float(rng.uniform())
        blend = mx_weights(panel, RobustConfig(beta=beta)).r
        expected = beta * apdd_weights(panel).r + (1 - beta) * aid_weights(panel).r
        ok = ok and float(np.max(np.abs(blend - expected))) <= 1e-12
    checks.append(("blend convexity", ok, "violated"))

    # full restoration implies winner restoration in every summary bucket
    rows = summarize(exp1_records)
    wr = {(r[0], r[1]): r[3] for r in rows if r[2] == "wr_rate"}
    rr = {(r[0], r[1]): r[3] for r in rows if r[2] == "rr_rate"}
    ok = all(wr[key] >= rr[key] for key in rr)
    checks.append(("full restoration implies winner restoration", ok, "violated"))

    # determinism: two seeded runs are byte-identical
    def snapshot():
        cfg = RunConfig()
        corpus = generate_corpus(
            cfg.seed, {4: 2}, (1.5, 2.5), 5, cfg.epsilon_distribution
        )
        recs = experiment2(corpus)
        return json.dumps(
            [
                [s.base_vector.weights.tolist() for s in corpus],
                [[r[f"manhattan_{m.lower()}"] for m in METHODS] for r in recs],
            ]
        ).encode()

    checks.append(("seeded determinism", snapshot() == snapshot(), "runs differ"))
    report("criterion 5 (structural properties)", checks)


def test_criterion_6_attack_effectiveness(exp1_records):
    succ = [r for r in exp1_records if r["attack_succeeded"]]
    success_rate = len(succ) / len(exp1_records)
    frac_le3 = float(np.mean([r["bribes_used"] <= 3 for r in succ]))
    checks = [
        ("success rate >= 99.9%", success_rate >= 0.999, f"{success_rate:.4f}"),
        ("<= 3 bribes in >= 90% of successes", frac_le3 >= 0.90, f"{frac_le3:.4f}"),
    ]
    report("criterion 6 (attack effectiveness)", checks)
