"""The package against ``tests/reference.py``, a per-expert transcription of the formulas that
shares no code with it.  Seeded panels have k = 1..20 experts, n = 2..9 alternatives and
judgments perturbed by factors up to alpha = 9 either way.  Vectors agree to rtol 1e-12 and
CIs to atol 1e-9 (LAPACK and the power iteration differ by up to about 3e-11 at alpha = 81);
bribed experts, success and Kendall distances agree exactly, except where the reference's
deciding margin is within 1e-9, and such skipped cases are counted and bounded.  AID and the
experiment-2 row take the package's CIs, checked here against the reference's, because AID's
lines magnify the CIs' 3e-11 far past rtol 1e-12."""

import ast
import json

import numpy as np
import pytest

from groupahp import (ExpertPanel, ExpertWeights, PCMatrix, PriorityVector, RobustConfig, Scenario,
                      aggregate_panel, aid_weights, aip, apdd_weights, gmm_priorities, mx_weights,
                      panel_cis, panel_gmm, run_attack, saaty_ci)
from groupahp.cli import main
from groupahp.montecarlo import experiment1, experiment2
from tests import reference

CASES = 300
MARGIN = 1e-9  # a discrete outcome the reference decides by less is not compared
MAX_SKIPPED = 6  # 2% of the cases: a guard that skips more hides what it guards
# a case's weighting config is CONFIGS[seed % 3]: each metric, and MX leaning either way
CONFIGS = (RobustConfig(), RobustConfig(beta=0.2, metric="euclidean"),
           RobustConfig(beta=0.9, metric="chebyshev"))


def seeded_case(seed: int) -> dict:
    """A panel of k perturbations of one consistent matrix, some repeated, with expert weights,
    a bribe budget and a saturation; every lower entry is 1.0 / its upper entry, as the loader
    rebuilds it."""
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, 21)), int(rng.integers(2, 10))
    alpha = rng.uniform(1.0, 9.0)
    w = rng.dirichlet(np.ones(n)) + 1e-3
    stack = np.ones((k, n, n))
    for q in range(k):
        for i in range(n):
            for j in range(i + 1, n):
                upper = w[i] / w[j] * alpha ** rng.uniform(-1.0, 1.0)
                stack[q, i, j], stack[q, j, i] = upper, 1.0 / upper
        if q and rng.random() < 0.2:  # a repeated expert: equal supports, queued by index
            stack[q] = stack[rng.integers(q)]
    weights = rng.dirichlet(np.ones(k))
    budgets = [None, 0, 1, 2, k + 1]
    return {
        "stack": stack,
        "base": w / w.sum(),
        "config": CONFIGS[seed % len(CONFIGS)],
        "weights": weights / weights.sum(),
        "max_bribes": budgets[rng.integers(len(budgets))],
        "saturation": 9.0 if rng.random() < 0.5 else float(rng.uniform(1.5, 9.0)),
    }


@pytest.fixture(scope="module")
def cases():
    return [seeded_case(seed) for seed in range(CASES)]


@pytest.fixture(scope="module")
def attacks(cases):
    return [reference.attack(c["stack"], c["max_bribes"], c["saturation"]) for c in cases]


def package_scenario(seed: int, case: dict) -> Scenario:
    """The case's panel as a corpus scenario, with the package's CIs and GMM vectors."""
    panel = ExpertPanel.from_stack(case["stack"])
    cis, gmm = np.array(panel_cis(panel)), np.array([v.weights for v in panel_gmm(panel)])
    cis.setflags(write=False)
    gmm.setflags(write=False)
    return Scenario(seed, PriorityVector(case["base"]), 1.0, panel, float(np.mean(cis)), cis, gmm)


def assert_row(got: dict, want: dict, discrete: tuple[str, ...]):
    """Equal keys in the same order; ``discrete`` columns exactly, the others to rtol 1e-12."""
    assert list(got) == list(want)
    for column in got:
        if column == "scenario_id" or column.startswith(discrete):
            assert got[column] == want[column], (got["scenario_id"], column)
        else:
            # a gap between entries up to 1 keeps their absolute rounding, about 1e-16
            np.testing.assert_allclose(got[column], want[column], rtol=1e-12, atol=1e-15)


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_priorities_and_cis(cases):
    for c in cases:
        stack = c["stack"]
        G = [reference.gmm(A) for A in stack]
        CI = [reference.saaty_ci(A) for A in stack]
        for A, g, ci in zip(stack, G, CI):
            close(gmm_priorities(PCMatrix(A)).weights, g)
            assert saaty_ci(PCMatrix(A)) == pytest.approx(ci, rel=0.0, abs=1e-9)
        panel = ExpertPanel.from_stack(stack)
        close([v.weights for v in panel_gmm(panel)], G)
        np.testing.assert_allclose(panel_cis(panel), CI, rtol=0.0, atol=1e-9)


def test_aggregation(cases):
    for c in cases:
        G = np.array([reference.gmm(A) for A in c["stack"]])
        vectors = [PriorityVector(g) for g in G]
        r = ExpertWeights(c["weights"])
        close(aip(vectors).weights, reference.aip(G))
        close(aip(vectors, r).weights, reference.aip(G, c["weights"]))
        panel = ExpertPanel.from_stack(c["stack"])
        close(aggregate_panel(panel).weights, reference.aip(G))
        close(aggregate_panel(panel, r).weights, reference.aip(G, c["weights"]))


def test_run_attack(cases, attacks):
    skipped = 0
    for seed, (c, want) in enumerate(zip(cases, attacks)):
        got = run_attack(ExpertPanel.from_stack(c["stack"]), c["max_bribes"], c["saturation"])
        close(got.honest_ranking.weights, want["honest"])
        if want["margin"] <= MARGIN:
            skipped += 1
            continue
        assert got.bribed_indices == want["bribed"], seed
        assert got.succeeded == want["succeeded"], seed
        assert np.array_equal(got.manipulated_panel.stack, want["stack"]), seed
        close(got.manipulated_ranking.weights, want["manipulated"])
    assert skipped <= MAX_SKIPPED


def test_attack_command(cases, attacks, tmp_path, capsys):
    """The bribed ids and success line that ``attack`` prints."""
    skipped = 0
    for seed, (c, want) in enumerate(zip(cases, attacks)):
        if want["margin"] <= MARGIN:
            skipped += 1
            continue
        ids = [f"expert-{q}" for q in range(len(c["stack"]))]
        path, cfg = tmp_path / f"panel{seed}.json", tmp_path / f"config{seed}.json"
        path.write_text(json.dumps({"n": c["stack"].shape[1], "experts": [
            {"id": eid, "matrix": A.tolist()} for eid, A in zip(ids, c["stack"])]}))
        cfg.write_text(json.dumps({"saturation": c["saturation"], "max_bribes": c["max_bribes"]}))
        assert main(["attack", "--input", str(path), "--config", str(cfg)]) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert ast.literal_eval(lines["bribed"]) == [ids[q] for q in want["bribed"]], seed
        assert lines["success"] == str(want["succeeded"]), seed
    assert skipped <= MAX_SKIPPED


def test_robust_weights(cases):
    skipped = 0
    for seed, c in enumerate(cases):
        panel, config = ExpertPanel.from_stack(c["stack"]), c["config"]
        G = np.array([reference.gmm(A) for A in c["stack"]])
        want, margin = reference.robust_weights(G, panel_cis(panel), config)
        if margin <= MARGIN:
            skipped += 1
            continue
        for method, weights in (("APDD", apdd_weights), ("AID", aid_weights), ("MX", mx_weights)):
            close(weights(panel, config).r, want[method])
    assert skipped <= MAX_SKIPPED


def test_experiment2_rows(cases):
    """Each config's panels in one ``experiment2`` call, so that panels of a shape share a batch."""
    skipped = 0
    for config in CONFIGS:
        scenarios, wanted = [], []
        for seed, c in enumerate(cases):
            if c["config"] is not config:
                continue
            scenarios.append(package_scenario(seed, c))
            wanted.append(reference.experiment2_row(seed, c["stack"], scenarios[-1].cis.tolist(),
                                                    config))
        for got, (want, margin) in zip(experiment2(scenarios, config), wanted, strict=True):
            if margin <= MARGIN:
                skipped += 1
                continue
            assert_row(got, want, ("kendall",))
    assert skipped <= MAX_SKIPPED


def test_experiment1_rows(cases):
    """Each panel attacked with its own budget and saturation; a bribed expert's CI is the
    package's, as in ``test_robust_weights``."""
    skipped = 0
    for seed, c in enumerate(cases):
        scenario = package_scenario(seed, c)
        (got,) = experiment1([scenario], c["config"], c["max_bribes"], c["saturation"])
        want, margin = reference.experiment1_row(
            seed, c["stack"], scenario.cis.tolist(), c["config"], c["max_bribes"],
            c["saturation"], lambda A: saaty_ci(PCMatrix(A)))
        if margin <= MARGIN:
            skipped += 1
            continue
        assert_row(got, want, ("bribes_used", "attack_succeeded", "class"))
    assert skipped <= MAX_SKIPPED
