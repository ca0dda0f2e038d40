"""Scenario generation and the two Monte Carlo experiments.

A scenario is a ground-truth priority vector, a disturbance level alpha,
and a panel of perturbed copies of the vector's consistent matrix.
Experiment 1 attacks each panel and measures how well the robust
aggregation schemes restore the honest ranking; experiment 2 measures how
much the schemes disturb an honest, unmanipulated panel.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .aggregate import aggregate_panel
from .attack import run_attack
from .core import ExpertPanel, PCMatrix, PriorityVector, consistent_matrix_from_priorities
from .errors import DomainError, EmptyReportError
from .inconsistency import panel_mean_ci
from .metrics import kendall_tau_distance, manhattan_mean
from .robust import RobustConfig, robust_aggregate

METHODS = ("APDD", "AID", "MX")

EPSILON_DISTRIBUTIONS = ("log-uniform", "uniform")
CI_BUCKET_WIDTH = 0.01  # summary buckets by mean CI
CI_THRESHOLD = 0.1  # the low-inconsistency region the headline statistics cover


@dataclass(frozen=True)
class Scenario:
    scenario_id: int
    base_vector: PriorityVector
    alpha: float
    panel: ExpertPanel
    mean_ci: float


def random_priority_vector(n: int, rng: np.random.Generator) -> PriorityVector:
    """Uniform draw from the open simplex (flat Dirichlet)."""
    if n < 2:
        raise DomainError("need at least 2 alternatives")
    while True:
        w = rng.dirichlet(np.ones(n))
        if np.all(w > 1e-9):
            return PriorityVector(w)


def perturb(
    C_w: PCMatrix,
    alpha: float,
    rng: np.random.Generator,
    distribution: str,
    k: int,
) -> ExpertPanel:
    """Draw a panel of k perturbed copies of C_w.

    Each upper-triangle entry is multiplied by a random factor in
    [1/alpha, alpha].  A "log-uniform" factor is symmetric around 1 on the
    ratio scale the geometric mean operates in; a "uniform" one is not.
    Reciprocity is kept exactly (the lower triangle gets the reciprocal
    factors).  All k matrices come from one draw, which yields the same
    random stream as k draws of one matrix each.
    """
    if alpha < 1.0:
        raise DomainError("alpha must be >= 1")
    n = C_w.n
    iu = np.triu_indices(n, k=1)
    size = (k, len(iu[0]))
    if distribution == "log-uniform":
        eps = np.exp(rng.uniform(-np.log(alpha), np.log(alpha), size=size)) \
            if alpha > 1.0 else np.ones(size)
    elif distribution == "uniform":
        eps = rng.uniform(1.0 / alpha, alpha, size=size)
    else:
        raise DomainError(f"unknown epsilon distribution {distribution!r}")
    m = np.repeat(C_w.values[None], k, axis=0)
    m[:, iu[0], iu[1]] = C_w.values[iu] * eps
    m[:, iu[1], iu[0]] = 1.0 / m[:, iu[0], iu[1]]
    return ExpertPanel(tuple(PCMatrix(x) for x in m))


def generate_corpus(
    seed: int,
    counts: dict[int, int],
    alphas,
    panel_size: int,
    epsilon_distribution: str,
) -> list[Scenario]:
    """Deterministically generate the scenario corpus for both experiments.

    Base vectors whose top two priorities are closer than 1e-6 are redrawn
    so every scenario has an unambiguous honest winner and runner-up.
    """
    rng = np.random.default_rng(seed)
    bases: list[PriorityVector] = []
    for n in sorted(counts):
        for _ in range(counts[n]):
            while True:
                w = random_priority_vector(n, rng)
                top = np.sort(w.weights)[::-1]
                if top[0] - top[1] >= 1e-6:
                    break
            bases.append(w)
    scenarios: list[Scenario] = []
    sid = 0
    for w in bases:
        C_w = consistent_matrix_from_priorities(w)
        for alpha in alphas:
            panel = perturb(C_w, float(alpha), rng, epsilon_distribution, panel_size)
            scenarios.append(
                Scenario(sid, w, float(alpha), panel, panel_mean_ci(panel))
            )
            sid += 1
    return scenarios


def _classify(honest: PriorityVector, restored: PriorityVector) -> str:
    ho = honest.ranking()
    ro = restored.ranking()
    if np.array_equal(ho, ro):
        return "RR"
    if ho[0] == ro[0] and ho[1] == ro[1]:
        return "WR"
    return "FAILURE"


def _column(metric: str, method: str) -> str:
    return f"{metric}_{method.lower()}"


def _run_experiment1_one(args) -> dict:
    scenario, config, max_bribes, saturation = args
    outcome = run_attack(scenario.panel, max_bribes, saturation)
    honest = outcome.honest_ranking
    restored = {m: robust_aggregate(outcome.manipulated_panel, m, config) for m in METHODS}
    return {
        "scenario_id": scenario.scenario_id,
        "mean_ci": scenario.mean_ci,
        "bribes_used": len(outcome.bribed_indices),
        "attack_succeeded": int(outcome.succeeded),
        **{_column("class", m): _classify(honest, r) for m, r in restored.items()},
        **{_column("manhattan", m): manhattan_mean(honest, r) for m, r in restored.items()},
    }


def _run_experiment2_one(args) -> dict:
    scenario, config = args
    honest = aggregate_panel(scenario.panel)
    alt = {m: robust_aggregate(scenario.panel, m, config) for m in METHODS}
    return {
        "scenario_id": scenario.scenario_id,
        "mean_ci": scenario.mean_ci,
        **{_column("manhattan", m): manhattan_mean(honest, a) for m, a in alt.items()},
        **{_column("kendall", m): kendall_tau_distance(honest, a) for m, a in alt.items()},
    }


def _map(fn, items, workers: int):
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=32))


def experiment1(
    scenarios: list[Scenario],
    config: RobustConfig = RobustConfig(),
    max_bribes: int | None = None,
    saturation: float = 9.0,
    workers: int = 1,
) -> list[dict]:
    """Attack every scenario, then score how well each scheme recovers.

    Returns one flat row per scenario, keyed by the records.csv columns.
    """
    args = [(s, config, max_bribes, saturation) for s in scenarios]
    return _map(_run_experiment1_one, args, workers)


def experiment2(
    scenarios: list[Scenario],
    config: RobustConfig = RobustConfig(),
    workers: int = 1,
) -> list[dict]:
    """Compare honest aggregation against the robust schemes, no attack.

    Returns one flat row per scenario, keyed by the records.csv columns.
    """
    args = [(s, config) for s in scenarios]
    return _map(_run_experiment2_one, args, workers)


def _bucket(ci: float) -> float:
    # label each bucket by its upper edge
    return round((np.floor(ci / CI_BUCKET_WIDTH) + 1) * CI_BUCKET_WIDTH, 10)


def summarize(records) -> list[tuple]:
    """Aggregate experiment records into report rows.

    Rows are tuples (bucket_ci, method, metric, value, count), sorted by
    (metric, method, bucket).  Both experiments yield mean distances per
    bucket.  Experiment-1 records add WR/RR rates per bucket, and attack
    failures are left out of every bucket; experiment-2 records add the
    Kendall-distance histogram over the low-inconsistency region
    (mean CI <= 0.1).
    """
    records = list(records)
    if not records:
        raise EmptyReportError("no records to summarize")
    attacked = "attack_succeeded" in records[0]
    buckets: dict[float, list[dict]] = {}
    for rec in records:
        if not attacked or rec["attack_succeeded"]:
            buckets.setdefault(_bucket(rec["mean_ci"]), []).append(rec)
    rows: list[tuple] = []
    for b, recs in buckets.items():
        for method in METHODS:
            if attacked:
                cls = [r[_column("class", method)] for r in recs]
                wr = sum(c in ("WR", "RR") for c in cls) / len(recs)
                rr = sum(c == "RR" for c in cls) / len(recs)
                rows.append((b, method, "wr_rate", wr, len(recs)))
                rows.append((b, method, "rr_rate", rr, len(recs)))
            dist = float(np.mean([r[_column("manhattan", method)] for r in recs]))
            rows.append((b, method, "mean_manhattan", dist, len(recs)))
    low = [] if attacked else [r for r in records if r["mean_ci"] <= CI_THRESHOLD]
    if low:
        for method in METHODS:
            kd = np.array([r[_column("kendall", method)] for r in low])
            for d in range(int(kd.max()) + 1):
                freq = float(np.mean(kd == d))
                rows.append((CI_THRESHOLD, method, f"kendall_{d}_freq", freq, len(low)))
    rows.sort(key=lambda r: (r[2], r[1], r[0]))
    return rows


def _mean(values: list) -> float:
    # nan for no values, without numpy's empty-slice warning
    return float(np.mean(values)) if values else float("nan")


def headline_stats(records) -> dict[str, dict[str, float]]:
    """Threshold statistics quoted in reports: rates and means at CI <= 0.1.

    A statistic over the scenarios at or below the threshold is nan when
    there are none.
    """
    records = list(records)
    if not records:
        raise EmptyReportError("no records")
    attacked = "attack_succeeded" in records[0]
    low = [
        r for r in records
        if r["mean_ci"] <= CI_THRESHOLD and (not attacked or r["attack_succeeded"])
    ]
    out: dict[str, dict[str, float]] = {}
    for method in METHODS:
        manhattan = _column("manhattan", method)
        if attacked:
            cls = [r[_column("class", method)] for r in low]
            out[method] = {
                "wr_rate": _mean([c in ("WR", "RR") for c in cls]),
                "rr_rate": _mean([c == "RR" for c in cls]),
                "mean_manhattan": _mean([r[manhattan] for r in low]),
            }
        else:
            kendall = _column("kendall", method)
            out[method] = {
                "corpus_mean_manhattan": _mean([r[manhattan] for r in records]),
                "kendall_zero_freq": _mean([r[kendall] == 0 for r in low]),
            }
    return out
