"""Scenario generation and the two Monte Carlo experiments.

A scenario is a ground-truth priority vector, a disturbance level alpha,
and a panel of perturbed copies of the vector's consistent matrix.
Experiment 1 attacks each panel and measures how well the robust
aggregation schemes restore the honest ranking; experiment 2 measures how
much the schemes disturb an honest, unmanipulated panel.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .aggregate import aggregate_panel
from .attack import run_attack
from .core import ExpertPanel, PCMatrix, PriorityVector, consistent_matrix_from_priorities
from .errors import DomainError, EmptyReportError
from .inconsistency import panel_mean_ci
from .metrics import kendall_tau_distance, manhattan_mean
from .robust import RobustConfig, robust_aggregate

METHODS = ("APDD", "AID", "MX")

DEFAULT_COUNTS = {5: 34, 6: 33, 7: 33}
EPSILON_DISTRIBUTIONS = ("log-uniform", "uniform")
DEFAULT_ALPHAS = tuple(np.round(np.arange(1.1, 5.01, 0.1), 10))


@dataclass(frozen=True)
class Scenario:
    scenario_id: int
    base_vector: PriorityVector
    alpha: float
    panel: ExpertPanel
    mean_ci: float


@dataclass(frozen=True)
class MethodResult:
    classification: str  # "WR" | "RR" | "FAILURE"
    distance: float  # mean Manhattan to the honest aggregate


@dataclass(frozen=True)
class Experiment1Record:
    scenario_id: int
    mean_ci: float
    bribes_used: int
    attack_succeeded: bool
    methods: dict[str, MethodResult] = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment2Record:
    scenario_id: int
    mean_ci: float
    manhattan: dict[str, float] = field(default_factory=dict)
    kendall: dict[str, int] = field(default_factory=dict)


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
    distribution: str = "log-uniform",
) -> PCMatrix:
    """Multiply each upper-triangle entry by a random factor in [1/alpha, alpha].

    The factor is log-uniform by default, which is symmetric around 1 on
    the ratio scale the geometric mean operates in.  Reciprocity is kept
    exactly (the lower triangle gets the reciprocal factors).
    """
    if alpha < 1.0:
        raise DomainError("alpha must be >= 1")
    n = C_w.n
    iu = np.triu_indices(n, k=1)
    if distribution == "log-uniform":
        eps = np.exp(rng.uniform(-np.log(alpha), np.log(alpha), size=len(iu[0]))) \
            if alpha > 1.0 else np.ones(len(iu[0]))
    elif distribution == "uniform":
        eps = rng.uniform(1.0 / alpha, alpha, size=len(iu[0]))
    else:
        raise DomainError(f"unknown epsilon distribution {distribution!r}")
    m = C_w.values.copy()
    m[iu] = m[iu] * eps
    m[(iu[1], iu[0])] = 1.0 / m[iu]
    return PCMatrix(m)


def generate_corpus(
    seed: int,
    counts: dict[int, int] | None = None,
    alphas=DEFAULT_ALPHAS,
    panel_size: int = 20,
    epsilon_distribution: str = "log-uniform",
) -> list[Scenario]:
    """Deterministically generate the scenario corpus for both experiments.

    Base vectors whose top two priorities are closer than 1e-6 are redrawn
    so every scenario has an unambiguous honest winner and runner-up.
    """
    counts = DEFAULT_COUNTS if counts is None else counts
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
            panel = ExpertPanel(
                tuple(
                    perturb(C_w, float(alpha), rng, epsilon_distribution)
                    for _ in range(panel_size)
                )
            )
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


def _run_experiment1_one(args) -> Experiment1Record:
    scenario, config, max_bribes, saturation = args
    honest = aggregate_panel(scenario.panel)
    outcome = run_attack(scenario.panel, max_bribes, saturation)
    methods = {}
    for method in METHODS:
        restored = robust_aggregate(outcome.manipulated_panel, method, config)
        methods[method] = MethodResult(
            _classify(honest, restored), manhattan_mean(honest, restored)
        )
    return Experiment1Record(
        scenario.scenario_id,
        scenario.mean_ci,
        len(outcome.bribed_indices),
        outcome.succeeded,
        methods,
    )


def _run_experiment2_one(args) -> Experiment2Record:
    scenario, config = args
    honest = aggregate_panel(scenario.panel)
    manh, kend = {}, {}
    for method in METHODS:
        alt = robust_aggregate(scenario.panel, method, config)
        manh[method] = manhattan_mean(honest, alt)
        kend[method] = kendall_tau_distance(honest, alt)
    return Experiment2Record(scenario.scenario_id, scenario.mean_ci, manh, kend)


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
) -> list[Experiment1Record]:
    """Attack every scenario, then score how well each scheme recovers."""
    args = [(s, config, max_bribes, saturation) for s in scenarios]
    return _map(_run_experiment1_one, args, workers)


def experiment2(
    scenarios: list[Scenario],
    config: RobustConfig = RobustConfig(),
    workers: int = 1,
) -> list[Experiment2Record]:
    """Compare honest aggregation against the robust schemes, no attack."""
    args = [(s, config) for s in scenarios]
    return _map(_run_experiment2_one, args, workers)


def _bucket(ci: float, width: float) -> float:
    # label each bucket by its upper edge
    return round((np.floor(ci / width) + 1) * width, 10)


def summarize(records, ci_bucket_width: float = 0.01) -> list[tuple]:
    """Aggregate experiment records into report rows.

    Rows are tuples (bucket_ci, method, metric, value, count), sorted by
    (metric, method, bucket).  Experiment-1 records yield WR/RR rates and
    mean restoration distances per bucket (attack failures are excluded
    from the rate denominators); experiment-2 records yield mean distances
    per bucket plus the Kendall-distance histogram over the low-
    inconsistency region (mean CI <= 0.1).
    """
    records = list(records)
    if not records:
        raise EmptyReportError("no records to summarize")
    rows: list[tuple] = []
    if isinstance(records[0], Experiment1Record):
        buckets: dict[float, list[Experiment1Record]] = {}
        for rec in records:
            if rec.attack_succeeded:
                buckets.setdefault(_bucket(rec.mean_ci, ci_bucket_width), []).append(rec)
        for b, recs in buckets.items():
            for method in METHODS:
                cls = [r.methods[method].classification for r in recs]
                wr = sum(c in ("WR", "RR") for c in cls) / len(recs)
                rr = sum(c == "RR" for c in cls) / len(recs)
                dist = float(np.mean([r.methods[method].distance for r in recs]))
                rows.append((b, method, "wr_rate", wr, len(recs)))
                rows.append((b, method, "rr_rate", rr, len(recs)))
                rows.append((b, method, "mean_manhattan", dist, len(recs)))
    elif isinstance(records[0], Experiment2Record):
        buckets2: dict[float, list[Experiment2Record]] = {}
        for rec in records:
            buckets2.setdefault(_bucket(rec.mean_ci, ci_bucket_width), []).append(rec)
        for b, recs in buckets2.items():
            for method in METHODS:
                dist = float(np.mean([r.manhattan[method] for r in recs]))
                rows.append((b, method, "mean_manhattan", dist, len(recs)))
        low = [r for r in records if r.mean_ci <= 0.1]
        if low:
            for method in METHODS:
                kd = np.array([r.kendall[method] for r in low])
                for d in range(int(kd.max()) + 1):
                    freq = float(np.mean(kd == d))
                    rows.append((0.1, method, f"kendall_{d}_freq", freq, len(low)))
    else:
        raise EmptyReportError(f"unknown record type {type(records[0]).__name__}")
    rows.sort(key=lambda r: (r[2], r[1], r[0]))
    return rows


def _mean(values: list) -> float:
    # nan for no values, without numpy's empty-slice warning
    return float(np.mean(values)) if values else float("nan")


def headline_stats(records, ci_threshold: float = 0.1) -> dict[str, dict[str, float]]:
    """Threshold statistics quoted in reports: rates and means at CI <= 0.1.

    A statistic over the scenarios at or below the threshold is nan when
    there are none.
    """
    records = list(records)
    if not records:
        raise EmptyReportError("no records")
    out: dict[str, dict[str, float]] = {m: {} for m in METHODS}
    if isinstance(records[0], Experiment1Record):
        low = [r for r in records if r.mean_ci <= ci_threshold and r.attack_succeeded]
        for method in METHODS:
            cls = [r.methods[method].classification for r in low]
            out[method]["wr_rate"] = _mean([c in ("WR", "RR") for c in cls])
            out[method]["rr_rate"] = _mean([c == "RR" for c in cls])
            out[method]["mean_manhattan"] = _mean([r.methods[method].distance for r in low])
    else:
        low = [r for r in records if r.mean_ci <= ci_threshold]
        for method in METHODS:
            out[method]["corpus_mean_manhattan"] = _mean([r.manhattan[method] for r in records])
            out[method]["kendall_zero_freq"] = _mean([r.kendall[method] == 0 for r in low])
    return out
