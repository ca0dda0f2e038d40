"""Scenario generation and the two Monte Carlo experiments.

A scenario is a ground-truth priority vector, a disturbance level alpha,
and a panel of perturbed copies of the vector's consistent matrix.
Experiment 1 attacks each panel and measures how well the robust
aggregation schemes restore the honest ranking; experiment 2 measures how
much the schemes disturb an honest, unmanipulated panel.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .aggregate import _wgm_stack, aggregate_panel
from .attack import _attack_stack, _check_saturation
from .core import (ExpertPanel, PCMatrix, PriorityVector, _check_rows,
                   consistent_matrix_from_priorities, resymmetrize)
from .derive import _row_gmm
from .errors import DomainError, EmptyReportError
from .inconsistency import _stack_cis, fill_cis, panel_cis, panel_mean_ci
from .metrics import kendall_tau_distance, manhattan_mean
from .robust import (METHODS, RobustConfig, _aid_stack, _apdd_stack, _centred, _metric,
                     _mx_stack, robust_aggregate)

EPSILON_DISTRIBUTIONS = ("log-uniform", "uniform")
CI_BUCKET_WIDTH = 0.01  # summary buckets by mean CI
CI_THRESHOLD = 0.1  # the low-inconsistency region the headline statistics cover
CHUNK = 32  # scenarios per chunk: one pool task, and one stacked attack in experiment 1


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
    if not 1.0 <= alpha < np.inf:  # NaN too
        raise DomainError("alpha must be finite and >= 1")
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
    m = np.empty((k, n, n))  # resymmetrize reads only the upper triangles
    m[:, iu[0], iu[1]] = C_w.values[iu] * eps
    return ExpertPanel.from_stack(resymmetrize(m))


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
    drawn = []
    for w in bases:
        C_w = consistent_matrix_from_priorities(w)
        for alpha in map(float, alphas):
            drawn.append((w, alpha, perturb(C_w, alpha, rng, epsilon_distribution, panel_size)))
    # every CI of the corpus from one power iteration per matrix size
    fill_cis([panel for *_, panel in drawn])
    return [
        Scenario(sid, w, alpha, panel, panel_mean_ci(panel))
        for sid, (w, alpha, panel) in enumerate(drawn)
    ]


def _classify(honest, restored):
    """'RR' if two rankings agree, 'WR' if their top two do, else 'FAILURE'; per row of arrays."""
    ho, ro = (np.argsort(-getattr(v, "weights", v), kind="stable") for v in (honest, restored))
    same = ho == ro
    return np.where(same.all(-1), "RR", np.where(same[..., :2].all(-1), "WR", "FAILURE")).tolist()


def _column(metric: str, method: str) -> str:
    return f"{metric}_{method.lower()}"


def _run_experiment1_chunk(config, max_bribes, saturation, chunk: list[Scenario]) -> list[dict]:
    """Per panel shape: one stacked attack, one CI power iteration, one scoring per method."""
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(chunk):
        groups.setdefault(s.panel.stack.shape, []).append(i)
    rows: list[dict] = [{}] * len(chunk)
    for (_, n, _), idx in groups.items():
        A = np.stack([chunk[i].panel.stack for i in idx])
        G = _row_gmm(A)
        _check_rows(G.reshape(-1, n))
        queue, used, ok, ranking, honest = _attack_stack(A, G, max_bribes, saturation)
        L = np.log(G)  # the bribed panels' logs, bit for bit as the attack wrote them
        CI = np.array([panel_cis(chunk[i].panel) for i in idx])
        p, b = np.nonzero(np.arange(queue.shape[1]) < used[:, None])
        if p.size:
            CI[p, queue[p, b]] = _stack_cis(A[p, queue[p, b]])
        W = {"APDD": _apdd_stack(_metric(config.metric)(ranking[:, None], G), config),
             "AID": _aid_stack(_centred(CI), config)}
        W["MX"] = _mx_stack(W["APDD"], W["AID"], config)
        restored = {m: _check_rows(_wgm_stack(_check_rows(W[m], "expert weights", 1), L))
                    for m in METHODS}
        cells = {**{_column("class", m): _classify(honest, r) for m, r in restored.items()},
                 **{_column("manhattan", m): manhattan_mean(honest, r).tolist()
                    for m, r in restored.items()}}
        for j, i in enumerate(idx):
            rows[i] = {"scenario_id": chunk[i].scenario_id, "mean_ci": chunk[i].mean_ci,
                       "bribes_used": int(used[j]), "attack_succeeded": int(ok[j]),
                       **{c: v[j] for c, v in cells.items()}}
    return rows


def _run_experiment2_one(scenario: Scenario, config: RobustConfig) -> dict:
    honest = aggregate_panel(scenario.panel)
    alt = {m: robust_aggregate(scenario.panel, m, config) for m in METHODS}
    return {
        "scenario_id": scenario.scenario_id,
        "mean_ci": scenario.mean_ci,
        **{_column("manhattan", m): manhattan_mean(honest, a) for m, a in alt.items()},
        **{_column("kendall", m): kendall_tau_distance(honest, a) for m, a in alt.items()},
    }


def _run_experiment2_chunk(config, chunk: list[Scenario]) -> list[dict]:
    return [_run_experiment2_one(s, config) for s in chunk]


def _map(fn, items, workers: int):
    """Concatenated ``fn(chunk)`` over the CHUNK-sized slices of ``items``, in order."""
    chunks = [items[i:i + CHUNK] for i in range(0, len(items), CHUNK)]
    # no more processes than chunks or CPUs: a fork pool starts them all at once
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        return [row for chunk in chunks for row in fn(chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(fn, chunks, chunksize=1) for row in rows]


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
    _check_saturation(saturation)
    return _map(partial(_run_experiment1_chunk, config, max_bribes, saturation), scenarios, workers)


def experiment2(
    scenarios: list[Scenario],
    config: RobustConfig = RobustConfig(),
    workers: int = 1,
) -> list[dict]:
    """Compare honest aggregation against the robust schemes, no attack.

    Returns one flat row per scenario, keyed by the records.csv columns.
    """
    return _map(partial(_run_experiment2_chunk, config), scenarios, workers)


def _bucket(ci: float) -> float:
    # label each bucket by its upper edge
    return round((np.floor(ci / CI_BUCKET_WIDTH) + 1) * CI_BUCKET_WIDTH, 10)


def _mean(values: list) -> float:
    # nan for no values, without numpy's empty-slice warning
    return float(np.mean(values)) if values else float("nan")


def _scored(records) -> tuple[bool, list[dict], list[dict]]:
    """Whether the records are attacked, the scored ones (of experiment 1 the
    successful attacks only), and the scored ones at mean CI <= 0.1."""
    records = list(records)
    if not records:
        raise EmptyReportError("no records to summarize")
    attacked = "attack_succeeded" in records[0]
    scored = [r for r in records if not attacked or r["attack_succeeded"]]
    return attacked, scored, [r for r in scored if r["mean_ci"] <= CI_THRESHOLD]


def _scores(recs: list[dict], method: str, attacked: bool) -> dict[str, float]:
    """WR/RR rates (attacked records only) and mean Manhattan distance; nan for none."""
    stats = {}
    if attacked:
        cls = [r[_column("class", method)] for r in recs]
        stats["wr_rate"] = _mean([c in ("WR", "RR") for c in cls])
        stats["rr_rate"] = _mean([c == "RR" for c in cls])
    stats["mean_manhattan"] = _mean([r[_column("manhattan", method)] for r in recs])
    return stats


def summarize(records) -> list[tuple]:
    """Aggregate experiment records into report rows.

    Rows are tuples (bucket_ci, method, metric, value, count), sorted by
    (metric, method, bucket).  Both experiments yield mean distances per
    bucket.  Experiment-1 records add WR/RR rates per bucket, and attack
    failures are left out of every bucket; experiment-2 records add the
    Kendall-distance histogram over the low-inconsistency region
    (mean CI <= 0.1).
    """
    attacked, scored, low = _scored(records)
    buckets: dict[float, list[dict]] = {}
    for rec in scored:
        buckets.setdefault(_bucket(rec["mean_ci"]), []).append(rec)
    rows = []
    for b, recs in buckets.items():
        for method in METHODS:
            stats = _scores(recs, method, attacked)
            rows += [(b, method, metric, value, len(recs)) for metric, value in stats.items()]
    if low and not attacked:
        for method in METHODS:
            kd = np.array([r[_column("kendall", method)] for r in low])
            for d in range(int(kd.max()) + 1):
                freq = float(np.mean(kd == d))
                rows.append((CI_THRESHOLD, method, f"kendall_{d}_freq", freq, len(low)))
    rows.sort(key=lambda r: (r[2], r[1], r[0]))
    return rows


def headline_stats(records) -> dict[str, dict[str, float]]:
    """Threshold statistics quoted in reports: rates and means at CI <= 0.1.

    A statistic over the scenarios at or below the threshold is nan when
    there are none.
    """
    attacked, scored, low = _scored(records)
    if attacked:
        return {m: _scores(low, m, True) for m in METHODS}
    return {m: {"corpus_mean_manhattan": _scores(scored, m, False)["mean_manhattan"],
                "kendall_zero_freq": _mean([r[_column("kendall", m)] == 0 for r in low])}
            for m in METHODS}
