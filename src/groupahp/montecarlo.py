"""Scenario generation and the two Monte Carlo experiments.

A scenario is a ground-truth priority vector, a disturbance level alpha,
and a panel of perturbed copies of the vector's consistent matrix.
Experiment 1 attacks each panel and measures how well the robust aggregation
schemes restore the honest ranking; experiment 2 measures how much the schemes
disturb an honest, unmanipulated panel.  Both run in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .aggregate import _wgm_stack
from .attack import SATURATION, _attack_stack
from .core import (ExpertPanel, PCMatrix, PriorityVector, _check_rows, _check_stack, _checked_panel,
                   _from_upper, _ranking, _unchecked)
from .derive import _checked_gmm
from .errors import DomainError, EmptyReportError, ShapeError
from .inconsistency import _stack_cis
from .metrics import kendall_tau_distance, manhattan_mean
from .robust import METHODS, RobustConfig, _robust_aggregate_stack

EPSILON_DISTRIBUTIONS = ("log-uniform", "uniform")
CI_BUCKET_WIDTH = 0.01  # summary buckets by mean CI
CI_THRESHOLD = 0.1  # the low-inconsistency region the headline statistics cover
MAX_ALPHA = 1e90  # base ratios stay below 1e9 (weights > 1e-9), so judgments below 1e99


@dataclass(frozen=True, eq=False)
class Scenario:
    """One panel of the corpus, with its experts' CIs ``cis``, a read-only (k,) array, their
    mean ``mean_ci``, and their checked GMM vectors ``gmm``, a read-only (k, n) array."""

    scenario_id: int
    base_vector: PriorityVector
    alpha: float
    panel: ExpertPanel
    mean_ci: float
    cis: np.ndarray
    gmm: np.ndarray


def _dirichlet(n: int, rng: np.random.Generator, gap: float = 0.0) -> np.ndarray:
    """A flat Dirichlet draw over n >= 2 alternatives, drawn again until every weight
    exceeds 1e-9 and the top two are at least ``gap`` apart."""
    if n < 2:
        raise DomainError("need at least 2 alternatives")
    while True:
        w = rng.dirichlet(np.ones(n))
        top = np.sort(w)[-2:]
        if (w > 1e-9).all() and top[1] - top[0] >= gap:
            return w


def random_priority_vector(n: int, rng: np.random.Generator) -> PriorityVector:
    """Uniform draw from the open simplex (flat Dirichlet)."""
    return PriorityVector(_dirichlet(n, rng))


def _perturbed_stack(C: np.ndarray, alphas, rng: np.random.Generator, distribution: str,
                     k: int) -> np.ndarray:
    """k perturbed copies of each matrix of the (B, n, n) stack C at each alpha.

    Returns one checked, read-only (B * len(alphas) * k, n, n) stack, ordered
    by matrix, then alpha, then copy.  One uniform draw, with each alpha's
    bounds broadcast over its copies, takes the random numbers in that order,
    so the stack is the one B * len(alphas) calls of ``perturb`` would draw.
    The factors are scaled in place to the perturbed upper triangles, so the
    only (..., n, n) array made is the one ``core._from_upper`` returns.
    """
    if k < 1:
        raise ShapeError("a panel needs at least one expert")
    alphas = [float(a) for a in alphas]
    if not all(1.0 <= a <= MAX_ALPHA for a in alphas):  # NaN too
        raise DomainError(f"alpha must be >= 1 and at most {MAX_ALPHA:g}")
    n = C.shape[-1]
    iu = np.triu_indices(n, k=1)
    size = (len(C), len(alphas), k, len(iu[0]))
    if distribution == "log-uniform":
        eps = np.ones(size)
        drawn = np.array(alphas) > 1.0  # a level of exactly 1 takes no random numbers
        # one scalar log per level: an array log may round differently on some CPUs
        half = np.array([np.log(a) for a in alphas if a > 1.0])[:, None, None]
        eps[:, drawn] = np.exp(rng.uniform(-half, half, size=(len(C), len(half), *size[2:])))
    elif distribution == "uniform":
        a = np.array(alphas)[:, None, None]
        eps = rng.uniform(1.0 / a, a, size=size)
    else:
        raise DomainError(f"unknown epsilon distribution {distribution!r}")
    eps *= C[:, None, None, iu[0], iu[1]]  # now the perturbed upper triangles
    S = _from_upper(n, eps.reshape(-1, len(iu[0])))
    del eps  # freed before the check's temporaries
    _check_stack(S)
    return S


def perturb(
    C_w: PCMatrix,
    alpha: float,
    rng: np.random.Generator,
    distribution: str,
    k: int,
) -> ExpertPanel:
    """Draw a panel of k perturbed copies of C_w: ``_perturbed_stack`` on one matrix at one level.

    Each upper-triangle entry is multiplied by a random factor in
    [1/alpha, alpha].  A "log-uniform" factor is symmetric around 1 on the
    ratio scale the geometric mean operates in; a "uniform" one is not.
    Reciprocity is kept exactly (the lower triangle gets the reciprocal
    factors).  The k matrices draw the random stream that k draws of one would.
    """
    return _checked_panel(_perturbed_stack(C_w.values[None], [alpha], rng, distribution, k))


def generate_corpus(
    seed: int,
    counts: dict[int, int],
    alphas,
    panel_size: int,
    epsilon_distribution: str,
) -> list[Scenario]:
    """Deterministically generate the scenario corpus for both experiments.

    Base vectors whose top two priorities are closer than 1e-6 are redrawn
    so every scenario has an unambiguous honest winner and runner-up.  All
    bases are drawn first, in increasing n; then each matrix size's panels
    come from one perturbation draw and one stack check, their GMM vectors from
    one log-mean, and their CIs from one power iteration started at those.  A
    scenario's base vector, panel, ``cis`` and ``gmm`` are read-only views.
    """
    rng = np.random.default_rng(seed)
    bases = [_check_rows(np.array([_dirichlet(n, rng, 1e-6) for _ in range(counts[n])]))
             for n in sorted(counts) if counts[n]]
    alphas = [float(a) for a in alphas]
    corpus: list[Scenario] = []
    for W in bases:
        W.setflags(write=False)
        C = W[:, :, None] * (1.0 / W[:, None, :])  # the consistent matrices; the diagonal is unread
        S = _perturbed_stack(C, alphas, rng, epsilon_distribution, panel_size)
        G = _checked_gmm(S)
        cis = _stack_cis(S, G).reshape(-1, panel_size)
        cis.setflags(write=False)
        means = cis.mean(axis=1).tolist()  # each bit for bit np.mean of its row alone
        S, G = (X.reshape(len(cis), panel_size, *X.shape[1:]) for X in (S, G))
        vectors = [_unchecked(PriorityVector, weights=w) for w in W]
        for p, (w, alpha) in enumerate(product(vectors, alphas)):
            panel = _checked_panel(S[p])
            corpus.append(Scenario(len(corpus), w, alpha, panel, means[p], cis[p], G[p]))
    return corpus


def _classify(honest, restored):
    """'RR' if two rankings agree, 'WR' if their top two do, else 'FAILURE'; per row of arrays."""
    same = np.equal(*(_ranking(getattr(v, "weights", v)) for v in (honest, restored)))
    return np.where(same.all(-1), "RR", np.where(same[..., :2].all(-1), "WR", "FAILURE")).tolist()


def _column(metric: str, method: str) -> str:
    return f"{metric}_{method.lower()}"


def _rows_by_shape(scenarios: list[Scenario], cells) -> list[dict]:
    """One flat row per scenario, in input order, keyed by records.csv column.

    The scenarios are scored in one batch per panel shape: ``cells(batch, G, CI)`` takes the
    batch's scenarios and new arrays of their (S, k, n) GMM vectors and (S, k) CIs, and
    returns each further column's S values.
    """
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(scenarios):
        groups.setdefault(s.panel.stack.shape, []).append(i)
    rows: list[dict] = [{}] * len(scenarios)
    for idx in groups.values():
        batch = [scenarios[i] for i in idx]
        columns = cells(batch, np.stack([s.gmm for s in batch]), np.stack([s.cis for s in batch]))
        for j, (i, s) in enumerate(zip(idx, batch)):
            rows[i] = {"scenario_id": s.scenario_id, "mean_ci": s.mean_ci,
                       **{c: v[j] for c, v in columns.items()}}
    return rows


def experiment1(
    scenarios: list[Scenario],
    config: RobustConfig = RobustConfig(),
    max_bribes: int | None = None,
    saturation: float = SATURATION,
) -> list[dict]:
    """Attack every scenario, then score how well each scheme recovers.

    Per panel shape: one stacked attack on a copy of the matrices, which derives the GMM
    vectors of bribed matrices only, one CI power iteration of those, and one robust scoring
    of all methods.  One flat row per scenario, in input order, keyed by records.csv column.
    """
    def cells(batch, G, CI):
        A = np.stack([s.panel.stack for s in batch])
        queue, used, ok, _, honest = _attack_stack(A, G, max_bribes, saturation)
        p, b = np.nonzero(np.arange(queue.shape[1]) < used[:, None])
        bribed = p, queue[p, b]
        CI[bribed] = _stack_cis(A[bribed], G[bribed])
        restored = dict(zip(METHODS, _robust_aggregate_stack(G, CI, config)))
        return {"bribes_used": used.tolist(), "attack_succeeded": ok.astype(int).tolist(),
                **{_column("class", m): _classify(honest, r) for m, r in restored.items()},
                **{_column("manhattan", m): manhattan_mean(honest, r).tolist()
                   for m, r in restored.items()}}
    return _rows_by_shape(scenarios, cells)


def experiment2(
    scenarios: list[Scenario],
    config: RobustConfig = RobustConfig(),
) -> list[dict]:
    """Compare honest aggregation against the robust schemes, no attack.

    Per panel shape: one robust scoring of all methods against the equal-weight aggregate,
    from the scenarios' GMM vectors and CIs.  One flat row per scenario, in input order, keyed
    by records.csv column.
    """
    def cells(batch, G, CI):
        honest = _wgm_stack(None, G)
        restored = dict(zip(METHODS, _robust_aggregate_stack(G, CI, config)))
        return {**{_column("manhattan", m): manhattan_mean(honest, r).tolist()
                   for m, r in restored.items()},
                **{_column("kendall", m): kendall_tau_distance(honest, r).tolist()
                   for m, r in restored.items()}}
    return _rows_by_shape(scenarios, cells)


def _mean(values: np.ndarray) -> float:
    # nan for no values, without numpy's empty-slice warning
    return float(np.mean(values)) if values.size else float("nan")


def _columns(records) -> tuple[bool, dict[str, np.ndarray]]:
    """Whether the records are attacked, and each records.csv column of the scored records as
    one array (of experiment 1 the successful attacks only)."""
    records = list(records)
    if not records:
        raise EmptyReportError("no records to summarize")
    columns = {key: np.array([r[key] for r in records]) for key in records[0]}
    scored = columns.get("attack_succeeded", np.ones(len(records))).astype(bool)
    return "attack_succeeded" in columns, {key: c[scored] for key, c in columns.items()}


def _scores(columns, mask, method: str, attacked: bool) -> dict[str, float]:
    """WR/RR rates (attacked only) and mean Manhattan distance under ``mask``; nan for none."""
    stats = {}
    if attacked:
        cls = columns[_column("class", method)][mask]
        stats["wr_rate"] = _mean((cls == "WR") | (cls == "RR"))
        stats["rr_rate"] = _mean(cls == "RR")
    stats["mean_manhattan"] = _mean(columns[_column("manhattan", method)][mask])
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
    attacked, columns = _columns(records)
    ci = columns["mean_ci"]
    # label each bucket by its upper edge
    buckets = np.round((np.floor(ci / CI_BUCKET_WIDTH) + 1) * CI_BUCKET_WIDTH, 10)
    rows = []
    for b in set(buckets.tolist()):
        mask = buckets == b
        count = int(mask.sum())
        rows += [(b, method, metric, value, count) for method in METHODS
                 for metric, value in _scores(columns, mask, method, attacked).items()]
    low = ci <= CI_THRESHOLD
    if low.any() and not attacked:
        for method in METHODS:
            kd = columns[_column("kendall", method)][low]
            for d in range(int(kd.max()) + 1):
                rows.append((CI_THRESHOLD, method, f"kendall_{d}_freq", _mean(kd == d), kd.size))
    rows.sort(key=lambda r: (r[2], r[1], r[0]))
    return rows


def headline_stats(records) -> dict[str, dict[str, float]]:
    """Threshold statistics quoted in reports: rates and means at CI <= 0.1.

    A statistic over the scenarios at or below the threshold is nan when
    there are none.
    """
    attacked, columns = _columns(records)
    low = columns["mean_ci"] <= CI_THRESHOLD
    if attacked:
        return {m: _scores(columns, low, m, True) for m in METHODS}
    return {m: {"corpus_mean_manhattan": _mean(columns[_column("manhattan", m)]),
                "kendall_zero_freq": _mean(columns[_column("kendall", m)][low] == 0)}
            for m in METHODS}
