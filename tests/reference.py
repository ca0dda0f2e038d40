"""The paper's formulas written out one expert and one matrix at a time, for checking the package.

This module imports only numpy and shares no code with ``groupahp``, whose kernels work on
whole stacks of matrices at once.  Where a result is discrete (a ranking, a bribe queue, the
success test, a weighting's equal-weight test or middle anchor, a Kendall distance), the function
also returns its smallest deciding margin, so that a caller can skip a case that rounding could
decide either way.
"""

from __future__ import annotations

import numpy as np


def gmm(A: np.ndarray) -> np.ndarray:
    """Geometric mean method: the normalised n-th roots of the row products of one matrix."""
    n = len(A)
    roots = np.array([np.prod(row) ** (1.0 / n) for row in A])
    return roots / roots.sum()


def saaty_ci(A: np.ndarray) -> float:
    """Saaty's consistency index (lambda_max - n) / (n - 1), clamped at 0, where lambda_max
    is the largest real part of the matrix's eigenvalues."""
    n = len(A)
    lam = np.linalg.eig(A)[0].real.max()
    return max((lam - n) / (n - 1), 0.0)


def aip(vectors: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Aggregation of individual priorities: the normalised product of v_q ** r_q over the
    experts q, with equal weights r_q = 1 / k when none are given."""
    k, n = vectors.shape
    r = np.full(k, 1.0 / k) if weights is None else weights
    product = np.ones(n)
    for q in range(k):
        product = product * vectors[q] ** r[q]
    return product / product.sum()


def _first_argmax(w: np.ndarray) -> int:
    best = 0
    for i in range(1, len(w)):
        if w[i] > w[best]:
            best = i
    return best


def bribe(A: np.ndarray, promoted: int, demoted: int, saturation: float) -> np.ndarray:
    """A doctored copy of one matrix: the demoted alternative's row becomes 1 / s and its
    column s, then the promoted alternative's row s and its column 1 / s, diagonal 1."""
    B = A.copy()
    for alt, row, col in ((demoted, 1.0 / saturation, saturation),
                          (promoted, saturation, 1.0 / saturation)):
        for j in range(len(B)):
            B[alt, j] = row
            B[j, alt] = col
        B[alt, alt] = 1.0
    return B


def attack(stack: np.ndarray, max_bribes: int | None = None, saturation: float = 9.0) -> dict:
    """The bribery attack on one panel, a (k, n, n) array, expert by expert.

    The honest winner and runner-up are the first two alternatives of the equal-weight AIP,
    ties to the lower index.  Experts are queued by descending GMM support for the winner,
    ties to the lower index, and bribed one at a time, up to ``max_bribes`` (all k when None),
    until the runner-up is the first argmax of the aggregate.

    Returns the bribed indices, the success flag, the bribed stack, the manipulated and honest
    aggregates, and ``margin``: the smallest gap that decided a discrete step (winner against
    runner-up, runner-up against the third, adjacent supports of different matrices up to the
    last bribe, and the runner-up against its closest rival after each bribe).
    """
    k, n = len(stack), len(stack[0])
    matrices = [A.copy() for A in stack]
    G = [gmm(A) for A in matrices]
    honest = aip(np.array(G))
    order = sorted(range(n), key=lambda i: (-honest[i], i))
    winner, runner_up = order[0], order[1]
    margins = [honest[order[i]] - honest[order[i + 1]] for i in range(min(2, n - 1))]
    support = [G[q][winner] for q in range(k)]
    queue = sorted(range(k), key=lambda q: (-support[q], q))
    budget = k if max_bribes is None else max(max_bribes, 0)
    bribed, succeeded, ranking = [], False, honest
    for q in queue[:budget]:
        matrices[q] = bribe(matrices[q], runner_up, winner, saturation)
        G[q] = gmm(matrices[q])
        bribed.append(q)
        ranking = aip(np.array(G))
        rival = max(ranking[i] for i in range(n) if i != runner_up)
        margins.append(abs(ranking[runner_up] - rival))
        if _first_argmax(ranking) == runner_up:
            succeeded = True
            break
    # experts with equal matrices tie exactly in any implementation: the lower index goes first
    margins += [support[a] - support[b] for a, b in zip(queue, queue[1:len(bribed) + 1])
                if not np.array_equal(stack[a], stack[b])]
    return {
        "bribed": tuple(bribed),
        "succeeded": succeeded,
        "stack": np.array(matrices),
        "manipulated": ranking,
        "honest": honest,
        "margin": min(margins),
    }


UNIFORM_SPAN = 1e-12  # anchors closer than this give every expert the same weight


def _line(x: float, x0: float, y0: float, x1: float, y1: float) -> float:
    """The straight line through (x0, y0) and (x1, y1), at x."""
    slope = (y1 - y0) / (x1 - x0)
    return y0 + slope * (x - x0)


def _normalised(f: list) -> np.ndarray:
    total = sum(f)
    return np.array([x / total for x in f])


def _span_margin(lo: float, hi: float) -> float:
    """How far the span hi - lo is from the equal-weight threshold; equal values (one expert,
    or experts with equal matrices) are equal in any implementation, so decide nothing."""
    return abs(hi - lo - UNIFORM_SPAN) if hi > lo else np.inf


def distance(u: np.ndarray, v: np.ndarray, metric: str) -> float:
    """The sum ("manhattan"), the root of the sum of squares ("euclidean") or the largest
    ("chebyshev") of the componentwise gaps |u_i - v_i|."""
    gaps = [abs(a - b) for a, b in zip(u, v)]
    if metric == "manhattan":
        return sum(gaps)
    if metric == "euclidean":
        return sum(g * g for g in gaps) ** 0.5
    return max(gaps)


def apdd_weights(G: np.ndarray, h: float, l: float, metric: str) -> tuple[np.ndarray, float]:
    """APDD: each expert's distance d_q from the equal-weight AIP of the GMM vectors G (k, n),
    mapped by the line from (d_min, h) to (d_max, l) and normalised; equal weights when
    d_max - d_min < 1e-12.  Also returns that test's margin."""
    group = aip(G)
    d = [distance(group, g, metric) for g in G]
    lo, hi = min(d), max(d)
    margin = _span_margin(lo, hi)
    if hi - lo < UNIFORM_SPAN:
        return np.full(len(d), 1.0 / len(d)), margin
    return _normalised([_line(x, lo, h, hi, l) for x in d]), margin


def aid_weights(cis, h: float, m: float, l: float) -> tuple[np.ndarray, float]:
    """AID: each expert's CI deviation d_q = CI_q - mean CI, mapped through the anchors and
    normalised.  The smallest deviation gets h and the largest l.  The middle anchor is the
    deviation strictly between them that is nearest zero, the lower of an exact |d| tie, and
    gets m; each side of it is a line.  With no deviation strictly between, the map is the line
    from (d_min, h) to (d_max, l).  Equal weights when d_max - d_min < 1e-12.

    Also returns the smallest margin of those choices: the equal-weight test's, and the gap
    between the nearest-zero |d| and the next one."""
    mean = sum(cis) / len(cis)
    d = [c - mean for c in cis]
    lo, hi = min(d), max(d)
    margins = [_span_margin(lo, hi)]
    if hi - lo < UNIFORM_SPAN:
        return np.full(len(d), 1.0 / len(d)), margins[0]
    inner = sorted({x for x in d if lo < x < hi}, key=lambda x: (abs(x), x))
    if not inner:
        return _normalised([_line(x, lo, h, hi, l) for x in d]), margins[0]
    mid = inner[0]
    margins += [abs(inner[1]) - abs(mid)] if len(inner) > 1 else []
    f = [_line(x, lo, h, mid, m) if x <= mid else _line(x, mid, m, hi, l) for x in d]
    return _normalised(f), min(margins)


def robust_weights(G: np.ndarray, cis, config) -> tuple[dict[str, np.ndarray], float]:
    """The APDD, AID and MX weights of one panel, from its GMM vectors G (k, n) and its CIs,
    with the smallest margin of their choices.  ``config`` gives the anchors scale2 (h, l) and
    scale3 (h, m, l), the metric, and beta, MX's share of APDD: MX = beta APDD + (1 - beta) AID."""
    s2, s3, beta = config.scale2, config.scale3, config.beta
    apdd, apdd_margin = apdd_weights(G, s2.h, s2.l, config.metric)
    aid, aid_margin = aid_weights(cis, s3.h, s3.m, s3.l)
    mx = np.array([beta * a + (1.0 - beta) * b for a, b in zip(apdd, aid)])
    return {"APDD": apdd, "AID": aid, "MX": mx}, min(apdd_margin, aid_margin)


def kendall(u: np.ndarray, v: np.ndarray) -> tuple[int, float]:
    """The number of index pairs i < j whose order differs between u and v (a tie is an order
    of its own), and the smallest gap between two entries of either vector."""
    pairs = [(i, j) for i in range(len(u)) for j in range(i + 1, len(u))]
    count = sum(np.sign(u[i] - u[j]) != np.sign(v[i] - v[j]) for i, j in pairs)
    margin = min(abs(w[i] - w[j]) for w in (u, v) for i, j in pairs)
    return int(count), margin


def experiment2_row(scenario_id: int, stack: np.ndarray, cis, config) -> tuple[dict, float]:
    """Experiment 2's row for one panel, a (k, n, n) array with CIs ``cis``: its mean CI, and for
    each method the mean absolute gap (the Manhattan distance over n) and the Kendall distance
    between the equal-weight AIP and the AIP with the method's weights.  Also returns the
    smallest margin that decided the weights or a Kendall distance."""
    G = np.array([gmm(A) for A in stack])
    honest = aip(G)
    weights, margin = robust_weights(G, cis, config)
    restored = {method: aip(G, w) for method, w in weights.items()}
    row = {"scenario_id": scenario_id, "mean_ci": sum(cis) / len(cis)}
    for method, r in restored.items():
        row[f"manhattan_{method.lower()}"] = distance(honest, r, "manhattan") / len(r)
    for method, r in restored.items():
        row[f"kendall_{method.lower()}"], gap = kendall(honest, r)
        margin = min(margin, gap)
    return row, margin


def classify(honest: np.ndarray, restored: np.ndarray) -> tuple[str, float]:
    """"RR" when the two rankings agree, "WR" when their winner and runner-up do, else
    "FAILURE"; each ranking orders the alternatives by descending value, ties to the lower index.
    Also returns the smallest gap between two entries of either vector."""
    rankings = [sorted(range(len(w)), key=lambda i: (-w[i], i)) for w in (honest, restored)]
    if rankings[0] == rankings[1]:
        label = "RR"
    else:
        label = "WR" if rankings[0][:2] == rankings[1][:2] else "FAILURE"
    return label, kendall(honest, restored)[1]


def experiment1_row(scenario_id: int, stack: np.ndarray, cis, config, max_bribes,
                    saturation: float, ci) -> tuple[dict, float]:
    """Experiment 1's row for one panel, a (k, n, n) array with CIs ``cis``: attack it, give each
    bribed expert the CI ``ci(matrix)`` of its bribed matrix, and compare the honest aggregate with
    the AIP of the bribed panel under each method's weights, by class and by mean absolute gap.
    Also returns the smallest margin that decided the attack, the weights or a class."""
    result = attack(stack, max_bribes, saturation)
    G = np.array([gmm(A) for A in result["stack"]])
    cis_after = list(cis)
    for q in result["bribed"]:
        cis_after[q] = ci(result["stack"][q])
    weights, margin = robust_weights(G, cis_after, config)
    margin = min(margin, result["margin"])
    honest = result["honest"]
    restored = {method: aip(G, w) for method, w in weights.items()}
    row = {"scenario_id": scenario_id, "mean_ci": sum(cis) / len(cis),
           "bribes_used": len(result["bribed"]), "attack_succeeded": int(result["succeeded"])}
    for method, r in restored.items():
        row[f"class_{method.lower()}"], gap = classify(honest, r)
        margin = min(margin, gap)
    for method, r in restored.items():
        row[f"manhattan_{method.lower()}"] = distance(honest, r, "manhattan") / len(r)
    return row, margin
