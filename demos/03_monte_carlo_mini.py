"""Miniature Monte Carlo study of attack cost and defense quality.

A scaled-down version of the batch experiments (a few hundred scenarios
instead of 4,000) so it finishes in seconds.  For each scenario a ground
truth priority vector is drawn, its consistent matrix is perturbed into a
panel of simulated experts, the panel is attacked, and each weighting
scheme tries to restore the honest ranking.

Run:  python3 demos/03_monte_carlo_mini.py
"""

import numpy as np

from groupahp import generate_corpus
from groupahp.montecarlo import METHODS, experiment1, experiment2, headline_stats

corpus = generate_corpus(
    seed=42,
    counts={5: 4, 6: 3, 7: 3},
    alphas=tuple(np.round(np.arange(1.2, 3.21, 0.4), 10)),
    panel_size=20,
    epsilon_distribution="log-uniform",
)
print(f"Generated {len(corpus)} scenarios "
      f"(panel size 20, disturbance 1.2-3.2)\n")

records = experiment1(corpus)
succ = [r for r in records if r["attack_succeeded"]]
bribes = np.array([r["bribes_used"] for r in succ])
print(f"Attack succeeded in {len(succ)}/{len(records)} scenarios; "
      f"median bribes {int(np.median(bribes))}, max {bribes.max()}")

print("\nRecovery from the attack (low-inconsistency scenarios, CI <= 0.1):")
for method, stats in headline_stats(records).items():
    print(f"  {method}: winner restored {stats['wr_rate']:.0%}, "
          f"full order restored {stats['rr_rate']:.0%}, "
          f"mean distance to honest ranking {stats['mean_manhattan']:.4f}")

print("\nCost of the defense on honest, unmanipulated panels:")
for method, stats in headline_stats(experiment2(corpus)).items():
    print(f"  {method}: mean disturbance {stats['corpus_mean_manhattan']:.4f}, "
          f"ranking unchanged in {stats['kendall_zero_freq']:.0%} of "
          "low-inconsistency panels")
