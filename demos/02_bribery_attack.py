"""Show how cheaply a group ranking can be bought, and how to defend it.

Four experts rank five alternatives; a2 wins honestly.  A briber who wants
a5 to win buys experts in descending order of their support for a2 and
replaces their matrices with saturated ones (a5 at 9 against everything,
a2 at 1/9).  One bribe is enough here.  The robust weighting schemes then
recover the honest winner from the manipulated panel.

Run:  python3 demos/02_bribery_attack.py
"""

import numpy as np

from groupahp import bundled_panel, robust_aggregate, run_attack, saaty_ci

np.set_printoptions(precision=4, suppress=True)

panel, ids = bundled_panel("bribery_demo_panel")
outcome = run_attack(panel)
honest = outcome.honest_ranking
print(f"Honest group ranking: {honest.weights}  -> winner a{honest.ranking()[0] + 1}")

manip = outcome.manipulated_ranking
print(f"\nBribed experts: {[ids[q] for q in outcome.bribed_indices]}")
print(f"Manipulated ranking: {manip.weights}  -> winner a{manip.ranking()[0] + 1}")

print("\nThe doctored matrix is easy to spot by its inconsistency:")
for eid, m in zip(ids, outcome.manipulated_panel.matrices):
    tag = "  <- bribed" if ids.index(eid) in outcome.bribed_indices else ""
    print(f"  {eid}: CI={saaty_ci(m):.4f}{tag}")

print("\nRe-aggregating the manipulated panel with robust expert weights:")
for method in ("APDD", "AID", "MX"):
    w = robust_aggregate(outcome.manipulated_panel, method)
    print(f"  {method}: {w.weights}  -> winner a{w.ranking()[0] + 1}")
