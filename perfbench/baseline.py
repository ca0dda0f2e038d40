"""Measure the baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py [--runs 10] [--workload NAME ...] [--write]

Each run is ``run.py --trace 0`` in its own process, with seeds 1..runs.
For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound.  Then one ``--trace 1`` run
at the reference seed gives the per-layer values and the layer self-time
shares.  With ``--write`` the figures go to baseline.json in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("env: "))[5:])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(lines[-1]), env, record.get("wall_clock", {})


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload:
        results, walls = [], []
        for seed in range(1, args.runs + 1):
            result, env, wall = run_once(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for name, bound in bounds.items():
            metrics[name] = {**quartiles([r["metrics"][name]["value"] for r in results]), "bound": bound}
            m = metrics[name]
            flag = "ok" if m["spread"] < bound / 3 else ("WIDE" if m["spread"] <= bound else "OVER BOUND")
            print(f"  {name:16s} median {m['median']:12.5g}  q1 {m['q1']:12.5g}  q3 {m['q3']:12.5g}  "
                  f"spread {m['spread']:7.4f}  bound {bound}  {flag}", flush=True)
        wall_clock = {name: quartiles([w[name] for w in walls]) for name in walls[0]}
        print("  wall-clock spreads: "
              + ", ".join(f"{k} {v['spread']:.4f}" for k, v in wall_clock.items()), flush=True)
        traced, _, _ = run_once(workload, 20230, spec["run_seconds"], 1)
        shares = json.loads((HERE / "out" / f"{workload}-seed20230-trace1.json").read_text())["layer_self_share"]
        print(f"  layer self-time share: {shares}", flush=True)
        baseline["workloads"][workload] = {
            "seeds": list(range(1, args.runs + 1)),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
            "wall_clock": wall_clock,
            "traced_seed20230": {
                "correct": traced["correct"],
                "layer_self_share": shares,
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
        baseline["env"] = env
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
