"""Cross-check the tracer's call counts against cProfile and against themselves.

    python3 perfbench/crosscheck.py [--workload NAME ...] [--seed 20230]

For each workload it runs one pass under cProfile with no tracer installed,
then two traced passes.  Every span's call count must equal cProfile's
count for the wrapped function and be the same in both traced passes.  On
study_honest each scenario must also show exactly 120 GMM derivations and
40 Saaty CIs (AID and MX), and generation 20 more CIs per scenario.

cProfile sees only the parent process, so study_honest_pool's traced counts
are compared with study_honest's instead, when both are checked.
Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import shutil
import sys

from run import OUT, prepare


def traced_counts(workload, name, seed, directory, modules):
    from tracer import Tracer

    tracer = Tracer(directory / "spool")
    tracer.install(modules)
    try:
        p = workload(name, seed, directory / "pass")
    finally:
        tracer.uninstall()
    tracer.collect_workers()
    return p, tracer, {k: v["calls"] for k, v in tracer.summary().items()}


def main(argv=None) -> int:
    error = prepare()
    if error:
        print("error:", error, file=sys.stderr)
        return 2
    import check
    import workloads
    from tracer import PROBE, Tracer, package_modules

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=check.REFERENCE_SEED)
    args = parser.parse_args(argv)

    modules = package_modules()
    probe = Tracer(OUT / "spool")
    probe.install(modules)  # only to learn which function each span name wraps
    probe.uninstall()
    keys = {
        name: [(f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name) for f in fns]
        for name, fns in probe.wrapped.items()
    }

    report, ok, traced = {}, True, {}
    for name in args.workload:
        workload = workloads.WORKLOADS[name]
        directory = OUT / f"crosscheck-{name}"
        shutil.rmtree(directory, ignore_errors=True)
        rows, problems = {}, []
        counts = []
        for i in range(2):
            (directory / f"t{i}" / "pass").mkdir(parents=True)
            p, tracer, c = traced_counts(workload, name, args.seed, directory / f"t{i}", modules)
            counts.append(c)
            if check.check_pass(p, check.load_reference(name, args.seed)).failed:
                problems.append(f"traced pass {i} failed the output check")
        traced[name] = counts[0]
        if counts[0] != counts[1]:
            problems.append("the two traced passes disagree")
        if name in workloads.REFERENCE_OF:
            other = traced.get(workloads.REFERENCE_OF[name])
            if other is not None and other != counts[0]:
                problems.append(f"counts differ from {workloads.REFERENCE_OF[name]}")
            rows = {k: {"traced": v, "traced_again": counts[1].get(k)} for k, v in counts[0].items()}
        else:
            (directory / "profiled").mkdir(parents=True)
            prof = cProfile.Profile()
            prof.enable()
            workload(name, args.seed, directory / "profiled")
            prof.disable()
            stats = pstats.Stats(prof).stats
            for span, c in sorted(counts[0].items()):
                if span == PROBE:
                    continue
                profiled = sum(stats.get(k, (0, 0))[1] for k in keys[span])
                rows[span] = {"traced": c, "traced_again": counts[1].get(span), "cprofile": profiled}
                if profiled != c:
                    problems.append(f"{span}: traced {c}, cProfile {profiled}")
        if name == "study_honest":
            per = tracer.scenario_counts(["derive.gmm_priorities", "inconsistency.saaty_ci"])
            shapes = {(d["derive.gmm_priorities"], d["inconsistency.saaty_ci"]) for d in per}
            total_ci = counts[0]["inconsistency.saaty_ci"]
            if shapes != {(120, 40)} or len(per) != p.scenarios or total_ci != 60 * p.scenarios:
                problems.append(f"per-scenario (GMM, CI) counts {shapes}, {total_ci} CIs in all")
            rows["per_scenario"] = {"gmm_and_ci": sorted(shapes), "scenarios": len(per)}
        shutil.rmtree(directory)
        report[name] = {"rows": rows, "problems": problems}
        ok &= not problems
        print(f"{name}: {len(rows)} spans compared, {'OK' if not problems else 'MISMATCH'}")
        for problem in problems:
            print("  ", problem)
    (OUT / f"crosscheck-seed{args.seed}.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
