"""Benchmark of the groupahp CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload study_attack [--seed 20230] [--seconds 24] [--trace 0|1]

With ``--trace 0`` it times passes of the workload until ``--seconds`` would
be exceeded and reports the end-to-end metrics of BENCHMARK.json, their
times scaled to a reference speed of the machine measured meanwhile
(speed.py).  With ``--trace 1`` it runs one untimed pass and one traced
pass and reports the per-layer metrics.  Every pass's outputs are checked.  The last line of
stdout is one JSON object with keys correct, attempted, failed and metrics.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import KERNEL_REF_S, SpeedProbe, mean_kernel_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# One BLAS/OpenMP thread per process: pool workers must not oversubscribe the cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_RUNS = 11
SETUP_KERNELS = 40  # speed samples per interpreter, 10 ms at the faster speed
# Each fresh interpreter prints the time it was ready, then how long the
# speed kernel took right after, so that its set-up time can be scaled too.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import groupahp.cli; "
    "groupahp.cli.build_parser(); ready = time.perf_counter(); "
    "sys.path.insert(0, sys.argv[2]); import speed; "
    "print(ready, *speed.sample_kernel(sys.argv[3]))"
)


def prepare() -> str | None:
    """Pin BLAS threads to 1 and import groupahp from this checkout's src/.

    Returns an error message when the sources are not there.
    """
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    if not (SRC / "groupahp" / "cli.py").is_file():
        return f"no groupahp sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import groupahp

    if Path(groupahp.__file__).resolve().parent != SRC / "groupahp":
        return f"imported groupahp from {groupahp.__file__}, not from {SRC}"
    return None


def measure_setup(runs: int = SETUP_RUNS) -> tuple[float, float]:
    """Median time from starting a fresh interpreter until the CLI is ready.

    Returns it scaled to the reference speed (see speed.py), then as
    wall-clock time.
    """
    scaled, wall = [], []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), str(SETUP_KERNELS)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        ready, *kernel_times = map(float, done.stdout.split())
        wall.append(ready - start)
        scaled.append(wall[-1] * KERNEL_REF_S / mean_kernel_time(kernel_times, min(kernel_times)))
    return statistics.median(scaled), statistics.median(wall)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child (pool workers)."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "groupahp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def layer_metrics(names, tracer, overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metric values by name, and the names no span or counter fed."""
    summary = tracer.summary()
    unfed = []

    def calls(span):
        return summary.get(span, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if name == "trace.overhead_frac":
            out[name] = overhead
        elif name == "attack.success_ratio":
            out[name] = ratio(tracer.counters["attack.run_attack.succeeded"], calls("attack.run_attack"))
        elif name in tracer.counters:
            out[name] = tracer.counters[name]
        elif kind == "distinct_ratio":
            out[name] = ratio(len(tracer.digests[span]), calls(span))
        elif kind in ("calls", "s", "self_s"):
            if span not in summary:
                unfed.append(name)
            out[name] = summary.get(span, {}).get(kind, 0)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out, unfed


def layer_shares(tracer) -> dict[str, float]:
    """Share of traced self time per layer (module); the tracer's own hooks excluded."""
    per: dict[str, float] = {}
    for name, s in tracer.summary().items():
        layer = name.split(".")[0]
        if layer != "trace":
            per[layer] = per.get(layer, 0.0) + s["self_s"]
    total = sum(per.values()) or 1.0
    return {k: round(v / total, 4) for k, v in sorted(per.items(), key=lambda kv: -kv[1])}


def run(args, spec: dict, run_dir: Path) -> tuple[dict, dict]:
    import check
    import groupahp
    import workloads
    from tracer import Tracer, package_modules

    workload = workloads.WORKLOADS[args.workload]
    counter = iter(range(10**6))

    def fresh_dir() -> Path:
        d = run_dir / f"pass{next(counter)}"
        d.mkdir()
        return d

    workload(args.workload, args.seed, fresh_dir(), warmup=True)  # lazy imports, caches
    extra: dict = {}
    passes = []
    if args.trace:
        passes.append(workload(args.workload, args.seed, fresh_dir()))
        tracer = Tracer(run_dir / "spool")
        tracer.install(package_modules())
        try:
            passes.append(workload(args.workload, args.seed, fresh_dir()))
        finally:
            tracer.uninstall()
        tracer.collect_workers()
        overhead = passes[1].seconds / passes[0].seconds - 1.0
        names = [m["name"] for m in spec["per_layer"]]
        values, unfed = layer_metrics(names, tracer, overhead)
        if unfed:
            print("warning: no spans for", ", ".join(unfed), file=sys.stderr)
        extra["layer_self_share"] = layer_shares(tracer)
        extra["spans"] = len(tracer.name)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        probe = SpeedProbe()
        start = time.perf_counter()
        with probe:
            while True:
                begun = time.perf_counter()
                passes.append(workload(args.workload, args.seed, fresh_dir()))
                now = time.perf_counter()
                if now - start + (now - begun) > args.seconds:
                    break
        values = {"peak_rss_mb": peak_rss_mb()}  # before any other child process runs
        values["setup_s"], raw_setup = measure_setup()
        values["scenarios_per_s"] = statistics.median(
            p.scenarios / probe.scaled(p.start, p.start + p.seconds) for p in passes
        )
        spans = [(c.start, c.start + c.seconds) for p in passes for c in p.samples]
        latency = [probe.scaled(a, b) * 1e3 for a, b in spans]
        values["cmd_ms_p50"] = percentile(latency, 50)
        values["cmd_ms_p95"] = percentile(latency, 95)
        raw_latency = [(b - a) * 1e3 for a, b in spans]
        extra["latency_samples"] = len(latency)
        extra["speed_samples"] = len(probe.durations)
        extra["speed_factor_median"] = probe.factor()
        extra["wall_clock"] = {
            "setup_s": raw_setup,
            "scenarios_per_s": statistics.median(p.scenarios / p.seconds for p in passes),
            "cmd_ms_p50": percentile(raw_latency, 50),
            "cmd_ms_p95": percentile(raw_latency, 95),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    reference = check.load_reference(args.workload, args.seed)
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        verdict = check.check_pass(p, reference)
        attempted += verdict.attempted
        failed += verdict.failed
        problems += verdict.problems
    if not args.trace:
        values["ok_frac"] = 1.0 - failed / attempted
    extra.update(
        passes=[round(p.seconds, 4) for p in passes],
        reference_check=reference is not None,
        problems=problems[:50],
        groupahp=str(Path(groupahp.__file__).parent),
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20230)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = prepare()
    if error:
        print("error:", error, file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        result, extra = run(args, spec, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, **extra, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("env:", json.dumps(env))
    if "layer_self_share" in extra:
        print("layer self-time share:", json.dumps(extra["layer_self_share"]))
    for problem in extra["problems"][:10]:
        print("check:", problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
