"""The benchmark's workloads, each driven through ``groupahp.cli.main`` in-process.

A pass is one complete run of a workload's CLI commands.  Inputs are made
from the seed before the timed part starts; the program's stdout and stderr
are captured, never printed.
"""

from __future__ import annotations

import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from groupahp import cli

# A study pass is one `experiment` command on 32 ground-truth vectors x 4
# alpha levels spanning the study's range [1.1, 5.0] = 128 scenarios, with
# the n mix of the full 4,000-scenario study.  A run repeats the pass and
# reports medians: on a shared 2-core machine, speed drifts by 20-30% over
# tens of seconds, and the median of many short passes rides that out where
# the mean of two 400-scenario passes did not (spread 0.07 against 0.21 over
# the same eight seeds).  Many vectors with few alpha levels keep the work
# per seed steady: the attack's bribes vary most with the vectors.  128 is
# four of montecarlo's 32-scenario chunks, so two pool workers get equal
# shares.
STUDY_CONFIG = {
    "counts": {"5": 11, "6": 11, "7": 10},
    "alpha_start": 1.1, "alpha_stop": 5.0, "alpha_step": 1.3,
}
STUDY_SCENARIOS = 128
# 12 vectors x 10 alpha levels over the same range = 120 panel files.
PANEL_CONFIG = {
    "counts": {"5": 4, "6": 4, "7": 4},
    "alpha_start": 1.1, "alpha_stop": 5.0, "alpha_step": (5.0 - 1.1) / 9,
}
PANEL_SCENARIOS = 120
PANEL_SIZE = 20  # experts per panel, the CLI default
# Three scenarios: enough to run every code path once before timing.
WARMUP_CONFIG = {"counts": {"5": 1}, "alpha_stop": 1.3}


@dataclass
class Command:
    argv: list[str]
    code: int | None  # None when cli.main raised instead of returning
    stdout: str
    stderr: str
    seconds: float
    start: float = 0.0  # perf_counter() when the command began


@dataclass
class Pass:
    workload: str
    seed: int
    dir: Path
    start: float  # perf_counter() when the timed commands began
    seconds: float  # wall time of the timed commands
    scenarios: int
    commands: list[Command]  # timed commands, in order
    samples: list[Command]  # the commands whose latency is sampled
    probes: list[Command] = field(default_factory=list)  # untimed boundary probes


def run_cli(argv: list[str]) -> Command:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a crashed benchmark
        code = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    return Command(argv, code, out.getvalue(), err.getvalue(), seconds, start)


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config))
    return str(path)


def study_pass(workload, seed, directory, which, workers, config=STUDY_CONFIG, scenarios=STUDY_SCENARIOS):
    cfg = _write_config(directory / "config.json", config)
    cmd = run_cli([
        "experiment", "--which", str(which), "--config", cfg,
        "--out", str(directory / "out"), "--seed", str(seed), "--workers", str(workers),
    ])
    return Pass(workload, seed, directory, cmd.start, cmd.seconds, scenarios, [cmd], [cmd])


def panel_pass(workload, seed, directory, config=PANEL_CONFIG, scenarios=PANEL_SCENARIOS):
    """gen writes the corpus; each file then goes through inspect, aggregate and attack."""
    cfg = _write_config(directory / "config.json", config)
    corpus, doctored = directory / "corpus", directory / "doctored"
    doctored.mkdir()
    start = perf_counter()
    commands = [run_cli(["gen", "--config", cfg, "--out", str(corpus), "--seed", str(seed)])]
    for f in sorted(corpus.glob("scenario_*.json")):
        commands.append(run_cli(["inspect", "--input", str(f)]))
        commands.append(run_cli(["aggregate", "--input", str(f), "--method", "MX"]))
        commands.append(run_cli(["attack", "--input", str(f), "--out", str(doctored / f.name)]))
    seconds = perf_counter() - start
    samples = commands[1:]  # gen prepares the corpus; not a sample
    return Pass(workload, seed, directory, start, seconds, scenarios, commands, samples,
                boundary_probes(directory, corpus))


def boundary_probes(directory: Path, corpus: Path) -> list[Command]:
    """Malformed copies of the first panel that the loader must reject.

    They keep a change that drops boundary validation from passing as a
    speed-up on ``panel_files``.
    """
    files = sorted(corpus.glob("scenario_*.json"))
    if not files:
        return []
    text = files[0].read_text()
    probes = []
    for kind in ("reciprocity", "shape", "entry", "json"):
        doc = json.loads(text)
        m = doc["experts"][0]["matrix"]
        if kind == "reciprocity":
            m[0][1] *= 1.5  # beyond the loader's 1e-2 repair tolerance
        elif kind == "shape":
            m.pop()
        elif kind == "entry":
            m[1][2] = -1.0
        path = directory / f"probe_{kind}.json"
        path.write_text(text[: len(text) // 2] if kind == "json" else json.dumps(doc))
        probes.append(run_cli(["aggregate", "--input", str(path), "--method", "MX"]))
    return probes


def _study(which, workers):
    def run(workload, seed, directory, warmup=False):
        if warmup:
            return study_pass(workload, seed, directory, which, workers, WARMUP_CONFIG, 3)
        return study_pass(workload, seed, directory, which, workers)
    return run


def _panels(workload, seed, directory, warmup=False):
    if warmup:
        return panel_pass(workload, seed, directory, WARMUP_CONFIG, 3)
    return panel_pass(workload, seed, directory)


# Why each workload exists is in README.md.
WORKLOADS = {
    "study_attack": _study(which=1, workers=1),
    "study_honest": _study(which=2, workers=1),
    "panel_files": _panels,
    "study_honest_pool": _study(which=2, workers=2),
}
# Workloads whose outputs must equal another workload's at the same seed.
REFERENCE_OF = {"study_honest_pool": "study_honest"}
