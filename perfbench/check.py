"""Output checks: every scenario or command that fails one counts as failed.

At the reference seed the outputs are compared with those recorded from the
commit that defined the benchmark (``reference/seed20230.json.gz``).  Labels,
classifications, bribe counts and Kendall distances must match exactly.
The CLI prints floats with ``%.6g``, so a printed float may differ by one
unit in its sixth significant digit: a 1e-14 change can flip that digit at a
rounding boundary, and nothing tighter can be told from a rounded print.
Full-precision values (the panel JSON files) must match to a relative 1e-9,
through a per-matrix fingerprint.

At any other seed only invariants that any correct program meets are
checked: exit code 0, one record per scenario, bribes_used <= k, classes in
{RR, WR, FAILURE}, rates in [0, 1], and the structure of every output.
"""

from __future__ import annotations

import ast
import csv
import gzip
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import PANEL_SIZE, REFERENCE_OF, Pass

REFERENCE_SEED = 20230
REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / f"seed{REFERENCE_SEED}.json.gz"
ABS_TOL = 1e-12  # printed values are O(1e-3..1); below this a difference is rounding noise
FULL_RTOL = 1e-9
SUM_TOL = 1e-4  # a vector printed with %.6g sums to 1 within this
CLASSES = {"RR", "WR", "FAILURE"}
METHODS = ("apdd", "aid", "mx")
HEADLINE_KEYS = {
    1: {"wr_rate", "rr_rate", "mean_manhattan"},
    2: {"corpus_mean_manhattan", "kendall_zero_freq"},
}
RATE_KEYS = {"wr_rate", "rr_rate", "kendall_zero_freq"}
RECORD_HEADER = {
    1: ["scenario_id", "mean_ci", "bribes_used", "attack_succeeded"]
    + [f"class_{m}" for m in METHODS]
    + [f"manhattan_{m}" for m in METHODS],
    2: ["scenario_id", "mean_ci"]
    + [f"manhattan_{m}" for m in METHODS]
    + [f"kendall_{m}" for m in METHODS],
}
SUMMARY_HEADER = ["bucket_ci", "method", "metric", "value", "count"]
NUM = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


# -- comparing printed output ------------------------------------------


def _is_int(token: str) -> bool:
    return not any(c in token for c in ".eE")


def same_number(a: str, b: str) -> bool:
    if a == b:
        return True
    if _is_int(a) and _is_int(b):
        return False
    x, y = float(a), float(b)
    scale = max(abs(x), abs(y))
    last_digit = 10.0 ** (math.floor(math.log10(scale)) - 5) if scale > 0 else 0.0
    return abs(x - y) <= max(ABS_TOL, last_digit * (1 + 1e-9))


def same_text(got: str, want: str) -> bool:
    """Equal text, except that numbers compare as described in the module doc."""
    if got == want:
        return True
    if NUM.sub("#", got) != NUM.sub("#", want):
        return False
    return all(same_number(a, b) for a, b in zip(NUM.findall(got), NUM.findall(want)))


def fingerprint(doc: dict) -> list[list[float]]:
    """Two position-weighted sums of log entries per expert matrix."""
    out = []
    for expert in doc["experts"]:
        logs = np.log(np.asarray(expert["matrix"], dtype=float))
        weights = np.arange(1, logs.size + 1).reshape(logs.shape)
        out.append([float(np.sum(logs * weights)), float(np.sum(logs * logs))])
    return out


def same_fingerprint(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=FULL_RTOL, atol=FULL_RTOL))


def _finite(token: str, low: float = -math.inf, high: float = math.inf) -> float:
    x = float(token)
    if not (math.isfinite(x) and low <= x <= high):
        raise ValueError(f"{token} outside [{low}, {high}]")
    return x


def _count(token: str, high: int) -> int:
    x = int(token)
    if not 0 <= x <= high:
        raise ValueError(f"{token} outside [0, {high}]")
    return x


# -- outputs as recorded in the reference ------------------------------


def outputs(p: Pass) -> dict:
    """The outputs of one pass, with the pass directory replaced by <dir>."""
    norm = lambda text: text.replace(str(p.dir), "<dir>")  # noqa: E731
    if p.workload != "panel_files":
        out = p.dir / "out"
        return {
            "records": (out / "records.csv").read_text(),
            "summary": (out / "summary.csv").read_text(),
            "stdout": norm(p.commands[0].stdout),
        }
    corpus, doctored = p.dir / "corpus", p.dir / "doctored"
    files = sorted(f.name for f in corpus.glob("scenario_*.json"))
    return {
        "index": (corpus / "index.csv").read_text(),
        "gen": {f: fingerprint(json.loads((corpus / f).read_text())) for f in files},
        "stdout": {
            f: [norm(c.stdout) for c in p.commands[1 + 3 * i: 4 + 3 * i]]
            for i, f in enumerate(files)
        },
        "doctored": {
            f: fingerprint(json.loads((doctored / f).read_text()))
            for f in files
            if (doctored / f).exists()
        },
    }


def load_reference(workload: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED:
        return None
    with gzip.open(REFERENCE_FILE, "rt") as fh:
        return json.load(fh)[REFERENCE_OF.get(workload, workload)]


def check_pass(p: Pass, reference: dict | None) -> Verdict:
    if p.workload == "panel_files":
        return check_panels(p, reference)
    return check_study(p, reference)


# -- study_* workloads: one operation per scenario ----------------------


def _record_problems(records: str, which: int, n: int, bad: set, problems: list) -> None:
    lines = records.splitlines()
    if not lines or lines[0].split(",") != RECORD_HEADER[which]:
        bad.update(range(n))
        problems.append("records.csv: wrong header")
        return
    seen = set()
    for row in csv.DictReader(lines):
        try:
            sid = _count(row["scenario_id"], n - 1)
            if sid in seen:
                raise ValueError("duplicate scenario")
            seen.add(sid)
            _finite(row["mean_ci"], 0.0)
            for m in METHODS:
                _finite(row[f"manhattan_{m}"], 0.0)
                if which == 1:
                    if row[f"class_{m}"] not in CLASSES:
                        raise ValueError(f"class {row[f'class_{m}']!r}")
                else:
                    _count(row[f"kendall_{m}"], 7 * 6 // 2)
            if which == 1:
                _count(row["bribes_used"], PANEL_SIZE)
                _count(row["attack_succeeded"], 1)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"records.csv row {row}: {exc}")
            try:
                bad.add(int(row["scenario_id"]))
            except (KeyError, TypeError, ValueError):
                pass
    missing = set(range(n)) - seen
    if missing:
        problems.append(f"records.csv: {len(missing)} scenarios missing")
        bad.update(missing)


def _summary_ok(summary: str, problems: list) -> bool:
    lines = summary.splitlines()
    if not lines or lines[0].split(",") != SUMMARY_HEADER or len(lines) < 2:
        problems.append("summary.csv: wrong header or empty")
        return False
    for row in csv.DictReader(lines):
        try:
            if row["method"].lower() not in METHODS:
                raise ValueError(f"method {row['method']!r}")
            rate = row["metric"] in RATE_KEYS or row["metric"].endswith("_freq")
            _finite(row["value"], 0.0, 1.0 if rate else math.inf)
            _finite(row["bucket_ci"], 0.0)
            if int(row["count"]) < 1:
                raise ValueError("count < 1")
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"summary.csv row {row}: {exc}")
            return False
    return True


def _headline_ok(stdout: str, which: int, problems: list) -> bool:
    found = set()
    for line in stdout.splitlines()[1:]:
        try:
            method, key, value = line.split()
            _finite(value, 0.0, 1.0 if key in RATE_KEYS else math.inf)
        except ValueError as exc:
            problems.append(f"headline {line!r}: {exc}")
            return False
        found.add((method, key))
    want = {(m, k) for m in METHODS for k in HEADLINE_KEYS[which]}
    if found != want:
        problems.append(f"headline lines: got {sorted(found)}")
        return False
    return True


def check_study(p: Pass, reference: dict | None) -> Verdict:
    n = p.scenarios
    cmd = p.commands[0]
    if cmd.code != 0:
        return Verdict(n, n, [f"experiment exited {cmd.code}: {cmd.stderr[-500:]}"])
    which = int(cmd.argv[cmd.argv.index("--which") + 1])
    try:
        got = outputs(p)
    except OSError as exc:
        return Verdict(n, n, [str(exc)])
    problems: list[str] = []
    bad: set[int] = set()
    _record_problems(got["records"], which, n, bad, problems)
    whole_ok = _summary_ok(got["summary"], problems) & _headline_ok(got["stdout"], which, problems)
    if reference is not None:
        got_rows = {row.split(",", 1)[0]: row for row in got["records"].splitlines()[1:]}
        for want in reference["records"].splitlines()[1:]:
            sid = want.split(",", 1)[0]
            if not same_text(got_rows.get(sid, ""), want):
                bad.add(int(sid))
                problems.append(f"records.csv scenario {sid} differs from the reference")
        for key in ("summary", "stdout"):
            a, b = got[key].splitlines(), reference[key].splitlines()
            if len(a) != len(b) or not all(same_text(x, y) for x, y in zip(a, b)):
                whole_ok = False
                problems.append(f"{key} differs from the reference")
    return Verdict(n, n if not whole_ok else len(bad & set(range(n))), problems)


# -- panel_files: one operation per CLI command -------------------------


def _lines(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def _vector(text: str, size: int, low: float = 0.0) -> np.ndarray:
    v = np.array([float(x) for x in text.strip("[]").split(",")])
    if v.size != size or not np.all(np.isfinite(v)) or np.any(v <= low) or abs(v.sum() - 1) > SUM_TOL:
        raise ValueError(f"not a weight vector of size {size}: {text}")
    return v


def _matrices(doc: dict) -> list[np.ndarray]:
    n = doc["n"]
    mats = [np.asarray(e["matrix"], dtype=float) for e in doc["experts"]]
    for m in mats:
        if m.shape != (n, n) or not np.all(np.isfinite(m)) or np.any(m <= 0):
            raise ValueError("matrix is not positive n x n")
        if np.max(np.abs(m * m.T - 1.0)) > 1e-9:
            raise ValueError("matrix is not reciprocal")
    return mats


def _inspect(cmd, doc, _) -> None:
    lines = cmd.stdout.splitlines()
    k, n = len(doc["experts"]), doc["n"]
    if lines[:1] != [f"panel: {k} experts, {n} alternatives"] or len(lines) != k + 1:
        raise ValueError("inspect: wrong panel line or line count")
    for line, expert in zip(lines[1:], doc["experts"]):
        m = re.fullmatch(rf"{re.escape(expert['id'])}: CI=(\S+) K=(\S+)", line)
        if m is None:
            raise ValueError(f"inspect: {line!r}")
        _finite(m[1], 0.0)
        _finite(m[2], 0.0, 1.0)


def _aggregate(cmd, doc, _) -> None:
    k, n = len(doc["experts"]), doc["n"]
    lines = _lines(cmd.stdout)
    _vector(lines["expert weights"], k)
    _vector(lines["final ranking (MX)"], n)
    for e in doc["experts"]:
        _vector(lines[f"priorities {e['id']}"], n)
        _finite(lines[f"CI {e['id']}"], 0.0)
    order = lines["order"].split(" > ")
    if sorted(order) != sorted(f"a{i + 1}" for i in range(n)) or lines["winner"].split()[0] != order[0]:
        raise ValueError("aggregate: order and winner do not agree")


def _attack(cmd, doc, doctored: Path) -> None:
    k, n = len(doc["experts"]), doc["n"]
    ids = [e["id"] for e in doc["experts"]]
    lines = _lines(cmd.stdout)
    _vector(lines["honest aggregate"], n)
    _vector(lines["manipulated ranking"], n)
    bribed = ast.literal_eval(lines["bribed"])
    if len(set(bribed)) != len(bribed) or not set(bribed) <= set(ids) or len(bribed) > k:
        raise ValueError(f"attack: bribed {bribed}")
    if lines["success"] not in ("True", "False"):
        raise ValueError("attack: no success line")
    out = json.loads(doctored.read_text())
    if out["n"] != n or [e["id"] for e in out["experts"]] != ids:
        raise ValueError("attack: doctored panel changed n or ids")
    for eid, before, after in zip(ids, _matrices(doc), _matrices(out)):
        if np.allclose(before, after, rtol=1e-12, atol=0.0) == (eid in bribed):
            raise ValueError(f"attack: expert {eid} changed iff bribed is violated")


def check_panels(p: Pass, reference: dict | None) -> Verdict:
    n_files = p.scenarios
    attempted = 3 * n_files + len(p.probes)
    problems: list[str] = []
    failed = 0
    for probe in p.probes:
        if probe.code not in (2, 3) or not probe.stderr.strip() or "Traceback" in probe.stderr:
            failed += 1
            problems.append(f"malformed panel {probe.argv[2]} gave exit {probe.code}")
    gen = p.commands[0]
    corpus, doctored = p.dir / "corpus", p.dir / "doctored"
    files = sorted(corpus.glob("scenario_*.json"))
    if gen.code != 0 or len(files) != n_files or len(p.commands) != 1 + 3 * n_files:
        problems.append(f"gen exited {gen.code} with {len(files)} files: {gen.stderr[-500:]}")
        return Verdict(attempted, failed + 3 * n_files, problems)
    got = outputs(p) if reference is not None else None
    if got is not None:
        a, b = got["index"].splitlines(), reference["index"].splitlines()
        if len(a) != len(b) or not all(same_text(x, y) for x, y in zip(a, b)):
            problems.append("index.csv differs from the reference")
            return Verdict(attempted, failed + 3 * n_files, problems)
    for i, f in enumerate(files):
        cmds = p.commands[1 + 3 * i: 4 + 3 * i]
        try:
            doc = json.loads(f.read_text())
            if len(doc["experts"]) != PANEL_SIZE:
                raise ValueError("wrong panel size")
            _matrices(doc)
            if got is not None and not same_fingerprint(got["gen"][f.name], reference["gen"][f.name]):
                raise ValueError("differs from the reference")
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"gen {f.name}: {exc}")
            failed += 3
            continue
        for j, (cmd, check) in enumerate(zip(cmds, (_inspect, _aggregate, _attack))):
            try:
                if cmd.code != 0:
                    raise ValueError(f"exited {cmd.code}: {cmd.stderr[-300:]}")
                check(cmd, doc, doctored / f.name)
                if got is not None:
                    if not same_text(got["stdout"][f.name][j], reference["stdout"][f.name][j]):
                        raise ValueError("stdout differs from the reference")
                    if check is _attack and not same_fingerprint(
                        got["doctored"][f.name], reference["doctored"][f.name]
                    ):
                        raise ValueError("doctored panel differs from the reference")
            except (OSError, KeyError, TypeError, ValueError, SyntaxError) as exc:
                failed += 1
                problems.append(f"{cmd.argv[0]} {f.name}: {exc}")
    return Verdict(attempted, failed, problems)
