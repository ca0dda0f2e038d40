"""Self-tests of the benchmark's output check and tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import prepare  # noqa: E402

assert prepare() is None
import check  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402

import groupahp.derive  # noqa: E402


def test_numbers_compare_to_print_precision():
    assert check.same_text("mx 0.0225958 3 RR", "mx 0.0225958 3 RR")
    assert check.same_text("0.0225959", "0.0225958")  # last-digit flip at a rounding boundary
    assert check.same_text("2.77556e-17", "0")  # rounding noise around zero
    assert not check.same_text("0.0225968", "0.0225958")
    assert not check.same_text("mx 0.0225958 4 RR", "mx 0.0225958 3 RR")  # counts are exact
    assert not check.same_text("mx 0.0225958 3 WR", "mx 0.0225958 3 RR")


def _study_pass(tmp_path: Path, reference: dict, records: str | None = None) -> workloads.Pass:
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    (out / "records.csv").write_text(reference["records"] if records is None else records)
    (out / "summary.csv").write_text(reference["summary"])
    argv = ["experiment", "--which", "1"]
    cmd = workloads.Command(argv, 0, reference["stdout"].replace("<dir>", str(tmp_path)), "", 1.0)
    return workloads.Pass("study_attack", check.REFERENCE_SEED, tmp_path, 0.0, 1.0, workloads.STUDY_SCENARIOS, [cmd], [cmd])


@pytest.fixture(scope="module")
def attack_reference():
    return check.load_reference("study_attack", check.REFERENCE_SEED)


def test_reference_outputs_pass(tmp_path, attack_reference):
    verdict = check.check_pass(_study_pass(tmp_path, attack_reference), attack_reference)
    assert (verdict.attempted, verdict.failed) == (workloads.STUDY_SCENARIOS, 0), verdict.problems


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda row: row.replace(",RR,", ",FAILURE,", 1) if ",RR," in row else row.replace(",WR,", ",RR,", 1),
        lambda row: ",".join(row.split(",")[:-1] + [str(float(row.split(",")[-1]) * 1.001)]),
        lambda row: ",".join(row.split(",")[:2] + [str(int(row.split(",")[2]) + 1)] + row.split(",")[3:]),
        lambda row: None,  # the record is missing
    ],
    ids=["class", "distance", "bribes", "missing"],
)
def test_corrupted_record_counts_as_failed(tmp_path, attack_reference, corrupt):
    lines = attack_reference["records"].splitlines()
    bad = corrupt(lines[6])
    lines[6:7] = [] if bad is None else [bad]
    p = _study_pass(tmp_path, attack_reference, "\n".join(lines) + "\n")
    assert check.check_pass(p, attack_reference).failed == 1


def test_tiny_float_noise_is_not_a_failure(tmp_path, attack_reference):
    lines = attack_reference["records"].splitlines()
    cells = lines[6].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-14))
    lines[6] = ",".join(cells)
    p = _study_pass(tmp_path, attack_reference, "\n".join(lines) + "\n")
    assert check.check_pass(p, attack_reference).failed == 0


def test_invariants_catch_corruption_at_other_seeds(tmp_path, attack_reference):
    lines = attack_reference["records"].splitlines()
    cells = lines[3].split(",")
    cells[2] = str(workloads.PANEL_SIZE + 1)  # more bribes than experts
    lines[3] = ",".join(cells)
    p = _study_pass(tmp_path, attack_reference, "\n".join(lines) + "\n")
    assert check.check_pass(p, None).failed == 1


@pytest.fixture()
def tiny_panels(tmp_path):
    return workloads.panel_pass("panel_files", 7, tmp_path, workloads.WARMUP_CONFIG, 3)


def test_panel_pass_checks_clean(tiny_panels):
    verdict = check.check_pass(tiny_panels, None)
    assert (verdict.attempted, verdict.failed) == (3 * 3 + 4, 0), verdict.problems


def _doctored(p: workloads.Pass) -> Path:
    return p.dir / "doctored" / "scenario_00000.json"


def test_corrupted_doctored_panel_counts_as_failed(tiny_panels):
    path = _doctored(tiny_panels)
    doc = json.loads(path.read_text())
    bribed = json.loads(tiny_panels.commands[3].stdout.split("bribed: ")[1].split("\n")[0].replace("'", '"'))
    honest = next(e for e in doc["experts"] if e["id"] not in bribed)
    honest["matrix"][0][1] *= 1.0 + 1e-6
    honest["matrix"][1][0] = 1.0 / honest["matrix"][0][1]
    path.write_text(json.dumps(doc))
    assert check.check_pass(tiny_panels, None).failed == 1


def test_doctored_panel_compares_with_reference(tiny_panels):
    reference = check.outputs(tiny_panels)
    path = _doctored(tiny_panels)
    doc = json.loads(path.read_text())
    doc["experts"][0]["matrix"][0][1] *= 1.0 + 1e-14
    path.write_text(json.dumps(doc))
    assert check.check_pass(tiny_panels, reference).failed == 0
    doc["experts"][0]["matrix"][0][1] *= 1.0 + 1e-7
    path.write_text(json.dumps(doc))
    assert check.check_pass(tiny_panels, reference).failed == 1


def test_accepted_malformed_panel_counts_as_failed(tiny_panels):
    tiny_panels.probes[0].code = 0
    assert check.check_pass(tiny_panels, None).failed == 1


def test_tracer_counts_and_restores(tmp_path):
    original = groupahp.derive.gmm_priorities
    tracer = Tracer(tmp_path / "spool")
    tracer.install(package_modules())
    try:
        p = workloads.study_pass("study_honest", 3, tmp_path, 2, 1, workloads.WARMUP_CONFIG, 3)
    finally:
        tracer.uninstall()
    assert groupahp.derive.gmm_priorities is original
    calls = {k: v["calls"] for k, v in tracer.summary().items()}
    assert calls["derive.gmm_priorities"] == 120 * 3
    assert calls["inconsistency.saaty_ci"] == 60 * 3
    assert calls["montecarlo.scenario"] == 3
    assert check.check_pass(p, None).failed == 0


def test_speed_probe_scales_by_the_kernel_times_in_the_span():
    ref = speed.KERNEL_REF_S
    probe = speed.SpeedProbe()
    for i in range(100):  # a sample every 10 ms; the host at half speed from 0.5 s
        probe.record(i * 0.01, ref if i < 50 else 2 * ref)
    probe.floor = ref
    # 10 samples at the reference speed inside [0.1, 0.2): their time comes out.
    assert probe.scaled(0.1, 0.2) == pytest.approx(0.1 - 10 * ref)
    # At half speed the same wall time holds half the work.
    assert probe.scaled(0.6, 0.7) == pytest.approx((0.1 - 20 * ref) / 2)
    # A span shorter than the interval takes the nearest samples.
    assert probe.scaled(0.6001, 0.6002) == pytest.approx(0.0001 / 2)
    # A preempted sample says nothing about the speed.
    probe.durations[15] = 50 * ref
    assert speed.mean_kernel_time(probe.durations[10:20], probe.floor) == pytest.approx(ref)


def test_speed_probe_samples_while_code_runs():
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            speed.kernel()
        end = time.perf_counter()
    assert len(probe.durations) >= 10
    assert 0.0 < probe.scaled(start, end) and probe.floor < math.inf

