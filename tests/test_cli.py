import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupahp import (
    ExpertPanel,
    RobustConfig,
    aggregate_panel,
    bundled_panel,
    cli,
    core,
    inconsistency,
    koczkodaj_k,
    load_panel,
    method_weights,
    panelio,
    panel_cis,
    panel_gmm,
    pcm_from_upper_triangle,
    run_attack,
    save_panel,
)
from groupahp.cli import _fmt, main
from groupahp.errors import ShapeError
from groupahp.inconsistency import _stack_k
from groupahp.robust import METHODS
from tests.conftest import (SLOW_EVM_UPPER, ZERO_COMPONENT_UPPER, count_unchecked, random_pcm,
                            record_log_means)

SMALL_CONFIG = {"counts": {"4": 2}, "alpha_stop": 1.3, "panel_size": 5}
# 40 scenarios: enough for a pool of two, were an experiment to start one
FORTY_SCENARIOS = {"counts": {"4": 10, "5": 10}, "alpha_stop": 1.2, "panel_size": 4}
# a valid panel whose second expert's CI needs more than the power iteration's budget,
# so LAPACK finishes it
SLOW_EVM_PANEL = json.dumps({"n": 4, "experts": [
    {"matrix": pcm_from_upper_triangle(4, upper).values.tolist()}
    for upper in ([2, 3, 4, 2, 3, 2], SLOW_EVM_UPPER)
]})


BRIBERY_DEMO_PATH = str(resources.files("groupahp.data") / "bribery_demo_panel.json")


def pool_must_not_start(*args, **kwargs):
    raise AssertionError("a process pool was started")


@pytest.fixture(scope="module")
def panel_path():
    return str(resources.files("groupahp.data") / "eight_expert_panel.json")


@pytest.fixture(scope="module")
def five_alt_path():
    return str(resources.files("groupahp.data") / "bribery_demo_panel.json")


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


class TestAggregate:
    def test_classic(self, panel_path, capsys):
        assert main(["aggregate", "--input", panel_path]) == 0
        out = capsys.readouterr().out
        assert "8 experts, 4 alternatives" in out
        assert "winner: a2" in out

    @pytest.mark.parametrize("method,winner", [("APDD", "a1"), ("AID", "a1"), ("MX", "a1")])
    def test_robust_methods_restore_winner(self, panel_path, capsys, method, winner):
        assert main(["aggregate", "--input", panel_path, "--method", method]) == 0
        out = capsys.readouterr().out
        assert "expert weights" in out
        assert f"winner: {winner}" in out

    def test_rejects_unknown_method(self, panel_path):
        with pytest.raises(SystemExit):
            main(["aggregate", "--input", panel_path, "--method", "BOGUS"])


class TestAttack:
    def test_reports_bribes_and_success(self, five_alt_path, capsys, tmp_path):
        out_file = tmp_path / "manipulated.json"
        code = main(["attack", "--input", five_alt_path, "--out", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bribed: ['e1']" in out
        assert "success: True" in out
        doc = json.loads(out_file.read_text())
        assert doc["n"] == 5

    def test_budget_flag(self, five_alt_path, capsys):
        assert main(["attack", "--input", five_alt_path, "--max-bribes", "0"]) == 0
        assert "success: False" in capsys.readouterr().out

    def test_negative_budget_flag_is_rejected(self, five_alt_path, capsys):
        assert main(["attack", "--input", five_alt_path, "--max-bribes", "-3"]) == 3
        assert "--max-bribes must be >= 0" in capsys.readouterr().err


class TestInspect:
    def test_lists_inconsistency(self, panel_path, capsys):
        assert main(["inspect", "--input", panel_path]) == 0
        out = capsys.readouterr().out
        assert out.count("CI=") == 8
        assert out.count("K=") == 8

    @pytest.mark.parametrize("name", ["eight_expert_panel", "bribery_demo_panel"])
    def test_k_from_one_stacked_kernel(self, name, capsys, monkeypatch):
        calls = []

        def stack_k(A):
            calls.append(A.shape)
            return _stack_k(A)

        monkeypatch.setattr(cli, "_stack_k", stack_k)
        path = resources.files("groupahp.data") / f"{name}.json"
        assert main(["inspect", "--input", str(path)]) == 0
        panel, ids = bundled_panel(name)
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split(":")[0] for line in lines] == ids
        want = [_fmt(koczkodaj_k(m)) for m in panel.matrices]
        assert [line.split(" K=")[1] for line in lines] == want
        assert calls == [panel.stack.shape]

    def test_two_alternatives_print_no_k(self, tmp_path, capsys):
        path = tmp_path / "panel.json"
        path.write_text(json.dumps({"n": 2, "experts": [{"matrix": [[1, 2], [0.5, 1]]}] * 3}))
        assert main(["inspect", "--input", str(path)]) == 0
        assert capsys.readouterr().out.count("K=n/a") == 3


def _line(label: str, w) -> str:
    return f"{label}: [{', '.join(f'{float(x):.6g}' for x in w)}]"


@pytest.fixture(scope="module")
def identity_panels(tmp_path_factory):
    """Both bundled panels, a gen corpus with one panel for each n from 2 to 7, and a panel
    of one expert."""
    out = tmp_path_factory.mktemp("identity")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({"counts": {str(n): 1 for n in range(2, 8)}, "alpha_start": 2.5,
                               "alpha_stop": 2.5, "panel_size": 5, "seed": 11}))
    with redirect_stdout(StringIO()):
        assert main(["gen", "--config", str(cfg), "--out", str(out / "corpus")]) == 0
    solo = out / "solo.json"
    doc = json.loads((resources.files("groupahp.data") / "bribery_demo_panel.json").read_text())
    solo.write_text(json.dumps({"n": doc["n"], "experts": [{**doc["experts"][1], "id": "solo"}]}))
    bundled = [str(resources.files("groupahp.data") / f"{name}.json")
               for name in ("eight_expert_panel", "bribery_demo_panel")]
    return bundled + sorted(map(str, (out / "corpus").glob("scenario_*.json"))) + [str(solo)]


class TestOutputBytes:
    """inspect, aggregate and attack print, byte for byte, what the single-panel API gives;
    attack --out writes what save_panel writes.  Each command loads its panel with load_panel;
    inspect and aggregate then run the batch kernels on its stack, and attack runs run_attack."""

    def test_inspect(self, identity_panels, capsys):
        for path in identity_panels:
            panel, ids = load_panel(path)
            ks = ([f"{koczkodaj_k(m):.6g}" for m in panel.matrices] if panel.n >= 3
                  else ["n/a"] * panel.k)
            want = [f"panel: {panel.k} experts, {panel.n} alternatives"]
            want += [f"{eid}: CI={ci:.6g} K={k}" for eid, ci, k in zip(ids, panel_cis(panel), ks)]
            assert main(["inspect", "--input", path]) == 0
            assert capsys.readouterr().out == "\n".join(want) + "\n", path

    def test_aggregate(self, identity_panels, tmp_path, capsys):
        configs = []
        for metric in ("manhattan", "euclidean", "chebyshev"):
            for beta in (0, 0.5, 1):
                cfg = tmp_path / f"{metric}-{beta}.json"
                cfg.write_text(json.dumps({"metric": metric, "beta": beta}))
                configs.append((str(cfg), RobustConfig(beta=beta, metric=metric)))
        for path in identity_panels:
            panel, ids = load_panel(path)
            head = [f"panel: {panel.k} experts, {panel.n} alternatives"]
            head += [_line(f"priorities {eid}", v.weights) for eid, v in zip(ids, panel_gmm(panel))]
            head += [f"CI {eid}: {ci:.6g}" for eid, ci in zip(ids, panel_cis(panel))]
            for method in ("CLASSIC", *METHODS):
                for cfg, robust in configs:
                    want, weights = list(head), None
                    if method != "CLASSIC":
                        weights = method_weights(panel, method, robust)
                        want.append(_line("expert weights", weights.r))
                    final = aggregate_panel(panel, weights)
                    order = final.ranking().tolist()
                    want += [_line(f"final ranking ({method})", final.weights),
                             "order: " + " > ".join(f"a{i + 1}" for i in order),
                             f"winner: a{order[0] + 1} ({final.weights[order[0]]:.6g})"]
                    argv = ["aggregate", "--input", path, "--method", method, "--config", cfg]
                    assert main(argv) == 0
                    assert capsys.readouterr().out == "\n".join(want) + "\n", (path, method, cfg)

    @pytest.mark.parametrize("command", [["inspect"], *(["aggregate", "--method", m]
                                                        for m in ("CLASSIC", *METHODS))],
                             ids=["inspect", "CLASSIC", "APDD", "AID", "MX"])
    def test_inspect_and_aggregate_build_no_domain_objects(self, command, identity_panels,
                                                           monkeypatch):
        """No PCMatrix, PriorityVector or ExpertWeights: only the loaded ExpertPanel."""
        made = count_unchecked(monkeypatch, core.PCMatrix, core.PriorityVector, core.ExpertPanel,
                               core.ExpertWeights)
        with redirect_stdout(StringIO()):
            for path in identity_panels:
                assert main([*command, "--input", path]) == 0
        assert made == {"ExpertPanel": len(identity_panels)}

    @pytest.mark.parametrize("method", ["CLASSIC", *METHODS])
    def test_aggregate_derives_its_panel_once(self, method, tmp_path, monkeypatch):
        """One log-mean and one power iteration over the (20, 7, 7) stack, for every method:
        the GMM vectors it prints start the CIs, and both feed the weights and the AIP."""
        rng = np.random.default_rng(149)
        path = tmp_path / "panel.json"
        save_panel(path, ExpertPanel([random_pcm(7, rng) for _ in range(20)]))
        log_means = record_log_means(monkeypatch)
        with mock.patch.object(inconsistency, "_evm_stack",
                               wraps=inconsistency._evm_stack) as power, \
                redirect_stdout(StringIO()):
            assert main(["aggregate", "--input", str(path), "--method", method]) == 0
        assert [A.shape for A in log_means] == [(20, 7, 7)]
        assert [c.args[0].shape for c in power.call_args_list] == [(20, 7, 7)]

    @pytest.mark.parametrize("command", [["inspect"], ["aggregate", "--method", "MX"], ["attack"]],
                             ids=["inspect", "aggregate", "attack"])
    def test_each_command_reads_its_panel_once_through_load_panel(self, command, monkeypatch):
        loads, reads, real_load, real_read = [], [], cli.load_panel, panelio._read_object

        def load_panel(path):
            loads.append(path)
            return real_load(path)

        def read_object(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(cli, "load_panel", load_panel)
        monkeypatch.setattr(panelio, "_read_object", read_object)
        with redirect_stdout(StringIO()):
            assert main([*command, "--input", BRIBERY_DEMO_PATH]) == 0
        assert loads == reads == [BRIBERY_DEMO_PATH]

    def test_attack(self, identity_panels, tmp_path, capsys, monkeypatch):
        """The default flags, --max-bribes 0, and saturation 5 and 1e100 through --config, each
        with --out; then the default flags without --out, which write no file."""
        cases = [([], {}), (["--max-bribes", "0"], {"max_bribes": 0})]
        for saturation in (5, 1e100):
            cfg = tmp_path / f"saturation-{saturation:g}.json"
            cfg.write_text(json.dumps({"saturation": saturation}))
            cases.append((["--config", str(cfg)], {"saturation": saturation}))
        monkeypatch.chdir(tmp_path)  # a file written to a relative path lands here too
        for q, path in enumerate(identity_panels):
            panel, ids = load_panel(path)
            for c, (flags, kwargs) in enumerate([*cases, (None, {})]):
                outcome = run_attack(panel, **kwargs)
                want = [_line("honest aggregate", outcome.honest_ranking.weights),
                        f"bribed: {[ids[b] for b in outcome.bribed_indices]}",
                        _line("manipulated ranking", outcome.manipulated_ranking.weights),
                        f"success: {outcome.succeeded}"]
                if flags is None:
                    files = sorted(tmp_path.rglob("*"))
                    assert main(["attack", "--input", path]) == 0
                    assert capsys.readouterr().out == "\n".join(want) + "\n", path
                    assert sorted(tmp_path.rglob("*")) == files, path
                    continue
                got_file, want_file = tmp_path / f"got{q}-{c}.json", tmp_path / f"want{q}-{c}.json"
                save_panel(want_file, outcome.manipulated_panel, ids)
                want.append(f"manipulated panel written to {got_file}")
                assert main(["attack", "--input", path, "--out", str(got_file), *flags]) == 0
                assert capsys.readouterr().out == "\n".join(want) + "\n", (path, flags)
                assert got_file.read_bytes() == want_file.read_bytes(), (path, flags)


class TestSharedParser:
    """main parses every command of a process with one parser, which keeps no state
    from one command to the next."""

    def test_one_parser_per_process(self, panel_path):
        assert cli.build_parser() is cli.build_parser()
        assert main(["inspect", "--input", panel_path]) == 0
        with mock.patch.object(cli.argparse, "ArgumentParser",
                               side_effect=AssertionError("a second parser was built")):
            assert main(["inspect", "--input", panel_path]) == 0

    def test_a_flag_does_not_carry_over(self, five_alt_path, capsys):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        fresh = subprocess.run([sys.executable, "-m", "groupahp.cli", "attack", "--input",
                                five_alt_path], capture_output=True, text=True, env=env,
                               timeout=120)
        assert fresh.returncode == 0
        assert main(["attack", "--input", five_alt_path, "--max-bribes", "0"]) == 0
        assert "success: False" in capsys.readouterr().out
        assert main(["attack", "--input", five_alt_path]) == 0
        assert capsys.readouterr().out == fresh.stdout

    def test_a_seed_does_not_carry_over(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "seed": 3}))
        common = ["--config", str(cfg), "--out"]
        assert main(["experiment", "--which", "2", *common, str(tmp_path / "o"),
                     "--seed", "5"]) == 0
        assert main(["gen", *common, str(tmp_path / "unseeded")]) == 0
        for seed in ("3", "5"):
            assert main(["gen", *common, str(tmp_path / seed), "--seed", seed]) == 0

        def corpus(name):
            return [p.read_bytes() for p in sorted((tmp_path / name).glob("scenario_*.json"))]

        assert corpus("unseeded") == corpus("3") != corpus("5")

    def test_a_rejected_command_leaves_the_next_one_alone(self, panel_path, capsys):
        assert main(["inspect", "--input", panel_path]) == 0
        before = capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            main(["aggregate"])
        assert info.value.code == 2
        assert "--input" in capsys.readouterr().err
        assert main(["inspect", "--input", panel_path]) == 0
        assert capsys.readouterr().out == before


def test_only_a_pool_imports_multiprocessing(tmp_path):
    # no command starts a process pool, so not even experiment 2 with two workers imports one
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(FORTY_SCENARIOS))
    argv = ["experiment", "--which", "2", "--workers", "2", "--config", str(cfg),
            "--out", str(tmp_path / "o")]
    code = ("import sys; from groupahp.cli import main; assert main(sys.argv[1:]) == 0; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env=env, timeout=120)
    assert (run.returncode, run.stdout.splitlines()[-1:], run.stderr) == (0, ["[]"], "")


class TestExperiment:
    @pytest.mark.parametrize("which", ["1", "2"])
    def test_writes_csvs(self, which, small_config, tmp_path, capsys):
        out_dir = tmp_path / f"exp{which}"
        code = main(
            ["experiment", "--which", which, "--config", small_config, "--out", str(out_dir)]
        )
        assert code == 0
        records = (out_dir / "records.csv").read_text().splitlines()
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert len(records) > 1
        assert summary[0] == "bucket_ci,method,metric,value,count"
        assert len(summary) > 1

    def test_seeded_runs_are_byte_identical(self, small_config, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(
                ["experiment", "--which", "2", "--config", small_config,
                 "--seed", "99", "--out", str(d)]
            ) == 0
        assert (dirs[0] / "records.csv").read_bytes() == (dirs[1] / "records.csv").read_bytes()
        assert (dirs[0] / "summary.csv").read_bytes() == (dirs[1] / "summary.csv").read_bytes()

    @pytest.mark.parametrize(
        "which,header",
        [
            ("1", "scenario_id,mean_ci,bribes_used,attack_succeeded,class_apdd,class_aid,"
                  "class_mx,manhattan_apdd,manhattan_aid,manhattan_mx"),
            ("2", "scenario_id,mean_ci,manhattan_apdd,manhattan_aid,manhattan_mx,"
                  "kendall_apdd,kendall_aid,kendall_mx"),
        ],
        ids=["1", "2"],
    )
    def test_records_header(self, which, header, small_config, tmp_path):
        out_dir = tmp_path / "o"
        argv = ["experiment", "--which", which, "--config", small_config, "--out", str(out_dir)]
        assert main(argv) == 0
        assert (out_dir / "records.csv").read_text().splitlines()[0] == header

    @pytest.mark.parametrize(
        "command", [["experiment", "--which", "2"], ["gen"]], ids=["experiment", "gen"]
    )
    def test_negative_seed_is_rejected(self, command, small_config, tmp_path, capsys):
        argv = [*command, "--config", small_config, "--seed", "-1", "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        assert "--seed" in capsys.readouterr().err


    @pytest.mark.parametrize("which", ["1", "2"])
    def test_experiments_run_in_this_process_whatever_the_workers(self, which, tmp_path, capsys,
                                                                  monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(FORTY_SCENARIOS))
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool_must_not_start)
        out_dir = tmp_path / "o"
        outputs = []
        for workers in ("1", "2"):
            assert main(["experiment", "--which", which, "--config", str(cfg),
                         "--workers", workers, "--out", str(out_dir)]) == 0
            outputs.append([(out_dir / f).read_bytes() for f in ("records.csv", "summary.csv")]
                           + [capsys.readouterr().out])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_are_rejected(self, workers, small_config, tmp_path, capsys):
        out_dir = tmp_path / "o"
        argv = ["experiment", "--which", "2", "--config", small_config,
                "--workers", workers, "--out", str(out_dir)]
        assert main(argv) == 3
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()


class TestGen:
    def test_writes_scenarios_and_index(self, small_config, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["gen", "--config", small_config, "--out", str(out_dir)]) == 0
        index = (out_dir / "index.csv").read_text().splitlines()
        scenario_files = sorted(out_dir.glob("scenario_*.json"))
        assert len(scenario_files) == len(index) - 1 > 0
        doc = json.loads(scenario_files[0].read_text())
        assert {"scenario_id", "base_vector", "alpha", "mean_ci", "n", "experts"} <= set(doc)


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["aggregate", "--input", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps({"n": 2, "experts": [{"matrix": [[1, -1], [-1, 1]]}]}))
        assert main(["aggregate", "--input", str(bad)]) == 3
        assert "invalid data" in capsys.readouterr().err

    def test_io_error(self, tmp_path, capsys):
        assert main(["aggregate", "--input", str(tmp_path / "missing.json")]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_other_library_error(self, capsys, monkeypatch):
        # neither a parse nor a domain error: exit 3 under its own prefix
        def load_panel(path):
            raise ShapeError("mismatched shapes")

        monkeypatch.setattr(cli, "load_panel", load_panel)
        assert main(["inspect", "--input", BRIBERY_DEMO_PATH]) == 3
        assert capsys.readouterr() == ("", "error: mismatched shapes\n")

    @pytest.mark.parametrize(
        "command",
        [["experiment", "--which", "2"], ["gen"], ["attack", "--input", BRIBERY_DEMO_PATH]],
        ids=["experiment", "gen", "attack"],
    )
    def test_unwritable_out_dir(self, command, small_config, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "o"
        assert main([*command, "--config", small_config, "--out", str(out_dir)]) == 4
        out, err = capsys.readouterr()
        assert err.startswith("i/o error") and str(out_dir) in err
        assert out == ""

    @pytest.mark.parametrize(
        "command", [["inspect"], ["aggregate"], ["aggregate", "--method", "MX"]]
    )
    def test_power_iteration_out_of_budget(self, command, tmp_path, capsys):
        path = tmp_path / "panel.json"
        path.write_text(SLOW_EVM_PANEL)
        assert main([*command, "--input", str(path)]) == 0
        slow = pcm_from_upper_triangle(4, SLOW_EVM_UPPER).values
        ci = (float(np.max(np.linalg.eigvals(slow).real)) - 4) / 3
        line = next(x for x in capsys.readouterr().out.splitlines() if "e2" in x and "CI" in x)
        assert f"{ci:.6g}" in line

    def test_experiment_at_alpha_5000(self, tmp_path):
        # such panels hold matrices that run out of power-iteration steps
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {"counts": {"4": 5}, "panel_size": 20, "alpha_start": 5000, "alpha_stop": 5000}
        ))
        argv = ["experiment", "--which", "2", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 0


class TestMalformedInput:
    """Malformed configs and panels exit 2 (wrong type) or 3 (out of range)
    with a message naming the key or expert, never with a traceback."""

    @pytest.mark.parametrize(
        "doc,code,key",
        [
            ({"metric": "foo"}, 3, "metric"),
            ({"alpha_step": 0}, 3, "alpha_step"),
            ({"seed": "abc"}, 2, "seed"),
            ({"seed": True}, 2, "seed"),
            ({"seed": -1}, 3, "seed"),
            ({"counts": {"x": 1}}, 2, "counts"),
            ({"counts": {"1": 3}}, 3, "counts"),
            ({"max_bribes": "two"}, 2, "max_bribes"),
            ({"beta": 1.5}, 3, "beta"),
            ({"alpha_start": float("inf")}, 3, "alpha_start"),
            ({"epsilon_distribution": "normal"}, 3, "epsilon_distribution"),
            ({"credibility_ratios": [0, 0, 0]}, 3, "credibility_ratios"),
            ({"credibility_matrix": [[1, 2], [0.5, 1]]}, 2, "credibility_matrix"),
            ({"alpha_start": 2.0, "alpha_stop": 1.2}, 3, "alpha_stop"),
            ({"counts": {"5": 0, "6": 0}}, 3, "counts"),
            ({"credibility_matrix": [[1, 2, 7], [-0.5, 0, 4], [-1, 0.25, 1]]}, 3,
             "credibility_matrix"),
            ({"credibility_matrix": [[1, 2, 7], [5, 1, 4], [0.5, 0.5, 1]]}, 3,
             "credibility_matrix"),
            ({"counts": {"101": 1}}, 3, "counts"),
            ({"counts": {"7" * 5000: 1}}, 3, "counts"),
            ({"alpha_stop": 1e308, "alpha_step": 1e-308}, 3, "alpha_step"),
            ({"alpha_step": 1e-300}, 3, "alpha_step"),
            ({"alpha_start": 1e308, "alpha_stop": 1, "alpha_step": 1e-308}, 3, "alpha_stop"),
            ({"panel_size": 10**12}, 3, "panel_size"),
            ({"counts": {"7": 10**12}}, 3, "counts"),
            ({"counts": {"100": 10}, "panel_size": 1000, "alpha_step": 0.01}, 3, "alpha_step"),
            ({"counts": {"5": 3, "05": 4}}, 3, "counts"),  # would merge into {5: 4}
            ({"counts": {"05": 4}}, 3, "counts"),
            ({"counts": {"\uff15": 3}}, 3, "counts"),  # full-width 5 passes isdecimal()
            ({"credibility_matrix": [[1, 2, 7], [0.5, 1, 4], [0.142857, 0.25, 1]],
              "credibility_ratios": "garbage"}, 2, "'credibility_matrix' and 'credibility_ratios'"),
            ({"counts": {"4": 1}, "panel_size": 2, "saturation": 1e101}, 3, "saturation"),
            ({"counts": {"4": 1}, "panel_size": 2, "alpha_start": 1e91, "alpha_stop": 1e91}, 3,
             "'alpha_start' and 'alpha_stop'"),
        ],
    )
    def test_config(self, doc, code, key, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = ["experiment", "--which", "1", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == code
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc,code,key",
        [
            ({"n": "abc", "experts": [{"matrix": [[1]]}]}, 2, "'n'"),
            ({"n": 0, "experts": [{"matrix": []}]}, 3, "'n'"),
            ({"n": 2, "experts": "e1"}, 2, "'experts'"),
            ({"n": 2, "experts": [[[1, 2], [0.5, 1]]]}, 2, "expert #1"),
            ({"n": 2, "experts": [{"id": "bob", "matrix": [[1, 2], [0.5]]}]}, 2, "bob"),
            ({"n": 2, "experts": [{"id": "bob", "matrix": [[1, "2"], [0.5, 1]]}]}, 2, "bob"),
            ({"n": 2, "experts": [{"id": "bob", "matrix": [[1, True], [1, 1]]}]}, 2, "bob"),
            ({"n": 101, "experts": [{"matrix": []}]}, 3, "'n'"),
            ({"n": 2, "experts": [{"id": "bob", "matrix": [[1, 1e200], [1e-200, 1]]}]}, 3,
             "bob': entry outside [1e-100, 1e+100] at row 1, column 2"),
            ({"n": 2, "experts": [{"matrix": [[1, 2], [0.5, 1]]}, {"id": "e1", "matrix": [[1]]}]},
             2, "expert 'e1': matrix must be 2 rows of 2 numbers"),
            ({"n": 2, "experts": [{"matrix": [[1, 2], [0.5, 1]]},
                                  {"id": "e1", "matrix": [[1, 1], [1, 1]]}]},
             2, "expert #2: id 'e1' repeats expert #1"),
        ],
    )
    def test_panel(self, doc, code, key, tmp_path, capsys):
        panel = tmp_path / "panel.json"
        panel.write_text(json.dumps(doc))
        assert main(["aggregate", "--input", str(panel)]) == code
        assert key in capsys.readouterr().err


BIG_INT = "1" + "0" * 400  # a JSON integer past float range
DEEP = "[" * 100_000 + "]" * 100_000

# a JSON value where a number belongs: wrong types, NaN, infinities, huge
# and tiny magnitudes, nesting
hostile = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 12),
    st.sampled_from([10**400, -(10**400), 1e300, 1e-300, True, None, "2", [], [1], {}]),
)


# expert ids that the loader reads back as their str and that no default id (e1, e2, ...)
# of a panel of at most four experts equals; an integer past float range reads as infinity
expert_ids = st.sampled_from(["a", "", "e5"]) | hostile.filter(
    lambda v: not isinstance(v, int) or abs(v) < 1e308)


@st.composite
def panel_texts(draw):
    """Panel documents near the valid ones: reciprocal matrices with a few cells,
    rows, entries, ids or ``n`` broken.  Past n = 9 the upper triangle comes from
    a seeded generator, as Hypothesis's buffer cannot hold 4,950 drawn floats."""
    n = draw(st.integers(2, 9) | st.sampled_from([30, 100]))
    k = draw(st.integers(0, 4))
    ids = draw(st.lists(expert_ids, min_size=k, max_size=k, unique_by=str))  # none repeats
    experts = []
    for q in range(k):
        size = n * (n - 1) // 2
        if n > 9:
            upper = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(1 / 9, 9, size)
        else:
            upper = draw(st.lists(st.floats(1 / 9, 9), min_size=size, max_size=size))
        m = pcm_from_upper_triangle(n, upper).values.round(draw(st.sampled_from([2, 17]))).tolist()
        for _ in range(draw(st.integers(0, 2))):
            m[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(hostile)
        if draw(st.integers(0, 9)) == 0:
            m[draw(st.integers(0, n - 1))].pop()
        entry = {"matrix": m}
        if draw(st.booleans()):
            entry["id"] = ids[q]
        experts.append(draw(st.one_of(st.just(entry), hostile)) if draw(st.integers(0, 9)) == 0
                       else entry)
    doc = {"n": draw(st.one_of(st.just(n), hostile)) if draw(st.integers(0, 9)) == 0 else n,
           "experts": experts}
    return json.dumps(doc)


@st.composite
def repeated_id_panels(draw):
    """A panel text of valid experts in which an id, given or the default e<position>,
    repeats an earlier expert's; and the loader's message for the first repeat."""
    n, k = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    given = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    values = draw(st.lists(expert_ids, min_size=k, max_size=k))
    p, q = sorted(draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)))
    given[q], values[q] = True, values[p] if given[p] else f"e{p + 1}"
    experts = []
    for has_id, value in zip(given, values):
        upper = draw(st.lists(st.floats(1 / 9, 9), min_size=n * (n - 1) // 2,
                              max_size=n * (n - 1) // 2))
        entry = {"matrix": pcm_from_upper_triangle(n, upper).values.tolist()}
        experts.append({"id": value, **entry} if has_id else entry)
    read = [str(v) if g else f"e{i + 1}" for i, (g, v) in enumerate(zip(given, values))]
    r = next(i for i, eid in enumerate(read) if eid in read[:i])
    message = f"expert #{r + 1}: id {read[r]!r} repeats expert #{read.index(read[r]) + 1}"
    return json.dumps({"n": n, "experts": experts}), message


alpha = st.sampled_from([-1, 0, 1, 1.1, 2.5, 5, 1e308, 1e-300, math.nan, math.inf, 10**400, "1",
                         None])
config_values = {
    "alpha_start": alpha,
    "alpha_stop": alpha,
    "alpha_step": st.sampled_from([-0.1, 0, 0.05, 0.5, 1e308, 1e-300, math.nan, 10**400, "0.1"]),
    "credibility_matrix": st.lists(st.lists(hostile, min_size=2, max_size=4), max_size=4)
    | st.just([[1, 2, 7], [0.5, 1, 4], [1 / 7, 0.25, 1]]),
    "credibility_ratios": st.lists(hostile, max_size=4),
    "counts": st.dictionaries(st.sampled_from(["2", "5", "x", "-1", ""]), hostile, max_size=2),
    "sede": hostile,
}
for key in ("seed", "panel_size", "max_bribes", "workers", "saturation", "h", "l", "beta",
            "metric", "epsilon_distribution"):
    config_values[key] = hostile | st.sampled_from(["manhattan", "uniform", 0.5, 1.5, 9])
config_texts = st.fixed_dictionaries({}, optional=config_values).map(json.dumps)


def three_alt_panel(*upper) -> str:
    """A one-expert panel file over three alternatives, from its upper triangle."""
    matrix = pcm_from_upper_triangle(3, upper).values.tolist()
    return json.dumps({"n": 3, "experts": [{"matrix": matrix}]})


def run_quietly(argv) -> tuple[int, str]:
    """main's exit code and stderr, with every warning raised as an error."""
    err = StringIO()
    with warnings.catch_warnings(), redirect_stdout(StringIO()), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


class TestHostileDocuments:
    """Whatever a panel or config file holds, main exits 0, 2, 3 or 4 and
    prints no traceback and no warning."""

    @given(text=panel_texts(), command=st.sampled_from(["inspect", "aggregate", "attack"]))
    @example(text='{"n": 2, "experts": [{"matrix": [[1, 2], [0.5, 1]]}]}', command="attack")
    @example(text='{"n": 2, "experts": %s}' % DEEP, command="inspect")
    @example(text='{"n": 2, "experts": [{"matrix": [[1, %s], [1, 1]]}]}' % BIG_INT,
             command="aggregate")
    @example(text='{"n": 2, "experts": [{"matrix": [[1, 1e300], [1e300, 1]]}]}',
             command="aggregate")
    @example(text=SLOW_EVM_PANEL, command="inspect")
    @example(text=three_alt_panel(1e308, 1e308, 1e-308), command="inspect")
    @example(text=three_alt_panel(1e200, 1e200, 1e-200), command="inspect")
    @example(text=json.dumps({"n": 5, "experts": [
        {"matrix": pcm_from_upper_triangle(5, ZERO_COMPONENT_UPPER).values.tolist()}]}),
        command="inspect")
    @settings(max_examples=150, deadline=None)
    def test_panel(self, text, command, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "hostile_panel.json"
        path.write_text(text)
        argv = [command, "--input", str(path)]
        code, err = run_quietly(argv + (["--method", "MX"] if command == "aggregate" else []))
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err and "Warning" not in err

    @given(case=repeated_id_panels(), command=st.sampled_from(["inspect", "aggregate", "attack"]))
    @settings(max_examples=50, deadline=None)
    def test_repeated_ids(self, case, command, tmp_path_factory):
        text, message = case
        path = tmp_path_factory.getbasetemp() / "repeated_ids.json"
        path.write_text(text)
        code, err = run_quietly([command, "--input", str(path)])
        assert (code, message in err) == (2, True), err

    def test_judgments_at_the_bound(self, tmp_path):
        path = tmp_path / "panel.json"
        path.write_text(three_alt_panel(1e100, 1e100, 1e-100))
        for command in (["inspect"], ["aggregate", "--method", "MX"], ["attack"]):
            assert run_quietly(command + ["--input", str(path)]) == (0, "")

    def test_attack_at_the_saturation_bound_reads_back(self, five_alt_path, tmp_path):
        cfg, out = tmp_path / "config.json", str(tmp_path / "doctored.json")
        cfg.write_text(json.dumps({"saturation": 1e100}))
        argv = ["attack", "--input", five_alt_path, "--config", str(cfg), "--out", out]
        assert run_quietly(argv) == (0, "")
        assert run_quietly(["inspect", "--input", out]) == (0, "")

    def test_corpus_at_the_alpha_bound_reads_back(self, tmp_path):
        cfg, out = tmp_path / "config.json", tmp_path / "corpus"
        cfg.write_text(json.dumps({"counts": {"3": 2, "5": 2}, "panel_size": 4,
                                   "alpha_start": 1e90, "alpha_stop": 1e90}))
        assert run_quietly(["gen", "--config", str(cfg), "--out", str(out)]) == (0, "")
        files = sorted(out.glob("scenario_*.json"))
        assert len(files) == 4
        for path in files:
            assert run_quietly(["inspect", "--input", str(path)]) == (0, "")

    def test_hundred_alternatives(self, tmp_path):
        rng = np.random.default_rng(100)
        matrices = [pcm_from_upper_triangle(100, rng.uniform(1 / 9, 9, 4950)) for _ in range(5)]
        experts = [{"matrix": m.values.tolist()} for m in matrices]
        path = tmp_path / "panel.json"
        path.write_text(json.dumps({"n": 100, "experts": experts}))
        for command in (["inspect"], ["aggregate", "--method", "MX"], ["attack"]):
            assert run_quietly(command + ["--input", str(path)]) == (0, "")

    @given(text=config_texts, command=st.sampled_from(["aggregate", "attack"]))
    @example(text=DEEP, command="aggregate")
    @example(text='{"alpha_start": %s}' % BIG_INT, command="aggregate")
    @example(text='{"h": %s}' % BIG_INT, command="aggregate")
    @example(text='{"credibility_matrix": [[1, %s, 7], [0.5, 1, 4], [1, 1, 1]]}' % BIG_INT,
             command="aggregate")
    @example(text='{"alpha_stop": 1e308, "alpha_step": 1e-308}', command="aggregate")
    @example(text='{"alpha_step": 1e-300}', command="aggregate")
    @example(text='{"counts": {"%s": 1}}' % ("7" * 5000), command="aggregate")
    @example(text='{"panel_size": 1000000000000}', command="attack")
    @settings(max_examples=150, deadline=None)
    def test_config(self, text, command, five_alt_path, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "hostile_config.json"
        path.write_text(text)
        argv = [command, "--input", five_alt_path, "--config", str(path)]
        code, err = run_quietly(argv + (["--method", "MX"] if command == "aggregate" else []))
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("which", ["1", "2"])
def test_headline_is_nan_without_low_inconsistency_scenarios(which, tmp_path, capsys):
    # at alpha >= 4.5 no panel has a mean CI <= 0.1
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "alpha_start": 4.5, "alpha_stop": 5.0}))
    argv = ["experiment", "--which", which, "--config", str(cfg), "--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    out = capsys.readouterr().out
    stat = "wr_rate" if which == "1" else "kendall_zero_freq"
    assert f"mx {stat} nan" in out
