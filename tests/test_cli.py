import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupahp import pcm_from_upper_triangle
from groupahp.cli import main
from tests.conftest import SLOW_EVM_UPPER

SMALL_CONFIG = {"counts": {"4": 2}, "alpha_stop": 1.3, "panel_size": 5}
# a valid panel whose second expert's CI needs more than the power iteration's budget,
# so LAPACK finishes it
SLOW_EVM_PANEL = json.dumps({"n": 4, "experts": [
    {"matrix": pcm_from_upper_triangle(4, upper).values.tolist()}
    for upper in ([2, 3, 4, 2, 3, 2], SLOW_EVM_UPPER)
]})


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

    @pytest.mark.parametrize(
        "command", [["experiment", "--which", "2"], ["gen"]], ids=["experiment", "gen"]
    )
    def test_unwritable_out_dir(self, command, small_config, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "o"
        assert main([*command, "--config", small_config, "--out", str(out_dir)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error") and str(out_dir) in err

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


@st.composite
def panel_texts(draw):
    """Panel documents near the valid ones: reciprocal matrices with a few cells,
    rows, entries, ids or ``n`` broken.  Past n = 9 the upper triangle comes from
    a seeded generator, as Hypothesis's buffer cannot hold 4,950 drawn floats."""
    n = draw(st.integers(2, 9) | st.sampled_from([30, 100]))
    experts = []
    for _ in range(draw(st.integers(0, 4))):
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
            entry["id"] = draw(st.one_of(st.sampled_from(["a", "a", "", "e1"]), hostile))
        experts.append(draw(st.one_of(st.just(entry), hostile)) if draw(st.integers(0, 9)) == 0
                       else entry)
    doc = {"n": draw(st.one_of(st.just(n), hostile)) if draw(st.integers(0, 9)) == 0 else n,
           "experts": experts}
    return json.dumps(doc)


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
    @settings(max_examples=150, deadline=None)
    def test_panel(self, text, command, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "hostile_panel.json"
        path.write_text(text)
        argv = [command, "--input", str(path)]
        code, err = run_quietly(argv + (["--method", "MX"] if command == "aggregate" else []))
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err and "Warning" not in err

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
