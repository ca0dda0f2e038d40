import json
import os
import subprocess
import sys
import zipfile
from contextlib import redirect_stdout
from importlib import resources
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groupahp
from groupahp import (
    EXAMPLE_CREDIBILITY_MATRIX,
    CredibilityScale3,
    DomainError,
    ExpertPanel,
    GroupAHPError,
    RunConfig,
    ShapeError,
    bundled_panel,
    cli,
    core,
    credibility_from_matrix,
    load_config,
    load_panel,
    panelio,
    pcm_from_upper_triangle,
    resymmetrize,
    save_panel,
)
from groupahp.panelio import (
    PanelParseError,
    _judgment_stack,
    _number_grid,
    _number_list,
    panel_document,
    parse_panel,
)


def write_json(tmp_path, doc, name="panel.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


VALID_DOC = {
    "n": 3,
    "experts": [
        {"id": "e1", "matrix": [[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]]},
        {"id": "e2", "matrix": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]},
    ],
}


class TestParsePanel:
    def test_valid_document(self):
        panel, ids = parse_panel(VALID_DOC)
        assert panel.k == 2
        assert panel.n == 3
        assert ids == ["e1", "e2"]

    def test_ids_default_to_position(self):
        doc = {"n": 2, "experts": [{"matrix": [[1, 2], [0.5, 1]]}]}
        _, ids = parse_panel(doc)
        assert ids == ["e1"]

    def test_parse_error_is_a_library_error(self):
        assert issubclass(PanelParseError, GroupAHPError)

    def test_missing_n(self):
        with pytest.raises(PanelParseError):
            parse_panel({"experts": []})

    def test_empty_expert_list(self):
        with pytest.raises(PanelParseError):
            parse_panel({"n": 3, "experts": []})

    def test_missing_matrix(self):
        with pytest.raises(PanelParseError):
            parse_panel({"n": 2, "experts": [{"id": "e1"}]})

    def test_shape_mismatch_names_expert(self):
        doc = {"n": 3, "experts": [{"id": "bob", "matrix": [[1, 2], [0.5, 1]]}]}
        with pytest.raises(PanelParseError, match="bob"):
            parse_panel(doc)

    def test_nonpositive_entry_reports_cell(self):
        doc = {"n": 2, "experts": [{"id": "e1", "matrix": [[1, -2], [-0.5, 1]]}]}
        with pytest.raises(DomainError, match="row 1, column 2"):
            parse_panel(doc)

    def test_rounded_reciprocity_is_repaired(self):
        doc = {
            "n": 3,
            "experts": [
                {"id": "e1", "matrix": [[1, 0.333, 5], [3, 1, 2], [0.2, 0.5, 1]]}
            ],
        }
        panel, _ = parse_panel(doc)
        m = panel.matrices[0].values
        assert m[0, 1] == 0.333  # upper triangle kept verbatim
        assert m[1, 0] == pytest.approx(1 / 0.333)

    def test_gross_reciprocity_violation_rejected(self):
        doc = {"n": 2, "experts": [{"id": "e1", "matrix": [[1, 2], [1, 1]]}]}
        with pytest.raises(DomainError, match="reciprocity"):
            parse_panel(doc)


def four_expert_doc():
    """A k=4, n=3 panel of experts a, b, c and d with the same reciprocal matrix."""
    m = [[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]]
    return {"n": 3, "experts": [{"id": eid, "matrix": [r[:] for r in m]} for eid in "abcd"]}


def set_cell(i, j, value):
    def apply(entry):
        entry["matrix"][i][j] = value
        return entry
    return apply


def drop_last(entry):
    entry["matrix"][1].pop()
    return entry


def drop_matrix(entry):
    del entry["matrix"]
    return entry


def set_matrix(value):
    def apply(entry):
        entry["matrix"] = value
        return entry
    return apply


def set_row(i, value):
    def apply(entry):
        entry["matrix"][i] = value
        return entry
    return apply


def append_to(row):
    def apply(entry):
        (entry["matrix"] if row is None else entry["matrix"][row]).append(1)
        return entry
    return apply


def set_id(eid):
    def apply(entry):
        entry["id"] = eid
        return entry
    return apply


GRID_ERROR = (PanelParseError, "expert 'c': matrix must be 3 rows of 3 numbers")


class TestStackMessages:
    """A panel is checked as one (k, n, n) stack; each error names the expert
    by its position in that stack and the cell, as the per-matrix checks did."""

    @pytest.mark.parametrize(
        "defect,error,message",
        [
            (set_cell(1, 2, -2), DomainError, "expert 'c': non-positive entry at row 2, column 3"),
            (set_cell(2, 1, 0), DomainError, "expert 'c': non-positive entry at row 3, column 2"),
            (set_cell(0, 2, float("nan")), DomainError,
             "expert 'c': non-positive entry at row 1, column 3"),
            (set_cell(2, 0, float("inf")), DomainError,
             "expert 'c': non-positive entry at row 3, column 1"),
            (set_cell(0, 2, 1e101), DomainError,
             "expert 'c': entry outside [1e-100, 1e+100] at row 1, column 3"),
            (set_cell(2, 0, 1e-101), DomainError,
             "expert 'c': entry outside [1e-100, 1e+100] at row 3, column 1"),
            (set_cell(0, 1, 4), DomainError,
             "expert 'c': reciprocity violated at row 1, column 2 (c_ij*c_ji = 2.0000)"),
            (set_cell(2, 1, 0.6), DomainError,
             "expert 'c': reciprocity violated at row 2, column 3 (c_ij*c_ji = 1.2000)"),
            (drop_last, *GRID_ERROR),
            (set_cell(1, 0, "0.5"), *GRID_ERROR),
            (set_cell(1, 0, True), *GRID_ERROR),
            (drop_matrix, PanelParseError, "expert 'c': missing 'matrix' field"),
            (lambda entry: entry["matrix"], PanelParseError,
             "expert #3: entry must be an object, got [[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]]"),
            # each branch of the bulk type test
            (set_matrix({"0": [1, 2, 4]}), *GRID_ERROR),
            (set_matrix(None), *GRID_ERROR),
            (append_to(None), *GRID_ERROR),
            (lambda entry: {**entry, "matrix": entry["matrix"][:2]}, *GRID_ERROR),
            (set_row(1, "abc"), *GRID_ERROR),
            (set_row(1, 2), *GRID_ERROR),
            (append_to(1), *GRID_ERROR),
            (set_cell(1, 0, None), *GRID_ERROR),
            (set_cell(1, 0, [0.5]), *GRID_ERROR),
            (set_id("a"), PanelParseError, "expert #3: id 'a' repeats expert #1"),
        ],
        ids=["negative", "zero", "nan", "infinity", "huge", "tiny", "reciprocity",
             "reciprocity-lower", "short-row", "string", "bool", "missing-matrix", "non-object",
             "grid-object", "grid-null", "extra-row", "missing-row", "row-string", "row-number",
             "long-row", "null", "nested-list", "repeated-id"],
    )
    def test_third_of_four_experts_malformed(self, defect, error, message):
        doc = four_expert_doc()
        doc["experts"][2] = defect(doc["experts"][2])
        with pytest.raises(error) as info:
            parse_panel(doc)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "defect_b,defect_d,message",
        [
            # type and shape errors come before any value error
            (set_cell(0, 1, -1), drop_last, "expert 'd': matrix must be 3 rows of 3 numbers"),
            # non-positive entries come before reciprocity
            (set_cell(0, 1, 4), set_cell(2, 2, 0),
             "expert 'd': non-positive entry at row 3, column 3"),
            # non-positive entries come before out-of-range ones, and those before reciprocity
            (set_cell(0, 1, 1e101), set_cell(2, 2, 0),
             "expert 'd': non-positive entry at row 3, column 3"),
            (set_cell(0, 1, 4), set_cell(1, 0, 1e-120),
             "expert 'd': entry outside [1e-100, 1e+100] at row 2, column 1"),
            # within a class, the lowest expert comes first
            (set_cell(1, 2, 9), set_cell(0, 1, 4),
             "expert 'b': reciprocity violated at row 2, column 3 (c_ij*c_ji = 4.5000)"),
            (drop_matrix, set_cell(0, 1, "x"), "expert 'b': missing 'matrix' field"),
            # ids are checked after the types and shapes, before any value
            (set_id("a"), drop_last, "expert 'd': matrix must be 3 rows of 3 numbers"),
            (set_cell(0, 1, -1), set_id("a"), "expert #4: id 'a' repeats expert #1"),
            (set_id("c"), set_id("a"), "expert #3: id 'c' repeats expert #2"),
        ],
        ids=["shape-before-value", "positivity-before-reciprocity", "positivity-before-range",
             "range-before-reciprocity", "lowest-reciprocity",
             "lowest-type", "shape-before-id", "id-before-value", "lowest-repeat"],
    )
    def test_two_malformed_experts_report_in_documented_order(self, defect_b, defect_d, message):
        doc = four_expert_doc()
        doc["experts"][1] = defect_b(doc["experts"][1])
        doc["experts"][3] = defect_d(doc["experts"][3])
        with pytest.raises(GroupAHPError) as info:
            parse_panel(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("q", [0, 3], ids=["first", "last"])
    @pytest.mark.parametrize(
        "defect,message",
        [
            (set_cell(2, 1, 0), "expert {id}: non-positive entry at row 3, column 2"),
            (set_cell(0, 1, 4), "expert {id}: reciprocity violated at row 1, column 2 "
                                "(c_ij*c_ji = 2.0000)"),
            (set_row(2, None), "expert {id}: matrix must be 3 rows of 3 numbers"),
            (set_cell(2, 2, None), "expert {id}: matrix must be 3 rows of 3 numbers"),
            (drop_matrix, "expert {id}: missing 'matrix' field"),
            (lambda entry: None, "expert #{pos}: entry must be an object, got None"),
        ],
        ids=["zero", "reciprocity", "null-row", "null-cell", "missing-matrix", "non-object"],
    )
    def test_first_or_last_expert_malformed(self, q, defect, message):
        doc = four_expert_doc()
        eid = doc["experts"][q]["id"]
        doc["experts"][q] = defect(doc["experts"][q])
        with pytest.raises(GroupAHPError) as info:
            parse_panel(doc)
        assert str(info.value) == message.format(id=repr(eid), pos=q + 1)

    def test_rounded_stack_equals_per_matrix_completion(self):
        rng = np.random.default_rng(53)
        n, triu = 6, np.triu_indices(6, k=1)
        A = np.exp(rng.uniform(-np.log(9), np.log(9), (5, n, n)))
        A = np.round(A, 3)
        A[:, triu[1], triu[0]] = np.round(1.0 / A[:, triu[0], triu[1]], 3)
        A[:, range(n), range(n)] = 1.0
        doc = {"n": n, "experts": [{"id": f"x{q}", "matrix": a.tolist()} for q, a in enumerate(A)]}
        panel, ids = parse_panel(doc)
        assert ids == [f"x{q}" for q in range(5)]
        for q, m in enumerate(panel.matrices):
            reference = pcm_from_upper_triangle(n, A[q][triu]).values
            assert m.values.tobytes() == reference.tobytes()


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        path = write_json(tmp_path, VALID_DOC)
        panel, ids = load_panel(path)
        out = tmp_path / "copy.json"
        save_panel(out, panel, ids)
        again, again_ids = load_panel(out)
        assert again_ids == ids
        for a, b in zip(panel.matrices, again.matrices):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("name", ["eight_expert_panel", "bribery_demo_panel"])
    def test_saved_file_is_the_compact_document(self, name, tmp_path):
        panel, ids = bundled_panel(name)
        out = tmp_path / "copy.json"
        save_panel(out, panel, ids)
        assert out.read_text() == json.dumps(panel_document(panel, ids))
        again, again_ids = load_panel(out)
        assert again_ids == ids
        assert again.stack.tobytes() == panel.stack.tobytes()

    @pytest.mark.parametrize("ids", [[], ["a"], ["a", "b", "c"]])
    def test_ids_must_name_every_expert(self, ids, tmp_path):
        # a short list would truncate the panel, a long one drop ids; only None means e1, e2
        panel, _ = parse_panel(VALID_DOC)
        out = tmp_path / "copy.json"
        with pytest.raises(ShapeError, match="expert ids for a panel of 2 experts"):
            save_panel(out, panel, ids)
        assert not out.exists()
        save_panel(out, panel)
        assert load_panel(out)[1] == ["e1", "e2"]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3,\n "experts": [}')
        with pytest.raises(PanelParseError, match="line 2"):
            load_panel(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(PanelParseError):
            load_panel(path)

    def test_bundled_panels_load(self):
        eight, ids8 = bundled_panel("eight_expert_panel")
        assert (eight.k, eight.n) == (8, 4)
        assert ids8 == [f"e{q}" for q in range(1, 9)]
        five, ids5 = bundled_panel("bribery_demo_panel")
        assert (five.k, five.n) == (4, 5)

    def test_bundled_panels_load_from_a_zipped_package(self, tmp_path):
        # a zip import (an egg, a zipapp) has no directory for groupahp.data to import as
        archive, package = tmp_path / "groupahp.zip", Path(groupahp.__file__).parent
        with zipfile.ZipFile(archive, "w") as zf:
            for f in package.rglob("*"):
                if f.suffix in (".py", ".json"):
                    zf.write(f, f.relative_to(package.parent))
        code = (f"import groupahp; assert groupahp.__file__.startswith({str(archive)!r}); "
                "print([groupahp.bundled_panel(n)[0].k for n in "
                "('eight_expert_panel', 'bribery_demo_panel')])")
        run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(archive)})
        assert (run.returncode, run.stdout, run.stderr) == (0, "[8, 4]\n", "")


def reference_number_list(raw, size: int) -> bool:
    """The JSON type check of a row, one entry at a time."""
    return isinstance(raw, list) and len(raw) == size and all(type(x) in (int, float) for x in raw)


def reference_number_grid(raw, n: int) -> bool:
    return isinstance(raw, list) and len(raw) == n and all(reference_number_list(r, n) for r in raw)


numbers = st.integers(-(10**20), 10**20) | st.floats(allow_nan=True, allow_infinity=True)
json_values = st.recursive(
    numbers | st.booleans() | st.text(max_size=2) | st.none(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=6,
)


@st.composite
def number_rows(draw, size):
    """``size`` numbers, then maybe one entry swapped for another JSON value."""
    row = draw(st.lists(numbers, min_size=size, max_size=size))
    if row and draw(st.booleans()):
        row[draw(st.integers(0, size - 1))] = draw(json_values)
    return row


@st.composite
def near_grids(draw):
    """An n x n grid of numbers, n in 0..6, with at most one cell, row or length broken,
    or another JSON value in its place (ragged rows, nested lists, bools, strings, None,
    dicts); returns the grid and n."""
    n = draw(st.integers(0, 6))
    grid = [draw(st.lists(numbers, min_size=n, max_size=n)) for _ in range(n)]
    defect = draw(st.sampled_from(["none", "cell", "row", "short", "long", "value"]))
    if defect == "value":
        grid = draw(json_values)
    elif defect == "long" and (not grid or draw(st.booleans())):
        grid.insert(draw(st.integers(0, n)), draw(number_rows(draw(st.integers(0, 6)))))
    elif grid and defect in ("short", "long"):  # one row one number short or long
        row = grid[draw(st.integers(0, n - 1))]
        row.pop() if defect == "short" else row.append(draw(numbers))
    elif grid and defect != "none":
        q = draw(st.integers(0, n - 1))
        grid[q] = draw(number_rows(n)) if defect == "cell" else draw(json_values)
    return grid, n


class TestTypeChecks:
    """The set-based JSON type checks accept exactly what the per-entry checks accept."""

    @given(raw=st.integers(0, 6).flatmap(number_rows) | json_values, size=st.integers(0, 6))
    @example(raw=[1, 2.5, True], size=3)
    @example(raw=[], size=0)
    @example(raw=[[1]], size=1)
    @settings(max_examples=300, deadline=None)
    def test_number_list(self, raw, size):
        assert _number_list(raw, size) == reference_number_list(raw, size)
        if isinstance(raw, list):
            assert _number_list(raw, len(raw)) == reference_number_list(raw, len(raw))

    @given(grid_n=near_grids(), other=st.integers(0, 6))
    @example(grid_n=([[1, True], [0.5, 1]], 2), other=2)
    @example(grid_n=([], 0), other=0)
    @example(grid_n=([[]], 1), other=0)
    @example(grid_n=([[1, 2], [0.5]], 2), other=2)
    @example(grid_n=([[1, 2], {}], 2), other=2)
    @example(grid_n=([[1, None], [1, 1]], 2), other=2)
    @example(grid_n=([[1, "2"], [1, 1]], 2), other=2)
    @example(grid_n=([[1, [2]], [1, 1]], 2), other=2)
    @settings(max_examples=300, deadline=None)
    def test_number_grid(self, grid_n, other):
        grid, n = grid_n
        for size in (n, other):
            assert _number_grid(grid, size) == reference_number_grid(grid, size)


@pytest.fixture(scope="module")
def panel_paths(tmp_path_factory):
    """The two bundled panels and three panel files written by gen (n = 3, 5, 7)."""
    out = tmp_path_factory.mktemp("corpus")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({"counts": {"3": 1, "5": 1, "7": 1}, "alpha_stop": 1.1,
                               "panel_size": 4}))
    with redirect_stdout(StringIO()):
        assert cli.main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    bundled = [str(resources.files("groupahp.data") / f"{name}.json")
               for name in ("eight_expert_panel", "bribery_demo_panel")]
    return bundled + sorted(map(str, out.glob("scenario_*.json")))


class TestOneStackCheck:
    """A loaded panel, or a config's credibility matrix, wraps the loader's own checked,
    read-only stack: ExpertPanel.from_stack's copy and core._check_stack do not run again."""

    def test_loaded_stack_is_the_checked_stack(self, panel_paths, monkeypatch):
        original, returned = panelio._judgment_stack, []

        def judgment_stack(grids, names):
            returned.append(original(grids, names))
            return returned[-1]

        monkeypatch.setattr(panelio, "_judgment_stack", judgment_stack)
        for path in panel_paths:
            grids = [e["matrix"] for e in json.loads(Path(path).read_text())["experts"]]
            want = ExpertPanel.from_stack(resymmetrize(grids)).stack
            panel, _ = load_panel(path)
            got = panel.stack
            assert got is returned[-1]  # not a copy
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
            assert not got.flags.writeable
            assert all(m.values.base is got and not m.values.flags.writeable
                       for m in panel.matrices)

    def test_load_runs_no_core_stack_check(self, panel_paths, monkeypatch):
        def check_stack(A):
            raise AssertionError("a loaded stack was checked again")

        monkeypatch.setattr(core, "_check_stack", check_stack)
        for path in panel_paths:
            assert load_panel(path)[0].k >= 1
        assert bundled_panel("eight_expert_panel")[0].k == 8

    def test_credibility_matrix_runs_no_core_stack_check(self, tmp_path, monkeypatch):
        doc = {"credibility_matrix": EXAMPLE_CREDIBILITY_MATRIX.values.tolist()}
        path = write_json(tmp_path, doc, "cfg.json")
        want = credibility_from_matrix(EXAMPLE_CREDIBILITY_MATRIX)

        def check_stack(A):
            raise AssertionError("a loaded credibility matrix was checked again")

        monkeypatch.setattr(core, "_check_stack", check_stack)
        assert load_config(path).robust.scale3 == want

    @given(
        n=st.integers(2, 30),
        k=st.integers(1, 3),
        kind=st.sampled_from(["bounds", "rounded", "jittered"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_returned_stack_passes_the_core_check(self, n, k, kind, seed):
        rng = np.random.default_rng(seed)
        i, j = np.triu_indices(n, k=1)
        A = np.ones((k, n, n))
        if kind == "bounds":  # judgments at and next to 1e-100 and 1e100
            A[:, i, j] = rng.choice([1e-100, 1.5e-100, 1.0, 6.5e99, 1e100], (k, i.size))
            A[:, j, i] = 1.0 / A[:, i, j]
        elif kind == "rounded":  # a 1/9..9 matrix printed to 3 decimals: within 1e-2
            A[:, i, j] = rng.choice([1 / 9, 1 / 7, 1 / 3, 1.0, 2.0, 7.0, 9.0], (k, i.size))
            A[:, j, i] = 1.0 / A[:, i, j]
            A = A.round(3)
        else:  # any magnitude, each pair and the diagonal off by less than 1e-2
            A[:, i, j] = 10.0 ** rng.uniform(-99, 99, (k, i.size))
            A[:, j, i] = (1.0 + rng.uniform(-0.009, 0.009, (k, i.size))) / A[:, i, j]
            A[:, range(n), range(n)] = 1.0 + rng.uniform(-0.004, 0.004, (k, n))
        S = _judgment_stack(A.tolist(), [f"expert {q}" for q in range(k)])
        assert not S.flags.writeable
        core._check_stack(S)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 20230
        assert cfg.counts == {5: 34, 6: 33, 7: 33}
        assert cfg.panel_size == 20
        assert len(cfg.alphas) == 40
        assert cfg.alphas[0] == pytest.approx(1.1)
        assert cfg.alphas[-1] == pytest.approx(5.0)

    def test_none_path_gives_defaults(self):
        assert load_config(None) == RunConfig()

    def test_overrides(self, tmp_path):
        path = write_json(
            tmp_path, {"seed": 7, "panel_size": 3, "counts": {"4": 2}}, "cfg.json"
        )
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.panel_size == 3
        assert cfg.counts == {4: 2}

    def test_null_max_bribes_means_no_cap(self, tmp_path):
        path = write_json(tmp_path, {"max_bribes": None}, "cfg.json")
        cfg = load_config(path)
        assert cfg.max_bribes is None
        assert cfg == RunConfig()

    def test_credibility_ratios(self, tmp_path):
        path = write_json(tmp_path, {"credibility_ratios": [5, 3, 1]}, "cfg.json")
        cfg = load_config(path)
        assert cfg.robust.scale3.h / cfg.robust.scale3.l == pytest.approx(5.0)

    def test_credibility_matrix(self, tmp_path):
        doc = {"credibility_matrix": [[1, 2, 7], [0.5, 1, 4], [1 / 7, 0.25, 1]]}
        path = write_json(tmp_path, doc, "cfg.json")
        cfg = load_config(path)
        assert isinstance(cfg.robust.scale3, CredibilityScale3)
        assert cfg.robust.scale3.h == pytest.approx(0.603, abs=1e-3)

    @pytest.mark.parametrize(
        "matrix,message",
        [
            ([[1, 2, 7], [-0.5, 0, 4], [-1, 0.25, 1]], "non-positive entry at row 2, column 1"),
            ([[1, 2, 7], [5, 1, 4], [0.5, 0.5, 1]],
             "reciprocity violated at row 1, column 2 (c_ij*c_ji = 10.0000)"),
        ],
    )
    def test_credibility_matrix_checked_like_a_panel(self, matrix, message, tmp_path):
        path = write_json(tmp_path, {"credibility_matrix": matrix}, "cfg.json")
        with pytest.raises(DomainError) as info:
            load_config(path)
        assert str(info.value) == f"config key 'credibility_matrix': {message}"

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_json(tmp_path, {"sede": 1}, "cfg.json")
        with pytest.raises(PanelParseError, match="sede"):
            load_config(path)

    def test_robust_keys_reflect_scales(self, tmp_path):
        path = write_json(tmp_path, {"h": 7, "l": 2, "beta": 0.25}, "cfg.json")
        rc = load_config(path).robust
        assert rc.scale2.h == 7
        assert rc.scale2.l == 2
        assert rc.beta == 0.25
