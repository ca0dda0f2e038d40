import json

import numpy as np
import pytest

from groupahp import (
    CredibilityScale3,
    DomainError,
    GroupAHPError,
    RunConfig,
    bundled_panel,
    load_config,
    load_panel,
    save_panel,
)
from groupahp.panelio import PanelParseError, parse_panel


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
