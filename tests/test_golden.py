"""Byte-identity guard: SHA-256 of the experiment outputs on a small seeded corpus and
on the full study.

The digests pin records.csv, summary.csv and stdout of ``experiment --which 1``
and ``--which 2`` at seed 7 on a 24-scenario corpus, and on the default config
(4,000 scenarios of 20 experts, seed 20230).  A refactor that is meant to keep every printed
digit must keep them; a change that moves a number on purpose re-records them
and says why.  Recorded with numpy 2.4.6, the version CI pins: another numpy
may round a log or an exp differently in the last bit.
"""

import hashlib
import json

import pytest

from groupahp.cli import main

# n from 3 to 7, alpha over the study's range, low-CI scenarios included
GOLDEN_CONFIG = {
    "counts": {"3": 2, "5": 2, "7": 2},
    "alpha_start": 1.1,
    "alpha_stop": 5.0,
    "alpha_step": 1.3,
    "panel_size": 8,
}
GOLDEN_SEED = 7

GOLDEN = {
    "1": {
        "records.csv": "b8d32b77aac24b552f1ba831bccbe4dfbdd8fe73ba881aee6fa004578b7facd9",
        "summary.csv": "6cd0910e75075c8e8840343754739982ef4de8135d0a4e784f98bda176076b41",
        "stdout": "95b3f5359fdc3ac2824827bbafdeccc4b961202c0dcf9a8d15ab42f0fc5dc5d4",
    },
    "2": {
        "records.csv": "71edc78dd5cc58961d999e14a673c80e0c5b5a328d0f7daa88de2bf7b90e2aa8",
        "summary.csv": "ac5b425d76f3450a12ed90865589a6092a559c74da379245cadf6337327f9637",
        "stdout": "98dd3d18ec113e22bd2d388eec189c81b12666c1c4e55345e31e8d3954f06468",
    },
}


# the default config at its seed 20230: the study the README's numbers come from
FULL_SCALE = {
    "1": {
        "records.csv": "a98c6e09ee66ee113525e906607d7caf2a1dc8bd320222ee449392935284dbea",
        "summary.csv": "c0b83e1914ed23845ee216e4d65ae9d3a46a1c25b6e2ef5d0e6e2aaf557527d2",
        "stdout": "4cdbb903d8d17c6a4a542f011ce854012fccc172befd54919babb19dbc12bb9b",
    },
    "2": {
        "records.csv": "4c179c1b34277766e50a59fdef1c696615c716e87c4e9b6ccafeacfb3c5891a1",
        "summary.csv": "d01431329dfe030cfc244fb8e834aa45f6441116a7f097fc5c75136627211a6f",
        "stdout": "6bc95c23cb57373da98800084187957dbedce50932ed8a341fe92c14aba8e38a",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def experiment_digests(which: str, tmp_path, capsys) -> dict[str, str]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG))
    out_dir = tmp_path / "out"
    argv = ["experiment", "--which", which, "--config", str(config),
            "--out", str(out_dir), "--seed", str(GOLDEN_SEED)]
    assert main(argv) == 0
    # the first line names the output directory, which differs between runs
    stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
    return {
        "records.csv": sha256((out_dir / "records.csv").read_bytes()),
        "summary.csv": sha256((out_dir / "summary.csv").read_bytes()),
        "stdout": sha256(stdout.encode()),
    }


@pytest.mark.parametrize("which", ["1", "2"])
def test_outputs_are_byte_identical(which, tmp_path, capsys):
    assert experiment_digests(which, tmp_path, capsys) == GOLDEN[which]


@pytest.mark.parametrize("which", ["1", "2"])
def test_full_scale_outputs_are_byte_identical(which, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["experiment", "--which", which, "--out", str(out_dir)]) == 0
    # the first line names the output directory; the headline statistics follow it
    stdout = capsys.readouterr().out.split("\n", 1)[1]
    assert {
        "records.csv": sha256((out_dir / "records.csv").read_bytes()),
        "summary.csv": sha256((out_dir / "summary.csv").read_bytes()),
        "stdout": sha256(stdout.encode()),
    } == FULL_SCALE[which]
