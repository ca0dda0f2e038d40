import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupahp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# the demos import the same groupahp as the tests
ENV = {**os.environ, "PYTHONPATH": str(Path(groupahp.__file__).resolve().parents[1])}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=ENV, timeout=120
    )
    assert result.returncode == 0, result.stderr
