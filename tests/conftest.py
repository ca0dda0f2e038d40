import numpy as np
import pytest

from groupahp import bundled_panel

# One line per acceptance criterion, printed after the run so the verdicts
# survive output capturing.
ACCEPTANCE_REPORT: list[str] = []

# Upper triangle of a valid n = 4 matrix with |lambda_2| / lambda_max = 0.9985,
# on which the power iteration runs out of its steps (more than 10,000 would
# be needed), so LAPACK finishes it.
SLOW_EVM_UPPER = [1, 0.001, 1000, 10, 1, 0.001]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def eight_panel():
    panel, _ = bundled_panel("eight_expert_panel")
    return panel


@pytest.fixture(scope="session")
def five_alt_panel():
    panel, _ = bundled_panel("bribery_demo_panel")
    return panel


def normalized(values) -> np.ndarray:
    """Rescale a published rounded vector so it sums to exactly 1.

    Published group vectors are unnormalized entrywise geometric means; the
    library always returns normalized priority vectors, so targets are
    normalized before comparison.
    """
    arr = np.asarray(values, dtype=float)
    return arr / arr.sum()
