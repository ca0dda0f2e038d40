import collections
import sys

import numpy as np
import pytest

from groupahp import (ExpertPanel, bribe_matrix, bundled_panel, core, derive,
                      pcm_from_upper_triangle, perturb)

# One line per acceptance criterion, printed after the run so the verdicts
# survive output capturing.
ACCEPTANCE_REPORT: list[str] = []

# Upper triangle of a valid n = 4 matrix with |lambda_2| / lambda_max = 0.9985,
# on which the power iteration runs out of its steps (more than 10,000 would
# be needed), so LAPACK finishes it.
SLOW_EVM_UPPER = [1, 0.001, 1000, 10, 1, 0.001]
# Upper triangle of a valid, very inconsistent n = 5 matrix that LAPACK finishes with
# an eigenvector that has an exact zero component, so lambda_max = mean((A v) / v)
# would divide by zero.
ZERO_COMPONENT_UPPER = [8.34e-26, 4.37e-06, 2.02e-57, 1.52e-29, 3.62e-56, 2.32e-44, 2.37e85,
                        2.72e-17, 1.49e-23, 1.72e22]


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


def random_pcm(n, rng, spread=9.0):
    upper = np.exp(rng.uniform(-np.log(spread), np.log(spread), n * (n - 1) // 2))
    return pcm_from_upper_triangle(n, upper)


def record_log_means(monkeypatch) -> list[np.ndarray]:
    """Patch ``derive._row_gmm`` in every package module that calls it; the returned list gets a
    copy of each call's (..., n, n) stack, reshaped to (-1, n, n)."""
    calls, real = [], derive._row_gmm

    def recorded(A):
        calls.append(np.array(A).reshape(-1, *A.shape[-2:]))
        return real(A)

    for name, module in list(sys.modules.items()):
        if name.startswith("groupahp.") and getattr(module, "_row_gmm", None) is real:
            monkeypatch.setattr(module, "_row_gmm", recorded)
    return calls


def count_unchecked(monkeypatch, *forbidden) -> collections.Counter:
    """Patch ``core._unchecked`` in every package module that imports it; the returned Counter
    counts the objects it makes by class name.  Calling the constructor of a ``forbidden`` class
    fails the test."""
    made, real = collections.Counter(), core._unchecked

    def unchecked(cls, **fields):
        made[cls.__name__] += 1
        return real(cls, **fields)

    def built(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("groupahp.") and hasattr(module, "_unchecked"):
            monkeypatch.setattr(module, "_unchecked", unchecked)
    for cls in forbidden:
        monkeypatch.setattr(cls, "__init__", built)
    return made


def derived_matrices(m, rng):
    """New matrices built from m by three ways the package makes them."""
    return {
        "bribe_matrix": bribe_matrix(m, 0, 1),
        "ExpertPanel": ExpertPanel((m, random_pcm(m.n, rng))).matrices[1],
        "perturb": perturb(m, 3.0, rng, "log-uniform", 1).matrices[0],
    }


def normalized(values) -> np.ndarray:
    """Rescale a published rounded vector so it sums to exactly 1.

    Published group vectors are unnormalized entrywise geometric means; the
    library always returns normalized priority vectors, so targets are
    normalized before comparison.
    """
    arr = np.asarray(values, dtype=float)
    return arr / arr.sum()
