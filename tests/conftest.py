"""Shared fixtures and independent reference implementations.

The reference helpers here deliberately avoid the library's prefix-sum
machinery: they re-evaluate every integral literally, interval by
interval, so agreement between the two is evidence rather than tautology.
"""

import re

import numpy as np
import pytest

from hazlasso import SurvivalDataset


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            if getattr(rep, "when", None) != "call":
                continue
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)", getattr(rep, "nodeid", ""))
            if m:
                rows[int(m.group(1))] = (rep.passed, m.group(2).replace("_", " "))
    if rows:
        terminalreporter.section("acceptance criteria")
        for num in sorted(rows):
            passed, title = rows[num]
            terminalreporter.write_line(f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {title}")


@pytest.fixture
def micro_dataset():
    """The hand-worked instance: Z=(0.5, 1.0), both events, column (0, 1).

    On [0, 0.5) both records are at risk, the column mean is 1/2 and the
    centered values are -/+ 1/2; on [0.5, 1) only the second record is at
    risk and its centered value is 0. Hand integration gives H11 = 0.125,
    hn = -0.25 (event contributions -1/2 and 0), vhat = 0.125.
    """
    return SurvivalDataset(
        times=np.array([0.5, 1.0]),
        status=np.array([True, True]),
        covariates=np.array([[0.0], [1.0]]),
    )


def random_dataset(rng, n=None, d=None, censor=0.3):
    """Random instance with times in (0, 1], ties at the horizon, mixed status."""
    n = int(rng.integers(5, 40)) if n is None else n
    d = int(rng.integers(1, 6)) if d is None else d
    times = rng.uniform(0.05, 1.0, size=n)
    times[rng.uniform(size=n) < 0.2] = 1.0
    status = rng.uniform(size=n) > censor
    if not status.any():
        status[0] = True
    return SurvivalDataset(
        times=times, status=status, covariates=rng.standard_normal((n, d))
    )


def literal_norm_sq(dataset, values):
    """(1/n) sum_i int (v_i - vbar_Y)^2 Y_i dt, evaluated interval by interval.

    Independent of the prefix-sum path: the at-risk set is recomputed at
    every interval midpoint straight from the definition Y_i(t) = 1{Z_i >= t}.
    """
    v = np.asarray(values, dtype=float)
    z = dataset.times
    grid = np.unique(np.concatenate([[0.0], z, [1.0]]))
    total = 0.0
    for left, right in zip(grid[:-1], grid[1:]):
        at_risk = z >= 0.5 * (left + right)
        if not at_risk.any():
            continue
        centered = v[at_risk] - v[at_risk].mean()
        total += (right - left) * float(centered @ centered)
    return total / dataset.n


def literal_inner(dataset, left_values, right_values):
    """Same literal evaluation for the inner product <u, v>_n."""
    u = np.asarray(left_values, dtype=float)
    v = np.asarray(right_values, dtype=float)
    z = dataset.times
    grid = np.unique(np.concatenate([[0.0], z, [1.0]]))
    total = 0.0
    for left, right in zip(grid[:-1], grid[1:]):
        at_risk = z >= 0.5 * (left + right)
        if not at_risk.any():
            continue
        cu = u[at_risk] - u[at_risk].mean()
        cv = v[at_risk] - v[at_risk].mean()
        total += (right - left) * float(cu @ cv)
    return total / dataset.n
