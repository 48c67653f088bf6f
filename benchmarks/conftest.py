"""Shared scale/config for the benchmark suite.

``pytest benchmarks/ --benchmark-only`` runs every experiment once at quick
scale (seconds each) and records the wall time; the full paper-scale sweeps
are run via ``python -m repro.bench <experiment>``.
"""

import pytest

from repro.bench import BenchScale


def pytest_addoption(parser):
    parser.addoption(
        "--no-wall-clock",
        action="store_true",
        help="skip the shape assertions stated on wall-clock time and keep "
        "those stated on structural counters (for noisy shared runners)",
    )


@pytest.fixture(scope="session")
def wall_clock(request) -> bool:
    """Whether the wall-clock shape assertions run (default: yes)."""
    return not request.config.getoption("--no-wall-clock")


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    """Quick-scale knobs shared by all benchmark files."""
    return BenchScale.quick()


def run_once(benchmark, fn):
    """Execute an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
