"""The CI speed-floor table (``python -m repro.bench.floors``).

Pins the gate set itself: which batch paths are timed, at which floors,
and that a floor is judged on the median of its per-rep samples.
"""

from __future__ import annotations

import pytest

from repro.bench import floors
from repro.bench.floors import FLOORS, LINEUP, check


def test_table_holds_the_ci_thresholds():
    assert LINEUP == ("Chameleon", "RS", "PGM", "SortedArray", "B+Tree")
    rows = [(f.index, f.op, f.min_speedup) for f in FLOORS]
    expected = [(name, "lookup", 0.8) for name in LINEUP] + [
        ("Chameleon", "lookup", 2.0),
        ("Chameleon", "delete", 3.0),
        ("Chameleon", "insert", 1.5),
    ]
    assert sorted(rows) == sorted(expected)


def _passing_samples() -> dict[tuple[str, str], list[float]]:
    return {(f.index, f.op): [5.0, 6.0, 7.0] for f in FLOORS}


def test_check_passes_when_every_median_clears_its_floor():
    samples = _passing_samples()
    # One slow rep does not fail a row whose median clears the floor.
    samples["Chameleon", "insert"] = [0.2, 1.6, 1.7]
    results = check(samples)
    assert len(results) == len(FLOORS)
    assert all(r.ok for r in results)
    insert = next(r for r in results if r.floor.op == "insert")
    assert insert.median == pytest.approx(1.6)
    assert insert.iqr == pytest.approx(0.75)


def test_check_fails_the_one_median_below_its_floor():
    samples = _passing_samples()
    samples["Chameleon", "lookup"] = [1.9, 1.95, 9.0]
    failed = [r for r in check(samples) if not r.ok]
    # The 0.8 row for Chameleon passes; only the 2.0 row fails.
    assert [(r.floor.index, r.floor.op, r.floor.min_speedup) for r in failed] == [
        ("Chameleon", "lookup", 2.0)
    ]
    assert failed[0].median == pytest.approx(1.95)


def test_module_runs_at_smallest_scale(capsys):
    code = floors.main(["--n-keys", "2000", "--reps", "3"])
    out = capsys.readouterr().out
    for f in FLOORS:
        assert f.label in out
    assert "full telemetry / disarmed" in out
    assert code == (1 if "[FAIL]" in out else 0)
