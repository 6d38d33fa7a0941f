"""The inner-loop benchmark's regression gate (``check_regression``)."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "bench_inner_loop.py"
)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_inner_loop", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = {
    "example": "A1TR", "scale": 0.05, "speedup": 2.0,
    "seconds_bound_abort": 2.0, "sched_runs": 344, "prune_cut": 7,
    "sched_abort": 8, "cost": 959.97,
}


@pytest.fixture()
def baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"records": [BASE]}))
    return path


def test_identical_record_passes(bench, baseline):
    assert bench.check_regression([dict(BASE)], baseline, 0.25) == []


def test_speedup_within_band_passes(bench, baseline):
    record = dict(BASE, speedup=1.6)
    assert bench.check_regression([record], baseline, 0.25) == []


@pytest.mark.parametrize("field, value", [
    ("sched_runs", 345), ("prune_cut", 6), ("sched_abort", 9),
    ("cost", 985.35),
])
def test_changed_deterministic_field_fails(bench, baseline, field, value):
    """Work counters and cost are deterministic: any change fails,
    even with the speedup unchanged."""
    record = dict(BASE, **{field: value})
    failures = bench.check_regression([record], baseline, 0.25)
    assert len(failures) == 1
    assert field in failures[0]


def test_speedup_regression_still_fails(bench, baseline):
    record = dict(BASE, speedup=1.4)
    failures = bench.check_regression([record], baseline, 0.25)
    assert len(failures) == 1
    assert "speedup" in failures[0]
