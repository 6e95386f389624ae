"""Smoke test of the benchmark at reduced sizes.

Every workload runs once, traced, at its smoke size (the sweep at bound 4,
pairing and maps at source size 5).  The tests check that every metric named
in BENCHMARK.json is emitted, that the traced spans nest inside their
parents, that the outputs match expected.json, that a corrupted output is counted as a failed operation, and that the benchmark
refuses to run without the fsprim sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

@pytest.fixture(autouse=True)
def small_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)


# Eliminations and distinct RREFs at smoke size.  At pairing size 5,
# a = 1..3 eliminate theta_matrix(a, 5) and its restriction stage, which have
# the same RREF.
SMOKE_ELIMINATIONS = {"pairing_b6": (6, 3), "maps_b6": (0, 0)}


def assert_spans_nest(trace: dict) -> None:
    """Every span lies inside its parent's interval; span 0 is the sample."""
    intervals = {0: (trace["start"], trace["end"])}
    # Spans are recorded when they end, so a parent follows its children;
    # ids are taken when they start, so a parent's id is the smaller one.
    for span_id, parent_id, _, start, end in sorted(trace["spans"]):
        assert span_id not in intervals and parent_id < span_id
        parent_start, parent_end = intervals[parent_id]
        assert parent_start <= start <= end <= parent_end
        intervals[span_id] = (start, end)


def smoke(workload: str, trace: bool) -> dict:
    return run.measure(workload, seed=1, seconds=0, trace=trace,
                       size=WORKLOADS[workload].smoke_size)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted(workload):
    measured = smoke(workload, trace=True)
    assert measured["attempted"] > 0 and measured["failed"] == 0
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.report(measured, trace)
        assert result["correct"]
        assert {name: metric["unit"]
                for name, metric in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in run.BENCHMARK[section]}
    assert all(measured["end_to_end"][name] > 0 for name in run.END_TO_END)
    layers = measured["per_layer"]
    # A span that escaped its parent, or a time counted twice, would leave
    # some self time below zero.
    assert all(value >= -1e-9 for name, value in layers.items()
               if name.endswith(".s"))
    assert_spans_nest(json.loads(
        (run.TRACE_DIR / f"trace-{workload}.json").read_text()))
    if workload in SMOKE_ELIMINATIONS:
        count, distinct = SMOKE_ELIMINATIONS[workload]
        assert layers["ratlinalg.elim.count"] == count
        assert layers["ratlinalg.elim.distinct_ratio"] == (
            distinct / count if count else 0.0)


def test_corrupted_output_counts_as_failed(monkeypatch):
    real = run.run_child

    def corrupting(*args, **kwargs):
        result = real(*args, **kwargs)
        if result is not None and "outputs" in result:
            result["outputs"][0][2] = "corrupted"
        return result
    monkeypatch.setattr(run, "run_child", corrupting)
    result = run.report(smoke("pairing_b6", trace=False), trace=False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert run.failed_fraction(result) > 0


def test_refuses_to_run_without_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "maps_b6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
