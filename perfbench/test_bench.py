"""Self-test of the benchmark: every workload at a tiny size, in seconds.

    python3 -m pytest -q perfbench/test_bench.py

Checks that each workload runs with no failed job against references
recorded in-process, that the untraced and traced runs emit exactly the
metrics BENCHMARK.json names, that a corrupted answer or a raising job is
counted and makes the run incorrect, and that the committed references
match the measured sizes.
"""

from __future__ import annotations

import json

import pytest

import run

run.import_program()

import workloads as wl  # noqa: E402
from checks import load_references  # noqa: E402
from record_references import record  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_refs():
    return record(size=wl.TINY)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_emits_end_to_end_metrics(workload, tiny_refs):
    result, _tracer, _passes = run.run_workload(workload, 0, 0, 0, size=wl.TINY, refs=tiny_refs)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_emits_per_layer_metrics(workload, tiny_refs):
    result, tracer, _passes = run.run_workload(workload, 0, 0, 1, size=wl.TINY, refs=tiny_refs)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert any(s["name"].startswith("job.") and s["parent"] == 0 for s in tracer.spans)


@pytest.mark.parametrize("fault", ["raise", "corrupt"])
def test_failed_job_makes_the_run_incorrect(fault, tiny_refs, monkeypatch):
    make_jobs = wl.make_jobs

    def faulty_jobs(*args, **kwargs):
        jobs = make_jobs(*args, **kwargs)
        first = jobs[0]

        def run_faulty():
            if fault == "raise":
                raise RecursionError("too deep")
            return (first.run(), "extra")

        return [first._replace(run=run_faulty)] + jobs[1:]

    monkeypatch.setattr(wl, "make_jobs", faulty_jobs)
    # A traced run makes an untraced and a traced pass on each input set.
    result, _tracer, _passes = run.run_workload("logic", 0, 0, 1, size=wl.TINY, refs=tiny_refs)
    assert result["correct"] is False
    assert result["failed"] == 2 * wl.POOL


def test_committed_references_cover_the_measured_sizes():
    refs = load_references()
    for workload in run.WORKLOAD_NAMES:
        assert refs[workload]["size"] == wl.FULL.key()
        assert len(refs[workload]["sets"]) == wl.POOL
        assert all(None not in digests for digests in refs[workload]["sets"])
