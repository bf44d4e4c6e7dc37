"""Tests of the benchmark's own machinery: self time, tracer, failure and drift gates."""

from __future__ import annotations

import copy
import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [6, 7],
    # which has a child [6.2, 6.5]; a last child [9, 12] sticks out of the root
    spans = [(0, 10, -1), (1, 3, 0), (2, 5, 0), (6, 7, 0), (6.2, 6.5, 3), (9, 12, 0)]
    starts, ends, parents = (list(col) for col in zip(*spans))
    got = tracer.self_times(starts, ends, parents)
    want = [10 - (4 + 1 + 1), 2, 3, 1 - 0.3, 0.3, 3]
    assert got == pytest.approx(want)


def _namespaces():
    """Every attribute of every cpverify module and layer class, by identity."""
    import cpverify.checks  # noqa: F401

    snap = {}
    for name, mod in sys.modules.items():
        if name == "cpverify" or name.startswith("cpverify."):
            snap[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if inspect.isclass(obj) and obj.__module__ == name:
                    snap[f"{name}.{attr}"] = dict(vars(obj))
    return snap


def test_tracer_restores_every_wrapped_attribute():
    from cpverify import checks, diffop, exact, moments

    original_mul = exact.MPoly.__mul__
    before = _namespaces()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert exact.MPoly.__mul__ is not original_mul
        assert exact.MPoly.__rmul__ is exact.MPoly.__mul__
        assert moments.build_cp_hamiltonian is diffop.build_cp_hamiltonian  # rebound in both namespaces
        records = checks.run_n1()
    finally:
        tr.restore()
    assert all(r.ok for r in records)
    assert exact.MPoly.__mul__ is original_mul
    after = _namespaces()
    assert before.keys() == after.keys()
    for key in before:
        changed = [a for a in before[key] if before[key][a] is not after[key].get(a)]
        assert not changed, (key, changed)
    table = tr.table()
    m = tr.metrics(table)
    assert m["diffop.build_cp_hamiltonian.calls"] == 6
    assert m["exact.mpoly_mul.calls"] > 0 and m["exact.mpoly_mul.term_pairs"] >= m["exact.mpoly_mul.calls"]
    assert m["exact.ratfun.den_terms_max"] >= 1
    assert sum(row["calls"] for row in table.values()) == len(tr.starts)


def test_a_raising_task_counts_as_failed_and_the_run_goes_on():
    def boom():
        raise ZeroDivisionError("no")

    good = workloads.record("fine", True)
    results = workloads.run_tasks([("boom", boom), ("fine", lambda: [good])], clock=iter(range(100)).__next__)
    assert [r["label"] for r in results] == ["boom", "fine"]
    assert results[0]["records"][0]["ok"] is False
    assert "ZeroDivisionError" in results[0]["records"][0]["detail"]
    reference = [{"label": "boom", "records": [good]}, {"label": "fine", "records": [good]}]
    tally = run.compare(results, reference)
    assert tally == {"attempted": 2, "failed": 1, "drifted": 1, "bad": 1}


def _reference(workload):
    with open(run.reference_path(workload)) as fh:
        return json.load(fh)["variants"]


def test_live_records_match_the_shipped_reference():
    ref = _reference("exact")[0]
    fast = [t for t in workloads.tasks("exact", 0) if t[0] in ("n1", "gauge-scalar", "weyl N=2")]
    results = workloads.run_tasks(fast, clock=iter(range(100)).__next__)
    picked = [t for t in ref["tasks"] if t["label"] in {label for label, _ in fast}]
    tally = run.compare(results, picked)
    assert tally["attempted"] > 0 and tally["drifted"] == 0 and tally["failed"] == 0


def test_perturbed_residual_in_a_copied_reference_is_drift():
    for workload in workloads.WORKLOADS:
        for variant in _reference(workload):
            assert run.digest(variant["tasks"]) == variant["digest"]
    ref = _reference("numeric")[0]["tasks"]
    assert run.compare(ref, ref)["drifted"] == 0
    perturbed = copy.deepcopy(ref)
    rec = next(r for t in perturbed for r in t["records"] if r["residual"])
    rec["residual"] = rec["residual"] + "1"
    tally = run.compare(ref, perturbed)
    assert tally["drifted"] == 1 and tally["failed"] == 0
    assert tally["drifted"] / tally["attempted"] > 0
    assert run.digest(perturbed) != run.digest(ref)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [row[:3] for row in tracer.METRICS]
