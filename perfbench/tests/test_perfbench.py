"""Tests of the benchmark itself (not part of the program's test suite).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import definition  # noqa: E402
import kernels  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every box to L <= 200 and the kernel table to small shapes."""
    sections = {}
    for name, params in workloads.SECTIONS.items():
        params = dict(params, size=str(min(int(params["size"]), 200)))
        if params["type"] == "spacing":
            params["half_width"] = "10.0"
        sections[name] = params
    monkeypatch.setattr(workloads, "SECTIONS", sections)
    monkeypatch.setattr(
        kernels, "STURM_SHAPES",
        {row: (4, 50, shifts, 1) for row, (_, _, shifts, _) in kernels.STURM_SHAPES.items()},
    )
    monkeypatch.setattr(kernels, "SCALAR", (30, 5))
    monkeypatch.setattr(kernels, "BATCHED", (2, 200, (0.2, 0.6)))
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(tiny, workload, trace):
    out = run.run_workload(workload, 3, 0.01, trace, [])
    assert out["correct"], out["problems"]
    assert out["attempted"] >= 1 and out["failed"] == 0
    expected = definition.END_TO_END if trace == 0 else definition.PER_LAYER
    assert list(out["metrics"]) == [m[0] for m in expected]
    for name, unit, *_ in expected:
        metric = out["metrics"][name]
        assert metric["unit"] == unit
        assert np.isfinite(metric["value"])
    for key in ("git_commit", "python", "numpy", "scipy", "nproc", "cpu_model",
                "cache_bytes", "seed", "argv"):
        assert key in out["provenance"]


def test_traced_suite_counts_merges_worker_spans(tiny):
    out = run.run_workload("suite-counts", 3, 0.01, 1, [])
    assert out["correct"], out["problems"]
    assert out["metrics"]["blocks.map_blocks.blocks"]["value"] > 0
    assert out["metrics"]["eigensolve.sturm_counts.wide.pivots"]["value"] > 0


def test_generator_is_deterministic_in_seed():
    for name in workloads.SUITES:
        assert workloads.suite_config(name, 7) == workloads.suite_config(name, 7)
        assert workloads.suite_config(name, 7) != workloads.suite_config(name, 8)
    assert workloads.api_inputs(7) == workloads.api_inputs(7)
    assert workloads.api_inputs(7) != workloads.api_inputs(8)
    assert [c["fn"] for c in workloads.api_inputs(7)] == [
        c["fn"] for c in workloads.api_inputs(8)
    ]


def _perturb_first_count(text):
    head, rest = text.split("\n", 1)
    report = json.loads(head)
    for est in report["estimates"]:
        if est["name"].startswith(checks.COUNT_PREFIXES):
            est["value"] += 1e-3
            break
    return json.dumps(report, sort_keys=True) + "\n" + rest


def test_reference_check_fails_on_perturbed_report(tiny, monkeypatch):
    wl = run.SuiteWorkload("suite-counts", 3, tiny)
    rec = run.launch(wl.job("it0", False), tiny)
    assert rec["ok"]
    outputs = checks.section_outputs(tiny / "it0", wl.sections)
    ref_path = tiny / "reference.json"
    ref_path.write_text(json.dumps({"suite-counts": checks.reference_entry(outputs)}))
    monkeypatch.setattr(checks, "REFERENCE", ref_path)
    assert checks.reference_mismatches("suite-counts", outputs) == set()
    outputs["minami_anderson"] = _perturb_first_count(outputs["minami_anderson"])
    assert checks.reference_mismatches("suite-counts", outputs) == {"minami_anderson"}


def test_repeat_check_fails_on_perturbed_report(tiny):
    wl = run.SuiteWorkload("suite-counts", 3, tiny)
    for run_id in ("it0", "it1"):
        rec = run.launch(wl.job(run_id, False), tiny)
        if run_id == "it1":
            report = tiny / "it1" / "wegner_anderson.json"
            data = json.loads(report.read_text())
            data["estimates"][0]["value"] += 1e-3
            report.write_text(json.dumps(data))
        _, bad = wl.check(rec, run_id)
        assert list(bad) == ([] if run_id == "it0" else ["wegner_anderson"])


def test_spacing_oracle_fails_on_perturbed_eigenvalue(tiny):
    wl = run.SuiteWorkload("suite-unfold", 3, tiny)
    rec = run.launch(wl.job("it0", False), tiny)
    assert rec["ok"]
    outputs = checks.section_outputs(tiny / "it0", wl.sections)
    captures = rec["result"]["captures"]
    assert checks.spacing_oracle(captures, wl.master, "spacing_anderson",
                                 outputs["spacing_anderson"]) == []
    captures[0]["values"][0] += 1e-7
    problems = checks.spacing_oracle(captures, wl.master, "spacing_anderson",
                                     outputs["spacing_anderson"])
    assert problems and "scipy" in problems[0]


def test_api_oracle_fails_on_perturbed_results():
    calls = workloads.api_inputs(3)
    for call in calls:
        value = workloads.run_api_call(call)
        assert checks.api_oracle(call, value) == [], call["fn"]
    ned = next(c for c in calls if c["fn"] == "nearest_eigenvalue_distance")
    value = workloads.run_api_call(ned)
    assert checks.api_oracle(ned, value + 1e-6)
    evs = next(c for c in calls if c["fn"] == "eigenvalues_in")
    value = workloads.run_api_call(evs)
    assert checks.api_oracle(evs, value[:-1])


def test_span_checks_catch_broken_trees():
    def span(sid, parent, start, end, name="x", pid=1, **attrs):
        return {"id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "run": "r", "pid": pid, "attrs": attrs}

    good = [span("a", None, 0.0, 10.0), span("b", "a", 1.0, 4.0), span("c", "a", 3.0, 6.0)]
    assert layers.check_spans(good, 1) == []
    assert layers.self_times(good)["a"] == pytest.approx(5.0)
    assert layers.check_spans(good + [span("d", "a", 9.0, 11.0)], 1)
    pool = [span("m", None, 0.0, 5.0, name="blocks.map_blocks", blocks=2, lanes=2),
            span("b1", "m", 1.0, 2.0, name="blocks.block"),
            span("b2", "m", 1.0, 3.0, name="blocks.block")]
    assert layers.check_spans(pool, 1)  # worker spans were not merged
    pool[1]["pid"] = pool[2]["pid"] = 2
    assert layers.check_spans(pool, 1) == []


def test_benchmark_json_matches_definition():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == definition.benchmark_json()


def test_refuses_checkout_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "api-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
