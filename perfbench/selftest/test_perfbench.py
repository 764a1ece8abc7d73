"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest

Runs every workload at smoke size.  Checks the printed schema and metric
names against BENCHMARK.json, that a wrong reference is caught, that
tracing leaves the checked outputs unchanged, and that the benchmark
refuses to run without the package.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.load_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _invoke(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def test_benchmark_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_prints_schema(workload, trace):
    proc = _invoke(run.ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def _corrupt(name, reference):
    wrong = copy.deepcopy(reference)
    for key, value in wrong.items():
        if name in ("table", "wide"):
            wrong[key] = value + " "
        elif name == "population":
            value["scaled_ensemble_mean"] *= 1.0 + 1e-9
        else:
            value[0]["scores"][0][0] *= 1.0 + 1e-9
    return wrong


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_wrong_reference_fails_ops(workload, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    wrong = _corrupt(workload, workloads.load_reference(workload, "smoke"))
    record = run.run_workload(workload, 5, 0.2, 0, size="smoke", reference=wrong)
    assert record["failed"] > 0 and record["correct"] is False
    assert record["ungated"]["failed_ops"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tracing_leaves_outputs_unchanged(workload, monkeypatch, tmp_path):
    monkeypatch.chdir(run.ROOT)
    wl = workloads.make(workload, "smoke")
    run_input, cases = workloads.plan(wl, 5)
    state = wl.setup(run_input, str(tmp_path))
    plain, _ = wl.op(state, cases[0])
    original = sys.modules["rpeqda.rpe"].generate
    tracer = tracing.Tracer()
    tracer.op_id = 0
    tracer.install()
    try:
        traced, _ = wl.op(state, cases[0])
    finally:
        tracer.uninstall()
    assert sys.modules["rpeqda.rpe"].generate is original
    assert traced == plain
    assert wl.check(traced, workloads.load_reference(workload, "smoke")[cases[0]])
    totals = tracer.layer_totals(0)
    assert totals["randproj.generate"]["calls"] > 0
    assert tracer.counts[0]["rpe.members_fitted"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _invoke(tmp_path, "table", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
