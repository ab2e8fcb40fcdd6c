"""Smoke runs of the benchmark at tiny sizes, plus the output checks.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from reference import Reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=150,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "cohort-fit", 0)
    assert done.returncode != 0
    assert done.stdout == ""


def path_report(objectives, converged=True, kkt=1e-10):
    rows = [{"scale": s, "converged": converged, "kkt_max_violation": kkt, "objective": o}
            for s, o in zip((1.0, 0.5, 0.25), objectives)]
    return {"rows": rows}


def test_path_checks():
    scales = (1.0, 0.5, 0.25)
    assert checks.path_problems(path_report([-1.0, -2.0, -2.0]), scales, 1e-8) == []
    assert checks.path_problems(path_report([-1.0, -2.0, -1.5]), scales, 1e-8)
    assert checks.path_problems(path_report([-1.0, -2.0, -3.0], converged=False), scales, 1e-8)
    assert checks.path_problems(path_report([-1.0, -2.0, -3.0], kkt=1e-6), scales, 1e-8)
    assert checks.path_problems(path_report([-1.0, -2.0, -3.0]), scales[:2], 1e-8)


def test_bernstein_checks():
    rows = [{"x": 4.0, "frequency": 0.01}, {"x": 5.0, "frequency": 0.0}]
    assert checks.bernstein_problems({"rows": rows, "passed": True, "replications": 9}, 9) == []
    assert checks.bernstein_problems({"rows": rows, "passed": False, "replications": 9}, 9)
    rising = [rows[1], {"x": 6.0, "frequency": 0.02}]
    assert checks.bernstein_problems({"rows": rising, "passed": True, "replications": 9}, 9)


def test_oracle_checks():
    rows = [{"slow_converged": True, "fast_converged": True},
            {"slow_converged": True, "fast_converged": False}]
    report = {"rows": rows, "replications": 2}
    assert checks.oracle_problems(report, 2) == []
    assert checks.oracle_problems(report, 3)
    assert checks.oracle_nonconverged(report) == 1


def test_reference_runs_a_share_of_the_operation():
    reference = Reference(("parse", "accumulate"), share=0.25)
    reference.after(0.0)
    assert len(reference.times) == 1
    reference.after(4 * sum(reference.times))
    assert len(reference.times) >= 2
    assert reference.scale() > 0
