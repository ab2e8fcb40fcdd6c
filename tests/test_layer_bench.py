"""The layer benchmark script stays runnable.

``bench/layers.py`` writes the committed ``BENCH_layers.json``; its smoke
mode runs the smallest size once with a few replications, in a fresh
interpreter as a user would start it.
"""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _refuse(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_smoke_run_writes_a_complete_report(tmp_path):
    out = tmp_path / "layers.json"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--smoke", "--out", str(out)],
        check=True, capture_output=True, timeout=120,
    )
    report = json.loads(out.read_text(encoding="utf-8"), parse_constant=_refuse)
    provenance = {"commit", "python", "numpy", "blas_threads_env", "cpu_count"}
    assert set(report["provenance"]) >= provenance
    reference = report["reference"]
    assert reference["kernels"] == ["sweep", "accumulate"]
    assert reference["units"] == 1 + len(report["monte_carlo"])  # one per timed run
    assert reference["median_unit_ms"] > 0
    (entry,) = report["layers"]
    assert (entry["n"], entry["d"], entry["runs"]) == (200, 50, 1)
    assert set(entry["median_ms"]) == {
        "simulate", "load_dataset", "linear_dictionary", "build_timeline", "build_gram",
        "compute_weights", "fit_path", "cli_path",
    }
    assert all(t > 0 for t in entry["median_ms"].values())
    assert set(entry["minor_faults"]) == {"load_dataset", "build_gram"}
    assert all(f >= 0 for f in entry["minor_faults"].values())
    assert set(entry["peak_traced_mb"]) == {"load_dataset", "build_gram"}
    assert all(mb > 0 for mb in entry["peak_traced_mb"].values())
    assert entry["path_steps"] > 0
    harnesses = [mc["harness"] for mc in report["monte_carlo"]]
    assert harnesses == ["run_mc", "run_oracle_mc", "run_oracle_mc identity_gram"]
    assert all(mc["reps_per_s"] > 0 for mc in report["monte_carlo"])
    assert all(mc["minor_faults_per_rep"] >= 0 for mc in report["monte_carlo"])
