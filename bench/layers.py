#!/usr/bin/env python3
"""Layer benchmark: median wall time of each fit layer, and Monte Carlo rates.

Run from the repository root; no install is needed, the package is taken
from ``src`` and BLAS is pinned to one thread unless the environment
already sets it:

    python3 bench/layers.py                    # writes BENCH_layers.json
    python3 bench/layers.py --smoke --out /tmp/layers.json

Each size runs the pipeline simulate -> build_timeline -> build_gram ->
compute_weights -> fit_path on the default simulation model with n and d
changed (AR(1) rho = 0.3, beta0 on the first 3 columns, seed 1), with 10
geometric scales from 1 down to 0.05. One untimed run warms the caches;
each layer's time is the median over the timed runs, and ``path_steps``
is the total number of solver steps of the path, which does not vary
between runs. The Monte Carlo entries time ``run_mc`` and both modes of
``run_oracle_mc`` at the default config, serially, in this process.
``--smoke`` runs only the smallest size, once, with few replications, so
that a test can check the script in seconds.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # BLAS reads these once, when numpy loads
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from functools import partial  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from hazlasso.bernstein import run_mc  # noqa: E402
from hazlasso.dictionary import linear_dictionary  # noqa: E402
from hazlasso.gram import build_gram  # noqa: E402
from hazlasso.oracle import run_oracle_mc  # noqa: E402
from hazlasso.simulate import default_config, simulate  # noqa: E402
from hazlasso.solver import fit_path  # noqa: E402
from hazlasso.survival import build_timeline  # noqa: E402
from hazlasso.weights import compute_weights  # noqa: E402

# (n, d, timed runs): fewer runs where one run takes longer
SIZES = ((200, 50, 20), (2000, 200, 9), (10000, 500, 5))
SCALES = np.geomspace(1.0, 0.05, 10)
MC = (("run_mc", 2000), ("run_oracle_mc", 100), ("run_oracle_mc identity_gram", 100))
MC_RUNS = 5
SMOKE_SIZES = ((200, 50, 1),)
SMOKE_MC = (("run_mc", 100), ("run_oracle_mc", 4), ("run_oracle_mc identity_gram", 4))
SMOKE_MC_RUNS = 1
LAYERS = ("simulate", "build_timeline", "build_gram", "compute_weights", "fit_path")


def _config(n: int, d: int):
    """The default model (rho = 0.3, beta0 on 3 columns) at n x d, seed 1."""
    base = default_config(seed=1)
    beta0 = np.zeros(d)
    beta0[:3] = base.beta0[:3]
    return dataclasses.replace(base, n=n, d=d, beta0=beta0)


def pipeline(config) -> tuple[dict, int]:
    """Seconds spent in each layer of one fit, and the path's solver steps."""
    times = {}
    start = perf_counter()
    dataset = simulate(config).dataset
    times["simulate"] = perf_counter() - start
    dictionary = linear_dictionary(dataset)
    start = perf_counter()
    timeline = build_timeline(dataset)
    times["build_timeline"] = perf_counter() - start
    start = perf_counter()
    system = build_gram(dataset, dictionary, timeline)
    times["build_gram"] = perf_counter() - start
    start = perf_counter()
    weights = compute_weights(dataset, dictionary, system)
    times["compute_weights"] = perf_counter() - start
    start = perf_counter()
    fits = fit_path(system, weights, SCALES)
    times["fit_path"] = perf_counter() - start
    return times, sum(f.sweeps for f in fits)


def layer_entry(n: int, d: int, runs: int) -> dict:
    config = _config(n, d)
    pipeline(config)  # warm-up
    samples = []
    for _ in range(runs):
        times, steps = pipeline(config)
        samples.append(times)
    return {
        "n": n,
        "d": d,
        "runs": runs,
        "median_ms": {name: 1e3 * statistics.median(s[name] for s in samples) for name in LAYERS},
        "path_steps": steps,
    }


def mc_entry(name: str, reps: int, runs: int) -> dict:
    config = default_config()
    if name == "run_mc":
        call = partial(run_mc, config, 0, (4.0, 5.0, 6.0), reps)
    else:
        identity = name.endswith("identity_gram")
        call = partial(run_oracle_mc, config, replications=reps, identity_gram=identity)
    call()  # warm-up
    times = []
    for _ in range(runs):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    median = statistics.median(times)
    return {
        "harness": name,
        "replications": reps,
        "runs": runs,
        "median_s": median,
        "reps_per_s": reps / median,
    }


def _git(*args: str) -> str:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def provenance() -> dict:
    return {
        "commit": _git("rev-parse", "HEAD"),
        # whether the measured package sources match the commit
        "src_clean": _git("status", "--porcelain", "--", "src") == "",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    parser.add_argument("--smoke", action="store_true", help="smallest size, one run, few reps")
    args = parser.parse_args(argv)
    sizes, mc, mc_runs = (
        (SMOKE_SIZES, SMOKE_MC, SMOKE_MC_RUNS) if args.smoke else (SIZES, MC, MC_RUNS)
    )
    report = {
        "provenance": provenance(),
        "path_scales": [float(s) for s in SCALES],
        "layers": [layer_entry(n, d, runs) for n, d, runs in sizes],
        "monte_carlo": [mc_entry(name, reps, mc_runs) for name, reps in mc],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    for entry in report["layers"]:
        cells = "  ".join(f"{k} {v:.3g} ms" for k, v in entry["median_ms"].items())
        print(f"{entry['n']}x{entry['d']}: {cells}  steps {entry['path_steps']}")
    for entry in report["monte_carlo"]:
        rate, reps = entry["reps_per_s"], entry["replications"]
        print(f"{entry['harness']}: {rate:.0f} reps/s ({reps} reps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
