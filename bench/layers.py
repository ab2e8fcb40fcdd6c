#!/usr/bin/env python3
"""Layer benchmark: median wall time of each fit layer, and Monte Carlo rates.

Run from the repository root; no install is needed, the package is taken
from ``src`` and BLAS is pinned to one thread unless the environment
already sets it:

    python3 bench/layers.py                    # writes BENCH_layers.json
    python3 bench/layers.py --smoke --out /tmp/layers.json

Each size draws one dataset from the default simulation model with n and
d changed (AR(1) rho = 0.3, beta0 on the first 3 columns, seed 1) and
writes it, untimed, as a CSV to a temporary directory. A run then times
simulate (a control: the same draw again), load_dataset on that CSV, and
linear_dictionary -> build_timeline -> build_gram -> compute_weights ->
fit_path on the loaded data, with 10 geometric scales from 1 down to
0.05. Last, ``cli_path`` times the whole ``hazlasso path`` command on the
same CSV and scales, in this process; its excess over the sum of the
layers from load_dataset to fit_path is argument handling and writing the
report. One untimed run warms the caches; each layer's time is the median
over the timed runs, and ``path_steps`` is the total number of solver
steps of the path, which does not vary between runs. ``minor_faults`` counts the minor page
faults of each ``load_dataset`` and ``build_gram`` call, averaged over the
timed runs, and ``peak_traced_mb`` is the peak of the memory ``tracemalloc``
traces during one more call of each, made after the timed runs so that
tracing slows none of them.

The Monte Carlo entries time ``run_mc`` and both modes of
``run_oracle_mc`` at the default config, serially, in this process, over
15 calls each. They record the median call (``median_s``, from which
``reps_per_s`` is read) and the fastest (``min_s``): on a shared machine
the median of a few calls moves by a third from one run to the next, and
the fastest call is the least disturbed. They count the minor page
faults the process takes over the timed runs, per replication
(``minor_faults_per_rep``): a harness whose chunks get their memory back
from malloc takes almost none. Each also records the ``chunk_length`` it
ran with, from the Monte Carlo driver's one rule, and the
``peak_traced_mb`` of one more call, made after the timed runs as for the
fit layers: the memory a longer chunk trades for its speed.

The compiled reader of plain CSV bodies (``hazlasso._plaincsv``) is built
first, into a temporary cache directory, so that no layer pays for it:
``plain_reader.build_s`` is that one-off build (compile and load), and
``plain_reader.available`` whether it loaded. Each size records in
``reader`` which reader ``load_dataset`` took for its CSV: "compiled", or
"numpy" when the reader is missing or the body is not plain.

Every fit layer is timed before any Monte Carlo entry runs. A harness
raises glibc's mmap and trim thresholds for the rest of its process, which
changes the faults and the time of every later build; the fit layers are
measured with glibc's defaults, as a single command meets them.

The same code runs faster or slower as a shared machine's load changes,
so ``reference`` records how fast the machine was during the run: one
unit of the fixed ``sweep`` and ``accumulate`` kernels of
``perfbench/reference.py`` (interpreter-bound and cache-bound code) is
timed after every timed pipeline run and every timed Monte Carlo call,
and ``median_unit_ms`` is the median unit. Each unit runs in a fresh
interpreter, so it carries none of the cache and allocator state that the
measured code leaves in this process, and two reports made at different
times, of different code, compare by their layer times in units of it.

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
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from functools import partial  # noqa: E402
from time import perf_counter  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

from hazlasso import _plaincsv, cli  # noqa: E402
from hazlasso._chunks import chunk_length  # noqa: E402
from hazlasso.bernstein import run_mc  # noqa: E402
from hazlasso.dictionary import linear_dictionary  # noqa: E402
from hazlasso.gram import build_gram  # noqa: E402
from hazlasso.oracle import run_oracle_mc  # noqa: E402
from hazlasso.simulate import default_config, drawn_columns, simulate  # noqa: E402
from hazlasso.solver import fit_path  # noqa: E402
from hazlasso.survival import build_timeline, load_dataset, write_dataset  # noqa: E402
from hazlasso.weights import compute_weights  # noqa: E402

# (n, d, timed runs): fewer runs where one run takes longer; the last size
# has M > n, the regime of the paper, where the solver is the cost
SIZES = ((200, 50, 20), (2000, 200, 9), (10000, 500, 5), (200, 1000, 9))
SCALES = np.geomspace(1.0, 0.05, 10)
SCALES_ARG = ",".join(repr(float(s)) for s in SCALES)
MC = (("run_mc", 2000), ("run_oracle_mc", 100), ("run_oracle_mc identity_gram", 100))
MC_RUNS = 15
SMOKE_SIZES = ((200, 50, 1),)
SMOKE_MC = (("run_mc", 100), ("run_oracle_mc", 4), ("run_oracle_mc identity_gram", 4))
SMOKE_MC_RUNS = 1
LAYERS = (
    "simulate", "load_dataset", "linear_dictionary", "build_timeline", "build_gram",
    "compute_weights", "fit_path", "cli_path",
)
# the layers whose page faults and traced peak memory are recorded
MEMORY_LAYERS = ("load_dataset", "build_gram")
REFERENCE_KERNELS = ("sweep", "accumulate")


# Prints the seconds of one unit of the kernels named in argv[2:], after
# the untimed warm-up unit that ``Reference`` makes; the reference module
# at path argv[1] is imported by path: it is benchmark code, not a module
# of the package
UNIT_SCRIPT = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_reference", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
ref = module.Reference(sys.argv[2:], share=0.0)
ref.unit()
print(repr(ref.times[-1]))
"""


def reference_unit() -> float:
    """Seconds of one reference unit, timed in a fresh interpreter."""
    path = ROOT / "perfbench" / "reference.py"
    argv = [sys.executable, "-c", UNIT_SCRIPT, str(path), *REFERENCE_KERNELS]
    return float(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def _config(n: int, d: int):
    """The default model (rho = 0.3, beta0 on 3 columns) at n x d, seed 1."""
    base = default_config(seed=1)
    beta0 = np.zeros(d)
    beta0[:3] = base.beta0[:3]
    return dataclasses.replace(base, n=n, d=d, beta0=beta0)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def pipeline(config, data: Path, report: Path) -> tuple[dict, dict, int]:
    """Seconds spent in each layer of one fit of the CSV ``data`` (drawn
    from ``config``) and in the ``path`` command on it, which writes
    ``report``; the minor page faults of ``load_dataset`` and
    ``build_gram``; and the path's solver steps."""
    times, faults = {}, {}
    start = perf_counter()
    simulate(config)
    times["simulate"] = perf_counter() - start
    faults["load_dataset"] = _minor_faults()
    start = perf_counter()
    dataset = load_dataset(data)
    times["load_dataset"] = perf_counter() - start
    faults["load_dataset"] = _minor_faults() - faults["load_dataset"]
    start = perf_counter()
    dictionary = linear_dictionary(dataset)
    times["linear_dictionary"] = perf_counter() - start
    start = perf_counter()
    timeline = build_timeline(dataset)
    times["build_timeline"] = perf_counter() - start
    faults["build_gram"] = _minor_faults()
    start = perf_counter()
    system = build_gram(dataset, dictionary, timeline)
    times["build_gram"] = perf_counter() - start
    faults["build_gram"] = _minor_faults() - faults["build_gram"]
    start = perf_counter()
    weights = compute_weights(system)
    times["compute_weights"] = perf_counter() - start
    start = perf_counter()
    fits = fit_path(system, weights, SCALES)
    times["fit_path"] = perf_counter() - start
    argv = ["path", "--data", str(data), "--scales", SCALES_ARG, "--out", str(report)]
    start = perf_counter()
    code = cli.main(argv)
    times["cli_path"] = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"hazlasso path exited with {code}")
    return times, faults, sum(f.sweeps for f in fits)


def traced_peaks(data: Path) -> dict:
    """Peak traced memory, in MB, of one ``load_dataset`` call on ``data``
    and of one ``build_gram`` call on what it loaded."""
    tracemalloc.start()
    try:
        dataset = load_dataset(data)
        load_peak = tracemalloc.get_traced_memory()[1]
        dictionary = linear_dictionary(dataset)
        timeline = build_timeline(dataset)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        build_gram(dataset, dictionary, timeline)
        gram_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return {"load_dataset": load_peak / 2**20, "build_gram": gram_peak / 2**20}


def build_plain_reader() -> dict:
    """Build and load the compiled CSV reader in a fresh cache directory,
    which is removed after: the loaded reader serves the rest of the run."""
    with tempfile.TemporaryDirectory() as cache, mock.patch.dict(os.environ, XDG_CACHE_HOME=cache):
        start = perf_counter()
        available = _plaincsv.library() is not None
        build_s = perf_counter() - start
    return {"build_s": build_s, "available": available}


class _Readers(logging.Handler):
    """Collects the ``reader`` that each CSV read logs."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.readers = []

    def emit(self, record):
        if hasattr(record, "reader"):
            self.readers.append(record.reader)


def reader_of(data: Path) -> str:
    """The reader that ``load_dataset`` takes for ``data``."""
    logger = logging.getLogger(_plaincsv.__name__)
    handler, level = _Readers(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        load_dataset(data)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return handler.readers[-1]


def layer_entry(n: int, d: int, runs: int, units: list) -> dict:
    config = _config(n, d)
    with tempfile.TemporaryDirectory() as tmp:
        data, report = Path(tmp) / "data.csv", Path(tmp) / "path.json"
        write_dataset(simulate(config).dataset, data)
        pipeline(config, data, report)  # warm-up
        samples, fault_samples = [], []
        for _ in range(runs):
            times, faults, steps = pipeline(config, data, report)
            units.append(reference_unit())
            samples.append(times)
            fault_samples.append(faults)
        peaks = traced_peaks(data)
        reader = reader_of(data)
    return {
        "n": n,
        "d": d,
        "runs": runs,
        "reader": reader,
        "median_ms": {name: 1e3 * statistics.median(s[name] for s in samples) for name in LAYERS},
        "minor_faults": {
            name: sum(f[name] for f in fault_samples) / runs for name in MEMORY_LAYERS
        },
        "peak_traced_mb": peaks,
        "path_steps": steps,
    }


def traced_peak(call) -> float:
    """Peak traced memory, in MB, of one ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def mc_entry(name: str, reps: int, runs: int, units: list) -> dict:
    config = default_config()
    if name == "run_mc":
        call = partial(run_mc, config, 0, (4.0, 5.0, 6.0), reps)
        columns = 1  # column 0
    else:
        identity = name.endswith("identity_gram")
        call = partial(run_oracle_mc, config, replications=reps, identity_gram=identity)
        columns = None  # all d
    call()  # warm-up
    times = []
    faults = _minor_faults()
    for _ in range(runs):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
        units.append(reference_unit())
    faults = _minor_faults() - faults
    median = statistics.median(times)
    return {
        "harness": name,
        "replications": reps,
        "runs": runs,
        "chunk_length": chunk_length(config.n, drawn_columns(config, columns)),
        "median_s": median,
        "min_s": min(times),
        "reps_per_s": reps / median,
        "minor_faults_per_rep": faults / (runs * reps),
        "peak_traced_mb": traced_peak(call),
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
    units = []
    plain_reader = build_plain_reader()
    # the layers run first: the harnesses change the allocator for the rest
    # of the process
    layers = [layer_entry(n, d, runs, units) for n, d, runs in sizes]
    monte_carlo = [mc_entry(name, reps, mc_runs, units) for name, reps in mc]
    report = {
        "provenance": provenance(),
        "reference": {
            "kernels": list(REFERENCE_KERNELS),
            "units": len(units),
            "median_unit_ms": 1e3 * statistics.median(units),
        },
        "plain_reader": plain_reader,
        "path_scales": [float(s) for s in SCALES],
        "layers": layers,
        "monte_carlo": monte_carlo,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    unit = report["reference"]
    print(f"reference unit ({', '.join(unit['kernels'])}): {unit['median_unit_ms']:.3g} ms")
    print(f"compiled CSV reader: available {plain_reader['available']}, "
          f"built in {plain_reader['build_s']:.3g} s")
    for entry in report["layers"]:
        cells = "  ".join(f"{k} {v:.3g} ms" for k, v in entry["median_ms"].items())
        print(f"{entry['n']}x{entry['d']} ({entry['reader']} reader): {cells}  steps {entry['path_steps']}")
        for name in MEMORY_LAYERS:
            faults, peak = entry["minor_faults"][name], entry["peak_traced_mb"][name]
            print(f"  {name}: {faults:.4g} minor faults per call, traced peak {peak:.3g} MB")
    for entry in report["monte_carlo"]:
        rate, reps = entry["reps_per_s"], entry["replications"]
        faults, peak = entry["minor_faults_per_rep"], entry["peak_traced_mb"]
        print(
            f"{entry['harness']}: {rate:.0f} reps/s ({reps} reps, chunks of "
            f"{entry['chunk_length']}), {faults:.3g} minor faults per rep, traced peak {peak:.3g} MB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
