#!/usr/bin/env python3
"""hazlasso benchmark: one workload per call, as a closed loop, checked.

Run from the repository root; no install is needed, the package is taken
from ``src`` and BLAS is pinned to one thread:

    python3 perfbench/run.py --workload cohort-fit --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload mc-audit --seed 1 --seconds 2 --trace 1 --smoke

One client drives ``hazlasso.cli.main`` in this process, one command at a
time, each started after the previous one returns; every report is
checked. Between operations fixed reference kernels gauge the machine's
speed, and operation times are rescaled by it. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the
per-layer self times and counts of a traced replay, interleaved with
untraced operations to measure the tracing overhead. ``--smoke`` shrinks
every input so a run takes seconds. The last stdout line is one JSON
object; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import checks
from spans import COUNTS, LAYERS, Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # <= nproc everywhere; one thread keeps a shared 2-CPU box steady
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9  # fresh-process imports timed per run, after one untimed
REFERENCE_SHARE = 0.5  # reference-kernel time after each operation, as a share of it
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import hazlasso, hazlasso.cli; "
    "hazlasso.active_kernel(); print(time.perf_counter() - t)"
)

RATES = {"bernstein": "bernstein_reps_per_s", "oracle-id": "oracle_id_reps_per_s",
         "oracle-search": "oracle_search_reps_per_s"}


def pinned_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


class SetupProbes:
    """Import time of the package in fresh interpreters, spread over the run.

    One untimed probe runs first: it may compile bytecode, which an
    installed package has already done. The timed probes run between
    operations, evenly over the measuring window, so that one slow phase
    of a shared machine cannot cover all of them.
    """

    def __init__(self, count: int):
        self.count = count
        self.times: list[float] = []
        self._probe()
        self.times.clear()

    def begin(self, seconds: float) -> None:
        self.start, self.spacing = perf_counter(), seconds / self.count

    def between_ops(self) -> None:
        due = self.start + len(self.times) * self.spacing
        if len(self.times) < self.count and perf_counter() >= due:
            self._probe()

    def finish(self) -> list[float]:
        while len(self.times) < self.count:
            self._probe()
        return self.times

    def _probe(self) -> None:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=pinned_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        self.times.append(float(done.stdout.strip().splitlines()[-1]))


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, workload) -> dict:
    import numpy as np

    import hazlasso

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "kernel": hazlasso.active_kernel(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "shape": workload.shape,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


class Loop:
    """Runs commands one after another, checks each report, keeps the tallies.

    ``attempted`` and ``failed`` count operations: one per ``path``
    command, one per replication of a Monte Carlo command. A command that
    exits non-zero or fails a check fails all of its replications; an
    oracle replication whose fit did not converge fails on its own.
    """

    def __init__(self, cli, tol: float):
        self.cli, self.tol = cli, tol
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.times = defaultdict(list)  # (command kind, input) -> wall times
        self.reps: dict[str, int] = {}

    def run(self, commands, key: int, tracer=None, op: int = 0):
        """Run one operation on input ``key``; returns its wall time and the
        parsed reports. Only untraced command times are kept."""
        total, reports = 0.0, {}
        for cmd in commands:
            cmd.out.unlink(missing_ok=True)
            start = perf_counter()
            if tracer is None:
                code = self.cli.main(list(cmd.argv))
            else:
                code = tracer.call(op, self.cli.main, list(cmd.argv))
            elapsed = perf_counter() - start
            total += elapsed
            reports[cmd.kind] = self.check(cmd, code)
            if tracer is None:
                self.times[cmd.kind, key].append(elapsed)
                self.reps[cmd.kind] = cmd.reps
        return total, reports

    def check(self, cmd, code: int):
        units = cmd.reps or 1
        self.attempted += units
        report = json.loads(cmd.out.read_text()) if code == 0 and cmd.out.is_file() else None
        if report is None:
            problems = [f"exit code {code}"]
        elif cmd.kind == "path":
            problems = checks.path_problems(report, cmd.scales, self.tol)
        elif cmd.kind == "bernstein":
            problems = checks.bernstein_problems(report, cmd.reps)
        else:
            problems = checks.oracle_problems(report, cmd.reps)
        if problems:
            self.fail(units, f"{cmd.kind}: {problems[0]}")
        elif cmd.kind.startswith("oracle"):
            stuck = checks.oracle_nonconverged(report)
            if stuck:
                self.fail(stuck, f"{cmd.kind}: {stuck} replications did not converge")
        return report

    def fail(self, units: int, problem: str) -> None:
        self.failed += units
        if len(self.problems) < 20:
            self.problems.append(problem)

    def samples(self, kind: str) -> list[float]:
        return [t for (k, _), times in self.times.items() if k == kind for t in times]

    def means(self) -> dict:
        """Per command kind, the mean wall time on each input, averaged over
        inputs, so that a run ending part-way through a cycle of inputs
        weighs every input alike."""
        per_input = defaultdict(list)
        for (kind, _), times in self.times.items():
            per_input[kind].append(statistics.fmean(times))
        return {kind: statistics.fmean(values) for kind, values in per_input.items()}

    def rates(self) -> dict:
        """Replications per second of each Monte Carlo command, from means()."""
        return {RATES[kind]: self.reps[kind] / t for kind, t in self.means().items() if kind in RATES}


def tail_percentile(samples):
    """Highest of p75..p99.9 with at least ten samples beyond it, else None."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1.0 - q / 100.0) >= 10:
            ordered = sorted(samples)
            return q, ordered[min(len(ordered) - 1, int(len(ordered) * q / 100.0))]
    return None


def cross_check_rel(tracer) -> float:
    """|b'Hb - direct norm| / b'Hb at the latest fit: a health number."""
    from hazlasso.gram import empirical_norm_sq, empirical_norm_sq_fn

    (system, dictionary), (fit_system, beta) = tracer.last_build, tracer.last_fit
    if fit_system is not system:
        return 0.0
    quad = empirical_norm_sq(system, beta)
    direct = empirical_norm_sq_fn(system.timeline, dictionary.values @ beta)
    return abs(quad - direct) / quad if quad > 0 else 0.0


def run_untraced(workload, loop, seconds: float, probes, reference) -> dict:
    op_times = []
    probes.begin(seconds)
    deadline = perf_counter() + seconds
    while len(op_times) < workload.inputs or perf_counter() < deadline:
        i = len(op_times)
        elapsed, _ = loop.run(workload.op(i), i % workload.inputs)
        op_times.append(elapsed)
        reference.after(elapsed)
        probes.between_ops()
    return {"op_times": op_times, "setup": probes.finish()}


def run_traced(workload, loop, seconds: float, tracer) -> dict:
    """Pairs of one untraced and one traced run of the same operation, in
    alternating order; the traced reports must match the untraced ones."""
    plain, traced, cross = [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < workload.inputs or perf_counter() < deadline:
        pair = len(traced)
        reports = {}
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            commands = workload.op(pair, tag="t" if with_trace else "u")
            if with_trace:
                with patched(tracer):
                    elapsed, reports[with_trace] = loop.run(commands, None, tracer, op=pair)
                cross.append(cross_check_rel(tracer))
                traced.append(elapsed)
            else:
                elapsed, reports[with_trace] = loop.run(commands, pair % workload.inputs)
                plain.append(elapsed)
        for kind, report in reports[False].items():
            replay = reports[True][kind]
            if report is None or replay is None or report["rows"] != replay["rows"]:
                loop.fail(1, f"{kind}: traced replay rows differ from the untraced report")
    return {"op_times": plain, "traced_times": traced, "cross": cross}


def layer_metrics(tracer, loop, result) -> dict:
    ops = len(result["traced_times"])
    self_times = tracer.self_times()
    names = dict.fromkeys(name for name, _, _ in LAYERS)
    values = {f"{name}_s": self_times.get(name, 0.0) / ops for name in names}
    values["cli.self_s"] = self_times.get("cli.main", 0.0) / ops
    values.update({name: tracer.counts.get(name, 0.0) / ops for name in COUNTS})
    values["solver.kkt_max"] = tracer.kkt_max
    values["gram.cross_check_rel"] = max(result["cross"])
    values["cli.path_s"] = loop.means().get("path", 0.0)
    rates = loop.rates()
    values.update({f"cli.{name}": rates.get(name, 0.0) for name in RATES.values()})
    values["trace.overhead_frac"] = sum(result["traced_times"]) / sum(result["op_times"]) - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cohort-fit", "path-correlated", "mc-audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every check")
    args = parser.parse_args(argv)
    if not (SRC / "hazlasso" / "__init__.py").is_file():
        print(f"error: no hazlasso sources under {SRC}", file=sys.stderr)
        return 2

    # pin BLAS threads and the package location before numpy loads
    os.environ.update(pinned_env())
    sys.path.insert(0, str(SRC))
    probes = SetupProbes(3 if args.smoke else SETUP_PROBES)

    import hazlasso.cli as cli
    from reference import Reference
    from workloads import TOL, Workload

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        start = perf_counter()
        workload = Workload(args.workload, args.seed, workdir, smoke=args.smoke)
        inputs_s = perf_counter() - start
        loop = Loop(cli, TOL)
        if args.trace:
            tracer = Tracer()
            result = run_traced(workload, loop, args.seconds, tracer)
            tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            reference = Reference(workload.reference, REFERENCE_SHARE)
            result = run_untraced(workload, loop, args.seconds, probes, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("provenance " + json.dumps(provenance(args, workload), sort_keys=True))
    print(f"inputs {inputs_s:.3f} s (untimed)")
    op_times = result["op_times"]
    if args.trace:
        values = layer_metrics(tracer, loop, result)
        samples = {name: len(result["traced_times"]) for name in values}
        samples["trace.overhead_frac"] = len(op_times)
        span_sum = sum(tracer.self_times().values())
        if abs(span_sum - tracer.root_time()) > 1e-6 * max(span_sum, 1e-9):
            loop.fail(1, "span self times do not add up to the root spans")
        print(f"self-time sum {span_sum / len(result['traced_times']):.6f} s per operation, "
              f"untraced operation mean {statistics.fmean(op_times):.6f} s, "
              f"overhead {values['trace.overhead_frac']:+.4f}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = result["setup"]
        means, scale = loop.means(), reference.scale()
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb,
            "ok_frac": 1.0 - loop.failed / loop.attempted,
            "op_ref_s": sum(means.values()) * scale,
        }
        samples = {"setup_s": len(setup), "peak_rss_mb": 1, "ok_frac": loop.attempted,
                   "op_ref_s": len(op_times)}
        print("samples setup_s " + " ".join(f"{t:.4f}" for t in setup))
        print("samples op wall s " + " ".join(f"{t:.4f}" for t in op_times))
        print(f"reference {len(reference.times)} units, mean {statistics.fmean(reference.times):.6f} s, "
              f"median {statistics.median(reference.times):.6f} s, scale {scale:.4f}")
        rates = loop.rates()
        for kind, mean in means.items():
            times = loop.samples(kind)
            tail = tail_percentile(times)
            tail_text = f"p{tail[0]:g} {tail[1]:.6f} s" if tail else "no tail percentile (under 10 samples beyond p75)"
            line = (f"command {kind:<14} wall mean {mean:.6f} s, median {statistics.median(times):.6f} s, "
                    f"{tail_text}, samples={len(times)}")
            if kind in RATES:
                line += f", {RATES[kind]} {rates[RATES[kind]]:.3f} 1/s"
            print(line)
        print(f"failed_frac {loop.failed / loop.attempted:.6g} ({loop.failed} of {loop.attempted})")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        print(f"metric {name:<36} {value:.6g} {units[name]} samples={samples[name]}")
    for problem in loop.problems:
        print(f"check failed: {problem}")
    correct = loop.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
