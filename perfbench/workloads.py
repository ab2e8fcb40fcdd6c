"""The three workloads: their inputs, made from the seed, and their commands.

* ``cohort-fit``: one ``hazlasso path`` on a large cohort CSV, where CSV
  loading and the Gram build dominate and the solver is a few percent.
* ``path-correlated``: a long path on strongly correlated covariates, where
  coordinate-descent sweeps dominate.
* ``mc-audit``: a round of the three Monte Carlo harness commands at the
  default config, thousands of tiny problems where per-call overhead in
  simulate, survival, bernstein and oracle dominates.

An operation is what the closed loop times as one sample: one ``path``
command for the fit workloads, one round of three commands for
``mc-audit``. Inputs are generated before the timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hazlasso.simulate import (
    GaussianCovariates,
    SimulationConfig,
    UniformCensoring,
    simulate,
)
from hazlasso.survival import StepFunction, write_dataset

TOL = 1e-8  # the CLI default, which the path checks compare against


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``reps`` counts its Monte Carlo replications."""

    kind: str  # "path", "bernstein", "oracle-id" or "oracle-search"
    argv: tuple[str, ...]
    out: Path
    reps: int = 0
    scales: tuple[float, ...] = ()


# n, d, AR(1) rho, path scales (geometric from first to last), CSV files per run
FIT_SHAPES = {
    "cohort-fit": {"n": 4000, "d": 250, "rho": 0.3, "scales": (1.0, 0.05, 10), "files": 1},
    # sweep counts vary by ~5% between datasets, so each run rotates over
    # eight files and a run's mean varies by about 2% with the seed
    "path-correlated": {"n": 600, "d": 200, "rho": 0.9, "scales": (1.0, 0.01, 20), "files": 8},
}
FIT_SMOKE = {"cohort-fit": {"n": 300, "d": 20}, "path-correlated": {"n": 150, "d": 15}}

# replications per command, about 0.2 s each, so a 36 s run has ~40 rounds.
# bernstein needs >= 100 reps for `passed` to be able to hold at x=6.
MC_REPS = {"bernstein": 200, "oracle-id": 15, "oracle-search": 15}
MC_SMOKE = {"bernstein": 100, "oracle-id": 3, "oracle-search": 3}
MC_SMOKE_CONFIG = {"n": 80, "d": 15}
MC_INPUTS = 1  # every round repeats the same harness seed, so the same work

# reference kernels (reference.py) that resemble each workload's hot code:
# CSV loading and the cache-bound Gram accumulation for cohort-fit, the
# interpreter-bound coordinate sweeps and small-array calls for the others
REFERENCE = {
    "cohort-fit": ("parse", "accumulate"),
    "path-correlated": ("sweep",),
    "mc-audit": ("sweep",),
}


def _config(n: int, d: int, rho: float, seed: int) -> SimulationConfig:
    """The default simulation model (3 active covariates, ~30% censoring) at n x d."""
    beta0 = np.zeros(d)
    beta0[[0, 1, 2]] = [1.0, 1.0, -0.5]
    return SimulationConfig(
        n=n,
        d=d,
        beta0=beta0,
        baseline=StepFunction.constant(2.0),
        covariates=GaussianCovariates(rho=rho, clip=3.0),
        censoring=UniformCensoring(c_max=2.5),
        seed=seed,
    )


class Workload:
    """Inputs for one run plus the commands of operation ``i``.

    Operation i runs on input ``i % inputs`` (a CSV file, or a harness
    seed), so the inputs take turns and each is repeated. ``tag`` only
    separates report files, so the traced run can replay an operation
    exactly.
    """

    def __init__(self, name: str, seed: int, workdir: Path, smoke: bool = False):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.reference = REFERENCE[name]
        workdir.mkdir(parents=True, exist_ok=True)
        if name == "mc-audit":
            self._prepare_mc(smoke)
        else:
            self._prepare_fit(smoke)

    def _prepare_fit(self, smoke: bool) -> None:
        shape = dict(FIT_SHAPES[self.name])
        if smoke:
            shape.update(FIT_SMOKE[self.name])
        first, last, count = shape["scales"]
        self.scales = tuple(float(s) for s in np.geomspace(first, last, count))
        config = _config(shape["n"], shape["d"], shape["rho"], self.seed)
        self.files = []
        for k in range(shape["files"]):
            path = self.workdir / f"data-{k}.csv"
            write_dataset(simulate(config, seed=[self.seed, k]).dataset, path)
            self.files.append(path)
        self.inputs = len(self.files)
        self.shape = {"n": shape["n"], "d": shape["d"], "rho": shape["rho"],
                      "scales": len(self.scales), "files": shape["files"]}

    def _prepare_mc(self, smoke: bool) -> None:
        self.config = "default"
        self.inputs = MC_INPUTS
        self.reps = MC_SMOKE if smoke else MC_REPS
        if smoke:
            path = self.workdir / "config.json"
            small = {
                **MC_SMOKE_CONFIG,
                "beta0": {"indices": [0, 1, 2], "values": [1.0, 1.0, -0.5]},
                "covariates": {"kind": "gaussian", "rho": 0.3, "clip": 3.0},
                "censoring": {"kind": "uniform", "c_max": 2.5},
                "baseline": {"breakpoints": [0.0, 1.0], "values": [2.0]},
            }
            path.write_text(json.dumps(small), encoding="utf-8")
            self.config = str(path)
        self.shape = {"config": "smoke" if smoke else "default", "reps": dict(self.reps)}

    def op(self, i: int, tag: str = "u") -> list[Command]:
        """Commands of operation i."""
        if self.name == "mc-audit":
            return self._mc_op(i, tag)
        data = self.files[i % self.inputs]
        out = self.workdir / f"path-{tag}.json"
        scales = ",".join(repr(s) for s in self.scales)
        argv = ("path", "--data", str(data), "--scales", scales, "--out", str(out))
        return [Command("path", argv, out, scales=self.scales)]

    def _mc_op(self, i: int, tag: str) -> list[Command]:
        seed = str(1000 * self.seed + i % self.inputs)
        common = ("--config", self.config, "--threads", "1", "--seed", seed)
        flavours = {
            "bernstein": ("bernstein-mc", "--column", "0", "--x-grid", "4,5,6"),
            "oracle-id": ("oracle-check", "--identity-gram"),
            "oracle-search": ("oracle-check", "--mu3-budget", "256"),
        }
        commands = []
        for kind, head in flavours.items():
            out = self.workdir / f"{kind}-{tag}.json"
            argv = head + common + ("--reps", str(self.reps[kind]), "--out", str(out))
            commands.append(Command(kind, argv, out, reps=self.reps[kind]))
        return commands
