"""Spans and counters recorded from outside the program.

The traced run wraps the public function of each layer that the CLI
reaches, rebinding every module-level name that refers to it inside the
``hazlasso`` package, and calls ``hazlasso.cli.main`` through the wrapped
root. Nothing in the package changes: the spans sit at the boundaries
between layers, and their self times (duration minus the time covered by
child spans) add up to the root command's traced wall time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, module, function). Both oracle checks share one span name:
# the layer metric is the time spent checking, slow and fast together.
LAYERS = [
    ("survival.load_dataset", "hazlasso.survival", "load_dataset"),
    ("survival.build_timeline", "hazlasso.survival", "build_timeline"),
    ("dictionary.linear_dictionary", "hazlasso.dictionary", "linear_dictionary"),
    ("gram.build_gram", "hazlasso.gram", "build_gram"),
    ("weights.compute_weights", "hazlasso.weights", "compute_weights"),
    ("solver.fit_path", "hazlasso.solver", "fit_path"),
    ("solver.fit", "hazlasso.solver", "fit"),
    ("simulate.simulate", "hazlasso.simulate", "simulate"),
    ("bernstein.run_mc", "hazlasso.bernstein", "run_mc"),
    ("bernstein.noise_process_terminal", "hazlasso.bernstein", "noise_process_terminal"),
    ("oracle.run_oracle_mc", "hazlasso.oracle", "run_oracle_mc"),
    ("oracle.identity_gram_check", "hazlasso.oracle", "identity_gram_check"),
    ("oracle.mu3_search", "hazlasso.oracle", "mu3_search"),
    ("oracle.checks", "hazlasso.oracle", "slow_oracle_check"),
    ("oracle.checks", "hazlasso.oracle", "fast_oracle_check"),
]
ROOT = "cli.main"
# counters kept by the _observe_* methods below, reported per operation
COUNTS = [
    "survival.intervals", "gram.build_gram_calls", "gram.madds_computed",
    "solver.sweeps", "solver.nonconverged", "simulate.redraws", "oracle.mu3_candidates",
]


class Tracer:
    """In-memory span store plus the counters read at the same boundaries.

    A span is ``(name, start, end, parent_index, op_id)``; parent -1 marks
    a root. Spans are only written out by :meth:`dump`, after the run.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.kkt_max = 0.0
        self.op = -1
        self._stack: list[int] = []
        self.last_build = None  # (system, dictionary) of the latest Gram build
        self.last_fit = None  # (system, beta) of the latest fit

    def wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + fn.__name__, None)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # counters, one per layer that does countable work
    def _observe_build_timeline(self, args, timeline):
        self.counts["survival.intervals"] += len(timeline.lengths)

    def _observe_build_gram(self, args, system):
        self.counts["gram.build_gram_calls"] += 1
        self.counts["gram.madds_computed"] += system.n * system.M * system.M
        self.last_build = (system, args[1])

    def _observe_fit(self, args, result):
        self.counts["solver.sweeps"] += result.sweeps
        self.counts["solver.nonconverged"] += not result.converged
        self.kkt_max = max(self.kkt_max, result.kkt_max_violation)
        self.last_fit = (args[0], result.beta)

    def _observe_simulate(self, args, truth):
        self.counts["simulate.redraws"] += truth.redraws

    def _observe_mu3_search(self, args, search):
        self.counts["oracle.mu3_candidates"] += search.candidates

    def call(self, op: int, fn, *args):
        """Run ``fn`` as the root span of operation ``op``."""
        self.op = op
        return self.wrap(ROOT, fn)(*args)

    def self_times(self) -> dict:
        """Seconds per span name, each span minus its children's durations."""
        out = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


@contextmanager
def patched(tracer: Tracer):
    """Rebind every package-level reference to a traced layer function."""
    wrappers = {}
    for name, module, attr in LAYERS:
        fn = getattr(sys.modules[module], attr)
        wrappers[id(fn)] = (fn, tracer.wrap(name, fn))
    undo = []
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("hazlasso.") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            fn, wrapper = wrappers.get(id(value), (None, None))
            if fn is value:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)
