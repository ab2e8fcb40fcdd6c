"""What the benchmark under ``perfbench/`` needs from the package.

The traced benchmark run rebinds the layer functions that
``perfbench/spans.py`` lists, and the benchmark's scripts import names from
``hazlasso`` and pass command-line options to ``hazlasso.cli``. A public
name, parameter order or flag removed here would otherwise only show when
the benchmark runs, so these tests read those files and check each use.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import hazlasso
from hazlasso import cli
from hazlasso.cli import build_parser

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(name):
    """Import ``perfbench/<name>.py`` by path, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def hazlasso_uses():
    """(file, module, attribute or None) for every import from ``hazlasso``
    and every ``hazlasso.<name>`` attribute read in the benchmark's files."""
    uses = []
    for path in sorted(BENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hazlasso"):
                uses += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                uses += [(path.name, a.name, None) for a in node.names if a.name.startswith("hazlasso")]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "hazlasso"
            ):
                uses.append((path.name, "hazlasso", node.attr))
    return uses


@pytest.mark.parametrize(
    "module, function", sorted({(m, f) for _, m, f in load_bench_module("spans").LAYERS})
)
def test_traced_layers_resolve(module, function):
    assert callable(getattr(importlib.import_module(module), function))


def test_build_gram_takes_the_dictionary_second():
    # the tracer reads args[1] of build_gram as the dictionary
    params = list(inspect.signature(hazlasso.build_gram).parameters)
    assert params == ["dataset", "dictionary", "timeline"]


def test_benchmark_imports_resolve():
    uses = hazlasso_uses()
    assert any(name == "run.py" for name, _, _ in uses)
    for filename, module, attr in uses:
        target = importlib.import_module(module)
        assert attr is None or hasattr(target, attr), f"{filename}: {module}.{attr}"


def test_package_exports_resolve():
    assert [name for name in hazlasso.__all__ if not hasattr(hazlasso, name)] == []


@pytest.mark.parametrize("workload", ["cohort-fit", "path-correlated", "mc-audit"])
def test_benchmark_command_lines_parse(workload, tmp_path):
    workloads = load_bench_module("workloads")
    commands = workloads.Workload(workload, 1, tmp_path, smoke=True).op(0)
    assert commands
    for command in commands:
        build_parser().parse_args(list(command.argv))


TRACED_SPANS = {
    "survival.load_dataset", "survival.build_timeline", "dictionary.linear_dictionary",
    "gram.build_gram", "weights.compute_weights", "solver.fit_path", "solver.fit",
    "bernstein.run_mc", "oracle.run_oracle_mc", "oracle.identity_gram_check", "oracle.checks",
}


def test_traced_run_sees_every_layer(tmp_path):
    # a call that bypasses a name the tracer rebinds would leave its span
    # empty and blind the benchmark's layer metrics without failing a run
    spans = load_bench_module("spans")
    data = tmp_path / "micro.csv"
    data.write_text("time,status,x1\n0.5,1,0.0\n1.0,1,1.0\n")
    config = tmp_path / "config.json"
    config.write_text(
        '{"n": 30, "d": 2, "beta0": [0.4, -0.2], "seed": 5,'
        ' "censoring": {"kind": "uniform", "c_max": 2.5}}'
    )
    out = str(tmp_path / "report.json")
    mc = ["--config", str(config), "--reps", "3", "--threads", "1", "--out", out]
    commands = [
        ["path", "--data", str(data), "--x", "1.0", "--scales", "1,0.01", "--out", out],
        ["bernstein-mc", "--x-grid", "4", *mc],
        ["oracle-check", "--mu3-budget", "16", *mc],
        ["oracle-check", "--identity-gram", *mc],
    ]
    tracer = spans.Tracer()
    with spans.patched(tracer):
        for op, argv in enumerate(commands):
            tracer.last_fit = None
            assert tracer.call(op, cli.main, argv) == 0
            # the benchmark's cross check unpacks the latest fit after every
            # traced operation, and an mc-audit operation ends with the
            # oracle checks: each command but bernstein-mc must record a fit
            if argv[0] != "bernstein-mc":
                assert tracer.last_fit is not None, argv[0]
    assert tracer.counts["solver.sweeps"] > 0
    assert TRACED_SPANS <= {span[0] for span in tracer.spans}
    # steps are counted on fit, so the path command must reach it through fit_path
    assert "solver.fit" in {span[0] for span in tracer.spans if span[4] == 0}
