"""Command line interface: exit codes, report schema, determinism.

Commands run in-process through main(argv) so exit codes and stderr are
asserted directly. Two subprocess tests cover the entry points: the
`hazlasso` console script (the installed one, or else the target that
pyproject.toml declares for it) and `python -m hazlasso.cli`.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hazlasso.cli import DEFAULT_THREADS, SCHEMA_VERSION, build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]

MICRO_CSV = "time,status,x1\n0.5,1,0.0\n1.0,1,1.0\n"

SMALL_CONFIG = {
    "n": 30,
    "d": 2,
    "beta0": [0.4, -0.2],
    "baseline": {"breakpoints": [0.0, 1.0], "values": [2.0]},
    "covariates": {"kind": "gaussian", "rho": 0.0, "clip": 2.0},
    "censoring": {"kind": "uniform", "c_max": 2.5},
    "seed": 5,
}


@pytest.fixture
def micro_csv(tmp_path):
    path = tmp_path / "micro.csv"
    path.write_text(MICRO_CSV)
    return str(path)


@pytest.fixture
def config_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["schema"] == SCHEMA_VERSION
    assert "generated_at" in report
    return report


def stable(report):
    return {k: v for k, v in report.items() if k != "generated_at"}


def console_script(name):
    """(argv prefix, env) that runs the console script `name`.

    An installed script on PATH is used as is. Otherwise the target that
    `[project.scripts]` in pyproject.toml declares is called the way the
    launcher pip generates calls it, with PYTHONPATH set to the declared
    package roots so the child does not depend on how the test was started.
    """
    script = shutil.which(name)
    if script is not None:
        return [script], None
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    module, attr = pyproject["project"]["scripts"][name].split(":")
    roots = pyproject["tool"]["setuptools"]["packages"]["find"]["where"]
    launcher = (
        f"import sys; sys.argv[0] = {name!r}; "
        f"from {module} import {attr}; sys.exit({attr}())"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(REPO_ROOT / r) for r in roots))
    return [sys.executable, "-c", launcher], env


class TestFit:
    def test_fit_micro(self, micro_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", micro_csv, "--x", "1.0", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["command"] == "fit" and report["converged"]
        assert report["labels"] == ["x1"]
        # the x=1 weight (~10) exceeds |2 hn| = 0.5, so the fit is zero
        assert report["beta"] == [0.0] and report["active"] == []

    def test_fit_solves_at_small_weights(self, micro_csv, tmp_path):
        # weight_scale is not exposed on fit; shrink the penalty via a path
        out = tmp_path / "path.json"
        code = main(
            ["path", "--data", micro_csv, "--x", "1.0", "--scales", "1,0.01",
             "--tol", "1e-12", "--out", str(out)]
        )
        assert code == 0
        rows = read_report(out)["rows"]
        assert rows[0]["beta"] == [0.0]
        # soft threshold at 1% of the x=1 weight: (hn + w/200) / H
        np.testing.assert_allclose(rows[1]["beta"], [-1.5994095581707855], rtol=1e-10)

    def test_dump_gram(self, micro_csv, tmp_path):
        out = tmp_path / "fit.json"
        gram = tmp_path / "gram.csv"
        code = main(
            ["fit", "--data", micro_csv, "--x", "1.0", "--out", str(out),
             "--dump-gram", str(gram)]
        )
        assert code == 0
        text = gram.read_text()
        assert "0.125" in text and "-0.25" in text

    def test_unconverged_exits_two(self, micro_csv, tmp_path):
        # an impossible tolerance: the zero fit at scale 1 is exactly
        # stationary, but the nonzero fit at scale 0.01 stalls with a
        # roundoff-level KKT residual and must be reported as unconverged
        out = tmp_path / "path.json"
        code = main(
            ["path", "--data", micro_csv, "--x", "1.0", "--scales", "1,0.01",
             "--tol", "1e-300", "--out", str(out)]
        )
        assert code == 2
        rows = read_report(out)["rows"]
        assert rows[0]["converged"] is True and rows[1]["converged"] is False

    def test_nonneg_flag(self, micro_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", micro_csv, "--nonneg", "--out", str(out)])
        assert code == 0
        assert read_report(out)["constraint"] == "nonnegative"

    def test_deterministic_modulo_timestamp(self, micro_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["fit", "--data", micro_csv, "--out", str(out)]) == 0
            outs.append(stable(read_report(out)))
        assert outs[0] == outs[1]


class TestWeights:
    def test_report_columns(self, micro_csv, tmp_path):
        out = tmp_path / "weights.json"
        code = main(["weights", "--data", micro_csv, "--x", "1.0", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        (col,) = report["columns"]
        np.testing.assert_allclose(col["vhat"], 0.125, atol=1e-15)
        np.testing.assert_allclose(col["weight"], 10.014761045730361, rtol=1e-12)


class TestSimulate:
    def test_round_trip_into_fit(self, config_json, tmp_path):
        data = tmp_path / "data.csv"
        truth = tmp_path / "truth.json"
        code = main(
            ["simulate", "--config", config_json, "--seed", "42",
             "--out-data", str(data), "--out-truth", str(truth)]
        )
        assert code == 0
        report = read_report(truth)
        assert report["seed"] == [42]
        assert report["n"] == 30 and len(report["h0"]) == 30
        counts = report["event_counts"]
        assert counts["events"] + counts["censored"] == 30
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 0
        assert read_report(out)["n"] == 30

    def test_default_config_literal(self, tmp_path):
        data = tmp_path / "data.csv"
        truth = tmp_path / "truth.json"
        code = main(
            ["simulate", "--config", "default", "--out-data", str(data),
             "--out-truth", str(truth)]
        )
        assert code == 0
        assert read_report(truth)["d"] == 50


class TestMonteCarloCommands:
    def test_bernstein_mc(self, config_json, tmp_path):
        out = tmp_path / "mc.json"
        code = main(
            ["bernstein-mc", "--config", config_json, "--x-grid", "1,5", "--reps", "12",
             "--seed", "3", "--threads", "1", "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report["command"] == "bernstein-mc"
        assert [row["x"] for row in report["rows"]] == [1.0, 5.0]
        assert report["constants"]["c3_used_for_bounds"] == 28.55

    def test_bernstein_custom_constants(self, config_json, tmp_path):
        out = tmp_path / "mc.json"
        code = main(
            ["bernstein-mc", "--config", config_json, "--x-grid", "2", "--reps", "5",
             "--constants", "2,1,7", "--seed", "3", "--threads", "1", "--out", str(out)]
        )
        assert code == 0
        assert read_report(out)["constants"]["c0"] == 7.0

    def test_bernstein_deterministic(self, config_json, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["bernstein-mc", "--config", config_json, "--x-grid", "1,4", "--reps", "10",
                 "--seed", "9", "--threads", "1", "--out", str(out)]
            )
            assert code == 0
            reports.append(stable(read_report(out)))
        assert reports[0] == reports[1]

    def test_oracle_check(self, config_json, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(
            ["oracle-check", "--config", config_json, "--reps", "4", "--seed", "2",
             "--mu3-budget", "16", "--threads", "1", "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report["command"] == "oracle-check"
        assert 0.0 <= report["slow"]["frequency"] <= 1.0
        assert len(report["rows"]) == 4

    def test_oracle_identity_gram(self, config_json, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(
            ["oracle-check", "--config", config_json, "--reps", "3", "--seed", "2",
             "--identity-gram", "--threads", "1", "--out", str(out)]
        )
        assert code == 0
        assert read_report(out)["mu3_label"] == "exact"

    def test_default_threads_give_the_serial_report(self, config_json, tmp_path):
        head = ["bernstein-mc", "--config", config_json, "--x-grid", "1,4", "--reps", "12"]
        assert build_parser().parse_args(head + ["--out", "x"]).threads == DEFAULT_THREADS
        oracle = ["oracle-check", "--config", config_json, "--reps", "2", "--out", "x"]
        assert build_parser().parse_args(oracle).threads == DEFAULT_THREADS
        reports = []
        for name, extra in (("default.json", []), ("serial.json", ["--threads", "1"])):
            out = tmp_path / name
            assert main(head + ["--seed", "9", "--out", str(out)] + extra) == 0
            reports.append(stable(read_report(out)))
        assert reports[0] == reports[1]


class TestErrorPaths:
    def test_missing_data_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "header" in capsys.readouterr().err

    def test_nonpositive_x(self, micro_csv, tmp_path, capsys):
        code = main(["fit", "--data", micro_csv, "--x", "0", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "x must be positive" in capsys.readouterr().err

    def test_bad_scales(self, micro_csv, tmp_path, capsys):
        code = main(
            ["path", "--data", micro_csv, "--scales", "abc", "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "abc" in capsys.readouterr().err

    def test_bad_constants_triple(self, config_json, tmp_path, capsys):
        code = main(
            ["bernstein-mc", "--config", config_json, "--x-grid", "1", "--reps", "2",
             "--constants", "2,1,0.1", "--threads", "1", "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "e*c0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, named",
        [
            ("fit --data {data} --x nan", "got nan"),
            ("weights --data {data} --x inf", "got inf"),
            ("fit --data {data} --tol nan", "tol must be positive and finite, got nan"),
            ("path --data {data} --scales 1,nan,0.5", "got [1.0, nan, 0.5]"),
            ("bernstein-mc {mc} --x-grid nan", "got [nan]"),
            ("bernstein-mc {mc} --x-grid 4 --constants nan,1,20", "c_ell must be finite, got nan"),
            ("bernstein-mc {mc} --x-grid 4 --constants 2,nan,20", "epsilon must be finite, got nan"),
            ("bernstein-mc {mc} --x-grid 4 --constants 2,1,inf", "c0 must be finite, got inf"),
            ("bernstein-mc {mc} --x-grid 4 --threads 0", "threads must be at least 1, got 0"),
            ("oracle-check {mc} --x inf", "got inf"),
            ("oracle-check {mc} --threads -1", "threads must be at least 1, got -1"),
        ],
        ids=[
            "fit-x-nan", "weights-x-inf", "fit-tol-nan", "path-scale-nan", "mc-x-nan",
            "mc-c_ell-nan", "mc-epsilon-nan", "mc-c0-inf", "mc-threads-0", "oracle-x-inf",
            "oracle-threads-minus-1",
        ],
    )
    def test_non_finite_and_out_of_range_numbers(
        self, command, named, micro_csv, config_json, tmp_path, capsys
    ):
        # NaN passes every `<= 0` test, so finiteness is checked by name;
        # a thread count below 1 is refused instead of running serially
        out = tmp_path / "r.json"
        mc = f"--config {config_json} --reps 2"
        argv = command.format(data=micro_csv, mc=mc).split() + ["--out", str(out)]
        assert main(argv) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(
            ["simulate", "--config", str(bad), "--out-data", str(tmp_path / "d.csv"),
             "--out-truth", str(tmp_path / "t.json")]
        )
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_dict_row_mismatch(self, micro_csv, tmp_path, capsys):
        wrong = tmp_path / "dict.csv"
        wrong.write_text("f\n1.0\n2.0\n3.0\n")
        code = main(
            ["fit", "--data", micro_csv, "--dict", str(wrong), "--out", str(tmp_path / "r.json")]
        )
        assert code == 1
        assert "2 records" in capsys.readouterr().err


class TestInstalledEntryPoint:
    def test_console_script(self, micro_csv, tmp_path):
        """`hazlasso fit` through the console script exits 0 and writes a report.

        Where a `hazlasso` script is on PATH this runs it, which checks the
        install. Where none is, it runs the `[project.scripts]` target from
        pyproject.toml in a child process, which checks the declaration
        itself: a wrong module or attribute, a missing key, or a non-zero
        return from the target fails the test.
        """
        out = tmp_path / "fit.json"
        command, env = console_script("hazlasso")
        proc = subprocess.run(
            command + ["fit", "--data", micro_csv, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert read_report(out)["command"] == "fit"

    def test_module_invocation_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hazlasso.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "bernstein-mc" in proc.stdout
