"""Command line interface: exit codes, report schema, determinism.

Commands run in-process through main(argv) so exit codes and stderr are
asserted directly. Two subprocess tests cover the entry points: the
`hazlasso` console script (the installed one, or else the target that
pyproject.toml declares for it) and `python -m hazlasso.cli`.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hazlasso.bernstein import PAPER_NUMERIC
from hazlasso.cli import DEFAULT_THREADS, SCHEMA_VERSION, _write_report, build_parser, main
from hazlasso.dictionary import linear_dictionary
from hazlasso.gram import build_gram
from hazlasso.survival import SurvivalDataset, write_dataset
from hazlasso.weights import compute_weights

from conftest import random_dataset

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


def refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def read_report(path):
    """Parse a report as strict JSON, refusing NaN and Infinity tokens."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh, parse_constant=refuse_constant)
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
    pyproject = read_pyproject()
    module, attr = pyproject["project"]["scripts"][name].split(":")
    launcher = (
        f"import sys; sys.argv[0] = {name!r}; "
        f"from {module} import {attr}; sys.exit({attr}())"
    )
    return [sys.executable, "-c", launcher], source_env(pyproject)


def read_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def source_env(pyproject):
    """The environment with PYTHONPATH set to the declared package roots."""
    roots = pyproject["tool"]["setuptools"]["packages"]["find"]["where"]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(str(REPO_ROOT / r) for r in roots))


class TestFit:
    def test_fit_micro(self, micro_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", micro_csv, "--x", "1.0", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["command"] == "fit" and report["converged"]
        assert report["labels"] == ["x1"]
        # the x=1 weight (~5.4) exceeds |2 hn| = 0.5, so the fit is zero
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
        np.testing.assert_allclose(rows[1]["beta"], [-1.7855626434616618], rtol=1e-10)

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
        # stationary, but the nonzero fit at scale 0.03 stalls with a
        # roundoff-level KKT residual (2.8e-17; at some scales it rounds to
        # exactly 0) and must be reported as unconverged
        out = tmp_path / "path.json"
        code = main(
            ["path", "--data", micro_csv, "--x", "1.0", "--scales", "1,0.03",
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
        assert (report["c1"], report["c2"]) == (PAPER_NUMERIC.c1, PAPER_NUMERIC.c2)
        (col,) = report["columns"]
        assert sorted(col) == ["half_range", "label", "loglog", "vhat", "weight"]
        np.testing.assert_allclose(col["vhat"], 0.125, atol=1e-15)
        assert col["half_range"] == 0.5 and col["loglog"] == 0.0
        np.testing.assert_allclose(col["weight"], 5.3609339134584543, rtol=1e-12)


def run_reports(dataset, directory, x=1.0, scales="1,0.1,0.03,0.01"):
    """The weights, fit and path reports of one dataset, written as CSV."""
    data = os.path.join(directory, "data.csv")
    write_dataset(dataset, data)
    reports = {}
    for command, extra in (("weights", []), ("fit", []), ("path", ["--scales", scales])):
        out = os.path.join(directory, f"{command}.json")
        assert main([command, "--data", data, "--x", repr(x), "--out", out, *extra]) == 0
        reports[command] = read_report(out)
    return reports


def fitted(reports):
    """(beta, objective, active labels) of the fit and of every path row."""
    rows = [reports["fit"], *reports["path"]["rows"]]
    return [(np.array(r["beta"]), r["objective"], r["active"]) for r in rows]


def assert_same_fits(got, want, beta_factor):
    """Equal active sets, and beta (times beta_factor) and objectives equal
    to 1e-9 relative to the largest of them over the fit and the path: a
    coefficient just past its threshold is a small difference of large
    terms, so it carries the input's roundoff at their scale."""
    beta_scale = max(np.abs(beta0 * beta_factor).max() for beta0, _, _ in want)
    obj_scale = max(abs(obj0) for _, obj0, _ in want)
    for (beta, obj, active), (beta0, obj0, active0) in zip(got, want, strict=True):
        assert active == active0
        np.testing.assert_allclose(beta, beta0 * beta_factor, rtol=1e-9, atol=1e-9 * beta_scale)
        np.testing.assert_allclose(obj, obj0, rtol=1e-9, atol=1e-9 * obj_scale)


@st.composite
def transforms(draw):
    """A dataset seed and a transformation the estimator must ignore."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["shift", "scale", "permute"]))
    if kind == "shift":
        c = draw(st.floats(-1e6, 1e6, allow_nan=False))
    elif kind == "scale":
        c = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([1.0, -1.0]))
    else:
        c = None
    return seed, kind, c, draw(st.integers(0, 2))


class TestInvariance:
    @settings(max_examples=30, deadline=None)
    @given(case=transforms())
    @example(case=(421, "shift", 0.0, 0))  # every scale of 1,0.1,0.03,0.01 gives a zero fit
    def test_weights_and_fits_ignore_shift_scale_and_record_order(self, case, tmp_path_factory):
        seed, kind, c, column = case
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=int(rng.integers(40, 80)), d=3)
        covariates, perm = ds.covariates.copy(), np.arange(ds.n)
        if kind == "shift":
            covariates[:, column] += c
        elif kind == "scale":
            covariates[:, column] *= c
        else:
            perm = rng.permutation(ds.n)
        moved = SurvivalDataset(times=ds.times[perm], status=ds.status[perm], covariates=covariates[perm])
        # below the scale t = max_j 2|hn_j| / w_j the fit is nonzero; the
        # transformations leave t unchanged, so one scale list serves both runs
        dictionary = linear_dictionary(ds)
        system = build_gram(ds, dictionary)
        w = compute_weights(ds, dictionary, system, 1.0).w
        t = float(np.max(2.0 * np.abs(system.vector) / w))
        scales = [s for s in (1.0, 0.1, 0.03, 0.01) if s > t / 2] + [t / 2]
        scales = ",".join(repr(s) for s in scales)
        base = run_reports(ds, tmp_path_factory.mktemp("base"), scales=scales)
        got = run_reports(moved, tmp_path_factory.mktemp("moved"), scales=scales)

        factor = np.ones(ds.d)
        if kind == "scale":
            factor[column] = 1.0 / c
        w0 = np.array([col["weight"] for col in base["weights"]["columns"]])
        w = np.array([col["weight"] for col in got["weights"]["columns"]])
        np.testing.assert_allclose(w * np.abs(factor), w0, rtol=1e-9)
        assert_same_fits(fitted(got), fitted(base), factor)
        assert any(len(active) for _, _, active in fitted(base))

    @pytest.mark.filterwarnings("ignore:constant dictionary column")
    @pytest.mark.parametrize("offset", [0.0, 1e-3, 1.0, 1e4, 1e8])
    def test_constant_column_is_weightless_pinned_and_inert(self, offset, tmp_path):
        ds = random_dataset(np.random.default_rng(21), n=60, d=3)
        with_const = SurvivalDataset(
            times=ds.times, status=ds.status,
            covariates=np.column_stack([ds.covariates, np.full(ds.n, offset)]),
        )
        (tmp_path / "with").mkdir()
        (tmp_path / "without").mkdir()
        got = run_reports(with_const, tmp_path / "with", x=1.0)
        # one column fewer: the same union level x + log M keeps the other weights
        want = run_reports(ds, tmp_path / "without", x=1.0 + math.log(4.0 / 3.0))

        weights = [col["weight"] for col in got["weights"]["columns"]]
        assert weights[-1] == 0.0 and got["weights"]["columns"][-1]["half_range"] == 0.0
        np.testing.assert_allclose(
            weights[:-1], [col["weight"] for col in want["weights"]["columns"]], rtol=1e-12
        )
        assert got["fit"]["pinned_columns"] == ["x4"]
        rows = fitted(got)
        assert all(beta[-1] == 0.0 for beta, _, _ in rows)
        assert_same_fits([(beta[:-1], obj, active) for beta, obj, active in rows], fitted(want), 1.0)
        assert any(len(active) for _, _, active in rows)


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


class TestStrictReports:
    """Infinite report values are written as "inf" strings, so every
    report parses as strict JSON."""

    def test_singular_gram_mu3_upper(self, tmp_path):
        # d > n: every Gram is singular, so every mu3 bracket is open above
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({
            **SMALL_CONFIG, "n": 30, "d": 40, "seed": 3,
            "beta0": {"indices": [0, 1, 2], "values": [1.0, 1.0, -0.5]},
        }))
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--config", str(config), "--reps", "4",
                     "--threads", "1", "--out", str(out)]) == 0
        rows = read_report(out)["rows"]
        assert [row["mu3_upper"] for row in rows] == ["inf"] * 4

    def test_margin_next_to_zero_noise(self, tmp_path):
        # Rademacher covariates with beta0 = 0: some replications have
        # Z exactly 0, so a margin quantile is infinite
        config = tmp_path / "flat.json"
        config.write_text(json.dumps({
            "n": 12, "d": 2, "beta0": [0.0, 0.0], "seed": 1,
            "baseline": {"breakpoints": [0.0, 1.0], "values": [0.05]},
            "covariates": {"kind": "rademacher"},
            "censoring": {"kind": "administrative"},
        }))
        out = tmp_path / "mc.json"
        assert main(["bernstein-mc", "--config", str(config), "--x-grid", "0.5,2",
                     "--reps", "14", "--threads", "1", "--out", str(out)]) == 0
        rows = read_report(out)["rows"]
        assert "inf" in [row["margin_q90"] for row in rows]

    def test_nan_raises_before_the_file_opens(self, tmp_path):
        out = tmp_path / "nan.json"
        with pytest.raises(ValueError):
            _write_report({"value": float("nan")}, str(out))
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "section, model",
        [
            ("censoring", {"kind": "uniform", "c_max": float("nan")}),
            ("censoring", {"kind": "exponential", "rate": float("nan")}),
            ("covariates", {"kind": "gaussian", "rho": 0.3, "clip": float("nan")}),
        ],
        ids=["c_max", "rate", "clip"],
    )
    def test_non_finite_model_parameter(self, section, model, tmp_path, capsys):
        # json writes and reads NaN; the model refuses it by name instead of
        # failing later inside numpy or blaming the covariates
        field = [key for key in model if key not in ("kind", "rho")][0]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, section: model}))
        out_data, out_truth = tmp_path / "d.csv", tmp_path / "t.json"
        code = main(
            ["simulate", "--config", str(config), "--out-data", str(out_data),
             "--out-truth", str(out_truth)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field}" in err and "got nan" in err
        assert len(err.strip().splitlines()) == 1
        assert not out_data.exists() and not out_truth.exists()

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
            [sys.executable, "-m", "hazlasso.cli", "--help"],
            capture_output=True,
            text=True,
            env=source_env(read_pyproject()),
        )
        assert proc.returncode == 0
        assert "bernstein-mc" in proc.stdout

    def test_import_leaves_out_the_process_pool(self):
        # only --threads > 1 uses the pool, so no other run pays for its import
        probe = "import sys, hazlasso, hazlasso.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=source_env(read_pyproject()),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
