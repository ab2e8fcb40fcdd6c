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
from hazlasso.cli import SCHEMA_VERSION, _write_report, main
from hazlasso.dictionary import linear_dictionary
from hazlasso.gram import build_gram
from hazlasso.simulate import config_from_dict, load_config
from hazlasso.solver import fit_path
from hazlasso.survival import SurvivalDataset, load_dataset, write_dataset
from hazlasso.weights import compute_weights

from conftest import random_dataset
from test_bernstein import zero_noise_replications

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
    @example(case=(13871, "shift", 524288.0, 0))  # x + c rounds: the base column must too
    def test_weights_and_fits_ignore_shift_scale_and_record_order(self, case, tmp_path_factory):
        seed, kind, c, column = case
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=int(rng.integers(40, 80)), d=3)
        covariates, perm = ds.covariates.copy(), np.arange(ds.n)
        if kind == "shift":
            # adding c to x rounds; a base column of fl(fl(x + c) - c) moves
            # by exactly c, so both runs see the same data
            covariates[:, column] = (covariates[:, column] + c) - c
            ds = SurvivalDataset(times=ds.times, status=ds.status, covariates=covariates.copy())
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
        w = compute_weights(system, 1.0).w
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

    def test_bernstein_replication_with_zero_hazard_writes_a_report(self, tmp_path):
        # at seed 3 one replication draws x0 = -1 on all five records, so
        # every hazard is 0.5 - 0.5 = 0 and its V comes out at -1.4e-48 by
        # roundoff; the run still completes
        raw = {
            "n": 5, "d": 3, "beta0": {"indices": [0], "values": [0.5]},
            "covariates": {"kind": "rademacher"}, "censoring": {"kind": "administrative"},
            "baseline": {"breakpoints": [0.0, 1.0], "values": [0.5]},
        }
        config = tmp_path / "zero-hazard.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "mc.json"
        code = main(
            ["bernstein-mc", "--config", str(config), "--column", "1", "--x-grid", "1",
             "--reps", "3000", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert read_report(out)["replications"] == 3000

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

    def test_threads_1_gives_the_report_without_the_flag(self, config_json, tmp_path):
        # --threads is kept for command lines that pass 1; runs are serial
        head = ["bernstein-mc", "--config", config_json, "--x-grid", "1,4", "--reps", "12"]
        reports = []
        for name, extra in (("default.json", []), ("serial.json", ["--threads", "1"])):
            out = tmp_path / name
            assert main(head + ["--seed", "9", "--out", str(out)] + extra) == 0
            reports.append(stable(read_report(out)))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "command",
        ["simulate --config {config} --out-data {out}.csv --out-truth {out}",
         "bernstein-mc --config {config} --x-grid 4 --reps 2 --out {out}",
         "oracle-check --config {config} --reps 2 --out {out}"],
        ids=["simulate", "bernstein-mc", "oracle-check"],
    )
    def test_negative_seed_flag_is_refused_by_name(self, command, config_json, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = command.format(config=config_json, out=out).split() + ["--seed", "-1"]
        assert main(argv) == 1
        assert "--seed: seed must be a nonnegative integer, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_seed_is_refused_by_name(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "seed": -4}))
        out = tmp_path / "r.json"
        argv = ["oracle-check", "--config", str(config), "--reps", "2", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {config}: seed must be a nonnegative integer, got -4\n"
        assert not out.exists()


REPORT_KEYS = {"schema", "generated_at", "command"}
FIT_KEYS = {"converged", "sweeps", "kkt_max_violation", "objective", "beta", "active"}
PROBLEM_KEYS = {"data", "n", "time_scale", "x", "kappa", "constraint", "kernel", "labels"}
ORACLE_KEYS = REPORT_KEYS | {
    "config", "x", "replications", "identity_gram", "mu3_label", "guarantee", "slow", "fast",
    "rows",
}
ORACLE_ROW_KEYS = {
    "events", "slow_lhs", "slow_rhs", "slow_holds", "slow_converged", "fast_lhs", "fast_rhs",
    "fast_holds", "fast_converged", "mu3", "mu3_label",
}


class TestReportLayout:
    """The keys of every report, and of the rows of those that have rows."""

    @pytest.mark.parametrize(
        "command, keys, row_keys",
        [
            ("fit --data {data}", REPORT_KEYS | FIT_KEYS | PROBLEM_KEYS | {
                "columns", "tol", "pinned_columns",
            }, None),
            ("weights --data {data}", REPORT_KEYS | {
                "data", "n", "time_scale", "x", "c1", "c2", "columns",
            }, None),
            ("path --data {data} --scales 1,0.1", REPORT_KEYS | PROBLEM_KEYS | {"rows"},
             FIT_KEYS | {"scale"}),
            ("simulate --config {config} --out-data {data_out}", REPORT_KEYS | {
                "config", "seed", "n", "d", "beta0", "baseline", "h0", "event_counts", "redraws",
                "negative_prob", "data_file",
            }, None),
            ("bernstein-mc {mc} --x-grid 4", REPORT_KEYS | {
                "config", "x_grid", "replications", "column", "constants",
                "excluded_degenerate", "rows", "passed",
            }, {
                "x", "tail_bound", "violations", "frequency", "wilson_low", "wilson_high",
                "passed", "margin_min", "margin_q10", "margin_median", "margin_q90",
                "classical_violations", "classical_frequency", "classical_tail",
            }),
            ("oracle-check {mc}", ORACLE_KEYS, ORACLE_ROW_KEYS | {"mu3_upper"}),
            ("oracle-check {mc} --identity-gram", ORACLE_KEYS, ORACLE_ROW_KEYS | {"gram_offset"}),
        ],
        ids=["fit", "weights", "path", "simulate", "bernstein-mc", "oracle-check",
             "oracle-check-identity-gram"],
    )
    def test_keys(self, command, keys, row_keys, micro_csv, config_json, tmp_path):
        out = tmp_path / "report.json"
        argv = command.format(
            data=micro_csv, config=config_json, data_out=tmp_path / "data.csv",
            mc=f"--config {config_json} --reps 2",
        ).split()
        argv += ["--out-truth" if argv[0] == "simulate" else "--out", str(out)]
        assert main(argv) == 0
        report = read_report(out)
        assert set(report) == keys
        if row_keys is not None:
            assert report["rows"] and all(set(row) == row_keys for row in report["rows"])
        if argv[0] == "oracle-check":
            summary = {"holds", "frequency", "wilson_low", "wilson_high", "nonconverged"}
            assert set(report["slow"]) == set(report["fast"]) == summary


    def test_reports_quote_the_time_scale(self, micro_csv, tmp_path):
        # raw times up to 8 are divided by 8 on load; 1.0 when none exceeds 1
        raw = tmp_path / "raw.csv"
        raw.write_text("time,status,x1\n2.0,1,0.5\n8.0,0,1.5\n4.0,1,-1.0\n")
        for command in (["weights"], ["fit"], ["path", "--scales", "1,0.1"]):
            for data, scale in ((raw, 8.0), (micro_csv, 1.0)):
                out = tmp_path / "report.json"
                assert main(command + ["--data", str(data), "--out", str(out)]) == 0
                assert read_report(out)["time_scale"] == scale


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
        # Rademacher covariates with beta0 = 0: at the first seed from 9
        # where some replications have Z exactly 0, so a margin quantile is
        # infinite
        for seed in range(9, 29):
            raw = {
                "n": 12, "d": 2, "beta0": [0.0, 0.0], "seed": seed,
                "baseline": {"breakpoints": [0.0, 1.0], "values": [0.05]},
                "covariates": {"kind": "rademacher"},
                "censoring": {"kind": "administrative"},
            }
            if zero_noise_replications(config_from_dict(raw), 14) >= 2:
                break
        config = tmp_path / "flat.json"
        config.write_text(json.dumps(raw))
        assert zero_noise_replications(load_config(str(config)), 14) >= 2
        out = tmp_path / "mc.json"
        assert main(["bernstein-mc", "--config", str(config), "--x-grid", "0.5,2",
                     "--reps", "14", "--threads", "1", "--out", str(out)]) == 0
        rows = read_report(out)["rows"]
        assert "inf" in [row["margin_q90"] for row in rows]

    def test_path_report_is_one_line_with_the_fits_floats(self, tmp_path):
        data = tmp_path / "data.csv"
        write_dataset(random_dataset(np.random.default_rng(4), n=60, d=5), data)
        out = tmp_path / "path.json"
        assert main(["path", "--data", str(data), "--scales", "1,0.3,0.1", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.endswith("}\n") and text.count("\n") == 1
        dataset = load_dataset(data)
        dictionary = linear_dictionary(dataset)
        system = build_gram(dataset, dictionary)
        fits = fit_path(system, compute_weights(system), [1.0, 0.3, 0.1])
        rows = read_report(out)["rows"]
        assert any(row["active"] for row in rows)
        for row, f in zip(rows, fits, strict=True):
            assert [b.hex() for b in row["beta"]] == [float(b).hex() for b in f.beta]
            assert row["objective"].hex() == float(f.objective_trace[-1]).hex()

    def test_infinities_in_a_one_line_report(self, tmp_path):
        out = tmp_path / "inf.json"
        _write_report({"value": [math.inf, -math.inf, 0.1]}, str(out))
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        assert read_report(out)["value"] == ["inf", "-inf", 0.1]

    def test_nan_raises_before_the_file_opens(self, tmp_path):
        out = tmp_path / "nan.json"
        with pytest.raises(ValueError):
            _write_report({"value": float("nan")}, str(out))
        assert not out.exists()


class TestErrorPaths:
    @pytest.mark.parametrize(
        "command",
        [
            "fit --data {data} --kappa 1.5 --out {out}",
            "bernstein-mc --config {config} --x-grid 4 --reps abc --out {out}",
            "fit --data {data}",
        ],
        ids=["fit-kappa-1.5", "mc-reps-abc", "fit-without-out"],
    )
    def test_usage_error_exits_one(self, command, micro_csv, config_json, tmp_path, capsys):
        # 2 is the code for a fit that did not converge, so a usage error is
        # an input problem like any other
        out = tmp_path / "r.json"
        argv = command.format(data=micro_csv, config=config_json, out=out).split()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage: hazlasso ")
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["fit", "--help"]) == 0
        assert "--kappa" in capsys.readouterr().out

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
            ("bernstein-mc {mc} --x-grid 4 --threads 2", "--threads: invalid choice: 2"),
            ("oracle-check {mc} --x inf", "got inf"),
            ("path --data {data} --scales 1,,0.5", "no empty field, got '1,,0.5'"),
            ("bernstein-mc {mc} --x-grid 4,,5", "no empty field, got '4,,5'"),
            ("bernstein-mc {mc} --x-grid 4,5,", "no empty field, got '4,5,'"),
            ("bernstein-mc {mc} --x-grid 4 --constants 2,1",
             "--constants takes 3 values c_ell,epsilon,c0, got 2"),
            ("oracle-check {mc} --identity-gram --mu3-budget 0",
             "mu3 budget must be at least 1, got 0"),
            ("oracle-check {mc} --mu3-budget -5", "mu3 budget must be at least 1, got -5"),
        ],
        ids=[
            "fit-x-nan", "weights-x-inf", "fit-tol-nan", "path-scale-nan", "mc-x-nan",
            "mc-c_ell-nan", "mc-epsilon-nan", "mc-c0-inf", "mc-threads-2", "oracle-x-inf",
            "path-scale-empty", "mc-x-empty", "mc-x-trailing-comma", "mc-two-constants",
            "oracle-id-budget-0",
            "oracle-budget-minus-5",
        ],
    )
    def test_non_finite_and_out_of_range_numbers(
        self, command, named, micro_csv, config_json, tmp_path, capsys
    ):
        # NaN passes every `<= 0` test, so finiteness is checked by name; an
        # empty field in a list is refused instead of being dropped
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

    def test_import_leaves_out_the_process_pool(self, config_json, tmp_path):
        # the harnesses run their chunks in this process, so neither the
        # import nor a run of any harness pulls in a process pool
        probe = (
            "import sys, hazlasso, hazlasso.cli\n"
            "pool = ('concurrent.futures', 'multiprocessing')\n"
            "print(sorted(set(pool) & set(sys.modules)))\n"
            "config, out = sys.argv[1:]\n"
            "for run in (['bernstein-mc', '--x-grid', '4'], ['oracle-check'],\n"
            "            ['oracle-check', '--identity-gram']):\n"
            "    assert hazlasso.cli.main(run + ['--config', config, '--reps', '2',\n"
            "                                    '--out', out]) == 0\n"
            "print(sorted(set(pool) & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, config_json, str(tmp_path / "r.json")],
            capture_output=True,
            text=True,
            env=source_env(read_pyproject()),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["[]", "[]", ""]
