"""Command line entry point.

One subcommand per workflow stage: ``fit`` and ``weights`` run the
estimator pieces on CSV input, ``path`` traces a regularization path,
``simulate`` writes a synthetic dataset plus its generating truth, and
``bernstein-mc`` / ``oracle-check`` run the Monte Carlo validation
harnesses, whose report dicts ``run_mc`` and ``run_oracle_mc`` return as
written. Each subcommand returns its report payload and exit code, and
``main`` writes every report: a single strict JSON document carrying
``schema`` and ``command`` fields, with infinities as the strings
``"inf"`` and ``"-inf"``. The report is compact, one line with sorted keys
(``python -m json.tool`` pretty-prints it), so json writes it with its C
encoder; identical inputs and seeds reproduce the report byte for byte
except for the ``generated_at`` timestamp. Exit codes: 0 on success, 2
when a requested fit did not converge, 1 on any input error, a usage
error included (``--help`` exits 0).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

from .bernstein import PAPER_NUMERIC, BernsteinConstants, run_mc
from .dictionary import linear_dictionary, load_dictionary
from .errors import HazLassoError
from .gram import build_gram, dump_gram
from .oracle import DEFAULT_ORACLE_X, run_oracle_mc
from .simulate import load_config, simulate
from .solver import active_kernel, fit, fit_path
from .survival import build_timeline, load_dataset, write_dataset
from .weights import DEFAULT_X, compute_weights, weight_loglog

SCHEMA_VERSION = "3"


def _strict(value):
    """The report with every infinite float written as the string "inf" or
    "-inf", which strict JSON can carry; a NaN is left for json to refuse."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _write_report(payload: dict, path: str) -> None:
    document = {
        "schema": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **payload,
    }
    # compact: with an indent, json falls back to its pure-Python encoder
    options = dict(sort_keys=True, allow_nan=False)
    # serialised before the file is opened, so a NaN raises first
    try:
        text = json.dumps(document, **options)
    except ValueError:
        # an infinity; on a 20-scale, 200-column path report the walk takes
        # about 1.4 ms, more than the compact dump itself (1.2 ms)
        text = json.dumps(_strict(document), **options)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _floats_csv(text: str) -> list[float]:
    fields = text.split(",")
    if not all(tok.strip() for tok in fields):
        raise ValueError(f"expected comma-separated numbers with no empty field, got {text!r}")
    return [float(tok) for tok in fields]


def _seed(text: str) -> int:
    """A --seed value: numpy seeds only from nonnegative integers."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return int(text)


def _load_problem(args):
    dataset = load_dataset(args.data)
    if getattr(args, "dict", None):
        dictionary = load_dictionary(args.dict, dataset.n)
    else:
        dictionary = linear_dictionary(dataset)
    timeline = build_timeline(dataset)
    system = build_gram(dataset, dictionary, timeline)
    weights = compute_weights(system, args.x)
    return dataset, dictionary, system, weights


def _problem_fields(args, dataset, dictionary) -> dict:
    """The fields of a fitted problem, shared by the fit and path reports."""
    return {
        "data": args.data,
        "n": dataset.n,
        "time_scale": dataset.time_scale,
        "x": args.x,
        "kappa": args.kappa,
        "constraint": args.constraint,
        "kernel": active_kernel(),
        "labels": list(dictionary.labels),
    }


def _fit_fields(result, labels) -> dict:
    """The fields of one fit, shared by the fit report and every path row."""
    return {
        "converged": result.converged,
        "sweeps": result.sweeps,
        "kkt_max_violation": result.kkt_max_violation,
        "objective": float(result.objective_trace[-1]),
        "beta": result.beta.tolist(),
        "active": [labels[j] for j in result.active_set],
    }


def _fit_command(args):
    dataset, dictionary, system, weights = _load_problem(args)
    result = fit(system, weights, kappa=args.kappa, constraint=args.constraint, tol=args.tol)
    if args.dump_gram:
        dump_gram(system, dictionary.labels, args.dump_gram)
    payload = {
        **_problem_fields(args, dataset, dictionary),
        "columns": dictionary.M,
        "tol": args.tol,
        "pinned_columns": [dictionary.labels[j] for j in result.pinned],
        **_fit_fields(result, dictionary.labels),
    }
    return payload, 0 if result.converged else 2


def _weights_command(args):
    dataset, dictionary, system, weights = _load_problem(args)
    loglog = weight_loglog(system, args.x)
    payload = {
        "data": args.data,
        "n": dataset.n,
        "time_scale": dataset.time_scale,
        "x": args.x,
        "c1": PAPER_NUMERIC.c1,
        "c2": PAPER_NUMERIC.c2,
        "columns": [
            {
                "label": label,
                "vhat": float(system.vhat[j]),
                "half_range": float(system.half_range[j]),
                "loglog": float(loglog[j]),
                "weight": float(weights[j]),
            }
            for j, label in enumerate(dictionary.labels)
        ],
    }
    return payload, 0


def _path_command(args):
    dataset, dictionary, system, weights = _load_problem(args)
    scales = _floats_csv(args.scales)
    fits = fit_path(
        system, weights, scales, kappa=args.kappa, constraint=args.constraint, tol=args.tol
    )
    payload = {
        **_problem_fields(args, dataset, dictionary),
        "rows": [
            {"scale": scale, **_fit_fields(f, dictionary.labels)} for scale, f in zip(scales, fits)
        ],
    }
    return payload, 0 if all(f.converged for f in fits) else 2


def _simulate_command(args):
    config = load_config(args.config)
    truth = simulate(config, seed=args.seed)
    write_dataset(truth.dataset, args.out_data)
    payload = {
        "config": args.config,
        "seed": list(truth.seed),
        "n": config.n,
        "d": config.d,
        "beta0": [float(b) for b in truth.beta0],
        "baseline": {
            "breakpoints": [float(t) for t in truth.baseline.breakpoints],
            "values": [float(v) for v in truth.baseline.values],
        },
        "h0": [float(v) for v in truth.h0],
        "event_counts": truth.event_counts,
        "redraws": truth.redraws,
        "negative_prob": truth.negative_prob,
        "data_file": args.out_data,
    }
    return payload, 0


def _constants_from_args(args) -> BernsteinConstants:
    if not args.constants:
        return PAPER_NUMERIC
    values = _floats_csv(args.constants)
    if len(values) != 3:
        raise ValueError(f"--constants takes 3 values c_ell,epsilon,c0, got {len(values)}")
    return BernsteinConstants(*values)


def _bernstein_command(args):
    config = load_config(args.config)
    constants = _constants_from_args(args)
    report = run_mc(
        config,
        column=args.column,
        x_grid=_floats_csv(args.x_grid),
        replications=args.reps,
        constants=constants,
        seed=args.seed,
    )
    return {"config": args.config, **report}, 0


def _oracle_command(args):
    report = run_oracle_mc(
        load_config(args.config),
        x=args.x,
        replications=args.reps,
        seed=args.seed,
        identity_gram=args.identity_gram,
        mu3_budget=args.mu3_budget,
    )
    return {"config": args.config, **report}, 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and
    shared: callers parse with it and do not change it."""
    parser = argparse.ArgumentParser(
        prog="hazlasso",
        description="Weighted Lasso for additive hazard rates, with validation harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags that several subcommands share, each declared once
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="input CSV (time,status,x1,...)")
    data.add_argument("--dict", default=None, help="optional dictionary CSV (default: linear)")
    data.add_argument("--x", type=float, default=DEFAULT_X, help="confidence level x > 0")
    data.add_argument("--out", required=True, help="JSON report path")
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--kappa", type=float, choices=[1.0, 2.0], default=1.0)
    fitting.add_argument("--tol", type=float, default=1e-8)
    fitting.add_argument("--nonneg", dest="constraint", action="store_const", const="nonnegative",
                         default="unconstrained", help="constrain coefficients >= 0")
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--config", required=True, help="config JSON path, or 'default'")
    mc.add_argument("--reps", type=int, required=True)
    mc.add_argument("--seed", type=_seed, default=None)
    mc.add_argument("--threads", type=int, choices=[1],
                    help="replications run serially in this process; only 1 is accepted")
    mc.add_argument("--out", required=True, help="JSON report path")

    p_fit = sub.add_parser("fit", parents=[data, fitting],
                           help="fit the weighted Lasso on a dataset")
    p_fit.add_argument("--dump-gram", default=None, help="also write H and hn as CSV")
    p_fit.set_defaults(func=_fit_command)

    p_w = sub.add_parser("weights", parents=[data], help="report the data-driven penalty weights")
    p_w.set_defaults(func=_weights_command)

    p_path = sub.add_parser("path", parents=[data, fitting],
                            help="fit a descending path of penalty scales")
    p_path.add_argument("--scales", required=True, help="descending scales, e.g. 4,2,1,0.5")
    p_path.set_defaults(func=_path_command)

    p_sim = sub.add_parser("simulate", help="draw one synthetic dataset plus truth")
    p_sim.add_argument("--config", required=True, help="config JSON path, or 'default'")
    p_sim.add_argument("--out-data", required=True)
    p_sim.add_argument("--out-truth", dest="out", metavar="OUT_TRUTH", required=True)
    p_sim.add_argument("--seed", type=_seed, default=None)
    p_sim.set_defaults(func=_simulate_command)

    p_mc = sub.add_parser("bernstein-mc", parents=[mc],
                          help="Monte Carlo audit of the deviation bound")
    p_mc.add_argument("--x-grid", required=True, help="confidence levels, e.g. 4,5,6")
    p_mc.add_argument("--constants", default=None,
                      help="c_ell,epsilon,c0 (default: the paper's numeric constants)")
    p_mc.add_argument("--column", type=int, default=0, help="tracked dictionary column")
    p_mc.set_defaults(func=_bernstein_command)

    p_oc = sub.add_parser("oracle-check", parents=[mc],
                          help="Monte Carlo audit of the oracle inequalities")
    p_oc.add_argument("--x", type=float, default=DEFAULT_ORACLE_X)
    p_oc.add_argument("--identity-gram", action="store_true",
                      help="whitened design: exact mu3 for the fast check")
    p_oc.add_argument("--mu3-budget", type=int, default=256,
                      help="random cone points for the fallback search; it runs only "
                           "when mu3 is not exact in closed form (the maximiser leaves "
                           "the cone, or the Gram is singular)")
    p_oc.set_defaults(func=_oracle_command)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is an
        # input problem here
        return 1 if exc.code else 0
    try:
        payload, code = args.func(args)
        _write_report({"command": args.command, **payload}, args.out)
    except (HazLassoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
