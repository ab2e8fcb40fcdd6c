"""Command line entry point.

One subcommand per workflow stage: ``fit`` and ``weights`` run the
estimator pieces on CSV input, ``path`` traces a regularization path,
``simulate`` writes a synthetic dataset plus its generating truth, and
``bernstein-mc`` / ``oracle-check`` run the Monte Carlo validation
harnesses. Every run writes a single strict JSON report carrying a
``schema`` field, with infinities as the strings ``"inf"`` and ``"-inf"``.
The report is compact, one line with sorted keys (``python -m json.tool``
pretty-prints it), so json writes it with its C encoder; identical inputs
and seeds reproduce the report byte for byte except for the
``generated_at`` timestamp. Exit codes: 0 on success,
2 when a requested fit did not converge, 1 on any input error.
"""

from __future__ import annotations

import argparse
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
from .weights import DEFAULT_X, compute_weights

SCHEMA_VERSION = "3"

# Worker processes for the Monte Carlo commands. Measured on a 2-CPU
# machine with the replications in chunks: with BLAS threads left at their
# default, as the command line runs, 2 workers were slower than 1 for both
# `oracle-check` modes at 15, 100 and 500 replications and for
# `bernstein-mc` at 2000 (up to 2.2 times slower), because each worker's
# BLAS starts its own threads. Only with BLAS pinned to one thread per
# process did 2 workers win, from 100 replications up.
DEFAULT_THREADS = 1


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
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")
    return values


def _load_problem(args):
    dataset = load_dataset(args.data)
    if getattr(args, "dict", None):
        dictionary = load_dictionary(args.dict, dataset.n)
    else:
        dictionary = linear_dictionary(dataset)
    timeline = build_timeline(dataset)
    system = build_gram(dataset, dictionary, timeline)
    weights = compute_weights(dataset, dictionary, system, args.x)
    return dataset, dictionary, system, weights


def _fit_command(args) -> int:
    dataset, dictionary, system, weights = _load_problem(args)
    constraint = "nonnegative" if args.nonneg else "unconstrained"
    result = fit(system, weights, kappa=args.kappa, constraint=constraint, tol=args.tol)
    if args.dump_gram:
        dump_gram(system, args.dump_gram)
    payload = {
        "command": "fit",
        "data": args.data,
        "n": dataset.n,
        "columns": dictionary.M,
        "x": args.x,
        "kappa": args.kappa,
        "constraint": constraint,
        "tol": args.tol,
        "kernel": active_kernel(),
        "converged": result.converged,
        "sweeps": result.sweeps,
        "kkt_max_violation": result.kkt_max_violation,
        "pinned_columns": [dictionary.labels[j] for j in result.pinned],
        "objective": float(result.objective_trace[-1]),
        "labels": list(dictionary.labels),
        "beta": result.beta.tolist(),
        "active": [dictionary.labels[j] for j in result.active_set],
    }
    _write_report(payload, args.out)
    return 0 if result.converged else 2


def _weights_command(args) -> int:
    dataset, dictionary, system, weights = _load_problem(args)
    payload = {
        "command": "weights",
        "data": args.data,
        "n": dataset.n,
        "x": args.x,
        "c1": PAPER_NUMERIC.c1,
        "c2": PAPER_NUMERIC.c2,
        "columns": [
            {
                "label": weights.labels[j],
                "vhat": float(weights.vhat[j]),
                "half_range": float(weights.half_range[j]),
                "loglog": float(weights.loglog[j]),
                "weight": float(weights.w[j]),
            }
            for j in range(weights.M)
        ],
    }
    _write_report(payload, args.out)
    return 0


def _path_command(args) -> int:
    dataset, dictionary, system, weights = _load_problem(args)
    constraint = "nonnegative" if args.nonneg else "unconstrained"
    scales = _floats_csv(args.scales)
    fits = fit_path(system, weights, scales, kappa=args.kappa, constraint=constraint, tol=args.tol)
    payload = {
        "command": "path",
        "data": args.data,
        "n": dataset.n,
        "x": args.x,
        "kappa": args.kappa,
        "constraint": constraint,
        "kernel": active_kernel(),
        "labels": list(dictionary.labels),
        "rows": [
            {
                "scale": scale,
                "converged": f.converged,
                "sweeps": f.sweeps,
                "active": [dictionary.labels[j] for j in f.active_set],
                "objective": float(f.objective_trace[-1]),
                "kkt_max_violation": f.kkt_max_violation,
                "beta": f.beta.tolist(),
            }
            for scale, f in zip(scales, fits)
        ],
    }
    _write_report(payload, args.out)
    return 0 if all(f.converged for f in fits) else 2


def _simulate_command(args) -> int:
    config = load_config(args.config)
    truth = simulate(config, seed=args.seed)
    write_dataset(truth.dataset, args.out_data)
    payload = {
        "command": "simulate",
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
    _write_report(payload, args.out_truth)
    return 0


def _constants_from_args(args) -> BernsteinConstants:
    if args.constants:
        c_ell, eps, c0 = _floats_csv(args.constants)
        return BernsteinConstants(c_ell=c_ell, epsilon=eps, c0=c0)
    return PAPER_NUMERIC


def _bernstein_command(args) -> int:
    config = load_config(args.config)
    constants = _constants_from_args(args)
    report = run_mc(
        config,
        column=args.column,
        x_grid=_floats_csv(args.x_grid),
        replications=args.reps,
        constants=constants,
        seed=args.seed,
        threads=args.threads,
    )
    payload = {"command": "bernstein-mc", "config": args.config, **report.to_dict()}
    _write_report(payload, args.out)
    return 0


def _oracle_command(args) -> int:
    config = load_config(args.config)
    report = run_oracle_mc(
        config,
        x=args.x,
        replications=args.reps,
        seed=args.seed,
        threads=args.threads,
        identity_gram=args.identity_gram,
        mu3_budget=args.mu3_budget,
    )
    payload = {"command": "oracle-check", "config": args.config, **report.to_dict()}
    _write_report(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hazlasso",
        description="Weighted Lasso for additive hazard rates, with validation harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="input CSV (time,status,x1,...)")
        p.add_argument("--dict", default=None, help="optional dictionary CSV (default: linear)")
        p.add_argument("--x", type=float, default=DEFAULT_X, help="confidence level x > 0")
        p.add_argument("--out", required=True, help="JSON report path")

    p_fit = sub.add_parser("fit", help="fit the weighted Lasso on a dataset")
    add_data_flags(p_fit)
    p_fit.add_argument("--kappa", type=float, choices=[1.0, 2.0], default=1.0)
    p_fit.add_argument("--tol", type=float, default=1e-8)
    p_fit.add_argument("--nonneg", action="store_true", help="constrain coefficients >= 0")
    p_fit.add_argument("--dump-gram", default=None, help="also write H and hn as CSV")
    p_fit.set_defaults(func=_fit_command)

    p_w = sub.add_parser("weights", help="report the data-driven penalty weights")
    add_data_flags(p_w)
    p_w.set_defaults(func=_weights_command)

    p_path = sub.add_parser("path", help="fit a descending path of penalty scales")
    add_data_flags(p_path)
    p_path.add_argument("--scales", required=True, help="descending scales, e.g. 4,2,1,0.5")
    p_path.add_argument("--kappa", type=float, choices=[1.0, 2.0], default=1.0)
    p_path.add_argument("--tol", type=float, default=1e-8)
    p_path.add_argument("--nonneg", action="store_true")
    p_path.set_defaults(func=_path_command)

    p_sim = sub.add_parser("simulate", help="draw one synthetic dataset plus truth")
    p_sim.add_argument("--config", required=True, help="config JSON path, or 'default'")
    p_sim.add_argument("--out-data", required=True)
    p_sim.add_argument("--out-truth", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=_simulate_command)

    p_mc = sub.add_parser("bernstein-mc", help="Monte Carlo audit of the deviation bound")
    p_mc.add_argument("--config", required=True)
    p_mc.add_argument("--x-grid", required=True, help="confidence levels, e.g. 4,5,6")
    p_mc.add_argument("--reps", type=int, required=True)
    p_mc.add_argument("--constants", default=None,
                      help="c_ell,epsilon,c0 (default: the paper's numeric constants)")
    p_mc.add_argument("--column", type=int, default=0, help="tracked dictionary column")
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--threads", type=int, default=DEFAULT_THREADS)
    p_mc.add_argument("--out", required=True)
    p_mc.set_defaults(func=_bernstein_command)

    p_oc = sub.add_parser("oracle-check", help="Monte Carlo audit of the oracle inequalities")
    p_oc.add_argument("--config", required=True)
    p_oc.add_argument("--x", type=float, default=DEFAULT_ORACLE_X)
    p_oc.add_argument("--reps", type=int, required=True)
    p_oc.add_argument("--identity-gram", action="store_true",
                      help="whitened design: exact mu3 for the fast check")
    p_oc.add_argument("--mu3-budget", type=int, default=256,
                      help="random cone points for the fallback search; it runs only "
                           "when mu3 is not exact in closed form (the maximiser leaves "
                           "the cone, or the Gram is singular)")
    p_oc.add_argument("--seed", type=int, default=None)
    p_oc.add_argument("--threads", type=int, default=DEFAULT_THREADS)
    p_oc.add_argument("--out", required=True)
    p_oc.set_defaults(func=_oracle_command)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HazLassoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
