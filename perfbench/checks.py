"""Output checks: every timed command is verified, not only timed.

Each function takes a parsed JSON report and returns a list of problems;
an empty list means the report passed.
"""

from __future__ import annotations

# A path objective is the penalized contrast at an approximate minimizer;
# KKT tolerance 1e-8 bounds its error far below this relative slack.
OBJECTIVE_SLACK = 1e-9


def path_problems(report: dict, scales, tol: float) -> list[str]:
    """Every scale converged with KKT residual <= tol, and the objective
    does not increase as the scale descends."""
    rows = report.get("rows", [])
    problems = []
    if [row["scale"] for row in rows] != list(scales):
        problems.append("report scales differ from the requested grid")
    for row in rows:
        if not row["converged"]:
            problems.append(f"scale {row['scale']}: not converged")
        if not row["kkt_max_violation"] <= tol:
            problems.append(f"scale {row['scale']}: KKT residual {row['kkt_max_violation']}")
    for before, after in zip(rows, rows[1:]):
        if after["objective"] > before["objective"] + OBJECTIVE_SLACK * (1.0 + abs(before["objective"])):
            problems.append(f"objective rises from scale {before['scale']} to {after['scale']}")
    return problems


def bernstein_problems(report: dict, reps: int) -> list[str]:
    """The bound passed, and violation frequencies do not rise with x."""
    rows = report.get("rows", [])
    problems = []
    if report.get("replications") != reps:
        problems.append(f"ran {report.get('replications')} replications, asked for {reps}")
    if not report.get("passed"):
        problems.append("deviation bound not passed")
    for before, after in zip(rows, rows[1:]):
        if not after["x"] > before["x"] or after["frequency"] > before["frequency"]:
            problems.append(f"frequency rises from x={before['x']} to x={after['x']}")
    return problems


def oracle_problems(report: dict, reps: int) -> list[str]:
    """One row per replication (non-converged fits are counted separately)."""
    if len(report.get("rows", [])) != reps or report.get("replications") != reps:
        return [f"report has {len(report.get('rows', []))} rows, asked for {reps}"]
    return []


def oracle_nonconverged(report: dict) -> int:
    """Replications whose slow or fast fit did not converge."""
    return sum(
        1 for row in report["rows"] if not (row["slow_converged"] and row["fast_converged"])
    )
