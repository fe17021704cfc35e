"""Correctness checks on the outputs of one benchmark repetition.

Each check returns a list of problems; an empty list means the outputs are
good.  NaN and infinities are rejected at parse time: the JSON parser is
given a hook that refuses the ``NaN``/``Infinity`` tokens, and every CSV
field must parse to a finite float.
"""

from __future__ import annotations

import json
import math
import re

# Trajectory accepts a trace drift of 1e-8 for the RK4 route and 1e-6 for
# the digital route (dynamics.Trajectory); the 'both' CSV is the digital one.
TRACE_TOL = {"exact": 1e-8, "trotter": 1e-6, "both": 1e-6}
NORM_ERROR = re.compile(r"^pass: .* norm_error=(\S+)", re.MULTILINE)


def _refuse_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_refuse_constant)


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    """Header and rows of a trajectory CSV; raises on a non-finite field."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = [float(x) for x in line.split(",")]
        if len(row) != len(header) or not all(math.isfinite(x) for x in row):
            raise ValueError(f"bad CSV row {line!r}")
        rows.append(row)
    return header, rows


def check_evolve(plan: dict, n_sites: int) -> list[str]:
    """Trajectory CSV (and state JSON) parse, are finite and keep the trace."""
    problems = []
    try:
        header, rows = read_csv(plan["outputs"][0])
    except (OSError, ValueError, IndexError) as exc:
        return [f"trajectory CSV: {exc}"]
    expected = ["t"] + [f"p{j}" for j in range(1, n_sites + 1)]
    expected += ["loss", "trace", "purity"]
    if plan["method"] == "both":
        expected.append("trace_distance")
    if header != expected:
        problems.append(f"CSV header {header}")
    if len(rows) != plan["rows"]:
        problems.append(f"CSV has {len(rows)} rows, expected {plan['rows']}")
    if header == expected:
        tol = TRACE_TOL[plan["method"]]
        drift = max(abs(r[expected.index("trace")] - 1.0) for r in rows)
        if drift > tol:
            problems.append(f"trace drift {drift:.3g} > {tol:g}")
    if len(plan["outputs"]) > 1:
        try:
            doc = load_json(plan["outputs"][1])
            if len(doc["times"]) != plan["rows"] or len(doc["states"]) != plan["rows"]:
                problems.append("state JSON has the wrong number of states")
            elif any(len(s) != 2**n_sites for s in doc["states"]):
                problems.append("state JSON has the wrong state dimension")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"state JSON: {exc}")
    return problems


def final_populations(plan: dict, n_sites: int) -> list[float]:
    _, rows = read_csv(plan["outputs"][0])
    return rows[-1][1 : 1 + n_sites]


def norm_errors(stdout: str) -> list[float]:
    """norm_error of every passing verification summary line."""
    return [float(x) for x in NORM_ERROR.findall(stdout)]


def check_compile_command(argv: list[str], errors: list[float], atol: float,
                          parse_circuit) -> list[str]:
    """One passing verification within ``atol``; compile outputs parse."""
    problems = []
    if len(errors) != 1:
        problems.append(f"{len(errors)} passing verification lines")
    elif not errors[0] <= atol:
        problems.append(f"norm error {errors[0]:.3g} > {atol:g}")
    if argv[0] == "compile":
        try:
            load_json(argv[argv.index("--out") + 1])
            with open(argv[argv.index("--circuit") + 1], encoding="utf-8") as fh:
                parse_circuit(fh.read())
        except (OSError, ValueError) as exc:
            problems.append(str(exc))
    return problems
