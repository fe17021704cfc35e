"""Golden outputs: each case of tests/golden/regenerate.py, rerun through
cli.main, reproduces its checked-in files.

In a JSON report or a CSV, keys, strings (the embedded circuit text among
them), booleans and nulls must match exactly; numbers within 1e-12, so that a
different BLAS cannot fail it.  A CSV's header line must match exactly, and its
cells as numbers.  A compile case's schedule JSON and circuit text must match
byte for byte, and its summary lines as text, except ``norm_error`` and
``fidelity``, which are roundoff and must agree within 1e-12.
"""

import json
import re
import runpy
from pathlib import Path

import pytest

from textcompare import assert_same_text

GOLDEN = Path(__file__).resolve().parent / "golden"
REGENERATE = runpy.run_path(str(GOLDEN / "regenerate.py"))
CASES, run_case = REGENERATE["CASES"], REGENERATE["run_case"]
NUMBER_ATOL = 1e-12
ROUNDOFF = re.compile(r"(norm_error|fidelity)=(\S+)")


def assert_same(got, want, where="$"):
    if type(want) in (int, float):
        assert type(got) in (int, float), f"{where}: {got!r} is not a number"
        assert abs(got - want) <= NUMBER_ATOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key, value in want.items():
            assert_same(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def summary_lines(text: str) -> list:
    """Each line with its roundoff fields blanked, followed by their values."""
    return [[ROUNDOFF.sub(r"\1=?", line)] + [float(v) for _, v in ROUNDOFF.findall(line)]
            for line in text.splitlines()]


def parse(path: Path):
    """A compile case's summary as ``summary_lines`` and its schedule or circuit
    as bytes; a report JSON as its document; a CSV as its header line plus rows
    of floats."""
    if path.name.startswith("compile-"):
        return summary_lines(path.read_text()) if path.suffix == ".out" else path.read_bytes()
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    header, *rows = text.splitlines()
    return [header] + [[float(cell) for cell in row.split(",")] for row in rows]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden_file(name, argv, tmp_path):
    for written in run_case(name, argv, tmp_path):
        got, want = parse(tmp_path / written), parse(GOLDEN / written)
        if isinstance(want, bytes):
            assert_same_text(got, want)
        else:
            assert_same(got, want, written)
