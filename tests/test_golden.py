"""Golden outputs: each case of tests/golden/regenerate.py, rerun through
cli.main, reproduces its checked-in files.

In a JSON report, keys, strings (the embedded circuit text among them),
booleans and nulls must match exactly; numbers within 1e-12, so that a
different BLAS cannot fail it.  A CSV's header line must match exactly, and its
cells as numbers within ``print_resolution``: one unit in the 12th significant
digit that ``%.12g`` prints, and never less than 1e-12.  An evolve case's state
JSON, which prints every entry with ``repr``, must match byte for byte, so a
change in the last bit of a state fails it (a different BLAS may too; the corpus
is then regenerated and the reason named).  A compile case's schedule JSON and
circuit text must match byte for byte, and its summary lines as text, except
``norm_error`` and ``fidelity``, which are roundoff and must agree within 1e-12.

Every checked-in circuit text (each compile case's, and a channel report's) and
schedule JSON also re-exports byte for byte once read back.
"""

import json
import math
import re
import runpy
from pathlib import Path

import pytest

from fmosim import circuit as ci
from fmosim.compiler import schedule_from_json, schedule_to_json
from textcompare import assert_same_text

GOLDEN = Path(__file__).resolve().parent / "golden"
REGENERATE = runpy.run_path(str(GOLDEN / "regenerate.py"))
CASES, run_case = REGENERATE["CASES"], REGENERATE["run_case"]
NUMBER_ATOL = 1e-12
ROUNDOFF = re.compile(r"(norm_error|fidelity)=(\S+)")


def print_resolution(got: float, want: float) -> float:
    """How far two ``%.12g`` cells may differ: one unit in the 12th significant digit of
    the larger, plus one ulp of it for parsing both decimals to floats, or NUMBER_ATOL if
    that is more.  So a flip of the last printed digit passes ("1.00000000001" against
    "1") and a change of two units fails."""
    top = max(abs(got), abs(want))
    if not 0 < top < math.inf:
        return NUMBER_ATOL
    unit = 10.0 ** (int(f"{top:.11e}".split("e")[1]) - 11)
    return max(NUMBER_ATOL, unit + math.ulp(top))


def assert_same(got, want, where="$", atol=lambda got, want: NUMBER_ATOL):
    """``atol(got, want)`` is how far two numbers may differ."""
    if type(want) in (int, float):
        assert type(got) in (int, float), f"{where}: {got!r} is not a number"
        assert abs(got - want) <= atol(got, want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key, value in want.items():
            assert_same(got[key], value, f"{where}.{key}", atol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]", atol)
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def summary_lines(text: str) -> list:
    """Each line with its roundoff fields blanked, followed by their values."""
    return [[ROUNDOFF.sub(r"\1=?", line)] + [float(v) for _, v in ROUNDOFF.findall(line)]
            for line in text.splitlines()]


def parse(path: Path):
    """A compile case's summary as ``summary_lines`` and its schedule or circuit
    as bytes; an evolve case's state JSON as bytes; a report JSON as its
    document; a CSV as its header line plus rows of floats."""
    if path.name.startswith("compile-"):
        return summary_lines(path.read_text()) if path.suffix == ".out" else path.read_bytes()
    if path.name.startswith("evolve-") and path.suffix == ".json":
        return path.read_bytes()
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
        elif written.endswith(".csv"):
            assert_same(got, want, written, print_resolution)
        else:
            assert_same(got, want, written)


ARTIFACTS = [*sorted(GOLDEN.glob("compile-*.txt")), *sorted(GOLDEN.glob("compile-*.json")),
             *(p for p in sorted(GOLDEN.glob("channel-*.json")) if json.loads(p.read_text())["circuit"])]


@pytest.mark.parametrize("path", ARTIFACTS, ids=[p.name for p in ARTIFACTS])
def test_golden_artifact_reexports_byte_for_byte(path):
    text = path.read_text()
    if path.name.startswith("compile-") and path.suffix == ".json":
        assert schedule_to_json(schedule_from_json(text)) == text
    else:
        text = json.loads(text)["circuit"] if path.suffix == ".json" else text
        assert ci.export_text(ci.parse_text(text)) == text


@pytest.mark.parametrize("got, want, passes", [
    ("1", "0.999999999999", True),  # a flip of the last printed digit across a decade
    ("1.00000000001", "1", True),
    ("9.99999999999", "9.99999999998", True),
    ("0.566974660443", "0.566974660444", True),
    ("-1.5", "-1.50000000001", True),
    ("1.00000000002", "1", False),  # two units of the last printed digit
    ("1", "0.99999999998", False),
    ("0.566974660442", "0.566974660444", False),
    ("12.3456789012", "12.3456789014", False),
    ("0.2487827696", "0.2487827686", False),  # a cell moved by 1e-9
    ("3e-13", "0", True),  # under 1e-12 the floor holds
    ("2.5e-12", "0", False),
    ("1.00000000002e-05", "1e-05", True),
])
def test_csv_cells_compare_at_their_print_resolution(got, want, passes, tmp_path):
    for name, cell in (("got.csv", got), ("want.csv", want)):
        (tmp_path / name).write_text(f"t,x\n0,{cell}\n")
    got_rows, want_rows = parse(tmp_path / "got.csv"), parse(tmp_path / "want.csv")
    if passes:
        assert_same(got_rows, want_rows, "csv", print_resolution)
    else:
        with pytest.raises(AssertionError):
            assert_same(got_rows, want_rows, "csv", print_resolution)


def test_report_numbers_keep_the_fixed_tolerance():
    assert_same({"x": 1.0 + 5e-13}, {"x": 1.0})
    with pytest.raises(AssertionError):
        assert_same({"x": 1.00000000001}, {"x": 1.0})
