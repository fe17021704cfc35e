"""Golden outputs: each command of tests/golden/regenerate.py, rerun through
cli.main, reproduces its checked-in file.

Keys, strings (the embedded circuit text among them), booleans and nulls must
match exactly; numbers within 1e-12, so that a different BLAS cannot fail it.
A CSV's header line must match exactly, and its cells as numbers.
"""

import json
import runpy
from pathlib import Path

import pytest

from fmosim import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = runpy.run_path(str(GOLDEN / "regenerate.py"))["CASES"]
NUMBER_ATOL = 1e-12


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


def parse(path: Path):
    """A JSON file as its document; a CSV as its header line plus rows of floats."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    header, *rows = text.splitlines()
    return [header] + [[float(cell) for cell in row.split(",")] for row in rows]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden_file(name, argv, tmp_path):
    out = tmp_path / name
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert_same(parse(out), parse(GOLDEN / name))

