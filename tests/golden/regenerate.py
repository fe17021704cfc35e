"""Rewrite the golden output corpus that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each file under tests/golden/ is the output of one ``fmosim`` command, listed in
``CASES`` as (file name, argv).  A change that alters an output reruns this
script and names the changed files and the reason in CHANGES.md.
"""

import sys
from pathlib import Path

from fmosim import cli

GOLDEN = Path(__file__).resolve().parent
EXAMPLE = str(GOLDEN.parent.parent / "configs" / "example.json")
EVOLVE = ["evolve", "--config", EXAMPLE, "--record-every", "5"]  # the example starts from site1

CASES = [
    (f"channel-{kind}.json", ["channel", kind, "--rate", "0.5", "--time", "0.3"])
    for kind in ("dissipation", "dephasing-paper", "dephasing-corrected")
] + [("evolve-exact.csv", EVOLVE + ["--method", "exact"])] + [
    (f"evolve-{method}-{lowering}.csv", EVOLVE + ["--method", method, "--lowering", lowering])
    for method in ("trotter", "both")
    for lowering in ("dense-blocks", "compiled-pulses")
]


def main() -> int:
    for name, argv in CASES:
        code = cli.main(argv + ["--out", str(GOLDEN / name)])
        if code != 0:
            print(f"fmosim {' '.join(argv)} exited {code}", file=sys.stderr)
            return code
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
