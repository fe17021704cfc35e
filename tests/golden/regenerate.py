"""Rewrite the golden output corpus that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each file under tests/golden/, except this script and the ``config-*.json``
inputs, is the output of one ``fmosim`` command, listed in ``CASES`` as
(file name, argv).  A change that alters an output reruns this
script and names the changed files and the reason in CHANGES.md.
"""

import sys
from pathlib import Path

from fmosim import cli

GOLDEN = Path(__file__).resolve().parent
EXAMPLE = str(GOLDEN.parent.parent / "configs" / "example.json")
TWO = str(GOLDEN / "config-1100000.json")  # the example from 1100000: 29 support states


def evolve_cases(config: str, suffix: str) -> list:
    """Every method x lowering of ``evolve`` on ``config`` at --record-every 5."""
    argv = ["evolve", "--config", config, "--record-every", "5"]
    return [(f"evolve-exact{suffix}.csv", argv + ["--method", "exact"])] + [
        (f"evolve-{method}-{lowering}{suffix}.csv",
         argv + ["--method", method, "--lowering", lowering])
        for method in ("trotter", "both")
        for lowering in ("dense-blocks", "compiled-pulses")
    ]


CASES = [
    (f"channel-{kind}.json", ["channel", kind, "--rate", "0.5", "--time", "0.3"])
    for kind in ("dissipation", "dephasing-paper", "dephasing-corrected")
] + evolve_cases(EXAMPLE, "") + evolve_cases(TWO, "-1100000")


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
