"""Rewrite the golden output corpus that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each file under tests/golden/, except this script and the ``config-*.json``
inputs, is an output of one case of ``CASES``, a (name, argv) pair that
``run_case`` turns into files.  An ``evolve`` or ``channel`` case is one
``fmosim`` command and its ``--out`` file, named ``name``; an ``evolve`` case
with ``--states`` also writes the state JSON, under the file name its argv
gives.  The state JSON prints every entry with ``repr``, so it shows a change
in the last bit that the CSV's 12 digits cannot.  A ``compile`` case
writes three files: ``name.json``, the schedule (``--out``); ``name.txt``, the
``gates`` circuit (``--circuit``); and ``name.out``, the stdout lines of that
``compile`` and of ``verify --lowering opaque`` and ``--lowering gates`` on the
schedule.  A change that alters an output reruns this script and names the
changed files and the reason in CHANGES.md.
"""

import contextlib
import io
import sys
from pathlib import Path

from fmosim import cli

GOLDEN = Path(__file__).resolve().parent
EXAMPLE = str(GOLDEN.parent.parent / "configs" / "example.json")
TWO = str(GOLDEN / "config-1100000.json")  # the example from 1100000: 29 support states
THREE = str(GOLDEN / "config-110.json")  # 3 sites from 110, some rates 0: 7 support states
CHAIN_TARGETS = [f"z:{l}" for l in range(1, 8)] + [f"xy:{l},{l + 1}" for l in range(1, 7)]


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
] + evolve_cases(EXAMPLE, "") + evolve_cases(TWO, "-1100000") + [
    (f"evolve-{name}-110.csv", ["evolve", "--config", THREE, "--record-every", "5", "--method",
                                *how, "--states", f"evolve-{name}-110-states.json"])
    for name, how in (("exact", ["exact"]),
                      ("trotter-dense-blocks", ["trotter", "--lowering", "dense-blocks"]))
] + [
    ("compile-" + target.replace(":", "-").replace(",", "-"),
     ["compile", target, "--tau", "0.7316", "--config", EXAMPLE])
    for target in CHAIN_TARGETS
]


def run_case(name: str, argv: list, directory: Path) -> list:
    """Write the files of one case into ``directory``; returns their names."""
    if argv[0] != "compile":
        written = [name]
        if "--states" in argv:
            i = argv.index("--states") + 1
            written.append(argv[i])
            argv = argv[:i] + [str(directory / argv[i])] + argv[i + 1:]
        code = cli.main(argv + ["--out", str(directory / name)])
        if code != 0:
            raise RuntimeError(f"fmosim {' '.join(argv)} exited {code}")
        return written
    schedule = str(directory / f"{name}.json")
    runs = [argv + ["--out", schedule, "--circuit", str(directory / f"{name}.txt")]] + [
        ["verify", schedule, "--config", argv[argv.index("--config") + 1], "--lowering", lowering]
        for lowering in ("opaque", "gates")
    ]
    stdout = io.StringIO()
    for run in runs:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(run)
        if code != 0:
            raise RuntimeError(f"fmosim {' '.join(run)} exited {code}")
    (directory / f"{name}.out").write_text(stdout.getvalue())
    return [f"{name}.json", f"{name}.txt", f"{name}.out"]


def main() -> int:
    for name, argv in CASES:
        try:
            written = run_case(name, argv, GOLDEN)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        print("wrote " + ", ".join(written))
    return 0


if __name__ == "__main__":
    sys.exit(main())
