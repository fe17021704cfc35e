"""Each command loads only the modules it runs, checked in fresh interpreters.

``evolve`` with the ``dense-blocks`` step and ``load_config`` must not load the
compiler, the circuit IR or the channel layer; the commands that do use them
still run, and the benchmark's span tracer still sees every compiler span
through the names ``cli`` binds on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmosim
from fmosim.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIG = str(ROOT / "configs" / "example.json")
SRC = str(Path(fmosim.__file__).resolve().parents[1])
HEAVY = {"fmosim.compiler", "fmosim.circuit", "fmosim.channels"}

RUN = """
import json, sys
from fmosim.cli import load_config, main
argv = json.loads(sys.argv[1])
rc = main(argv) if argv else load_config(sys.argv[2]) and 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("fmosim"))]))
"""


def fresh(code: str, *args: str) -> str:
    """stdout of ``code`` run in a new interpreter (warnings as errors) on this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_fresh(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of ``main(argv)`` (``load_config`` for no argv) and the fmosim modules loaded."""
    rc, loaded = json.loads(fresh(RUN, json.dumps(argv), CONFIG).splitlines()[-1])
    return rc, set(loaded)


def test_config_loading_and_dense_evolve_load_no_compiler_circuit_or_channels(tmp_path):
    rc, loaded = run_fresh([])
    assert rc == 0 and not loaded & HEAVY, loaded
    argv = ["evolve", "--config", CONFIG, "--lowering", "dense-blocks", "--record-every", "25",
            "--out", str(tmp_path / "traj.csv")]
    rc, loaded = run_fresh(argv)
    assert rc == 0 and not loaded & HEAVY, loaded
    assert (tmp_path / "traj.csv").stat().st_size > 0


@pytest.mark.parametrize("command", ["compile", "verify-opaque", "verify-gates", "channel",
                                     "evolve-compiled-pulses"])
def test_commands_that_load_the_compiler_or_channels_run_in_a_fresh_process(command, tmp_path):
    sched = str(tmp_path / "schedule.json")
    if command.startswith("verify"):
        assert main(["compile", "xy:1,2", "--tau", "0.5", "--config", CONFIG, "--out", sched]) == 0
    argv = {
        "compile": ["compile", "xy:1,2", "--tau", "0.5", "--config", CONFIG, "--out", sched,
                    "--circuit", str(tmp_path / "circuit.txt")],
        "verify-opaque": ["verify", sched, "--config", CONFIG, "--lowering", "opaque"],
        "verify-gates": ["verify", sched, "--config", CONFIG, "--lowering", "gates"],
        "channel": ["channel", "dissipation", "--rate", "0.5", "--time", "0.3",
                    "--out", str(tmp_path / "channel.json")],
        "evolve-compiled-pulses": ["evolve", "--config", CONFIG, "--lowering", "compiled-pulses",
                                   "--record-every", "25", "--out", str(tmp_path / "traj.csv")],
    }[command]
    rc, loaded = run_fresh(argv)
    assert rc == 0
    unused = "fmosim.compiler" if command == "channel" else "fmosim.channels"
    assert loaded & HEAVY == HEAVY - {unused}, loaded


TRACED = """
import importlib.util, json, sys
from fmosim import cli, compiler
spec = importlib.util.spec_from_file_location("fmosim_bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracing  # dataclasses look the module up
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
undo = tracing.install(tracer)
sched, config = sys.argv[2], sys.argv[3]
try:
    rcs = [cli.main(["compile", "xy:1,2", "--tau", "0.5", "--config", config, "--out", sched]),
           cli.main(["verify", sched, "--config", config, "--lowering", "opaque"]),
           cli.main(["verify", sched, "--config", config, "--lowering", "gates"])]
finally:
    tracing.uninstall(undo)
restored = all(getattr(owner, attr) is fn for owner, attr, fn in undo) and all(
    getattr(cli, name) is getattr(compiler, name) for name in cli._COMPILER_NAMES)
calls = {name: st.calls for name, st in tracer.reset().items()}
print(json.dumps({"rcs": rcs, "restored": restored, "calls": calls}))
"""


def test_tracer_sees_every_compiler_span_through_lazily_bound_cli_names(tmp_path):
    tracing = str(ROOT / "benchmarks" / "tracing.py")
    stdout = fresh(TRACED, tracing, str(tmp_path / "schedule.json"), CONFIG)
    out = json.loads(stdout.splitlines()[-1])
    assert out["rcs"] == [0, 0, 0] and out["restored"]
    for name in ("compiler.verify_schedule.opaque", "compiler.verify_schedule.gates",
                 "compiler.schedule_program", "circuit.export_text"):
        assert out["calls"].get(name, 0) >= 1, (name, out["calls"])
