"""The benchmark's span tracer patches fmosim names by attribute; they must exist.

``benchmarks/tracing.py`` is loaded by path, as its harness does, and is not
edited: deleting or renaming a name it patches fails here, not only in the
benchmark's own self-test.
"""

import importlib.util
import sys
from pathlib import Path

from fmosim.cli import main

ROOT = Path(__file__).resolve().parents[1]


def load_tracing(monkeypatch):
    path = ROOT / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("fmosim_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls(tmp_path, monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert all(getattr(owner, attr).__wrapped__ is fn for owner, attr, fn in undo)
        argv = ["evolve", "--method", "both", "--config", str(ROOT / "configs" / "example.json"),
                "--out", str(tmp_path / "traj.csv"), "--record-every", "25"]
        assert main(argv) == 0
    finally:
        tracing.uninstall(undo)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in undo)
    stats = tracer.reset()
    for name in ("dynamics.evolve_trotter_open", "dynamics.integrate_exact",
                 "dynamics.LindbladGenerator.init", "qcore.trace_distance"):
        assert stats[name].calls >= 1, name
