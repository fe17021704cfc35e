"""Command-line interface tests (in-process via main(argv))."""

import contextlib
import errno
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fmosim
from fmosim import circuit as ci
from fmosim import cli, dynamics
from fmosim.cli import ConfigError, load_config, main, parse_config
from fmosim.compiler import (
    PulseSchedule,
    compile_single_z,
    compile_xy,
    schedule_from_json,
    schedule_to_json,
)
from fmosim.dynamics import Trajectory, evolve_trotter_open, initial_density, integrate_exact
from fmosim.hamiltonians import NmrParameters
from fmosim.qcore import trace_distance
from textcompare import assert_same_text

BASE = {
    "schema_version": 1,
    "fmo": {"epsilon": [1.0, 1.0, 1.0], "nu_bonds": [0.1, 0.1]},
    "noise": {"dissipation": [0.05] * 3, "dephasing": [0.05] * 3},
    "nmr": {"omega": [1.0, 1.0, 1.0], "j": [0.2, 0.2]},
    "evolution": {"t_max": 0.4, "dt": 0.02, "method": "exact", "initial_state": "site1"},
    "output": {},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def deep(doc, *edits):
    out = json.loads(json.dumps(doc))
    for keys, value in edits:
        cur = out
        for k in keys[:-1]:
            cur = cur[k]
        if value is ...:
            del cur[keys[-1]]
        else:
            cur[keys[-1]] = value
    return out


# --- configuration ------------------------------------------------------------


def test_config_full_matrix_and_derived_nmr():
    doc = deep(
        BASE,
        (("fmo", "nu"), [[0, 0.1, 0], [0.1, 0, 0.2], [0, 0.2, 0]]),
        (("fmo", "nu_bonds"), ...),
        (("nmr",), ...),
    )
    cfg = parse_config(doc)
    assert np.allclose(cfg.nmr.omega, 2.0 * np.asarray(BASE["fmo"]["epsilon"]))
    assert np.allclose(cfg.nmr.j, [0.2, 0.4])


def test_config_rejections():
    bad = [
        deep(BASE, (("schema_version",), 99)),
        deep(BASE, (("surprise",), 1)),
        deep(BASE, (("fmo", "nu"), [[0, 0.1, 0], [0.1, 0, 0.2], [0, 0.2, 0]])),
        deep(BASE, (("fmo", "nu_bonds"), ...)),
        deep(BASE, (("noise", "dissipation"), [-0.1, 0, 0])),
        deep(BASE, (("noise", "dephasing"), [0.1, 0])),
        deep(BASE, (("evolution", "method"), "magic")),
        deep(BASE, (("evolution", "dt"), 0)),
        deep(BASE, (("evolution", "t_max"), -1)),
        deep(BASE, (("nmr", "omega"), [1.0, 1.0])),
        deep(BASE, (("output",), {"trajectory": 7})),
        deep(BASE, (("fmo", "epsilon"), [1.0, "x", 1.0])),
    ]
    for doc in bad:
        with pytest.raises(ConfigError):
            parse_config(doc)


def test_config_long_range_needs_explicit_nmr():
    nu = [[0, 0, 0.1], [0, 0, 0], [0.1, 0, 0]]
    doc = deep(BASE, (("fmo", "nu"), nu), (("fmo", "nu_bonds"), ...), (("nmr",), ...))
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_derived_nmr_overflow_exits_2_under_warnings_as_errors(tmp_path):
    doc = deep(BASE, (("fmo", "epsilon"), [1e308, 1.0, 1.0]), (("nmr",), ...))
    cfgp = write_config(tmp_path, doc)
    src = str(Path(fmosim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["compile", "z:1", "--tau", "1", "--config", cfgp]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fmosim.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: config.nmr") and "overflows" in line


# --- compile / verify ----------------------------------------------------------


def test_compile_writes_schedule_and_circuit(tmp_path, capsys):
    cfgp = write_config(tmp_path, BASE)
    out = tmp_path / "sched.json"
    circ = tmp_path / "circ.txt"
    code = main(
        ["compile", "z:1", "--tau", "1", "--config", cfgp,
         "--out", str(out), "--circuit", str(circ)]
    )
    assert code == 0
    assert "pass" in capsys.readouterr().out
    sched = schedule_from_json(out.read_text())
    assert isinstance(sched, PulseSchedule)
    assert sched.intervals == 4 and sched.target == "z:1 coeff=0.5"
    prog = ci.parse_text(circ.read_text())
    assert prog.n_qubits == 3


def test_compile_builds_no_circuit_without_a_circuit_path(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("compile built a circuit it does not write")

    monkeypatch.setattr(cli, "schedule_program", refuse)
    out = tmp_path / "sched.json"
    assert main(["compile", "z:1", "--tau", "1", "--config", write_config(tmp_path, BASE),
                 "--out", str(out)]) == 0
    assert "pass" in capsys.readouterr().out
    assert schedule_from_json(out.read_text()).target == "z:1 coeff=0.5"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "sched.json"]


def test_compile_xy_segmented_output(tmp_path):
    cfgp = write_config(tmp_path, BASE)
    out = tmp_path / "xy.json"
    assert main(["compile", "xy:2,3", "--tau", "0.5", "--config", cfgp,
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["segments"]) == 2


def test_compile_rejects_long_range_pair(tmp_path, capsys):
    cfgp = write_config(tmp_path, BASE)
    assert main(["compile", "zz:1,3", "--tau", "1", "--config", cfgp]) == 2
    assert main(["compile", "w:1", "--tau", "1", "--config", cfgp]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec",
    ["z:0_1", "z:+1", "z: 1", "z:\u0661", pytest.param("z:" + "1" * 5000, id="z:5000-digits")],
)
def test_compile_target_sites_are_ascii_digit_runs(tmp_path, capsys, spec):
    cfgp = write_config(tmp_path, BASE)
    out = tmp_path / "sched.json"
    assert main(["compile", spec, "--tau", "1", "--config", cfgp, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: malformed target {spec!r}")
    assert captured.out == "" and not out.exists()


def test_verify_pass_fail_and_malformed(tmp_path, capsys):
    cfgp = write_config(tmp_path, BASE)
    out = tmp_path / "sched.json"
    main(["compile", "zz:2,3", "--tau", "1", "--config", cfgp, "--out", str(out)])
    assert main(["verify", str(out), "--config", cfgp]) == 0

    doc = json.loads(out.read_text())
    # remove one qubit from a pair of flip layers: frame stays closed but a
    # decoupled term survives
    doc["pulse_layers"][1].remove(2)
    doc["pulse_layers"][3].remove(2)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad), "--config", cfgp]) == 3
    assert "FAIL" in capsys.readouterr().out

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    assert main(["verify", str(mangled), "--config", cfgp]) == 2


def test_verify_reports_parameter_mismatch(tmp_path, capsys):
    cfgp = write_config(tmp_path, BASE)
    out = tmp_path / "sched.json"
    main(["compile", "z:2", "--tau", "1", "--config", cfgp, "--out", str(out)])
    other = write_config(
        tmp_path, deep(BASE, (("nmr", "omega"), [1.0, 3.0, 1.0])), "other.json"
    )
    assert main(["verify", str(out), "--config", other]) == 3
    assert "descriptor promises" in capsys.readouterr().out
    # omega elsewhere is irrelevant to a z:2 target
    unrelated = write_config(
        tmp_path, deep(BASE, (("nmr", "omega"), [5.0, 1.0, 5.0])), "unrelated.json"
    )
    assert main(["verify", str(out), "--config", unrelated]) == 0


# --- evolve ---------------------------------------------------------------------


def test_evolve_constant_populations_without_couplings(tmp_path):
    doc = deep(
        BASE,
        (("fmo", "nu_bonds"), [0.0, 0.0]),
        (("noise", "dissipation"), [0.0] * 3),
        (("noise", "dephasing"), [0.0] * 3),
    )
    cfgp = write_config(tmp_path, doc)
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", cfgp, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,p1,p2,p3,loss,trace,purity"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    for row in rows:
        assert row[1:4] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def test_evolve_both_appends_trace_distance(tmp_path):
    cfgp = write_config(tmp_path, deep(BASE, (("evolution", "method"), "both")))
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", cfgp, "--out", str(out),
                 "--record-every", "5"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].endswith(",trace_distance")
    td = [float(line.split(",")[-1]) for line in lines[1:]]
    assert td[0] == 0.0
    assert 0 < max(td) < 0.05


def test_evolve_both_shares_one_setup_and_matches_the_routes_run_alone(tmp_path, monkeypatch):
    # 4 sites from 1100: a support of 11 states, stepped by the propagator.
    doc = deep(BASE, (("fmo",), {"epsilon": [1.0, 0.9, 1.2, 1.1], "nu_bonds": [0.1, 0.2, 0.15]}),
               (("noise",), {"dissipation": [0.05, 0.0, 0.1, 0.02],
                             "dephasing": [0.05, 0.1, 0.0, 0.03]}),
               (("nmr",), {"omega": [1.0] * 4, "j": [0.2] * 3}),
               (("evolution", "initial_state"), "1100"))
    cfgp = write_config(tmp_path, doc)
    runs = {}
    for name in ("evolve_trotter_open", "integrate_exact"):
        def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
            runs[_name] = (kwargs["setup"], _real(*args, **kwargs))
            return runs[_name][1]

        monkeypatch.setattr(cli, name, spy)
    built, dissipator = [], dynamics._dissipator
    monkeypatch.setattr(dynamics, "_dissipator", lambda *a: built.append(a) or dissipator(*a))
    generators = []

    class Generator(dynamics.LindbladGenerator):
        def __init__(self, setup):
            super().__init__(setup)
            generators.append(self)

    monkeypatch.setattr(dynamics, "LindbladGenerator", Generator)
    argv = ["evolve", "--config", cfgp, "--record-every", "3", "--out"]
    assert main(argv + [str(tmp_path / "both.csv"), "--method", "both"]) == 0
    (setup, digital), (shared, exact) = runs["evolve_trotter_open"], runs["integrate_exact"]
    assert setup is shared and len(setup.support) == 11 and len(built) == 1
    [gen] = generators  # the exact route's generator steps the shared setup's dissipator
    assert gen.decay is setup.dissipator[0] and gen.refill is setup.dissipator[1]
    cfg = load_config(cfgp)
    rho0 = initial_density("1100", 4)
    alone = [evolve_trotter_open(rho0, cfg.fmo, cfg.noise, cfg.t_max, cfg.dt, record_every=3),
             integrate_exact(rho0, cfg.fmo, cfg.noise, cfg.t_max, cfg.dt, 3)]
    for traj, want in zip((digital, exact), alone):
        assert traj.times == want.times and len(traj.times) == 8
        for a, b in zip(traj.blocks, want.blocks):
            assert np.abs(a - b).max() <= 1e-15
    monkeypatch.undo()
    assert main(argv + [str(tmp_path / "trotter.csv"), "--method", "trotter"]) == 0
    both = (tmp_path / "both.csv").read_text().splitlines()
    rows = [line.rsplit(",", 1) for line in both]
    assert "\n".join(row[0] for row in rows) + "\n" == (tmp_path / "trotter.csv").read_text()
    distances = [f"{trace_distance(a, b):.12g}" for a, b in zip(*(t.blocks for t in alone))]
    assert [row[1] for row in rows] == ["trace_distance"] + distances


def test_evolve_state_dump_and_config_output_paths(tmp_path):
    out = tmp_path / "t.csv"
    states = tmp_path / "s.json"
    doc = deep(BASE, (("output",), {"trajectory": str(out), "states": str(states)}))
    cfgp = write_config(tmp_path, doc)
    assert main(["evolve", "--config", cfgp, "--record-every", "10"]) == 0
    assert out.exists()
    dumped = json.loads(states.read_text())
    assert dumped["method"] == "exact"
    state0 = np.array([[a + 1j * b for a, b in row] for row in dumped["states"][0]])
    assert state0[int("100", 2), int("100", 2)] == 1.0


def test_evolve_writes_from_the_blocks_without_full_states(tmp_path, monkeypatch):
    """The CLI path scatters no recorded state; its both column is the full-state distance."""

    def scatter(self, block):
        raise AssertionError("a recorded state was scattered")

    cfg = load_config(EXAMPLE_CONFIG)
    rho0 = initial_density(cfg.initial_state, cfg.fmo.n_sites)
    out, states = tmp_path / "t.csv", tmp_path / "s.json"
    for lowering in ("dense-blocks", "compiled-pulses"):
        argv = ["evolve", "--config", EXAMPLE_CONFIG, "--method", "both", "--lowering", lowering,
                "--record-every", "10", "--out", str(out), "--states", str(states)]
        with monkeypatch.context() as m:
            m.setattr(Trajectory, "_scatter", scatter)
            assert main(argv) == 0
        assert len(json.loads(states.read_text())["states"]) == 6
        # The trace_distance column equals the distance between the full states.
        digital = evolve_trotter_open(rho0, cfg.fmo, cfg.noise, cfg.t_max, cfg.dt, lowering, 10)
        exact = integrate_exact(rho0, cfg.fmo, cfg.noise, cfg.t_max, cfg.dt, 10)
        want = [trace_distance(a, b) for a, b in zip(digital.states, exact.states)]
        got = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]]
        assert np.allclose(got, want, rtol=1e-11, atol=1e-15)


def test_evolve_state_file_is_json_dumps_of_the_full_states(tmp_path):
    """The --states file is byte for byte json.dumps of the scattered states plus a newline."""
    cfg = load_config(EXAMPLE_CONFIG)
    rho0 = initial_density(cfg.initial_state, cfg.fmo.n_sites)
    states = tmp_path / "s.json"
    argv = ["evolve", "--config", EXAMPLE_CONFIG, "--method", "both", "--record-every", "25",
            "--out", str(tmp_path / "t.csv"), "--states", str(states)]
    assert main(argv) == 0
    traj = evolve_trotter_open(rho0, cfg.fmo, cfg.noise, cfg.t_max, cfg.dt, "dense-blocks", 25)
    want = {
        "method": traj.method,
        "times": list(traj.times),
        "states": [np.stack([s.real, s.imag], -1).tolist() for s in traj.states],
    }
    assert len(want["states"]) == 3
    assert_same_text(states.read_bytes(), (json.dumps(want) + "\n").encode())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flag", ["--states", "--out"])
def test_evolve_write_failing_midway_exits_2(flag):
    """A full device fails the write after it starts: exit 2, one error line, no traceback."""
    src = str(Path(fmosim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fmosim.cli", "evolve", "--config", EXAMPLE_CONFIG,
         flag, "/dev/full"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and f"[Errno {errno.ENOSPC}]" in line


def test_a_write_failing_partway_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch, capsys):
    """``evolve --states`` whose writer raises after writing part of the document:
    exit 2, the old file unchanged, its mode kept, and no temporary file left."""
    cfgp = write_config(tmp_path, BASE)
    states = tmp_path / "s.json"
    states.write_text("old\n")
    states.chmod(0o640)

    def cut_short(traj, fh):
        fh.write('{"method": "exact", "times": [0.0')
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Trajectory, "to_state_json", cut_short)
    assert main(["evolve", "--config", cfgp, "--out", str(tmp_path / "t.csv"),
                 "--states", str(states)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert states.read_text() == "old\n" and states.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["config.json", "s.json", "t.csv"]


def test_outputs_get_the_mode_open_gives_and_write_through_symlinks(tmp_path, capsys):
    """A new output gets 0o666 less the umask, an existing one keeps its mode, as
    ``open(path, "w")`` gives (not the 0o600 of a temporary file); a path in a
    missing directory fails naming that path; a symlinked output is written at
    its target and stays a link."""
    argv = ["channel", "dissipation", "--rate", "0.5", "--time", "0.3", "--out"]
    old = os.umask(0o027)
    try:
        assert main(argv + [str(tmp_path / "new.json")]) == 0
        with open(tmp_path / "opened.json", "w"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "opened.json").stat().st_mode
    assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o640
    kept = tmp_path / "kept.json"
    kept.write_text("old")
    kept.chmod(0o604)
    assert main(argv + [str(kept)]) == 0
    assert kept.stat().st_mode & 0o777 == 0o604
    assert kept.read_text() == (tmp_path / "new.json").read_text()
    assert main(argv + [str(tmp_path / "missing" / "x.json")]) == 2
    assert f"'{tmp_path / 'missing' / 'x.json'}'" in capsys.readouterr().err
    link = tmp_path / "link.json"
    link.symlink_to(tmp_path / "target.json")
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and (tmp_path / "target.json").read_text() == kept.read_text()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_evolve_writes_a_fifo_in_place(tmp_path):
    """A FIFO is not a regular file, so the trajectory is written into it, not beside it."""
    cfgp = write_config(tmp_path, BASE)
    fifo = tmp_path / "traj.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code = main(["evolve", "--config", cfgp, "--out", str(fifo)])
    reader.join(timeout=60)
    assert code == 0 and not reader.is_alive() and stat.S_ISFIFO(fifo.stat().st_mode)
    assert main(["evolve", "--config", cfgp, "--out", str(tmp_path / "t.csv")]) == 0
    assert got == [(tmp_path / "t.csv").read_text()]
    assert sorted(os.listdir(tmp_path)) == ["config.json", "t.csv", "traj.fifo"]


def test_evolve_bad_initial_state(tmp_path, capsys):
    cfgp = write_config(tmp_path, deep(BASE, (("evolution", "initial_state"), "site9")))
    assert main(["evolve", "--config", cfgp]) == 2
    assert "initial_state" in capsys.readouterr().err


@pytest.mark.parametrize(
    "label",
    ["site+1", "site 1", "site\u0661", "site0_1", "site1_0", "site",
     pytest.param("site" + "1" * 5000, id="site5000-digits")],
)
def test_evolve_site_index_is_a_run_of_ascii_digits(tmp_path, label):
    cfgp = write_config(tmp_path, deep(BASE, (("evolution", "initial_state"), label)))
    code, out, err = run_cli(["evolve", "--config", cfgp])
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: config.evolution.initial_state") and repr(label) in line
    cfgp = write_config(tmp_path, deep(BASE, (("evolution", "initial_state"), "site3")))
    assert run_cli(["evolve", "--config", cfgp])[0] == 0


def test_evolve_compiled_lowering(tmp_path):
    doc = deep(BASE, (("evolution", "method"), "trotter"), (("evolution", "t_max"), 0.1))
    cfgp = write_config(tmp_path, doc)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["evolve", "--config", cfgp, "--out", str(a)]) == 0
    assert main(["evolve", "--config", cfgp, "--out", str(b),
                 "--lowering", "compiled-pulses"]) == 0
    ra = [[float(x) for x in line.split(",")] for line in a.read_text().strip().split("\n")[1:]]
    rb = [[float(x) for x in line.split(",")] for line in b.read_text().strip().split("\n")[1:]]
    assert np.abs(np.array(ra) - np.array(rb)).max() < 1e-9


def test_evolve_step_count_overflow_exits_2(tmp_path):
    doc = deep(BASE, (("evolution", "t_max"), 1e300), (("evolution", "dt"), 1e-300))
    code, out, err = run_cli(["evolve", "--config", write_config(tmp_path, doc)])
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line == "error: t_max / dt = inf is not a finite step count"


@pytest.mark.parametrize("method", ["exact", "trotter", "both"])
def test_evolve_refuses_records_over_the_budget(tmp_path, method):
    # The budget the README states, checked first: without it this run would
    # step 10^12 times while its memory grows.
    assert fmosim.dynamics.RECORD_BUDGET_BYTES == 1 << 30
    doc = deep(BASE, (("evolution", "t_max"), 1e6), (("evolution", "dt"), 1e-6))
    out = tmp_path / "traj.csv"
    cfgp = write_config(tmp_path, doc)
    code, stdout, err = run_cli(["evolve", "--config", cfgp, "--method", method, "--out", str(out)])
    assert code == 2 and stdout == "" and not out.exists()
    [line] = err.splitlines()
    assert line.startswith("error: the run would record 1000000000001 states of 4 x 4 entries")


@pytest.mark.parametrize("method", ["exact", "trotter", "both"])
def test_evolve_refuses_steps_over_the_budget(tmp_path, method):
    # Two records pass the record budget; the 10^12 steps must be refused
    # before the first one, not run for weeks.  The budget the README states:
    assert fmosim.dynamics.STEP_BUDGET == 1 << 34
    doc = deep(BASE, (("evolution", "t_max"), 1e6), (("evolution", "dt"), 1e-6))
    out = tmp_path / "traj.csv"
    argv = ["evolve", "--config", write_config(tmp_path, doc), "--method", method,
            "--record-every", "1000000000000", "--out", str(out)]
    code, stdout, err = run_cli(argv)
    assert code == 2 and stdout == "" and not out.exists()
    [line] = err.splitlines()
    assert line.startswith("error: the run would take 1000000000000 steps of 4 x 4 states")


def test_compile_refuses_a_negative_tau(tmp_path):
    out = tmp_path / "schedule.json"
    argv = ["compile", "z:1", "--tau", "-0.1", "--config", EXAMPLE_CONFIG, "--out", str(out)]
    code, stdout, err = run_cli(argv)
    assert code == 2 and stdout == "" and not out.exists()
    [line] = err.splitlines()
    assert line == "error: tau = -0.1 is negative; no pulse sequence runs backward"


def test_verify_refuses_a_negative_interval_duration(tmp_path):
    sched = tmp_path / "schedule.json"
    argv = ["compile", "z:1", "--tau", "0.1", "--config", EXAMPLE_CONFIG, "--out", str(sched)]
    assert run_cli(argv)[0] == 0
    doc = json.loads(sched.read_text())
    doc["interval_duration"] = -doc["interval_duration"]
    sched.write_text(json.dumps(doc))
    code, stdout, err = run_cli(["verify", str(sched), "--config", EXAMPLE_CONFIG])
    assert code == 2 and stdout == ""
    [line] = err.splitlines()
    assert line == (f"error: cannot parse schedule {sched}: schedule.interval_duration "
                    "is negative; no pulse sequence runs backward")


@pytest.mark.parametrize("every", ["0", "-3"])
def test_evolve_rejects_record_every_below_one(tmp_path, capsys, every):
    cfgp = write_config(tmp_path, BASE)
    assert main(["evolve", "--config", cfgp, "--record-every", every]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "record_every" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evolve_rejects_diverged_state(tmp_path, capsys):
    # RK4 far past its stability limit: the state at t = 50 is NaN.
    doc = deep(
        BASE,
        (("noise", "dissipation"), [50.0] * 3),
        (("evolution", "dt"), 0.5),
        (("evolution", "t_max"), 50.0),
        (("evolution", "method"), "exact"),
    )
    cfgp = write_config(tmp_path, doc)
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", cfgp, "--out", str(out), "--record-every", "1000"]) == 2
    captured = capsys.readouterr()
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "t=50" in errors[0]
    assert "Traceback" not in captured.err
    assert not out.exists() and captured.out == ""


@pytest.mark.parametrize("lowering", ["dense-blocks", "compiled-pulses"])
def test_evolve_digital_route_capped_at_ten_sites(tmp_path, capsys, lowering):
    doc = deep(
        BASE,
        (("fmo",), {"epsilon": [1.0] * 11, "nu_bonds": [0.1] * 10}),
        (("noise",), {"dissipation": [0.05] * 11, "dephasing": [0.05] * 11}),
        (("nmr",), ...),
        (("evolution", "method"), "trotter"),
        (("evolution", "t_max"), 0.1),
    )
    cfgp = write_config(tmp_path, doc)
    out = tmp_path / "traj.csv"
    start = time.perf_counter()
    assert main(["evolve", "--config", cfgp, "--out", str(out), "--lowering", lowering]) == 2
    assert time.perf_counter() - start < 20.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "capped at 10 qubits" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("method", ["trotter", "both"])
def test_evolve_digital_cap_fires_before_the_initial_state(tmp_path, capsys, method):
    # At 16 sites the dense initial state alone would be 64 GiB.
    doc = deep(
        BASE,
        (("fmo",), {"epsilon": [1.0] * 16, "nu_bonds": [0.1] * 15}),
        (("noise",), {"dissipation": [0.05] * 16, "dephasing": [0.05] * 16}),
        (("nmr",), ...),
        (("evolution", "method"), method),
    )
    cfgp = write_config(tmp_path, doc)
    out = tmp_path / "traj.csv"
    start = time.perf_counter()
    assert main(["evolve", "--config", cfgp, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "capped at 10 qubits" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_evolve_exact_route_capped_before_the_initial_state(tmp_path, capsys):
    # At 16 sites the dense initial state alone would be 64 GiB.
    doc = deep(
        BASE,
        (("fmo",), {"epsilon": [1.0] * 16, "nu_bonds": [0.1] * 15}),
        (("noise",), {"dissipation": [0.05] * 16, "dephasing": [0.05] * 16}),
        (("nmr",), ...),
    )
    cfgp = write_config(tmp_path, doc)
    out = tmp_path / "traj.csv"
    start = time.perf_counter()
    assert main(["evolve", "--config", cfgp, "--method", "exact", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "capped at 10 qubits" in errors[0]
    assert "initial_state" not in errors[0]
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_evolve_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr("fmosim.cli.integrate_exact", exhausted)
    cfgp = write_config(tmp_path, BASE)
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--config", cfgp, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "out of memory" in errors[0]
    assert "Traceback" not in captured.err
    assert not out.exists() and captured.out == ""


@pytest.mark.parametrize("command", ["compile", "verify"])
def test_compile_and_verify_capped_at_ten_sites(tmp_path, capsys, command):
    doc = deep(
        BASE,
        (("fmo",), {"epsilon": [1.0] * 11, "nu_bonds": [0.1] * 10}),
        (("noise",), {"dissipation": [0.05] * 11, "dephasing": [0.05] * 11}),
        (("nmr",), ...),
    )
    cfgp = write_config(tmp_path, doc)
    sched = tmp_path / "schedule.json"
    if command == "compile":
        argv = ["compile", "xy:1,2", "--tau", "0.5", "--config", cfgp, "--out", str(sched)]
    else:
        nmr = NmrParameters(np.full(11, 2.0), np.full(10, 0.2))
        sched.write_text(schedule_to_json(compile_xy((1, 2), 0.5, nmr)))
        argv = ["verify", str(sched), "--config", cfgp]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "capped at 10 qubits" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and (command == "verify" or not sched.exists())


# --- compile/verify front door ------------------------------------------------

EXAMPLE_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "example.json")
CHAIN_TARGETS = [f"z:{l}" for l in range(1, 8)] + [f"xy:{l},{l + 1}" for l in range(1, 7)]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, out, err, files=()):
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert sum(ln.startswith("error:") for ln in err.splitlines()) <= 1
    for text in (out, *(f.read_text() for f in files if f.exists())):
        assert not NON_FINITE.search(text)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    spec=st.one_of(st.sampled_from(CHAIN_TARGETS), st.text("xyz:,0123456789 -_+", max_size=10)),
    tau=st.floats(),
    duration=st.floats(),
)
@example(spec="z:1", tau=1.7e308, duration=0.25)
@example(spec="z:1", tau=1.0, duration=1.7e308)
def test_compile_and_verify_keep_the_exit_contract(spec, tau, duration):
    with tempfile.TemporaryDirectory() as tmp:
        sched, circ = Path(tmp) / "sched.json", Path(tmp) / "circ.txt"
        argv = ["compile", spec, f"--tau={tau!r}", "--config", EXAMPLE_CONFIG,
                "--out", str(sched), "--circuit", str(circ)]
        assert_contract(*run_cli(argv), files=(sched, circ))

        # The z:1 schedule at tau = 1, with a drawn interval duration.
        nmr = load_config(EXAMPLE_CONFIG).nmr
        doc = json.loads(schedule_to_json(compile_single_z(1, 1.0, nmr)))
        doc["interval_duration"] = duration
        sched.write_text(json.dumps(doc))
        for lowering in ("gates", "opaque"):
            argv = ["verify", str(sched), "--config", EXAMPLE_CONFIG, "--lowering", lowering]
            assert_contract(*run_cli(argv))


# --- document front doors: schedule files and configs ---------------------------


DELETE = object()  # a ``set_path`` value that deletes the field instead


def set_path(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` (keys and indices) replaced."""
    out = json.loads(json.dumps(doc))
    if not path:
        return value
    cur = out
    for k in path[:-1]:
        cur = cur[k]
    if value is DELETE:
        del cur[path[-1]]
    else:
        cur[path[-1]] = value
    return out


def example_schedules():
    nmr = load_config(EXAMPLE_CONFIG).nmr
    return {
        "z": json.loads(schedule_to_json(compile_single_z(2, 0.5, nmr))),
        "xy": json.loads(schedule_to_json(compile_xy((2, 3), 0.5, nmr))),
    }


ANGLE = ("segments", 1, "pre", 0, "angle")
QUBITS = ("segments", 0, "pre", 0, "qubits")


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("xy", ANGLE, "abc"),
        ("xy", ANGLE, [1.0]),
        ("xy", ANGLE, float("nan")),
        ("xy", ANGLE, float("inf")),
        ("xy", ANGLE, True),
        ("xy", ANGLE, 10**400),
        ("xy", QUBITS, ["5"]),
        ("xy", QUBITS, [True]),
        ("xy", QUBITS, [2.0]),
        ("xy", ("segments", 0, "pre", 0, "kind"), 1),
        ("xy", ("target",), 5),
        ("xy", ("segments",), {}),
        ("z", ("pulse_layers", 1), [1.0, 3.0]),
        ("z", ("pulse_layers", 1), "13"),
        ("z", ("n_qubits",), 7.9),
        ("z", ("n_qubits",), "7"),
        ("z", ("interval_duration",), "0.175"),
        ("z", ("interval_duration",), True),
        ("z", ("intervals",), 4.0),
        ("z", (), [1, 2]),
        ("z", ("n_qubits",), DELETE),
        ("z", ("pulse_layers",), DELETE),
        ("xy", ("target",), DELETE),
        ("xy", ("segments", 0, "schedule"), DELETE),
        ("xy", ("segments", 0, "schedule", "interval_duration"), DELETE),
        ("xy", ("segments", 0, "pre", 0, "kind"), DELETE),
        ("xy", QUBITS, DELETE),
        ("z", ("pulse_layers",), 5),
        ("z", ("pulse_layers", 1), 5),
        ("xy", ("segments",), 5),
        ("xy", ("segments", 0), [1]),
        ("xy", ("segments", 0, "pre"), 5),
        ("xy", ("segments", 0, "post"), {}),
        ("xy", ("segments", 0, "pre", 0), [1]),
        ("xy", ("segments", 0, "schedule"), 5),
        ("xy", QUBITS, 5),
        ("z", (), "abc"),
        ("z", (), None),
        ("xy", (), 5),
        ("z", ("extra",), 1),
        ("xy", ("extra",), 1),
        ("xy", ("segments", 0, "extra"), 1),
        ("xy", ("segments", 0, "schedule", "extra"), 1),
        ("xy", ("segments", 1, "pre", 0, "extra"), 1),
    ],
)
def test_schedule_fields_are_type_checked(tmp_path, name, path, value):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(set_path(example_schedules()[name], path, value)))
    code, out, err = run_cli(["verify", str(sched), "--config", EXAMPLE_CONFIG])
    assert code == 2 and out == ""
    [line] = err.splitlines()
    prefix = f"error: cannot parse schedule {sched}: "
    assert line.startswith(prefix)
    field = next((k for k in reversed(path) if isinstance(k, str)), "schedule")
    assert field in line[len(prefix):], line


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("xy", ("segments", 0, "pre", 0, "kind"), "FOO",
         "schedule.segments[0].pre[0]: unknown gate kind 'FOO'"),
        ("xy", ("segments", 0, "pre", 0, "qubits"), [2, 3],
         "schedule.segments[0].pre[0]: H expects 1 qubit(s)"),
        ("xy", ("segments", 1, "pre", 0, "angle"), DELETE,
         "schedule.segments[1].pre[0]: bad angle for RX"),
        ("xy", ("segments", 0, "post", 1), {"kind": "CZ", "qubits": [3, 3]},
         "schedule.segments[0].post[1]: repeated qubit in gate"),
        ("xy", ("segments", 0, "pre", 1, "kind"), "UNITARY",
         "schedule.segments[0].pre[1]: UNITARY matrix shape does not match qubit count"),
        ("z", ("pulse_layers", 0), [4],
         "schedule: pulse frame does not return to the identity"),
        ("z", ("pulse_layers", 4), [8, 8], "schedule: pulsed qubit outside register 1..7"),
        ("z", ("pulse_layers",), [[]], "schedule: need at least one interval (two layer slots)"),
        ("xy", ("segments", 1, "schedule", "pulse_layers", 0), [2, 3, 5],
         "schedule.segments[1].schedule: pulse frame does not return to the identity"),
        ("xy", ("segments", 0, "schedule", "pulse_layers", 4), [9, 9],
         "schedule.segments[0].schedule: pulsed qubit outside register 1..7"),
        ("xy", ("segments",), [], "schedule: a conjugated schedule needs at least one segment"),
        ("xy", ("n_qubits",), 8, "schedule: segment width does not match the schedule's n_qubits"),
    ],
)
def test_schedule_record_refusals_name_their_field(tmp_path, name, path, value, message):
    """A field the record's constructor refuses is named by its path, as the checker names it."""
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(set_path(example_schedules()[name], path, value)))
    code, out, err = run_cli(["verify", str(sched), "--config", EXAMPLE_CONFIG])
    assert (code, out, err) == (2, "", f"error: cannot parse schedule {sched}: {message}\n")


def test_schedule_register_size_allocates_nothing_before_the_cap(tmp_path):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(set_path(example_schedules()["z"], ("n_qubits",), 10**7)))
    tracemalloc.start()
    try:
        code, out, err = run_cli(["verify", str(sched), "--config", EXAMPLE_CONFIG])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "capped at 10 qubits" in err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("evolution", "t_max"), [1], "config.evolution.t_max must be a finite number"),
        (("evolution", "t_max"), None, "config.evolution.t_max must be a finite number"),
        (("evolution", "t_max"), True, "config.evolution.t_max must be a finite number"),
        (("evolution", "t_max"), 10**400, "config.evolution.t_max must be a finite number"),
        (("evolution", "dt"), "abc", "config.evolution.dt must be a finite number"),
        (("evolution", "dt"), float("nan"), "config.evolution.dt must be a finite number"),
        (("fmo", "epsilon"), [True] * 3, "config.fmo.epsilon must be a flat list of finite numbers"),
        (("fmo", "epsilon"), ["1"] * 3, "config.fmo.epsilon must be a flat list of finite numbers"),
        (("fmo", "nu_bonds"), [0.1, 10**400], "config.fmo.nu_bonds must be a flat list of finite numbers"),
        (("schema_version",), True, "unsupported schema_version True (this build reads version 1)"),
        (("evolution", "initial_state"), 1000000, "config.evolution.initial_state must be a string"),
        (("output", "trajectory"), 7, "config.output.trajectory must be a string"),
        (("noise", "dissipation"), "abc", "config.noise.dissipation must be a flat list of finite numbers"),
        (("noise", "dissipation"), [0.05, float("inf"), 0.05],
         "config.noise.dissipation must be a flat list of finite numbers"),
        (("noise", "dephasing"), "abc", "config.noise.dephasing must be a flat list of finite numbers"),
        (("noise", "dephasing"), [0.05, float("nan"), 0.05],
         "config.noise.dephasing must be a flat list of finite numbers"),
        (("nmr", "omega"), "abc", "config.nmr.omega must be a flat list of finite numbers"),
        (("nmr", "omega"), [1.0, float("-inf"), 1.0], "config.nmr.omega must be a flat list of finite numbers"),
        (("nmr", "j"), "abc", "config.nmr.j must be a flat list of finite numbers"),
        (("nmr", "j"), [0.2, float("nan")], "config.nmr.j must be a flat list of finite numbers"),
    ],
)
def test_numeric_config_fields_are_type_checked(tmp_path, path, value, message):
    cfgp = write_config(tmp_path, deep(BASE, (path, value)))
    for argv in (["compile", "z:1", "--tau", "1", "--config", cfgp], ["evolve", "--config", cfgp]):
        assert run_cli(argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "edits, message",
    [
        ([(("fmo", "nu_bonds"), [0.1, 0.1, 0.1])], "config.fmo.nu_bonds must have n-1 entries"),
        ([(("fmo", "nu"), [[0, 0.1, 0], [0.2, 0, 0.2], [0, 0.2, 0]]), (("fmo", "nu_bonds"), ...)],
         "config.fmo: nu must be symmetric"),
        ([(("fmo", "nu"), [[0, 0.1, 0], [0.1, 0, 0.2]]), (("fmo", "nu_bonds"), ...)],
         "config.fmo.nu must be a finite n-by-n matrix"),
        ([(("noise", "dissipation"), [0.05] * 2), (("noise", "dephasing"), [0.05] * 2)],
         "config.noise rate vectors must match the site count"),
        ([(("nmr", "omega"), [1.0] * 2), (("nmr", "j"), [0.2])],
         "config.nmr.omega must match the site count"),
    ],
)
def test_config_shape_refusals_keep_their_line(tmp_path, edits, message):
    cfgp = write_config(tmp_path, deep(BASE, *edits))
    for argv in (["compile", "z:1", "--tau", "1", "--config", cfgp], ["evolve", "--config", cfgp]):
        assert run_cli(argv) == (2, "", f"error: {message}\n")


def test_compile_and_verify_refuse_qubits_outside_the_register(tmp_path):
    assert run_cli(["compile", "z:9", "--tau", "1", "--config", EXAMPLE_CONFIG]) == (
        2, "", "error: target qubit 9 outside 1..7\n")
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(set_path(example_schedules()["z"], ("target",), "z:9 coeff=0.25")))
    assert run_cli(["verify", str(sched), "--config", EXAMPLE_CONFIG]) == (
        2, "", "error: qubits [9] outside register 1..7\n")
    six = deep(json.loads(Path(EXAMPLE_CONFIG).read_text()),
               (("fmo",), {"epsilon": [1.0] * 6, "nu_bonds": [0.1] * 5}),
               (("noise",), {"dissipation": [0.05] * 6, "dephasing": [0.05] * 6}),
               (("nmr",), {"omega": [1.0] * 6, "j": [0.2] * 5}))
    assert run_cli(["compile", "z:1", "--tau", "1", "--config", write_config(tmp_path, six),
                    "--out", str(sched)])[0] == 0
    assert run_cli(["verify", str(sched), "--config", EXAMPLE_CONFIG]) == (
        2, "", "error: parameter set does not match schedule width\n")


@pytest.mark.parametrize("command", ["evolve", "verify"])
def test_deeply_nested_json_keeps_the_exit_contract(tmp_path, command):
    nested = tmp_path / "deep.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "evolve": ["evolve", "--config", str(nested)],
        "verify": ["verify", str(nested), "--config", EXAMPLE_CONFIG],
    }[command]
    code, out, err = run_cli(argv)
    assert_contract(code, out, err)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(nested) in err


@pytest.mark.parametrize("command", ["evolve", "verify"])
def test_undecodable_json_names_its_path(tmp_path, command):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff{}")
    argv = {
        "evolve": ["evolve", "--config", str(binary)],
        "verify": ["verify", str(binary), "--config", EXAMPLE_CONFIG],
    }[command]
    code, out, err = run_cli(argv)
    assert_contract(code, out, err)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(binary) in err


def test_configs_and_schedules_share_one_error_type():
    assert cli.ConfigError is fmosim.compiler.ConfigError
    doc = set_path(example_schedules()["z"], ("n_qubits",), "7")
    with pytest.raises(ConfigError, match="schedule.n_qubits must be an integer"):
        schedule_from_json(json.dumps(doc))


def test_config_nu_matrix_entries_are_numbers(tmp_path):
    nu = [[0, 0.1, 0], [0.1, 0, "0.2"], [0, 0.2, 0]]
    doc = deep(BASE, (("fmo", "nu"), nu), (("fmo", "nu_bonds"), ...))
    with pytest.raises(ConfigError, match="n-by-n"):
        parse_config(doc)


def json_fields(doc, prefix=()):
    """The path (keys and list indices) of every object field inside ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        if isinstance(doc, dict):
            yield prefix + (k,)
        yield from json_fields(v, prefix + (k,))


FUZZ_DOCS = {
    "config": deep(json.loads(Path(EXAMPLE_CONFIG).read_text()),
                   (("evolution", "t_max"), 0.04), (("evolution", "dt"), 0.02)),
    **example_schedules(),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.integers() | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=5,
)


@st.composite
def front_door_edits(draw):
    name = draw(st.sampled_from(sorted(FUZZ_DOCS)))
    return name, draw(st.sampled_from(list(json_fields(FUZZ_DOCS[name])))), draw(JSON_VALUES)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(edit=front_door_edits())
@example(edit=("xy", ANGLE, "abc"))
@example(edit=("config", ("evolution", "t_max"), [1]))
def test_document_front_doors_keep_the_exit_contract(edit):
    name, path, value = edit
    doc = set_path(FUZZ_DOCS[name], path, value)
    if name == "config" and path[-1:] in (("t_max",), ("dt",)):
        if type(value) in (int, float) and 0 < value < 1e300:  # keep t_max <= 2 dt
            doc["evolution"]["dt" if path[-1] == "t_max" else "t_max"] = (
                value / 2 if path[-1] == "t_max" else 2 * value
            )
    with tempfile.TemporaryDirectory() as tmp:
        cfg, sched = Path(tmp) / "config.json", Path(tmp) / "sched.json"
        circ, traj = Path(tmp) / "circ.txt", Path(tmp) / "traj.csv"
        cfg.write_text(json.dumps(doc if name == "config" else FUZZ_DOCS["config"]))
        sched.write_text(json.dumps(FUZZ_DOCS["xy"] if name == "config" else doc))
        if name == "config":
            argv = ["compile", "z:2", "--tau", "0.5", "--config", str(cfg),
                    "--out", str(Path(tmp) / "out.json"), "--circuit", str(circ)]
            assert_contract(*run_cli(argv), files=(Path(tmp) / "out.json", circ))
            argv = ["evolve", "--config", str(cfg), "--out", str(traj)]
            assert_contract(*run_cli(argv), files=(traj,))
        for lowering in ("opaque", "gates"):
            argv = ["verify", str(sched), "--config", str(cfg), "--lowering", lowering]
            assert_contract(*run_cli(argv))


# --- channel --------------------------------------------------------------------


def test_channel_report_dissipation(tmp_path):
    out = tmp_path / "report.json"
    assert main(["channel", "dissipation", "--rate", "1", "--time", "0.1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cptp_status"] == "verified"
    assert doc["kraus"][0][1][1][0] == pytest.approx(np.exp(-0.4))
    assert doc["circuit"] is not None
    prog = ci.parse_text(doc["circuit"])
    assert prog.n_qubits == 2


def test_channel_report_paper_dephasing(capsys):
    assert main(["channel", "dephasing-paper", "--rate", "1", "--time", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cptp_status"] == "violated"
    assert doc["deficit_norm"] > 0
    assert doc["circuit"] is None and "circuit_note" in doc


def test_channel_identity_limit(capsys):
    assert main(["channel", "dissipation", "--rate", "0", "--time", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cptp_status"] == "verified"
    assert np.allclose(doc["bloch_diag"], 1.0, atol=1e-12)


def test_channel_negative_rate(capsys):
    assert main(["channel", "dissipation", "--rate", "-1", "--time", "0.1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind, rate, time",
    [
        ("dissipation", "nan", "1"),
        ("dissipation", "inf", "1"),
        ("dephasing-corrected", "1", "inf"),
        ("dephasing-corrected", "nan", "0.5"),
        ("dephasing-paper", "1", "nan"),
    ],
)
def test_channel_rejects_non_finite(capsys, kind, rate, time):
    assert main(["channel", kind, "--rate", rate, "--time", time]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "NaN" not in captured.out and "Infinity" not in captured.out


def test_parser_is_built_once(monkeypatch, capsys):
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    for _ in range(3):
        assert main(["channel", "dissipation", "--rate", "1", "--time", "0.1"]) == 0
    assert built == [1]
    capsys.readouterr()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_config_file(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
