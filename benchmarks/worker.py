"""Child process of the fmosim benchmark: runs one workload plan in process.

``run.py`` starts this script with BLAS threads pinned to one in the child's
own environment:

    python3 worker.py setup PLAN
        import fmosim and run the plan's zero-work command once; prints
        {"setup_s": ..., "wall_s": ..., "ok": ...}
    python3 worker.py measure PLAN --seconds S --trace 0|1
        repeat the plan's commands for S seconds, check every output, and
        print the result object (end-to-end figures, or per-layer figures
        from a traced run) as the last line of stdout.

Every command goes through ``fmosim.cli.main(argv)``; a nonzero exit, a
crash or a failed output check counts as one failed command.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import N_SITES

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_REPS = 3
# Calibration time that defines one reference second (see calibrate()).
CAL_REF_S = 0.060
CAL_SETUP_REPS = 3
PROBE_REPS = 3
TROTTER_PROBES = (
    "dynamics.trotter_unitary_ms_per_step",
    "dynamics.trotter_noise_ms_per_step",
    "dynamics.step_build.dense-blocks_ms",
    "dynamics.step_build.compiled-pulses_ms",
)


_CAL_MATRIX = np.random.default_rng(0).standard_normal((128, 256)).view(complex)


def calibrate() -> float:
    """Wall time of a fixed kernel that uses neither fmosim nor its inputs.

    128x128 complex products, a pure-Python loop, and a nested-list JSON
    dump: the kinds of work in the workloads.  On a shared VM this machine's
    speed swings by up to 2x within minutes; timed next to the repetitions,
    the kernel tracks that swing, and dividing by it removes most of the
    run-to-run spread.
    """
    start = time.perf_counter()
    x = _CAL_MATRIX.copy()
    for _ in range(60):
        x = _CAL_MATRIX @ x
        x /= np.abs(x).max()
    total = 0
    for i in range(60000):
        total += i * i
    json.dumps([[[e.real, e.imag] for e in row] for row in x[:48].tolist()])
    return time.perf_counter() - start


def run_command(main, argv: list[str]) -> tuple[object, str]:
    """Exit code (or crash description) and captured stdout of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed command, recorded and counted
            rc = traceback.format_exc().strip().splitlines()[-1]
    if rc != 0 and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()}"
    return rc, out.getvalue()


class Runner:
    """Runs the plan's repetitions and keeps the failure accounting."""

    def __init__(self, plan: dict):
        from fmosim import circuit, cli, qcore

        self.plan = plan
        self.main = cli.main
        self.parse_circuit = circuit.parse_text
        self.atol = qcore.SCHEDULE_VERIFY_ATOL
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.norm_errors: list[float] = []
        self.zero_times: list[float] = []
        self.cal_times: list[float] = []

    def count(self, argv: list[str], problems: list[str]) -> None:
        """Record one attempted command (or check) and its problems, if any."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                what = " ".join(os.path.basename(a) for a in argv[:2])
                self.problems.append(f"{what}: {'; '.join(problems)}")

    def _check(self, argv: list[str], rc, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit {rc}"]
        if self.plan["kind"] == "evolve":
            return checks.check_evolve(self.plan, N_SITES)
        errors = checks.norm_errors(stdout)
        self.norm_errors += errors
        return checks.check_compile_command(argv, errors, self.atol, self.parse_circuit)

    def zero(self) -> float:
        """Time the zero-work command once (checked like any command)."""
        zero = self.plan["zero"]
        start = time.perf_counter()
        if "load_config" in zero:
            from fmosim.cli import load_config

            load_config(zero["load_config"])
            elapsed = time.perf_counter() - start
        else:
            rc, _ = run_command(self.main, zero["argv"])
            elapsed = time.perf_counter() - start
            self.count(zero["argv"], [] if rc == 0 else [f"exit {rc}"])
        return elapsed

    def rep(self) -> float:
        """One repetition; returns the summed wall time of its commands."""
        elapsed = 0.0
        for argv in self.plan["commands"]:
            start = time.perf_counter()
            rc, stdout = run_command(self.main, argv)
            elapsed += time.perf_counter() - start
            self.count(argv, self._check(argv, rc, stdout))
        return elapsed

    def loop(self, seconds: float, after_rep) -> list[float]:
        """Repetitions for ``seconds``, calling ``after_rep`` after each one."""
        times: list[float] = []
        start = time.perf_counter()
        while len(times) < MIN_REPS or time.perf_counter() - start < seconds:
            times.append(self.rep())
            after_rep()
        return times

    def between(self) -> None:
        """Untimed work between untraced repetitions: zero-work run, calibration."""
        self.zero_times.append(self.zero())
        self.cal_times.append(calibrate())

    def speed(self) -> float:
        """Reference seconds per wall second during this run's repetitions."""
        return CAL_REF_S / statistics.median(self.cal_times)

    def output_bytes(self, suffix: str = "") -> int:
        return sum(
            os.path.getsize(p)
            for p in self.plan["outputs"]
            if p.endswith(suffix) and os.path.exists(p)
        )


def final_pop_error(plan: dict) -> float:
    """max_j |p_j(t_max)| deviation of the CSV from RK4 at a 4x finer step."""
    from fmosim.cli import load_config
    from fmosim.dynamics import initial_density, integrate_exact, site_populations

    cfg = load_config(plan["config"])
    rho0 = initial_density(cfg.initial_state, cfg.fmo.n_sites)
    ref = integrate_exact(
        rho0, cfg.fmo, cfg.noise, plan["t_max"], plan["dt"] / 4, record_every=10**9
    )
    ref_pops = site_populations(ref.final_state())
    got = checks.final_populations(plan, cfg.fmo.n_sites)
    return float(max(abs(a - b) for a, b in zip(got, ref_pops)))


def accuracy(runner: Runner) -> tuple[float, float]:
    """(final_pop_error, verify_norm_error_max); the one not applicable is 0.

    An unreadable final CSV row counts as one failed check, with error 1.
    """
    if runner.plan["kind"] == "compile":
        return 0.0, max(runner.norm_errors, default=0.0)
    try:
        return final_pop_error(runner.plan), 0.0
    except (OSError, ValueError, IndexError) as exc:
        runner.count(["final", "populations"], [str(exc)])
        return 1.0, 0.0


def _median_time(fn, reps: int = PROBE_REPS) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def trotter_probes(plan: dict) -> dict[str, float]:
    """Step-unitary build time per lowering and the per-step unitary/noise split.

    Calls ``evolve_trotter_open`` on the workload's grid with its noise and
    with zero noise, each minus the same call with zero steps.
    """
    from fmosim.cli import load_config
    from fmosim.dynamics import NoiseParameters, evolve_trotter_open, initial_density

    cfg = load_config(plan["config"])
    n = cfg.fmo.n_sites
    rho0 = initial_density(cfg.initial_state, n)
    clean = NoiseParameters.uniform(n, 0.0, 0.0)
    steps = plan["items"]

    def run(noise, t_max, lowering="dense-blocks"):
        return _median_time(
            lambda: evolve_trotter_open(
                rho0, cfg.fmo, noise, t_max, plan["dt"], lowering, record_every=steps
            )
        )

    build_clean = run(clean, 0.0)
    unitary = (run(clean, plan["t_max"]) - build_clean) / steps
    full = (run(cfg.noise, plan["t_max"]) - run(cfg.noise, 0.0)) / steps
    values = (unitary, full - unitary, build_clean, run(clean, 0.0, "compiled-pulses"))
    return {name: 1e3 * v for name, v in zip(TROTTER_PROBES, values)}


def instruction_counts(plan: dict) -> dict[str, float]:
    """IR size of the compiled schedules, summed per target kind and lowering."""
    from fmosim.cli import load_config
    from fmosim.compiler import schedule_from_json, schedule_program

    counts = {f"{k}.{lw}": 0 for k in ("z", "xy") for lw in ("opaque", "gates")}
    if plan["kind"] == "compile":
        nmr = load_config(plan["zero"]["load_config"]).nmr
        for argv in plan["commands"]:
            if argv[0] != "compile":
                continue
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
                sched = schedule_from_json(fh.read())
            kind = argv[1].split(":")[0]
            for lowering in ("opaque", "gates"):
                prog = schedule_program(sched, nmr, lowering)
                counts[f"{kind}.{lowering}"] += len(prog.instructions)
    return {f"compiler.schedule_program.instructions.{k}": v for k, v in counts.items()}


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(reps: list[dict], untraced: list[float], traced: list[float]) -> dict:
    """Per-layer figures from the per-repetition span statistics."""

    def med(name: str, fn) -> float:
        return statistics.median(fn(r[name]) if name in r else 0.0 for r in reps)

    def calls(name):
        return med(name, lambda s: s.calls)

    def self_s(name):
        return med(name, lambda s: s.self_s)

    def ms_per_call(name):
        return med(name, lambda s: 1e3 * s.total_s / s.calls)

    def ms_per_item(name):
        return med(name, lambda s: 1e3 * s.total_s / s.items if s.items else 0.0)

    def p_ms(name, q):
        return 1e3 * _pct([d for r in reps if name in r for d in r[name].durations], q)

    rhs = "dynamics.LindbladGenerator.rhs"
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    return {
        f"{rhs}.calls": calls(rhs),
        f"{rhs}.p50_ms": p_ms(rhs, 0.5),
        f"{rhs}.p99_ms": p_ms(rhs, 0.99),
        f"{rhs}.self_s": self_s(rhs),
        "dynamics.integrate_exact.self_s": self_s("dynamics.integrate_exact"),
        "dynamics.evolve_trotter_open.self_s": self_s("dynamics.evolve_trotter_open"),
        "hamiltonians.trotter_step.ms": ms_per_call("hamiltonians.trotter_step"),
        "qcore.pauli_embed.calls": calls("qcore.pauli_embed"),
        "qcore.pauli_embed.self_s": self_s("qcore.pauli_embed"),
        "dynamics.LindbladGenerator.init_ms": ms_per_call("dynamics.LindbladGenerator.init"),
        "cli.load_config.ms": ms_per_call("cli.load_config"),
        "dynamics.Trajectory.init_ms_per_state": ms_per_item("dynamics.Trajectory.init"),
        "dynamics.Trajectory.to_csv.ms_per_row": ms_per_item("dynamics.Trajectory.to_csv"),
        "dynamics.Trajectory.to_state_json.ms_per_state": ms_per_item(
            "dynamics.Trajectory.to_state_json"
        ),
        "qcore.trace_distance.calls": calls("qcore.trace_distance"),
        "qcore.trace_distance.p50_ms": p_ms("qcore.trace_distance", 0.5),
        "compiler.verify_schedule.opaque.p50_ms": p_ms("compiler.verify_schedule.opaque", 0.5),
        "compiler.verify_schedule.gates.p50_ms": p_ms("compiler.verify_schedule.gates", 0.5),
        "circuit.unitary_of.calls": calls("circuit.unitary_of"),
        "circuit.unitary_of.self_s": self_s("circuit.unitary_of"),
        "compiler.target_unitary.self_s": self_s("compiler.target_unitary"),
        "circuit.export_text.self_s": self_s("circuit.export_text"),
        "trace.unattributed_s": self_s("cli.main"),
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import platform

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas = {}
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Untraced repetitions; times are wall times scaled to reference seconds."""
    times = runner.loop(seconds, runner.between)
    wall_s = statistics.median(times)
    stepping_s = wall_s - statistics.median(runner.zero_times)
    speed = runner.speed()
    return {
        "reps": len(times),
        "wall_s": wall_s,
        "calibration_s": statistics.median(runner.cal_times),
        "metrics": {
            "run_s": wall_s * speed,
            "items_per_s": runner.plan["items"] / (stepping_s * speed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    """Half the time untraced, half traced, then the probes (untraced)."""
    plan = runner.plan
    untraced = runner.loop(seconds / 2, runner.between)
    tracer = tracing.Tracer()
    runner.main = tracer.wrap("cli.main", runner.main)
    undo = tracing.install(tracer)
    reps: list[dict] = []
    out_bytes: list[int] = []
    circ_bytes: list[int] = []

    def after_rep():
        reps.append(tracer.reset())
        out_bytes.append(runner.output_bytes())
        circ_bytes.append(runner.output_bytes(".txt"))

    try:
        traced = runner.loop(seconds / 2, after_rep)
    finally:
        tracing.uninstall(undo)
        runner.main = runner.main.__wrapped__
    metrics = layer_metrics(reps, untraced, traced)
    metrics["cli.output_bytes"] = statistics.median(out_bytes)
    metrics["circuit.export_bytes"] = statistics.median(circ_bytes)
    metrics.update(instruction_counts(plan))
    if plan["kind"] == "evolve" and plan["method"] != "exact":
        metrics.update(trotter_probes(plan))
    else:
        metrics.update(dict.fromkeys(TROTTER_PROBES, 0.0))
    names = {name for r in reps for name in r}
    attribution = {
        name: statistics.median(r[name].self_s if name in r else 0.0 for r in reps)
        for name in names
    }
    return {"reps": len(traced), "metrics": metrics, "attribution": attribution}


def measure(plan: dict, seconds: float, trace: bool) -> dict:
    runner = Runner(plan)
    runner.rep()  # warm-up: lazy imports and allocator pools
    runner.zero()
    result = per_layer(runner, seconds) if trace else end_to_end(runner, seconds)
    pop_err, norm_err = accuracy(runner)
    result.update(
        provenance=provenance(),
        final_pop_error=pop_err,
        verify_norm_error_max=norm_err,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
    )
    return result


def setup(plan: dict) -> dict:
    """Time ``import fmosim.cli`` plus one zero-work command.

    numpy is already imported by this module, untimed: its import is the
    dependency's cost, not fmosim's, and the noisiest part of a cold start.
    """
    start = time.perf_counter()
    import fmosim.cli

    zero = plan["zero"]
    if "load_config" in zero:
        fmosim.cli.load_config(zero["load_config"])
        ok = True
    else:
        ok = run_command(fmosim.cli.main, zero["argv"])[0] == 0
    wall_s = time.perf_counter() - start
    cal_s = statistics.median(calibrate() for _ in range(CAL_SETUP_REPS))
    return {"setup_s": wall_s * CAL_REF_S / cal_s, "wall_s": wall_s, "ok": ok}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("plan")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    if args.mode == "setup":
        result = setup(plan)
    else:
        result = measure(plan, args.seconds, bool(args.trace))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
