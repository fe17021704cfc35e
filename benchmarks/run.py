"""fmosim benchmark: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed generates the workload's
7-site inputs (see ``workloads.py``); a fresh worker process then drives
``fmosim.cli.main(argv)`` on them for ``--seconds`` and checks every output.
BLAS threads are pinned to one in the worker processes' own environment.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
several fresh processes, each timing ``import fmosim.cli`` (after numpy)
plus the workload's zero-work command.  End-to-end times are in reference
seconds: wall time scaled by a calibration kernel timed in the same process
(``worker.calibrate``), because this class of shared machine changes speed
by up to 2x within minutes; the readable table also shows the wall times.  ``--trace 1`` is a separate run that wraps the
layers' public functions (``tracing.py``) and reports per-layer metrics; the
layer-to-end-to-end predictions are in ``predictions.json``.

Output: a provenance line, a readable table, and as the last line one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, write_plan

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150
# Digits are clamped at double precision so an exact result stays finite.
ERROR_FLOOR = 1e-17

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}
PER_LAYER_UNITS = {
    "dynamics.trotter_noise_ms_per_step": "ms",
    "dynamics.trotter_unitary_ms_per_step": "ms",
    "dynamics.LindbladGenerator.rhs.calls": "count",
    "dynamics.LindbladGenerator.rhs.p50_ms": "ms",
    "dynamics.LindbladGenerator.rhs.p99_ms": "ms",
    "dynamics.LindbladGenerator.rhs.self_s": "s",
    "dynamics.integrate_exact.self_s": "s",
    "dynamics.evolve_trotter_open.self_s": "s",
    "hamiltonians.trotter_step.ms": "ms",
    "qcore.pauli_embed.calls": "count",
    "qcore.pauli_embed.self_s": "s",
    "dynamics.LindbladGenerator.init_ms": "ms",
    "cli.load_config.ms": "ms",
    "dynamics.step_build.dense-blocks_ms": "ms",
    "dynamics.step_build.compiled-pulses_ms": "ms",
    "dynamics.Trajectory.init_ms_per_state": "ms",
    "dynamics.Trajectory.to_csv.ms_per_row": "ms",
    "dynamics.Trajectory.to_state_json.ms_per_state": "ms",
    "cli.output_bytes": "bytes",
    "qcore.trace_distance.calls": "count",
    "qcore.trace_distance.p50_ms": "ms",
    "compiler.verify_schedule.opaque.p50_ms": "ms",
    "compiler.verify_schedule.gates.p50_ms": "ms",
    "circuit.unitary_of.calls": "count",
    "circuit.unitary_of.self_s": "s",
    "compiler.target_unitary.self_s": "s",
    "compiler.schedule_program.instructions.z.opaque": "count",
    "compiler.schedule_program.instructions.z.gates": "count",
    "compiler.schedule_program.instructions.xy.opaque": "count",
    "compiler.schedule_program.instructions.xy.gates": "count",
    "circuit.export_text.self_s": "s",
    "circuit.export_bytes": "bytes",
    "dynamics.final_pop_error": "prob",
    "compiler.verify_norm_error_max": "norm",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Run the worker to completion and return its last-line JSON object."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _row(name: str, value, unit: str = "") -> str:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<48} {text:>14} {unit}"


def report(workload, seed: int, measured: dict, setup: list[dict], trace: bool) -> dict:
    """Print the readable table and return the result object."""
    attempted = measured["attempted"] + len(setup)
    failed = measured["failed"] + sum(not s["ok"] for s in setup)
    evolve = workload.method is not None
    accuracy = "final_pop_error" if evolve else "verify_norm_error_max"
    error = measured[accuracy]
    print("provenance: " + json.dumps(measured["provenance"]))
    print(f"workload {workload.name} (seed {seed}): {workload.why}")
    print(f"  {measured['reps']} measured repetitions, {attempted} commands")
    for problem in measured["problems"]:
        print(f"  FAILED {problem}")
    metrics = dict(measured["metrics"])
    if trace:
        units = PER_LAYER_UNITS
        metrics["dynamics.final_pop_error"] = measured["final_pop_error"]
        metrics["compiler.verify_norm_error_max"] = measured["verify_norm_error_max"]
        total = sum(measured["attribution"].values())
        print("  self time per repetition, largest first:")
        for name, s in sorted(measured["attribution"].items(), key=lambda kv: -kv[1]):
            print(_row(name, s, f"s  {100 * s / total:5.1f}%"))
        print("  per-layer metrics:")
        for name, unit in units.items():
            print(_row(name, metrics[name], unit))
    else:
        units = END_TO_END_UNITS
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup)
        metrics["accuracy_digits"] = -math.log10(max(error, ERROR_FLOOR))
        print(_row("run_wall_s", measured["wall_s"], "s"))
        print(_row("setup_wall_s", statistics.median(s["wall_s"] for s in setup), "s"))
        print(_row("calibration_s", measured["calibration_s"], "s"))
        print(_row("run_s", metrics["run_s"], "s (reference)"))
        print(_row("setup_s", metrics["setup_s"], "s (reference)"))
        print(_row("steps_per_s" if evolve else "targets_per_s", metrics["items_per_s"], "1/s"))
        print(_row("peak_rss_mb", metrics["peak_rss_mb"], "MB"))
        print(_row(accuracy, error, "prob" if evolve else "norm"))
        print(_row("error_rate", failed / attempted, "failed/attempted"))
        print(_row("accuracy_digits", metrics["accuracy_digits"], "digits"))
    return {
        "correct": failed == 0 and math.isfinite(error) and error > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": u} for name, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fmosim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="two steps / two targets, for the self-test"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fmosim" / "cli.py").is_file():
        print(f"error: no fmosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        plan = write_plan(workload, args.seed, str(work_dir), args.tiny)
        setup = []
        if not args.trace:
            setup = [run_worker(["setup", plan], SETUP_TIMEOUT_S) for _ in range(SETUP_RUNS)]
        measured = run_worker(
            ["measure", plan, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            MEASURE_TIMEOUT_S,
        )
        result = report(workload, args.seed, measured, setup, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
