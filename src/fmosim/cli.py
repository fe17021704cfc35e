"""Command-line front end.

Subcommands:

* ``compile``: turn a target term (``z:<l>``, ``zz:<l>,<l+1>``, ``xy:<l>,<l+1>``)
  into a pulse schedule, verify it by exact unitary reconstruction, and write
  the schedule JSON plus an exported circuit.
* ``verify``: re-verify a schedule file against the configured simulator
  parameters.
* ``evolve``: run the exciton-chain dynamics and write a trajectory CSV
  (``--method both`` adds a per-time trace-distance column between the
  digital and brute-force trajectories).
* ``channel``: print the report (and circuit, when realizable) of a noise
  channel.

``parse_config`` checks a run configuration with ``schema``'s field checker,
which the schedule reader shares, so a schema error of either document is a
``schema.ConfigError`` (also importable as ``compiler.ConfigError``).

Each command loads only the modules it runs.  ``load_config`` needs
``hamiltonians`` (which holds the three parameter records), ``qcore`` and
``schema``; ``evolve`` adds ``dynamics``, ``compile`` and ``verify`` add
``compiler`` and ``circuit``, and ``channel`` adds ``channels`` and ``circuit``
(``evolve --lowering compiled-pulses`` loads the compiler from ``dynamics``).
``logging`` is loaded only where a message is logged.  The names a command
takes from the module it alone loads are listed in one table, ``_LAZY_NAMES``,
and bound into this module on first use, by ``_bind`` or an attribute lookup;
they are patchable once bound, and a patched name is kept.

Exit codes: 0 success, 2 usage or configuration error, 3 verification
failure.  All commands are deterministic given their inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .hamiltonians import FmoParameters, NmrParameters, NoiseParameters, nmr_from_fmo
from .qcore import RegisterTooLarge, trace_distance
from .schema import ConfigError, _json, _json_object

# The names each command binds from the one module it alone loads.
_LAZY_NAMES = {
    "compiler": ("compile_target", "parse_target", "schedule_from_json",
                 "schedule_program", "schedule_to_json", "verify_schedule"),
    "dynamics": ("Setup", "evolve_trotter_open", "initial_density", "integrate_exact"),
}


def _bind(module: str) -> None:
    """Bind each of ``module``'s names not yet bound here (a patched name is kept)."""
    # ``from . import <module>``: -X importtime logs it, and not an importlib.import_module.
    loaded = getattr(__import__(__package__, fromlist=[module]), module)
    for name in _LAZY_NAMES[module]:
        globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    for module, names in _LAZY_NAMES.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SCHEMA_VERSION = 1

VERIFY_FAILURE = 3
USAGE_ERROR = 2


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated run configuration binding model, noise and run controls."""

    fmo: FmoParameters
    noise: NoiseParameters
    nmr: NmrParameters
    t_max: float
    dt: float
    method: str
    initial_state: str
    output: dict


def _vector(doc, where: str, shape=(None,), what="a flat list of finite numbers") -> np.ndarray:
    """``doc`` as a float array of ``shape`` (None: any length): nested lists of finite numbers."""

    def entries(value, shape):
        values = _json(value, "a list", where)
        if shape[0] not in (None, len(values)):
            raise ConfigError
        if shape[1:]:
            return [entries(v, shape[1:]) for v in values]
        return [_json(v, "a finite number", where) for v in values]

    try:
        return np.array(entries(doc, shape), dtype=float)
    except ConfigError:
        raise ConfigError(f"{where} must be {what}") from None


def parse_config(doc: dict) -> RunConfig:
    """Validate a configuration document (rejecting unknown keys)."""
    required = {"schema_version", "fmo", "noise", "evolution"}
    _json_object(doc, "config", required, {"nmr", "output"})
    if type(doc["schema_version"]) is not int or doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {doc['schema_version']!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )

    fdoc = doc["fmo"]
    _json_object(fdoc, "config.fmo", {"epsilon"}, {"nu", "nu_bonds"})
    epsilon = _vector(fdoc["epsilon"], "config.fmo.epsilon")
    n = epsilon.shape[0]
    if ("nu" in fdoc) == ("nu_bonds" in fdoc):
        raise ConfigError("config.fmo needs exactly one of 'nu' or 'nu_bonds'")
    if "nu" in fdoc:
        nu = _vector(fdoc["nu"], "config.fmo.nu", (n, n), "a finite n-by-n matrix")
    else:
        bonds = _vector(fdoc["nu_bonds"], "config.fmo.nu_bonds")
        if bonds.shape[0] != n - 1:
            raise ConfigError("config.fmo.nu_bonds must have n-1 entries")
        nu = np.zeros((n, n))
        for l, v in enumerate(bonds):
            nu[l, l + 1] = nu[l + 1, l] = v
    try:
        fmo = FmoParameters(epsilon=epsilon, nu=nu)
    except ValueError as exc:
        raise ConfigError(f"config.fmo: {exc}") from None

    ndoc = doc["noise"]
    _json_object(ndoc, "config.noise", {"dissipation", "dephasing"})
    try:
        noise = NoiseParameters(
            _vector(ndoc["dissipation"], "config.noise.dissipation"),
            _vector(ndoc["dephasing"], "config.noise.dephasing"),
        )
    except ValueError as exc:
        raise ConfigError(f"config.noise: {exc}") from None
    if noise.n_sites != n:
        raise ConfigError("config.noise rate vectors must match the site count")

    if "nmr" in doc:
        mdoc = doc["nmr"]
        _json_object(mdoc, "config.nmr", {"omega", "j"})
        try:
            nmr = NmrParameters(
                omega=_vector(mdoc["omega"], "config.nmr.omega"),
                j=_vector(mdoc["j"], "config.nmr.j"),
            )
        except ValueError as exc:
            raise ConfigError(f"config.nmr: {exc}") from None
        if nmr.n_qubits != n:
            raise ConfigError("config.nmr.omega must match the site count")
    else:
        try:
            nmr = nmr_from_fmo(fmo)
        except ValueError as exc:
            raise ConfigError(
                f"config.nmr cannot be derived from config.fmo: {exc}; add an explicit nmr block"
            ) from None

    edoc = doc["evolution"]
    _json_object(edoc, "config.evolution", {"t_max", "dt", "method", "initial_state"})
    t_max = float(_json(edoc["t_max"], "a finite number", "config.evolution.t_max"))
    dt = float(_json(edoc["dt"], "a finite number", "config.evolution.dt"))
    if t_max < 0:
        raise ConfigError("config.evolution.t_max must be finite and nonnegative")
    if dt <= 0:
        raise ConfigError("config.evolution.dt must be finite and positive")
    method = edoc["method"]
    if method not in ("exact", "trotter", "both"):
        raise ConfigError("config.evolution.method must be exact, trotter or both")
    initial_state = _json(edoc["initial_state"], "a string", "config.evolution.initial_state")

    output = doc.get("output", {})
    _json_object(output, "config.output", set(), {"trajectory", "states", "schedule", "circuit"})
    for key, path in output.items():
        _json(path, "a string", f"config.output.{key}")

    return RunConfig(fmo, noise, nmr, t_max, dt, method, initial_state, dict(output))


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, bad syntax, or deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(doc)


def _write(path: str | None, write: Callable[[TextIO], object]) -> None:
    """Call ``write`` on stdout, or on a file that appears at ``path`` only once complete.

    A regular or new file is written beside ``path``, given the mode ``open(path, "w")``
    gives (the old file's, or 0o666 less the umask) and moved into place with
    ``os.replace``; a failed write removes it and leaves the old file untouched.
    A reader finds the old file, the new one or (for an instant) none, never a cut-short one.
    Any other path (a device, a FIFO), or one whose directory takes no new file,
    is written in place."""
    if not path:
        write(sys.stdout)
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0o022)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    fd = None
    if stat.S_ISREG(mode):
        if os.path.islink(path):
            path = os.path.realpath(path)  # write at the target, as open() does
        directory, name = os.path.split(path)
        try:
            fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=directory)
        except OSError:  # a missing or read-only directory: open() reports or copes as before
            pass
    if fd is None:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
        return
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.chmod(tmp, stat.S_IMODE(mode))
        # Unlinked first: ext4 starts writeback of a file renamed over another
        # (auto_da_alloc), which cost 0.7 ms per 2 MB on a 2-vCPU VM.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_compile(args) -> int:
    from . import circuit as ci

    _bind("compiler")
    cfg = load_config(args.config)
    sched = compile_target(*parse_target(args.target), args.tau, cfg.nmr)
    report = verify_schedule(sched, cfg.nmr)
    schedule_text = schedule_to_json(sched)
    _write(args.out or cfg.output.get("schedule"), lambda fh: fh.write(schedule_text))
    circuit_text = ci.export_text(schedule_program(sched, cfg.nmr, args.lowering))
    circuit_path = args.circuit or cfg.output.get("circuit")
    if circuit_path:
        _write(circuit_path, lambda fh: fh.write(circuit_text))
    print(report.summary())
    return 0 if report.passed else VERIFY_FAILURE


def cmd_verify(args) -> int:
    _bind("compiler")
    cfg = load_config(args.config)
    try:
        with open(args.schedule, encoding="utf-8") as fh:
            sched = schedule_from_json(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse schedule {args.schedule}: {exc}") from None
    report = verify_schedule(sched, cfg.nmr, lowering=args.lowering)
    print(report.summary())
    return 0 if report.passed else VERIFY_FAILURE


def cmd_evolve(args) -> int:
    _bind("dynamics")
    cfg = load_config(args.config)
    method = args.method or cfg.method
    try:
        rho0 = initial_density(cfg.initial_state, cfg.fmo.n_sites)
    except RegisterTooLarge:
        raise
    except ValueError as exc:
        raise ConfigError(f"config.evolution.initial_state: {exc}") from None

    extra, setup = None, Setup(rho0, cfg.fmo, cfg.noise)  # one for either or both routes
    if method != "exact":
        traj = evolve_trotter_open(
            rho0, cfg.fmo, cfg.noise, cfg.t_max, cfg.dt, args.lowering, args.record_every,
            setup=setup,
        )
    if method != "trotter":
        exact = integrate_exact(rho0, cfg.fmo, cfg.noise, cfg.t_max, cfg.dt, args.record_every,
                                setup=setup)
    if method == "exact":
        traj = exact
    elif method == "both":
        extra = {"trace_distance": trace_distance(traj.blocks, exact.blocks)}
    csv = traj.to_csv(extra_columns=extra)
    _write(args.out or cfg.output.get("trajectory"), lambda fh: fh.write(csv))
    states_path = args.states or cfg.output.get("states")
    if states_path:
        _write(states_path, traj.to_state_json)
    return 0


def cmd_channel(args) -> int:
    from . import channels, circuit as ci

    makers = {
        "dissipation": channels.dissipation_kraus,
        "dephasing-paper": channels.dephasing_kraus_paper,
        "dephasing-corrected": channels.dephasing_kraus_corrected,
    }
    try:
        ch = makers[args.kind](args.rate, args.time)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = channels.channel_report(ch)
    try:
        report["circuit"] = ci.export_text(channels.channel_circuit(ch))
    except ValueError:
        report["circuit"] = None
        report["circuit_note"] = (
            "no ancilla-circuit realization: the channel is outside the "
            "diagonal/antidiagonal two-Kraus family"
        )
    text = json.dumps(report, indent=2) + "\n"
    _write(args.out, lambda fh: fh.write(text))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmosim",
        description="Pulse compiler and open-system simulator for the exciton chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a target term into a pulse schedule")
    p.add_argument("target", help="z:<l>, zz:<l>,<l+1> or xy:<l>,<l+1>")
    p.add_argument("--tau", type=float, required=True, help="target evolution time")
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--out", help="schedule JSON path (default: config output or stdout)")
    p.add_argument("--circuit", help="exported circuit text path")
    p.add_argument(
        "--lowering",
        choices=("gates", "opaque"),
        default="gates",
        help="circuit export style (verification always reconstructs exactly)",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="re-verify a schedule file")
    p.add_argument("schedule", help="schedule JSON path")
    p.add_argument("--config", required=True)
    p.add_argument("--lowering", choices=("opaque", "gates"), default="opaque")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evolve", help="run the open-system dynamics")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=("exact", "trotter", "both"))
    p.add_argument(
        "--lowering",
        choices=("dense-blocks", "compiled-pulses"),
        default="dense-blocks",
        help="step-unitary construction for the digital method",
    )
    p.add_argument("--record-every", type=int, default=1, dest="record_every")
    p.add_argument("--out", help="trajectory CSV path (default: config output or stdout)")
    p.add_argument("--states", help="full-state JSON dump path")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("channel", help="report a single-site noise channel")
    p.add_argument(
        "kind", choices=("dissipation", "dephasing-paper", "dephasing-corrected")
    )
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.set_defaults(func=cmd_channel)
    return parser


_PARSER = None  # built by the first main(); each cmd_* resolves its helpers at call time


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
