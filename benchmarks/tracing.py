"""Span tracing of fmosim's layers from outside the package.

The traced run replaces public functions with timing wrappers at the name the
caller resolves (``fmosim.cli.evolve_trotter_open`` is what ``cmd_evolve``
calls, ``fmosim.circuit.unitary_of`` is what ``verify_schedule`` reaches
through ``ci.unitary_of``, and so on).  Nothing under ``src/`` is edited.

Spans nest: a span's self time is its duration minus the time its child
spans cover, so the self times of one repetition add up to its wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Collects per-name span statistics; ``reset`` starts a new repetition."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._child_time: list[float] = []

    def reset(self) -> dict[str, SpanStats]:
        stats, self.stats = self.stats, {}
        return stats

    def wrap(self, name, fn, items=None):
        """Wrap ``fn`` in a span.

        ``name`` is a string or a callable of ``(args, kwargs)`` giving one;
        ``items`` optionally counts work units from the call's arguments.
        """

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += duration
                st = self.stats.setdefault(label, SpanStats())
                st.calls += 1
                st.total_s += duration
                st.self_s += duration - child
                st.durations.append(duration)
                if items is not None:
                    st.items += items(args)

        traced.__wrapped__ = fn
        return traced


def _verify_label(args, kwargs) -> str:
    lowering = kwargs.get("lowering", args[2] if len(args) > 2 else "opaque")
    return f"compiler.verify_schedule.{lowering}"


def _n_times(args) -> int:
    return len(args[0].times)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every traced name; returns the undo list for ``uninstall``."""
    from fmosim import circuit, cli, compiler, dynamics, hamiltonians

    gen, traj = dynamics.LindbladGenerator, dynamics.Trajectory
    patches = [
        (cli, "load_config", "cli.load_config", None),
        (cli, "evolve_trotter_open", "dynamics.evolve_trotter_open", None),
        (cli, "integrate_exact", "dynamics.integrate_exact", None),
        (cli, "trace_distance", "qcore.trace_distance", None),
        (cli, "verify_schedule", _verify_label, None),
        (cli, "schedule_program", "compiler.schedule_program", None),
        (compiler, "schedule_program", "compiler.schedule_program", None),
        (compiler, "target_unitary", "compiler.target_unitary", None),
        (compiler, "pauli_embed", "qcore.pauli_embed", None),
        (circuit, "unitary_of", "circuit.unitary_of", None),
        (circuit, "export_text", "circuit.export_text", None),
        (dynamics, "trotter_step", "hamiltonians.trotter_step", None),
        (dynamics, "pauli_embed", "qcore.pauli_embed", None),
        (hamiltonians, "pauli_embed", "qcore.pauli_embed", None),
        (gen, "__init__", "dynamics.LindbladGenerator.init", None),
        (gen, "rhs", "dynamics.LindbladGenerator.rhs", None),
        (traj, "__post_init__", "dynamics.Trajectory.init", _n_times),
        (traj, "to_csv", "dynamics.Trajectory.to_csv", _n_times),
        (traj, "to_state_json", "dynamics.Trajectory.to_state_json", _n_times),
    ]
    undo = []
    for owner, attr, name, items in patches:
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, items))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
