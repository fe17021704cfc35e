"""Workloads of the fmosim benchmark and the seeded inputs they run on.

All workloads use the 7-site chain.  The seed draws the site energies, the
noise rates, the simulator parameters and every compile ``tau`` in a range
around ``configs/example.json``.  Noise rates stay positive, so all 28
per-site channels are built, and the step grid is fixed, so the work of one
repetition does not depend on the seed.

The hopping stays at the example's 0.1 on every bond.  The dense Trotter
step unitary carries roundoff fill-in outside the excitation blocks, and how
much depends on the hopping values: with drawn hoppings the state JSON of
evolve-both-record ranged from 1.8 to 3.9 MB across seeds, so the output
work would depend on the seed.

This module is plain Python (no numpy, no fmosim): the parent process uses it
to write the inputs, and the worker reads back the plan it writes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

N_SITES = 7
TARGETS = tuple(f"z:{l}" for l in range(1, N_SITES + 1)) + tuple(
    f"xy:{l},{l + 1}" for l in range(1, N_SITES)
)
TINY_TARGETS = ("z:1", "xy:1,2")
REL_SPREAD = 0.1  # parameters are drawn uniformly within +-10% of the example
TAU_RANGE = (0.5, 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str | None = None  # evolve method; None for compile-verify
    t_max: float = 0.0
    dt: float = 0.02
    record_every: int = 1
    states: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve-trotter",
            "digital route with few recorded rows: ~95% of each step is the 28 "
            "dense Kraus products, so noise-step work shows here",
            method="trotter",
            t_max=0.6,
            record_every=10,
        ),
        Workload(
            "evolve-exact",
            "RK4 oracle with few recorded rows: >90% of each step is "
            "LindbladGenerator.rhs, so generator and sector work shows and "
            "Trotter-only work reads flat",
            method="exact",
            t_max=2.0,
            record_every=25,
        ),
        Workload(
            "evolve-both-record",
            "both routes recording every step to CSV and state JSON: output, "
            "copies and trace_distance dominate, so streaming and memory work shows",
            method="both",
            t_max=0.2,
            record_every=1,
            states=True,
        ),
        Workload(
            "compile-verify",
            "compile plus opaque and gates verify of all 13 chain targets: "
            "unitary_of dominates, so compiler and circuit work shows",
        ),
    )
}


def _around(rng: random.Random, base: float) -> float:
    return base * rng.uniform(1.0 - REL_SPREAD, 1.0 + REL_SPREAD)


def make_config(rng: random.Random, t_max: float, dt: float, method: str) -> dict:
    """A 7-site run configuration drawn around the example (hopping fixed)."""
    n = N_SITES
    return {
        "schema_version": 1,
        "fmo": {
            "epsilon": [_around(rng, 1.0) for _ in range(n)],
            "nu_bonds": [0.1] * (n - 1),
        },
        "noise": {
            "dissipation": [_around(rng, 0.05) for _ in range(n)],
            "dephasing": [_around(rng, 0.05) for _ in range(n)],
        },
        "nmr": {
            "omega": [_around(rng, 1.0) for _ in range(n)],
            "j": [_around(rng, 0.2) for _ in range(n - 1)],
        },
        "evolution": {
            "t_max": t_max,
            "dt": dt,
            "method": method,
            "initial_state": "site1",
        },
        "output": {},
    }


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def write_plan(workload: Workload, seed: int, work_dir: str, tiny: bool) -> str:
    """Write the seeded inputs and the worker's plan into ``work_dir``.

    The plan lists the CLI commands of one repetition, the zero-work command
    that ``setup_s`` and ``items_per_s`` subtract, and the outputs to check.
    Returns the plan path.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    path = lambda name: os.path.join(work_dir, name)  # noqa: E731
    if workload.method is None:
        targets = TINY_TARGETS if tiny else TARGETS
        taus = {t: rng.uniform(*TAU_RANGE) for t in TARGETS}
        _write_json(path("config.json"), make_config(rng, 1.0, 0.02, "both"))
        commands, outputs = [], []
        for i, target in enumerate(targets):
            sched, circ = path(f"schedule{i}.json"), path(f"circuit{i}.txt")
            cfg = ["--config", path("config.json")]
            commands.append(
                ["compile", target, "--tau", repr(taus[target]), *cfg,
                 "--out", sched, "--circuit", circ]
            )
            commands.append(["verify", sched, *cfg, "--lowering", "opaque"])
            commands.append(["verify", sched, *cfg, "--lowering", "gates"])
            outputs += [sched, circ]
        plan = {
            "kind": "compile",
            "commands": commands,
            "zero": {"load_config": path("config.json")},
            "items": len(targets),
            "outputs": outputs,
        }
    else:
        t_max = 2 * workload.dt if tiny else workload.t_max
        record_every = 1 if tiny else workload.record_every
        doc = make_config(rng, t_max, workload.dt, workload.method)
        _write_json(path("config.json"), doc)
        doc["evolution"]["t_max"] = 0.0
        _write_json(path("zero.json"), doc)

        def evolve(config: str, prefix: str) -> list[str]:
            argv = ["evolve", "--config", path(config), "--method", workload.method,
                    "--lowering", "dense-blocks", "--record-every", str(record_every),
                    "--out", path(f"{prefix}trajectory.csv")]
            if workload.states:
                argv += ["--states", path(f"{prefix}states.json")]
            return argv

        outputs = [path("trajectory.csv")]
        if workload.states:
            outputs.append(path("states.json"))
        steps = round(t_max / workload.dt)
        plan = {
            "kind": "evolve",
            "method": workload.method,
            "commands": [evolve("config.json", "")],
            "zero": {"argv": evolve("zero.json", "zero-")},
            "items": steps,
            "rows": len([k for k in range(steps + 1)
                         if k % record_every == 0 or k == steps]),
            "t_max": t_max,
            "dt": workload.dt,
            "config": path("config.json"),
            "outputs": outputs,
        }
    plan_path = path("plan.json")
    _write_json(plan_path, plan)
    return plan_path
