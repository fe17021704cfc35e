"""Open-system dynamics of the exciton chain.

Two evolution routes for the same model:

* ``integrate_exact``: fixed-step RK4 on the full Lindblad generator,

      drho/dt = -i[H, rho] + sum_j 4 Gamma_j (2 s-_j rho s+_j - n_j rho - rho n_j)
                           + sum_j gamma_j (2 n_j rho n_j - n_j rho - rho n_j)

  with s-_j = |0><1| on site j and n_j the excitation projector.  This is the
  brute-force oracle the digital pipeline is judged against.

* ``evolve_trotter_open``: per step, the first-order split unitary
  prod_sites e^{-i eps_s Z_s dt} * prod_pairs e^{-i H_pair dt}, one gate
  per local term of ``hamiltonians.fmo_terms`` in the gate program
  ``hamiltonians.trotter_program``, then per site the exact
  finite-time dissipation and corrected dephasing channels.  These commute
  and act elementwise in the occupation basis, on the per-site blocks of rho
  (``_site_blocks``) that the generator's decay and refill terms also use.
  Channel parameters are the exact per-interval values (e^{-4 Gamma dt} and
  friends), so every step is CPTP at any dt.  The step unitary is that
  program's unitary, or (``compiled-pulses``) that of a lowering pass that
  replaces its gates by compiled pulse schedules; either way at most 10 sites.

Both routes share one record loop (``_record``); their steps return a fresh
array, so ``Trajectory`` makes the one copy of each recorded state.

Populations are excitation-basis: p_j = tr(rho n_j), so the all-ground state
has p = 0 and dissipation drains p_j toward zero; 1 - sum_j p_j is the
population lost to the environment (there is no explicit sink site).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import circuit as ci
from .compiler import compile_single_z, compile_xy, schedule_program
from .hamiltonians import FmoParameters, build_fmo_h, nmr_from_fmo, trotter_program, trotter_step
from .qcore import pauli_embed  # noqa: F401  (benchmarks/tracing.py patches it here)

logger = logging.getLogger(__name__)

__all__ = [
    "NoiseParameters",
    "Trajectory",
    "site_populations",
    "initial_density",
    "LindbladGenerator",
    "integrate_exact",
    "evolve_trotter_open",
]


@dataclass(frozen=True, eq=False)
class NoiseParameters:
    """Per-site dissipation and dephasing rates (all nonnegative)."""

    dissipation: np.ndarray
    dephasing: np.ndarray

    def __post_init__(self):
        diss = np.array(self.dissipation, dtype=float)
        deph = np.array(self.dephasing, dtype=float)
        if diss.ndim != 1 or deph.shape != diss.shape:
            raise ValueError("dissipation and dephasing must be equal-length vectors")
        if np.any(diss < 0) or np.any(deph < 0):
            raise ValueError("noise rates must be nonnegative")
        if not (np.all(np.isfinite(diss)) and np.all(np.isfinite(deph))):
            raise ValueError("noise rates must be finite")
        diss.setflags(write=False)
        deph.setflags(write=False)
        object.__setattr__(self, "dissipation", diss)
        object.__setattr__(self, "dephasing", deph)

    @property
    def n_sites(self) -> int:
        return self.dissipation.shape[0]

    @classmethod
    def uniform(cls, n: int, dissipation: float, dephasing: float) -> "NoiseParameters":
        return cls(np.full(n, dissipation), np.full(n, dephasing))


def site_populations(rho: np.ndarray) -> np.ndarray:
    """Excited-state population of each site, tr(rho n_j)."""
    rho = np.asarray(rho)
    n = int(round(math.log2(rho.shape[0])))
    if rho.shape != (2**n, 2**n):
        raise ValueError("state dimension is not a power of two")
    bits = (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1
    return bits @ np.real(np.diagonal(rho))


def initial_density(label: str, n: int) -> np.ndarray:
    """Pure computational state from a label.

    ``siteK`` puts the single excitation on site K, ``ground`` is all zeros,
    and a literal bitstring such as ``0100000`` selects that basis state.
    """
    if label == "ground":
        bits = "0" * n
    elif label.startswith("site"):
        k = int(label[4:])
        if not 1 <= k <= n:
            raise ValueError(f"site index {k} outside 1..{n}")
        bits = "".join("1" if j == k else "0" for j in range(1, n + 1))
    else:
        bits = label
    psi = ci.parse_basis_label(bits, n)
    return np.outer(psi, psi.conj())


def _site_blocks(rho: np.ndarray, j: int) -> np.ndarray:
    """Site j's row and column bits of rho as axes 1 and 4 (a view if C-contiguous)."""
    hi, lo = 1 << (j - 1), rho.shape[0] >> j
    return rho.reshape(hi, 2, lo, hi, 2, lo)


def _site_rates(noise: NoiseParameters) -> list[tuple[int, float, float]]:
    """(site, coherence decay rate 4 Gamma + gamma, excited decay rate 8 Gamma)."""
    return [
        (j, 4.0 * big + small, 8.0 * big)
        for j, (big, small) in enumerate(zip(noise.dissipation, noise.dephasing), 1)
        if big > 0 or small > 0
    ]


class LindbladGenerator:
    """Precomputed right-hand side of the master equation.

    The non-unitary part is evaluated elementwise on the per-site blocks of
    ``_site_blocks``: the anticommutator terms are a fixed decay mask

        decay[a, b] = -sum_j [ 4 Gamma_j (a_j + b_j) + gamma_j (a_j xor b_j) ]

    and the refill term adds 8 Gamma_j rho[a|j, b|j] to rho[a, b] for every
    site j unoccupied in both a and b.
    """

    def __init__(self, fmo: FmoParameters, noise: NoiseParameters):
        n = fmo.n_sites
        if noise.n_sites != n:
            raise ValueError("noise and Hamiltonian parameters disagree on size")
        self.n_sites = n
        self.h = build_fmo_h(fmo)
        self.decay = np.zeros(self.h.shape)
        for j, coherence, excited in _site_rates(noise):
            v = _site_blocks(self.decay, j)
            v[:, 0, :, :, 1, :] -= coherence
            v[:, 1, :, :, 0, :] -= coherence
            v[:, 1, :, :, 1, :] -= excited
        self.refill = [(j, w) for j, _, w in _site_rates(noise) if w > 0]

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self.h @ rho - rho @ self.h)
        out += self.decay * rho
        for j, weight in self.refill:
            src = _site_blocks(rho, j)[:, 1, :, :, 1, :]
            _site_blocks(out, j)[:, 0, :, :, 0, :] += weight * src
        return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded open-system evolution: times, states and the method tag."""

    times: tuple[float, ...]
    states: tuple[np.ndarray, ...]
    method: str

    def __post_init__(self):
        if len(self.times) != len(self.states) or not self.times:
            raise ValueError("need one state per time point")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        tol = 1e-8 if self.method == "exact" else 1e-6
        states = []
        for t, s in zip(self.times, self.states):
            s = np.asarray(s, dtype=complex)
            tr = np.trace(s)
            if not (np.isfinite(s).all() and abs(tr.real - 1.0) <= tol and abs(tr.imag) <= tol):
                raise ValueError(f"state at t={t:g} is not finite or has trace {tr:.8g}")
            s = s.copy()
            s.setflags(write=False)
            states.append(s)
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))

    @property
    def n_sites(self) -> int:
        return int(round(math.log2(self.states[0].shape[0])))

    def populations(self) -> np.ndarray:
        """(len(times), n_sites) table of excited-state populations."""
        return np.array([site_populations(s) for s in self.states])

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, extra_columns: dict[str, np.ndarray] | None = None) -> str:
        """Plot-ready table: t, per-site populations, loss, trace, purity."""
        extra = extra_columns or {}
        for name, col in extra.items():
            if len(col) != len(self.times):
                raise ValueError(f"extra column {name!r} has wrong length")
        n = self.n_sites
        header = ["t"] + [f"p{j}" for j in range(1, n + 1)] + ["loss", "trace", "purity"]
        header += list(extra)
        lines = [",".join(header)]
        pops = self.populations()
        for i, (t, s) in enumerate(zip(self.times, self.states)):
            row = [f"{t:.12g}"]
            row += [f"{p:.12g}" for p in pops[i]]
            row.append(f"{1.0 - pops[i].sum():.12g}")
            row.append(f"{np.trace(s).real:.12g}")
            row.append(f"{np.trace(s @ s).real:.12g}")
            row += [f"{float(extra[name][i]):.12g}" for name in extra]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_state_json(self) -> str:
        """Full-state dump: times plus row-major [re, im] entries per state."""
        import json

        doc = {
            "method": self.method,
            "times": list(self.times),
            "states": [np.stack([s.real, s.imag], -1).tolist() for s in self.states],
        }
        return json.dumps(doc) + "\n"


def _step_grid(t_max: float, dt: float, record_every: int) -> tuple[int, float]:
    if record_every < 1:
        raise ValueError(f"record_every must be a positive integer, got {record_every!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if t_max == 0:
        return 0, dt
    steps = max(1, math.ceil(t_max / dt - 1e-9))
    return steps, t_max / steps


def _record(rho0, step, steps: int, h: float, record_every: int, method: str) -> Trajectory:
    """Apply ``step`` ``steps`` times, keeping every record_every-th and the last state."""
    rho, times, states = rho0, [0.0], [rho0]
    for k in range(1, steps + 1):
        rho = step(rho)
        if k % record_every == 0 or k == steps:
            times.append(k * h)
            states.append(rho)
    return Trajectory(tuple(times), tuple(states), method)


def integrate_exact(
    rho0: np.ndarray,
    fmo: FmoParameters,
    noise: NoiseParameters,
    t_max: float,
    dt: float,
    record_every: int = 1,
) -> Trajectory:
    """Brute-force RK4 integration of the master equation.

    The step is shrunk to divide t_max exactly; states are recorded every
    ``record_every`` steps (and always at t_max).
    """
    steps, h = _step_grid(t_max, dt, record_every)
    gen = LindbladGenerator(fmo, noise)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != gen.h.shape:
        raise ValueError("state dimension does not match the parameter set")

    def rk4(rho):
        # Classical RK4 in Horner form: for a linear, time-independent
        # generator L both are sum_{m<=4} (h L)^m / m! applied to rho.
        acc = rho
        for m in (4, 3, 2, 1):
            acc = rho + (h / m) * gen.rhs(acc)
        return acc

    return _record(rho0, rk4, steps, h, record_every, "exact")


def _compiled_step_unitary(fmo: FmoParameters, dt: float) -> np.ndarray:
    """Step unitary of ``trotter_program`` lowered gate by gate to pulse schedules."""
    nmr = nmr_from_fmo(fmo)
    ins: list = []
    for g in trotter_program(fmo, dt).instructions:
        one = len(g.qubits) == 1
        sched = compile_single_z(g.qubits[0], dt, nmr) if one else compile_xy(g.qubits, dt, nmr)
        ins.extend(schedule_program(sched, nmr).instructions)
    return ci.unitary_of(ci.Program(fmo.n_sites, tuple(ins)))


def evolve_trotter_open(
    rho0: np.ndarray,
    fmo: FmoParameters,
    noise: NoiseParameters,
    t_max: float,
    dt: float,
    lowering: str = "dense-blocks",
    record_every: int = 1,
) -> Trajectory:
    """Digital evolution: split-step unitary plus per-site noise channels.

    Each step applies the first-order Trotter unitary, then on every site the
    exact finite-dt dissipation and corrected (CPTP) dephasing channels: its
    coherences scale by e^{-(4 Gamma + gamma) dt} and a 1 - e^{-8 Gamma dt}
    share of its excited block moves to its ground block.  ``lowering``
    selects how the step unitary is built from ``trotter_program``:
    ``dense-blocks`` takes its unitary, ``compiled-pulses`` that of a lowering
    pass to compiled X-pulse schedules (nearest-neighbour couplings only).
    Both cap the register at 10 sites.
    """
    if noise.n_sites != fmo.n_sites:
        raise ValueError("noise and Hamiltonian parameters disagree on size")
    steps, h = _step_grid(t_max, dt, record_every)
    ci.check_unitary_register(fmo.n_sites)
    if lowering == "dense-blocks":
        u = trotter_step(fmo, h)
    elif lowering == "compiled-pulses":
        u = _compiled_step_unitary(fmo, h)
    else:
        raise ValueError(f"unknown lowering {lowering!r}")
    uh = u.conj().T

    channels = [
        (j, math.exp(-coherence * h), math.exp(-excited * h))
        for j, coherence, excited in _site_rates(noise)
    ]
    if np.any(noise.dephasing > 0):
        logger.info(
            "dephasing uses the corrected CPTP phase-flip channel; "
            "the verbatim published pair is non-trace-preserving and is "
            "available only behind an explicit override"
        )

    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != u.shape:
        raise ValueError("state dimension does not match the parameter set")

    def trotter(rho):
        rho = u @ rho @ uh
        for j, keep_coherence, keep_excited in channels:
            v = _site_blocks(rho, j)
            v[:, 0, :, :, 1, :] *= keep_coherence
            v[:, 1, :, :, 0, :] *= keep_coherence
            v[:, 0, :, :, 0, :] += (1.0 - keep_excited) * v[:, 1, :, :, 1, :]
            v[:, 1, :, :, 1, :] *= keep_excited
        return rho

    return _record(rho0, trotter, steps, h, record_every, f"trotter(dt={h:.12g})")
