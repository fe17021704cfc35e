"""Open-system dynamics of the exciton chain.

Two evolution routes for the same model:

* ``integrate_exact``: fixed-step RK4 on the Lindblad generator,

      drho/dt = -i[H, rho] + sum_j 4 Gamma_j (2 s-_j rho s+_j - n_j rho - rho n_j)
                           + sum_j gamma_j (2 n_j rho n_j - n_j rho - rho n_j)

  with s-_j = |0><1| on site j and n_j the excitation projector.  This is the
  brute-force oracle the digital pipeline is judged against.

* ``evolve_trotter_open``: per step, the first-order split unitary
  prod_sites e^{-i eps_s Z_s dt} * prod_pairs e^{-i H_pair dt}, one gate
  per local term of ``hamiltonians.fmo_terms`` in the gate program
  ``hamiltonians.trotter_program``, then the noise step e^{dt D}.  The step
  unitary is that program's unitary, or (``compiled-pulses``) that of each
  term's schedule from ``compiler.compile_target``.  Both routes hold dense
  2^n x 2^n matrices, so both are capped at 10 sites.

The dissipator D (the Gamma and gamma terms) is built once, by
``_dissipator``, as a decay mask plus per-site refill index vectors.  RK4
applies it linearly; the digital step applies e^{dt D} exactly: every refill
in place with weight 1 - e^{-8 Gamma_j dt}, then rho *= e^{dt decay}.  That
is the product of the per-site dissipation and corrected (CPTP) dephasing
channels, so CPTP at any dt, because the site channels commute, site j's
mask factor is 1 wherever its refill writes (site j is empty in both a and b
there), and refilling in place chains the refills of several sites as
applying the channels one after another does.

Both routes step rho restricted to its support: the sorted basis states
with at most K excitations, K the largest excitation number of a row or
column of rho0 holding a nonzero entry (``_support``).  This is exact.  H
conserves the excitation number, dissipation only lowers it and dephasing
keeps it, so every term maps |a><b| with a and b on the support into the span
of such elements; the step unitary likewise has no entry between different
excitation numbers (exactly zero for ``dense-blocks``, roundoff for
``compiled-pulses``), so its support block is the step.  For ``siteK`` the
support is the n + 1 states with at most one excitation; a full-rank rho0
has the full support of 2^n states, with the same code.  The support block
is scattered back into a 2^n x 2^n array, zero off the support, only at the
record points of the shared record loop (``_record``).

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
from .compiler import compile_target, schedule_program
from .hamiltonians import FmoParameters, build_fmo_h, fmo_terms, nmr_from_fmo, trotter_step
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


def _occupations(states: np.ndarray, n: int) -> np.ndarray:
    """(n, len(states)) table of 0/1: row j - 1 holds site j's bit of each basis state."""
    return (states >> np.arange(n - 1, -1, -1)[:, None]) & 1


def site_populations(rho: np.ndarray) -> np.ndarray:
    """Excited-state population of each site, tr(rho n_j)."""
    rho = np.asarray(rho)
    n = int(round(math.log2(rho.shape[0])))
    if rho.shape != (2**n, 2**n):
        raise ValueError("state dimension is not a power of two")
    return _occupations(np.arange(2**n), n) @ np.real(np.diagonal(rho))


def initial_density(label: str, n: int) -> np.ndarray:
    """Pure computational state from a label.

    ``siteK`` puts the single excitation on site K, ``ground`` is all zeros,
    and a literal bitstring such as ``0100000`` selects that basis state.
    The dense state caps n at 10 sites.
    """
    ci.check_unitary_register(n)
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


def _support(rho0: np.ndarray, n: int) -> np.ndarray:
    """Sorted basis states with at most K excitations.

    K is the largest excitation number of a row or column of rho0 that holds
    a nonzero entry; every term of the master equation keeps rho inside the
    span of |a><b| with a and b on this support.
    """
    weight = _occupations(np.arange(2**n), n).sum(axis=0)
    nonzero = rho0 != 0
    used = nonzero.any(axis=0) | nonzero.any(axis=1)
    return np.flatnonzero(weight <= weight[used].max(initial=0))


def _dissipator(noise: NoiseParameters, support: np.ndarray, n: int):
    """The dissipator D on a support of m states, as (decay, refill).

    D(rho) = decay * rho, plus rho[lo] += w * rho[hi] for each (w, lo, hi) in
    refill, one triple per site j with Gamma_j > 0 and w = 8 Gamma_j.  decay
    is -sum_j [(4 Gamma_j + gamma_j) (a_j xor b_j) + 8 Gamma_j a_j b_j].  hi
    and lo are flat indices into an m x m array: hi the entries |a><b| with
    site j occupied in both a and b, lo the same entries with site j emptied
    in both (a support of at most K excitations keeps a state with one
    excitation removed).
    """
    m = len(support)
    decay = np.zeros((m, m))
    refill = []
    for j, (big, small) in enumerate(zip(noise.dissipation, noise.dephasing), 1):
        bit = 1 << (n - j)
        occ = (support & bit) != 0
        a, b = occ[:, None], occ[None, :]
        decay -= (4.0 * big + small) * (a ^ b) + 8.0 * big * (a & b)
        if big > 0:
            hi = np.flatnonzero(occ)
            lo = np.searchsorted(support, support[hi] ^ bit)
            lo, hi = ((k[:, None] * m + k).ravel() for k in (lo, hi))
            refill.append((8.0 * big, lo, hi))
    return decay, refill


class LindbladGenerator:
    """Precomputed right-hand side of the master equation on a support.

    ``support`` is the sorted array of basis states rho lives on (all 2^n by
    default); ``rhs`` acts on the support block rho[S, S] of an m x m state.
    The non-unitary part is the dissipator of ``_dissipator``, applied
    linearly; the digital step exponentiates the same mask and refill vectors.
    """

    def __init__(self, fmo: FmoParameters, noise: NoiseParameters, support=None):
        n = fmo.n_sites
        if noise.n_sites != n:
            raise ValueError("noise and Hamiltonian parameters disagree on size")
        self.n_sites = n
        support = np.arange(2**n) if support is None else np.asarray(support)
        self.h = build_fmo_h(fmo)[np.ix_(support, support)]
        self.decay, self.refill = _dissipator(noise, support, n)

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self.h @ rho - rho @ self.h)
        out += self.decay * rho
        flat = out.reshape(-1)
        for weight, lo, hi in self.refill:
            flat[lo] += weight * np.take(rho, hi)
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
        """Plot-ready table: t, per-site populations, loss, trace, purity.

        Purity is tr(rho^2), computed for Hermitian rho as sum |rho_ab|^2.
        """
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
            row.append(f"{np.vdot(s, s).real:.12g}")  # tr(rho^2) = sum |rho_ab|^2
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


def _state_on_support(rho0, fmo: FmoParameters, noise: NoiseParameters):
    """rho0 as a complex 2^n x 2^n array, checked against the parameters, and its support."""
    n = fmo.n_sites
    if noise.n_sites != n:
        raise ValueError("noise and Hamiltonian parameters disagree on size")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2**n, 2**n):
        raise ValueError("state dimension does not match the parameter set")
    return rho0, _support(rho0, n)


def _record(
    rho0, support, step, steps: int, h: float, record_every: int, method: str
) -> Trajectory:
    """Apply ``step`` to rho0's support block ``steps`` times.

    Every record_every-th and the last state are scattered back into a
    2^n x 2^n array (zero off the support) and kept.
    """
    cut = np.ix_(support, support)
    rho, times, states = rho0[cut], [0.0], [rho0]
    # A diverged run is reported by Trajectory's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            rho = step(rho)
            if k % record_every == 0 or k == steps:
                full = np.zeros_like(rho0)
                full[cut] = rho
                times.append(k * h)
                states.append(full)
    return Trajectory(tuple(times), tuple(states), method)


def integrate_exact(
    rho0: np.ndarray,
    fmo: FmoParameters,
    noise: NoiseParameters,
    t_max: float,
    dt: float,
    record_every: int = 1,
) -> Trajectory:
    """Brute-force RK4 integration of the master equation on rho0's support.

    The step is shrunk to divide t_max exactly; states are recorded every
    ``record_every`` steps (and always at t_max).
    """
    steps, h = _step_grid(t_max, dt, record_every)
    rho0, support = _state_on_support(rho0, fmo, noise)
    gen = LindbladGenerator(fmo, noise, support)

    def rk4(rho):
        # Classical RK4 in Horner form: for a linear, time-independent
        # generator L both are sum_{m<=4} (h L)^m / m! applied to rho.
        acc = rho
        for m in (4, 3, 2, 1):
            acc = rho + (h / m) * gen.rhs(acc)
        return acc

    return _record(rho0, support, rk4, steps, h, record_every, "exact")


def _compiled_step_unitary(fmo: FmoParameters, dt: float) -> np.ndarray:
    """Step unitary with each term of ``fmo_terms`` replaced by its compiled schedule.

    On ``nmr_from_fmo`` a target compiled at tau = dt has coefficient dt c, the
    term's own c (0.5 dt omega_l = dt eps_l, dt J_l = dt 2 nu_{l,l+1}), so each
    schedule realizes exactly that term's factor e^{-i dt c P}.
    """
    nmr = nmr_from_fmo(fmo)
    ins: list = []
    for kind, sites, _ in fmo_terms(fmo):
        ins.extend(schedule_program(compile_target(kind, sites, dt, nmr), nmr).instructions)
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
    """Digital evolution on rho0's support: split-step unitary plus per-site noise.

    Each step applies the first-order Trotter unitary, then the exact noise
    step e^{dt D} of the generator's dissipator (module docstring).  ``lowering``
    selects how the step unitary is built: ``dense-blocks`` takes that of
    ``trotter_program``, ``compiled-pulses`` that of each term's compiled
    X-pulse schedule (nearest-neighbour couplings only).  Both build the
    2^n x 2^n unitary and cut it to the support, so both cap the register at
    10 sites.
    """
    steps, h = _step_grid(t_max, dt, record_every)
    rho0, support = _state_on_support(rho0, fmo, noise)
    if lowering == "dense-blocks":
        u = trotter_step(fmo, h)
    elif lowering == "compiled-pulses":
        u = _compiled_step_unitary(fmo, h)
    else:
        raise ValueError(f"unknown lowering {lowering!r}")
    u = u[np.ix_(support, support)]
    uh = u.conj().T

    decay, refill = _dissipator(noise, support, fmo.n_sites)
    scale = np.exp(h * decay)
    moves = [(lo, hi, 1.0 - math.exp(-weight * h)) for weight, lo, hi in refill]
    if np.any(noise.dephasing > 0):
        logger.info(
            "dephasing uses the corrected CPTP phase-flip channel; "
            "the verbatim published pair is non-trace-preserving and is "
            "available only behind an explicit override"
        )

    def trotter(rho):
        rho = u @ rho @ uh
        flat = rho.reshape(-1)
        # In place, so a site refills from the earlier sites' refills; mask last.
        for lo, hi, share in moves:
            flat[lo] += share * flat[hi]
        rho *= scale
        return rho

    return _record(rho0, support, trotter, steps, h, record_every, f"trotter(dt={h:.12g})")
