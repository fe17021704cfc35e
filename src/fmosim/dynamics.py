"""Open-system dynamics of the exciton chain.

Two evolution routes for the same model:

* ``integrate_exact``: fixed-step RK4 on the Lindblad generator,

      drho/dt = -i[H, rho] + sum_j 4 Gamma_j (2 s-_j rho s+_j - n_j rho - rho n_j)
                           + sum_j gamma_j (2 n_j rho n_j - n_j rho - rho n_j)

  with s-_j = |0><1| on site j and n_j the excitation projector.  This is the
  brute-force oracle the digital pipeline is judged against.

* ``evolve_trotter_open``: per step, the first-order split unitary
  prod_sites e^{-i eps_s Z_s dt} * prod_pairs e^{-i H_pair dt}, one factor per
  term of ``hamiltonians.fmo_terms`` (the exponential of the term, or for
  ``compiled-pulses`` its ``compiler.compile_target`` schedule), then the
  noise step e^{dt D}.

The dissipator D (the Gamma and gamma terms) is built once, by ``_dissipator``
from one occupation table of the support, as a decay mask plus per-site refill
index vectors.  RK4 applies it linearly, every site's refill in one scatter;
the digital step applies e^{dt D} exactly: every refill in place with weight
1 - e^{-8 Gamma_j dt}, then rho *= e^{dt decay}.  That is the product of the
per-site dissipation and corrected (CPTP) dephasing channels, so CPTP at any
dt, because the site channels commute, site j's mask factor is 1 wherever its
refill writes (site j is empty in both a and b there), and refilling in place
chains the refills of several sites as applying the channels one after another
does.

Both routes step rho restricted to its support: the sorted basis states
with at most K excitations, K the largest excitation number of a row or
column of rho0 holding a nonzero entry (``_support``).  This is exact.  H
conserves the excitation number, dissipation only lowers it and dephasing
keeps it, so every term maps |a><b| with a and b on the support into the span
of such elements; the step unitary likewise does not couple excitation numbers
(to roundoff for ``compiled-pulses``), so its support block is the step.  For
``siteK`` the support is the n + 1 states with at most one excitation; a
full-rank rho0 has the full support of 2^n states, with the same code.  A run's
``Setup`` holds its parameters, support, rho0's block and dissipator, and both
routes and ``LindbladGenerator`` read it.  H is the sum of the terms' m x m
support blocks (``_hamiltonian``), and the ``dense-blocks`` step the ordered
product, sector by sector, of the blocks of their exponentials: every factor
conserves the excitation number and the support is a union of whole sectors,
so the product of blocks is the block of the product.  The ``compiled-pulses``
step applies each schedule to the support's 2^n x m columns.  rho0 is a dense
2^n x 2^n array, so both routes are capped at 10 sites.  Either step is a
fixed linear map of the support block; the shared loop ``_record`` applies it
as one m^2 x m^2 matvec on at most ``PROPAGATOR_MAX_STATES`` (16) states, else
by calling the step.  A run's records stay on the support, as one read-only
(records, m, m) stack: ``Trajectory`` checks it, and reads populations, trace,
purity and the state JSON (full 2^n x 2^n layout, byte for byte) from it.

Populations are excitation-basis: p_j = tr(rho n_j), so the all-ground state
has p = 0 and dissipation drains p_j toward zero; 1 - sum_j p_j is the
population lost to the environment (there is no explicit sink site).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TextIO

import numpy as np

from .hamiltonians import (TERMS, FmoParameters, NoiseParameters, fmo_terms, nmr_from_fmo,
                           term_eigen)
from .hamiltonians import trotter_step  # noqa: F401  (benchmarks/tracing.py patches it here)
from .qcore import _occupations, _read_only, check_unitary_register, parse_basis_label
from .qcore import pauli_embed  # noqa: F401  (benchmarks/tracing.py patches it here)
from .schema import _site_number

PROPAGATOR_MAX_STATES = 16  # largest support stepped by its propagator (README)
RECORD_BUDGET_BYTES = 1 << 30  # largest total size of one run's recorded blocks
STEP_BUDGET = 1 << 34  # largest steps x m^2 of one run (README)

__all__ = [
    "NoiseParameters",
    "Setup",
    "Trajectory",
    "site_populations",
    "initial_density",
    "LindbladGenerator",
    "integrate_exact",
    "evolve_trotter_open",
]


def site_populations(rho: np.ndarray) -> np.ndarray:
    """Excited-state population of each site, tr(rho n_j)."""
    rho = np.asarray(rho)
    n = int(round(math.log2(rho.shape[0])))
    if rho.shape != (2**n, 2**n):
        raise ValueError("state dimension is not a power of two")
    return _occupations(np.arange(2**n), n) @ np.real(np.diagonal(rho))


def initial_density(label: str, n: int) -> np.ndarray:
    """Pure computational state from a label.

    ``siteK`` puts the single excitation on site K, a run of ASCII digits,
    ``ground`` is all zeros, and a literal bitstring such as ``0100000``
    selects that basis state.  The dense state caps n at 10 sites.
    """
    check_unitary_register(n)
    if label == "ground":
        bits = "0" * n
    elif label.startswith("site"):
        k = _site_number(label[4:]) or 0
        if not 1 <= k <= n:
            raise ValueError(f"{label!r} names no site in 1..{n}")
        bits = "".join("1" if j == k else "0" for j in range(1, n + 1))
    else:
        bits = label
    psi = parse_basis_label(bits, n)
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


def _place(op: np.ndarray, sites, states: np.ndarray, n: int) -> np.ndarray:
    """The block <a|op|b>, a and b in ``states``, of the local ``op`` placed on ``sites``.

    Qubit ``sites[0]`` is the most significant bit of op's index, as in
    ``circuit.apply``; the entry is zero unless a and b agree off ``sites``.
    A 1-d ``op`` is a phase vector and gives the block's diagonal.
    """
    loc, mask = 0, 0
    for q in sites:
        loc = 2 * loc + ((states >> (n - q)) & 1)
        mask |= 1 << (n - q)
    if op.ndim == 1:
        return op[loc]
    rest = states & ~mask
    return op[loc].take(loc, axis=1) * (rest[:, None] == rest)


def _dissipator(noise: NoiseParameters, support: np.ndarray, n: int):
    """The dissipator D on a support of m states, as (decay, refill).

    D(rho) = decay * rho, plus rho[lo] += w * rho[hi] for each (w, lo, hi) in
    refill, one triple per site j with Gamma_j > 0 and w = 8 Gamma_j.  decay
    is -sum_j [(4 Gamma_j + gamma_j) (a_j xor b_j) + 8 Gamma_j a_j b_j].  hi
    and lo are flat indices into an m x m array: hi the entries |a><b| with
    site j occupied in both a and b, a-major, lo the same entries with site j
    emptied in both (a support of at most K excitations keeps a state with one
    excitation removed).  One pass over the sites builds both: site j's term is
    its row of rates [0, 4 Gamma_j + gamma_j, 8 Gamma_j] looked up by how many
    of a and b hold site j (the product form bit for bit), subtracted in site
    order, and its refill pairs its occupied states with their emptied states.
    """
    m, occ, big = len(support), _occupations(support, n).astype(np.uint8), noise.dissipation
    rates = np.stack([0.0 * big, 4.0 * big + noise.dephasing, 8.0 * big], 1)
    low = np.searchsorted(support, support ^ (1 << np.arange(n - 1, -1, -1))[:, None])
    decay, refill = np.zeros((m, m)), []
    for rate, occ_j, low_j, g in zip(rates, occ, low, big):
        decay -= rate[occ_j[:, None] + occ_j]
        if g > 0:  # lo, hi: each pair of site j's occupied states p, emptied and as is
            p = np.flatnonzero(occ_j)
            refill.append((8.0 * g, *((k[:, None] * m + k).ravel() for k in (low_j[p], p))))
    return decay, refill


def _hamiltonian(fmo: FmoParameters, support: np.ndarray, n: int) -> np.ndarray:
    """H's m x m support block: the sum of the chain terms' blocks placed by ``_place``."""
    terms = (_place(c * TERMS[kind], sites, support, n) for kind, sites, c in fmo_terms(fmo))
    return sum(terms, np.zeros((len(support),) * 2, dtype=complex))


class LindbladGenerator:
    """Precomputed right-hand side of the master equation on a run's ``Setup``.

    H is ``_hamiltonian`` on the setup's support and the non-unitary part is its
    dissipator, applied linearly (the digital step exponentiates it).  ``rhs`` acts
    on the m x m block rho[S, S], or on each block of a stack (..., m, m); it keeps
    scratch arrays, so a generator serves one caller at a time.
    """

    def __init__(self, setup: Setup):
        self.h = _hamiltonian(setup.fmo, setup.support, setup.n_sites)
        self.decay, self.refill = setup.dissipator
        # The refill as one scatter-add of every site's entries, in site order.
        none = np.zeros(0, dtype=np.intp)
        weight, lo, hi = zip(*self.refill or [(0.0, none, none)])
        self._weight = np.repeat(weight, [len(i) for i in lo])[:, None]
        self._at = np.concatenate(lo), np.concatenate(hi)
        self._work = np.empty(0, dtype=complex)

    def rhs(self, rho: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """-i[H, rho] + D(rho) on one m x m block, or on each block of a stack (..., m, m).

        A stack of k blocks laid out rows outermost (``rho.swapaxes(0, -2)``
        C-contiguous, as returned; other layouts are copied) is an (m, k m) matrix
        for H @ rho and a (k m, m) one for rho @ H: one GEMM each, which round as
        block by block since H is real.  ``out``, a C-contiguous block or a stack
        laid out as returned, gets the result; it must not overlap ``rho``.  The
        work array is built once per shape, and for a stack so are the decay in its
        layout (complex, so the product casts nothing) and the refill's indices into
        every block: the propagator build's four calls share them.
        """
        m, x = len(self.h), np.ascontiguousarray(rho.swapaxes(0, -2))
        y = np.empty_like(x, dtype=complex) if out is None else out.swapaxes(0, -2)
        if out is not None and (np.shares_memory(out, rho) or not y.flags.c_contiguous):
            raise ValueError("out must not overlap rho and must be laid out as rhs returns")
        k = x.size // (m * m)
        if self._work.shape != x.shape:  # a new stack: its work array, decay and scatter
            decay, at = self.decay.reshape(m, *[1] * (x.ndim - 2), m), self._at
            if k > 1:  # each entry in every block, in layout (m, k, m)
                decay = np.ascontiguousarray(np.broadcast_to(decay, x.shape), dtype=complex)
                at = np.array(at)[..., None]
                at = (at + at // m * ((k - 1) * m) + np.arange(0, k * m, m)).reshape(2, -1)
            self._work, self._stack = np.empty_like(x, dtype=complex), (decay, *at)
        t, (decay, lo, hi) = self._work, self._stack
        np.matmul(self.h, x.reshape(m, -1), out=y.reshape(m, -1))
        np.matmul(x.reshape(-1, m), self.h, out=t.reshape(-1, m))
        np.multiply(-1j, np.subtract(y, t, out=y), out=y)
        np.add(y, np.multiply(decay, x, out=t), out=y)
        v = x.reshape(-1)[hi]
        np.multiply(self._weight, v.reshape(-1, k), out=v.reshape(-1, k))
        np.add.at(y.reshape(-1), lo, v)
        return y.swapaxes(0, -2)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded open-system evolution, kept on the support rho lives on.

    ``blocks`` is one read-only (len(times), m, m) stack, checked and read as a
    whole: ``blocks[i]`` is the state at ``times[i]`` restricted to ``support``,
    the sorted basis states of an ``n_sites``-qubit register, and zero off it;
    full 2^n x 2^n states come with the support ``np.arange(2**n)``.  ``states``
    and ``final_state`` scatter the blocks into read-only 2^n x 2^n arrays on demand.
    """

    times: tuple[float, ...]
    blocks: np.ndarray
    method: str
    support: np.ndarray
    n_sites: int

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or len(times) != len(self.blocks) or not len(times):
            raise ValueError("need one state per time point")
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        n, support = self.n_sites, _read_only(self.support, np.int64)
        if (n is None or support.ndim != 1 or not len(support) or support[0] < 0
                or support[-1] >= 2**n or np.any(np.diff(support) <= 0)):
            raise ValueError("support must be increasing basis states of the register")
        m, times = len(support), tuple(times.tolist())
        try:
            blocks = _read_only(self.blocks, complex)
        except ValueError:  # blocks of different shapes
            blocks = np.empty(0)
        if blocks.shape != (len(times), m, m):
            t = next(t for t, s in zip(times, self.blocks) if np.shape(s) != (m, m))
            raise ValueError(f"state at t={t:g} is not {m} x {m}")
        tr, tol = np.trace(blocks, axis1=1, axis2=2), (1e-8 if self.method == "exact" else 1e-6)
        ok = np.isfinite(blocks).all((1, 2)) & (abs(tr.real - 1.0) <= tol) & (abs(tr.imag) <= tol)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"state at t={times[i]:g} is not finite or has trace {tr[i]:.8g}")
        vars(self).update(blocks=blocks, times=times, support=support, n_sites=n)  # frozen

    def _scatter(self, block: np.ndarray) -> np.ndarray:
        """``block`` as a read-only 2^n x 2^n array, zero off the support."""
        dim = 2**self.n_sites
        full = np.zeros((dim, dim), dtype=complex)
        full[np.ix_(self.support, self.support)] = block
        full.setflags(write=False)
        return full

    @cached_property
    def states(self) -> tuple[np.ndarray, ...]:
        """The recorded states as read-only 2^n x 2^n arrays, scattered on first access."""
        return tuple(map(self._scatter, self.blocks))

    def final_state(self) -> np.ndarray:
        return self._scatter(self.blocks[-1])

    def populations(self) -> np.ndarray:
        """(len(times), n_sites) table of excited-state populations."""
        occ = _occupations(self.support, self.n_sites)
        return (occ @ self.blocks.diagonal(axis1=1, axis2=2).real[..., None])[..., 0]

    def to_csv(self, extra_columns: dict[str, np.ndarray] | None = None) -> str:
        """Plot-ready table: t, per-site populations, loss, trace, purity.

        Purity is tr(rho^2), computed for Hermitian rho as sum |rho_ab|^2 by one
        ``np.vdot`` per record (a stacked sum rounds differently); trace and purity
        read the blocks, as rho is zero off the support.  The table is built for
        the whole stack and printed with one ``%.12g`` row format.  Extra columns
        must be finite: no row carries NaN or inf.
        """
        extra = {name: np.asarray(col, dtype=float) for name, col in (extra_columns or {}).items()}
        for name, col in extra.items():
            if col.shape != (len(self.times),) or not np.isfinite(col).all():
                raise ValueError(f"extra column {name!r} must hold one finite number per time")
        n, blocks, pops = self.n_sites, self.blocks, self.populations()
        header = ["t"] + [f"p{j}" for j in range(1, n + 1)] + ["loss", "trace", "purity"]
        columns = [self.times, pops, 1.0 - pops.sum(1), np.trace(blocks, axis1=1, axis2=2).real]
        table = np.column_stack(columns + [[np.vdot(s, s).real for s in blocks], *extra.values()])
        rows = "\n".join([",".join(["%.12g"] * table.shape[1])] * len(table))
        return ",".join(header + list(extra)) + "\n" + rows % tuple(table.ravel().tolist()) + "\n"

    def to_state_json(self, fh: TextIO) -> None:
        """Write the full-state dump to ``fh``: times plus row-major [re, im] entries of each state.

        The bytes are those of ``json.dumps`` on the 2^n x 2^n states, plus a
        newline, written one state at a time.  Only the support rows are
        formatted: every other row is one cached string of ``[0.0, 0.0]``
        cells, and a support row puts ``[re, im]`` cells, printed with
        ``repr`` as ``json.dumps`` prints a float, at the support columns.
        """
        import json

        dim = 2**self.n_sites
        zero_cells = ["[0.0, 0.0]"] * dim
        zero_row = "[" + ", ".join(zero_cells) + "]"
        support = self.support.tolist()
        fh.write(f'{{"method": {json.dumps(self.method)}, "times": {json.dumps(list(self.times))}')
        for i, s in enumerate(self.blocks):
            rows = [zero_row] * dim
            for a, re_row, im_row in zip(support, s.real.tolist(), s.imag.tolist()):
                cells = zero_cells.copy()
                for b, re, im in zip(support, re_row, im_row):
                    cells[b] = f"[{re!r}, {im!r}]"
                rows[a] = "[" + ", ".join(cells) + "]"
            fh.write("], [" if i else ', "states": [[')
            fh.write(", ".join(rows))  # one state: the largest string built
        fh.write("]]}\n")


def _step_grid(t_max: float, dt: float, record_every: int) -> tuple[int, float]:
    if record_every < 1:
        raise ValueError(f"record_every must be a positive integer, got {record_every!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if t_max == 0:
        return 0, dt
    ratio = float(t_max) / float(dt)
    if not math.isfinite(ratio):
        raise ValueError(f"t_max / dt = {ratio} is not a finite step count")
    steps = max(1, math.ceil(ratio - 1e-9))
    return steps, t_max / steps


class Setup:
    """A run's parameters ``fmo`` and ``noise``, checked to agree on ``n_sites``, rho0's
    ``support`` and its ``block`` on it, and the ``dissipator`` there: everything that
    steps the run reads it, so all share one parameter set and one support."""

    def __init__(self, rho0, fmo: FmoParameters, noise: NoiseParameters):
        self.fmo, self.noise = fmo, noise
        self.n_sites = n = fmo.n_sites
        if noise.n_sites != n:
            raise ValueError("noise and Hamiltonian parameters disagree on size")
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (2**n, 2**n):
            raise ValueError("state dimension does not match the parameter set")
        self.support = support = _support(rho0, n)
        self.block, self.dissipator = rho0[np.ix_(support, support)], _dissipator(noise, support, n)


def _propagator(step, m: int) -> np.ndarray:
    """P with vec(step(rho)) = P vec(rho): the m^2 basis blocks stepped as one stack,
    laid out rows outermost as ``rhs`` takes it; P is F-contiguous, a stepped block per column."""
    r, basis = np.arange(m), np.zeros((m, m, m, m), dtype=complex)
    basis[r[:, None], r[:, None], r, r] = 1  # [r, (a, c), s] = d_ra d_cs
    return step(basis.reshape(m, m * m, m).swapaxes(0, 1)).reshape(m * m, -1).T


def _record(setup: Setup, step, steps: int, h: float, record_every: int, method: str) -> Trajectory:
    """Apply the linear ``step`` to the setup's block ``steps`` times.

    With at most ``PROPAGATOR_MAX_STATES`` support states the walk is on the
    flat m^2 vector, one ``P.dot`` per step with P = ``_propagator(step, m)``
    (bit for bit ``P @ v``, with less call overhead), and only a kept vector is
    viewed as a block.  Every record_every-th and the last block are kept on
    the support; the Trajectory scatters them into 2^n x 2^n arrays only if its
    ``states`` are read.  Runs over ``RECORD_BUDGET_BYTES`` or over
    ``STEP_BUDGET`` steps x m^2 are refused before any step.
    """
    rho, m, records = setup.block, len(setup.support), 1 + -(-steps // record_every)
    if records * m * m * 16 > RECORD_BUDGET_BYTES:
        raise ValueError(f"the run would record {records} states of {m} x {m} entries, over "
                         f"the {RECORD_BUDGET_BYTES:,}-byte budget; raise dt or record_every")
    if steps * m * m > STEP_BUDGET:
        raise ValueError(f"the run would take {steps} steps of {m} x {m} states, over the "
                         f"budget of {STEP_BUDGET:,} steps x m^2; raise dt or lower t_max")
    times, blocks = [0.0], [rho]
    # A diverged run is reported by Trajectory's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        if steps and m <= PROPAGATOR_MAX_STATES:
            step, rho = _propagator(step, m).dot, rho.reshape(-1)
        for k in range(1, steps + 1):
            rho = step(rho)
            if k % record_every == 0 or k == steps:
                times.append(k * h)
                blocks.append(rho.reshape(m, m))
    return Trajectory(tuple(times), tuple(blocks), method, setup.support, setup.n_sites)


def integrate_exact(
    rho0: np.ndarray,
    fmo: FmoParameters,
    noise: NoiseParameters,
    t_max: float,
    dt: float,
    record_every: int = 1,
    *, setup: Setup | None = None,
) -> Trajectory:
    """Brute-force RK4 integration of the master equation on rho0's support.

    The step is shrunk to divide t_max exactly; states are recorded every
    ``record_every`` steps (and always at t_max).  A step is one matvec on at
    most ``PROPAGATOR_MAX_STATES`` support states, else four ``rhs`` calls
    into two stage buffers, allocated by the first.  ``setup``, if given, is
    read instead of rho0, fmo and noise.
    """
    steps, h = _step_grid(t_max, dt, record_every)
    setup = setup or Setup(rho0, fmo, noise)
    gen = LindbladGenerator(setup)

    def rk4(rho):
        # Classical RK4 in Horner form: for a linear, time-independent
        # generator L both are sum_{j<=4} (h L)^j / j! applied to rho.  The first
        # stage allocates the two stage buffers; the other three reuse them.
        acc = k = None
        for j in (4, 3, 2):
            k = gen.rhs(rho if j == 4 else acc, out=k)
            acc = np.add(rho, np.multiply(h / j, k, out=k), out=acc)
        return np.add(rho, np.multiply(h, gen.rhs(acc, out=k), out=k), order="C")

    return _record(setup, rk4, steps, h, record_every, "exact")


def _step_unitary(fmo: FmoParameters, dt: float, lowering: str, support) -> np.ndarray:
    """Support block of the step unitary: the product of each term's e^{-i dt c P} placed
    on the support (``dense-blocks``), or of each term compiled on ``nmr_from_fmo`` at
    tau = dt, applied to the support's 2^n x m columns (``compiled-pulses``, 10 sites).
    """
    n, m = fmo.n_sites, len(support)
    if lowering == "compiled-pulses":
        from .compiler import apply_schedule, compile_target  # loaded by this lowering only

        check_unitary_register(n)
        u, nmr = (np.arange(2**n)[:, None] == support).astype(complex), nmr_from_fmo(fmo)
        for kind, sites, _ in fmo_terms(fmo):
            u = apply_schedule(compile_target(kind, sites, dt, nmr), nmr, u)
        return u[support]
    if lowering != "dense-blocks":
        raise ValueError(f"unknown lowering {lowering!r}")
    # Ordered by excitation number, the support is whole sectors along the
    # diagonal, and every factor is block-diagonal on them.
    weight = _occupations(support, n).sum(axis=0)
    order = np.argsort(weight, kind="stable")
    states, cuts = support[order], np.flatnonzero(np.diff(weight[order])) + 1
    sectors = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, m])]
    u = np.eye(m, dtype=complex)
    for kind, sites, c in fmo_terms(fmo):
        w, v, d = term_eigen(kind)
        if d is not None:
            u *= _place(np.exp(-1j * dt * (c * d)), sites, states, n)[:, None]
            continue
        b = _place((v * np.exp(-1j * dt * (c * w))) @ v.conj().T, sites, states, n)
        for s in sectors:
            u[s, s] = b[s, s] @ u[s, s]
    out = np.empty_like(u)
    out[np.ix_(order, order)] = u
    return out


def evolve_trotter_open(
    rho0: np.ndarray,
    fmo: FmoParameters,
    noise: NoiseParameters,
    t_max: float,
    dt: float,
    lowering: str = "dense-blocks",
    record_every: int = 1,
    *, setup: Setup | None = None,
) -> Trajectory:
    """Digital evolution on rho0's support: split-step unitary plus per-site noise.

    Each step applies the first-order Trotter unitary, then the exact noise
    step e^{dt D} of the generator's dissipator (module docstring).  ``lowering``
    selects how ``_step_unitary`` builds the step on the support: as the
    product of each term's exponential placed on it (``dense-blocks``), or
    from each term's compiled X-pulse schedule (``compiled-pulses``,
    nearest-neighbour couplings only).  ``setup``, if given, is read instead of
    rho0, fmo and noise.
    """
    steps, h = _step_grid(t_max, dt, record_every)
    setup = setup or Setup(rho0, fmo, noise)
    u = _step_unitary(setup.fmo, h, lowering, setup.support)
    uh = u.conj().T

    decay, refill = setup.dissipator
    scale = np.exp(h * decay)
    moves = [(lo, hi, 1.0 - math.exp(-weight * h)) for weight, lo, hi in refill]
    # Only a program that imported logging can have a handler or level that shows INFO.
    if "logging" in sys.modules and np.any(setup.noise.dephasing > 0):
        sys.modules["logging"].getLogger(__name__).info(
            "dephasing uses the corrected CPTP phase-flip channel; "
            "the verbatim published pair is non-trace-preserving and is "
            "available only behind an explicit override"
        )

    def trotter(rho):
        # (u rho) @ uh as one GEMM of a (k m, m) matrix; u @ rho stays block by
        # block, as one wide GEMM a complex u would round differently.
        rho = ((u @ rho).reshape(-1, len(u)) @ uh).reshape(rho.shape)
        flat = rho.reshape(*rho.shape[:-2], -1).T
        # In place, so a site refills from the earlier sites' refills; mask last.
        for lo, hi, share in moves:
            flat[lo] += share * flat[hi]
        rho *= scale
        return rho

    return _record(setup, trotter, steps, h, record_every, f"trotter(dt={h:.12g})")
