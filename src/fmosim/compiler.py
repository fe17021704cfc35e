"""Pulse compiler: X-pulse re/decoupling schedules for the Ising chain.

The simulator Hamiltonian H_NMR is diagonal, so conjugating an evolution
interval by X pulses flips the signs of the Z terms on the pulsed qubits.  A
schedule is described by a sign matrix S (rows = qubits, columns = equal-time
intervals): interval k evolves under H_NMR with Z_l replaced by S[l,k] Z_l.
Because all interval Hamiltonians commute, the net evolution is

    exp(-i * Delta * [ sum_l (omega_l/2) (sum_k S[l,k]) Z_l
                     + sum_l J_l (sum_k S[l,k] S[l+1,k]) Z_l Z_{l+1} ])

with Delta the interval duration.  One rule decides every schedule (Leung et
al., PRA 61, 042310 (2000)): with m intervals, S keeps Z_l when row l sums to m
and Z_l Z_{l+1} when rows l and l+1 have product m; every other row sum and
neighbour-row product is 0.  ``_sign_sums`` computes these sums,
``check_sign_matrix`` compares them with a target and ``effective_coefficients``
scales them into the exponent.

The paper's construction takes rows of a Sylvester Hadamard matrix (mutually
orthogonal, balanced beyond row 0): the kept qubits share row 0 (Z_l) or row 1
(Z_l Z_{l+1}), every other qubit the next row in order.  ``compile`` emits the
compact four-interval form, columns (a, a*b, b, 1), two alternating layers:

    z  target:  [U X_{all but l} U X_{same parity as l}]^2
    zz target:  [U X_{all} U X_a]^2,  a alternating except equal on the pair

XX+YY targets are lowered as two basis-changed ZZ schedules,
exp(-i th XX) = (H H) exp(-i th ZZ) (H H) and
exp(-i th YY) = (G G) exp(-i th ZZ) (G G)^dag with G = RX(pi/2); the
single-qubit conjugators are ordinary gates, not pulse-compiled.

Pulse layers sit between intervals; ``pulse_layers[k]`` is the set of qubits
whose sign changes from column k-1 to column k, with an all-+1 frame at both
ends, so double pulses cancel structurally and the frame always returns to
the identity.

Targets are the term kinds of ``hamiltonians.TERMS``: ``parse_target`` reads
``kind:sites``, also the head of every target descriptor, and
``compile_target`` dispatches a kind to its compiler.

``apply_schedule`` is the one exact reconstruction of a schedule's unitary,
segment by segment, each flat schedule as its phase vector; the
``compiled-pulses`` step and ``verify_schedule`` both apply it.  The target
unitary is ``hamiltonians.term_exp``, from a cached eigendecomposition.
``verify_schedule`` takes a 2 x 2 block's norm in closed form, larger blocks' by
one ``svd``; ``schedule_program`` lowers each distinct flat schedule once.

``schedule_from_json`` checks its document with ``schema``'s field checker and
builds every gate and schedule with ``schema._build``, so a schema error, and a
record's own refusal, names the field's path and is a ``ConfigError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import circuit as ci
from .hamiltonians import TERMS, NmrParameters, nmr_diagonal, term_exp
from .qcore import SCHEDULE_VERIFY_ATOL, check_unitary_register, phase_align
from .qcore import pauli_embed  # noqa: F401  (benchmarks/tracing.py patches it here)
from .schema import ConfigError, _build, _json, _json_ints, _json_list, _json_object, _site_number

__all__ = [
    "hadamard_matrix",
    "decoupling_sign_matrix",
    "recoupling_sign_matrix",
    "check_sign_matrix",
    "effective_coefficients",
    "PulseSchedule",
    "Segment",
    "ConjugatedSchedule",
    "schedule_from_sign_matrix",
    "compile_single_z",
    "compile_zz",
    "compile_xy",
    "parse_target",
    "compile_target",
    "schedule_program",
    "apply_schedule",
    "parse_descriptor",
    "target_unitary",
    "VerificationReport",
    "verify_schedule",
    "schedule_to_json",
    "schedule_from_json",
    "ConfigError",
]


def hadamard_matrix(k: int) -> np.ndarray:
    """Sylvester Hadamard matrix H(2^k) with entries +-1 (k <= 6)."""
    if not 0 <= k <= 6:
        raise ValueError("hadamard_matrix supports 0 <= k <= 6")
    h = np.array([[1]], dtype=int)
    block = np.array([[1, 1], [1, -1]], dtype=int)
    for _ in range(k):
        h = np.kron(h, block)
    return h


def _hadamard_rows(n: int, kept: tuple[int, ...], row: int) -> np.ndarray:
    """Sign matrix giving the ``kept`` qubits Hadamard row ``row`` and every
    other qubit the next row after it, in ascending qubit order."""
    if n > 8:
        raise ValueError("sign matrices support at most 8 qubits")
    h = hadamard_matrix(max(0, math.ceil(math.log2(n))))
    rest = iter(h[row + 1 :])
    return np.array([h[row] if q in kept else next(rest) for q in range(1, n + 1)])


def decoupling_sign_matrix(n: int, target: int) -> np.ndarray:
    """Sign matrix decoupling everything except the Z term of ``target``.

    Row ``target`` is the all-+1 Hadamard row 0; the other qubits take rows
    1, 2, ... (for target = 1 the Hadamard matrix with its last rows dropped).
    """
    if not 1 <= target <= n:
        raise ValueError(f"target {target} outside 1..{n}")
    return _hadamard_rows(n, (target,), 0)


def recoupling_sign_matrix(n: int, pair: tuple[int, int]) -> np.ndarray:
    """Sign matrix keeping only the ZZ coupling of ``pair``: both take the
    balanced Hadamard row 1, the other qubits rows 2, 3, ..."""
    i, j = pair
    if not 1 <= i < j <= n:
        raise ValueError(f"bad pair {pair} for {n} qubits")
    return _hadamard_rows(n, pair, 1)


def _sign_sums(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and neighbour-row products of the 2-d +-1 matrix ``s``."""
    s = np.asarray(s)
    if s.ndim != 2 or not np.all(np.abs(s) == 1):
        raise ValueError("sign matrix must be 2-d with entries +-1")
    s = s.astype(int)
    return s.sum(axis=1), np.einsum("ik,ik->i", s[:-1], s[1:])


def check_sign_matrix(s: np.ndarray, kind: str, sites: tuple[int, ...]) -> None:
    """Raise unless the sign matrix ``s`` keeps exactly the term ``kind:sites``.

    With m intervals, ``z:l`` needs row l to sum to m (all +1) and ``zz:i,j``
    needs rows i and j to have product m (equal); every other row sum and
    neighbour-row product must be 0.
    """
    rows, pairs = _sign_sums(s)
    s = np.asarray(s)
    n, m = s.shape
    if {"z": 1, "zz": 2}.get(kind) != len(sites) or not 1 <= min(sites) <= max(sites) <= n:
        raise ValueError(f"no sign matrix rule for {kind}:{sites} on {n} qubits")
    kept = sites if kind == "z" else ()
    for q, total in enumerate(rows.tolist(), 1):
        if total != (m if q in kept else 0):
            raise ValueError(f"row {q} must be all +1" if q in kept else f"row {q} is not balanced")
    if kind == "zz" and int(s[sites[0] - 1] @ s[sites[1] - 1]) != m:
        raise ValueError("pair rows must be equal")
    for q, product in enumerate(pairs.tolist(), 1):
        if product != 0 and (kind, tuple(sites)) != ("zz", (q, q + 1)):
            raise ValueError(f"rows {q},{q + 1} are not orthogonal")


def effective_coefficients(
    s: np.ndarray, params: NmrParameters, interval_duration: float
) -> tuple[np.ndarray, np.ndarray]:
    """Algebraic predictor of the net evolution exponent.

    Returns (z, zz) with z[l] the coefficient of Z_{l+1} and zz[l] the
    coefficient of Z_{l+1} Z_{l+2} in the exponent -i * (...) of the
    scheduled evolution: the sums of ``_sign_sums`` scaled by omega/2 delta and J delta.
    """
    rows, pairs = _sign_sums(s)
    return 0.5 * params.omega * interval_duration * rows, params.j * interval_duration * pairs


@dataclass(frozen=True)
class PulseSchedule:
    """Equal-interval X-pulse schedule.  Layer k precedes interval k."""

    n_qubits: int
    interval_duration: float
    pulse_layers: tuple[tuple[int, ...], ...]
    target: str = ""

    def __post_init__(self):
        layers = tuple(tuple(sorted(set(layer))) for layer in self.pulse_layers)
        object.__setattr__(self, "pulse_layers", layers)
        if len(layers) < 2:
            raise ValueError("need at least one interval (two layer slots)")
        if not math.isfinite(self.interval_duration):
            raise ValueError("interval duration must be finite")
        pulses = sorted(q for layer in layers for q in layer)
        if pulses and not 1 <= pulses[0] <= pulses[-1] <= self.n_qubits:
            raise ValueError(f"pulsed qubit outside register 1..{self.n_qubits}")
        if pulses[0::2] != pulses[1::2]:  # sorted: each qubit is pulsed an even number of times
            raise ValueError("pulse frame does not return to the identity")

    @property
    def intervals(self) -> int:
        return len(self.pulse_layers) - 1

    @property
    def target_time(self) -> float:
        return self.interval_duration * self.intervals

    @property
    def segments(self) -> tuple[Segment, ...]:
        return (Segment((), self, ()),)  # a flat schedule: one segment, no conjugators

    def sign_matrix(self) -> np.ndarray:
        """Reconstruct the sign matrix realized by the pulse layers."""
        s = np.ones((self.n_qubits, self.intervals), dtype=int)
        frame = np.ones(self.n_qubits, dtype=int)
        for k in range(self.intervals):
            for q in self.pulse_layers[k]:
                frame[q - 1] *= -1
            s[:, k] = frame
        return s


@dataclass(frozen=True)
class Segment:
    """A pulse schedule wrapped in single-qubit basis-change gates (held as tuples)."""

    pre: tuple[ci.Gate, ...]
    schedule: PulseSchedule
    post: tuple[ci.Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "pre", tuple(self.pre))
        object.__setattr__(self, "post", tuple(self.post))


@dataclass(frozen=True)
class ConjugatedSchedule:
    """Composite target realized by conjugated ZZ segments (XX+YY lowering)."""

    n_qubits: int
    target: str
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("a conjugated schedule needs at least one segment")
        if any(seg.schedule.n_qubits != self.n_qubits for seg in self.segments):
            raise ValueError("segment width does not match the schedule's n_qubits")

    @property
    def target_time(self) -> float:
        return self.segments[0].schedule.target_time


def schedule_from_sign_matrix(
    s: np.ndarray, target_time: float, target: str = ""
) -> PulseSchedule:
    """Turn a sign matrix into a pulse schedule.

    Layers are the column-to-column sign changes with all-+1 boundary frames,
    which already cancels doubled X pulses.  The interval grid is uniform at
    target_time / m, so columns are never merged; an empty internal layer
    (identical adjacent columns) is simply a no-op boundary.
    """
    _sign_sums(s)  # raises unless s is a 2-d +-1 matrix
    n, m = np.shape(s)
    padded = np.hstack([np.ones((n, 1), dtype=int), s, np.ones((n, 1), dtype=int)])
    layers = tuple(
        tuple(int(q + 1) for q in np.nonzero(padded[:, k] != padded[:, k + 1])[0])
        for k in range(m + 1)
    )
    return PulseSchedule(n, target_time / m, layers, target)


def _descriptor(kind: str, sites: tuple[int, ...], tau: float, params: NmrParameters) -> str:
    coeff = _coefficient(kind, sites, tau, params)
    return f"{kind}:{','.join(str(q) for q in sites)} coeff={coeff:.17g}"


def parse_target(spec: str) -> tuple[str, tuple[int, ...]]:
    """Split a target 'kind:sites' into a ``TERMS`` kind and its 1-based sites.

    Sites are comma-separated ``_site_number`` runs, the form ``_descriptor`` writes.
    """
    kind, _, sites_s = spec.partition(":")
    sites = tuple(map(_site_number, sites_s.split(",")))
    if kind not in TERMS or None in sites or len(TERMS[kind]) != 2 ** len(sites):
        raise ValueError(
            f"malformed target {spec!r}; expected z:<l>, zz:<l>,<l+1> or xy:<l>,<l+1>"
        )
    return kind, sites


def parse_descriptor(desc: str) -> tuple[str, tuple[int, ...], float]:
    """Split 'kind:sites coeff=value'; 2 coeff, the largest phase of a term, must be finite."""
    head, _, tail = desc.partition(" ")
    key, _, value = tail.partition("=")
    try:
        kind, sites = parse_target(head)
        coeff = float(value)
        if key != "coeff" or not math.isfinite(2.0 * coeff):
            raise ValueError
    except ValueError:
        raise ValueError(f"malformed target descriptor {desc!r}") from None
    return kind, sites, coeff


def target_unitary(desc: str, n_qubits: int) -> np.ndarray:
    """Dense unitary the descriptor promises: exp(-i coeff * P), placed on its sites."""
    kind, sites, coeff = parse_descriptor(desc)
    return ci.embed(term_exp(kind, coeff), sites, n_qubits)


def _check_phases(duration: float, params: NmrParameters) -> None:
    """Refuse a schedule time whose phases are not finite, before any numpy work.

    Every phase of a schedule of total time ``duration`` is at most duration *
    (sum |omega_l| + 2 sum |J_l|), bounded here on Python floats, which do not warn.
    """
    rate = sum(map(abs, params.omega.tolist())) + 2.0 * sum(map(abs, params.j.tolist()))
    if not math.isfinite(abs(duration) * rate):
        raise ValueError("schedule time is not finite or overflows the chain's phases")


def _coefficient(kind: str, sites: tuple[int, ...], tau: float, params: NmrParameters) -> float:
    """Coefficient of a compiled term: 0.5 tau omega_l for z, tau J_l for zz and xy."""
    if kind == "z":
        return float(0.5 * tau * params.omega[sites[0] - 1])
    return float(tau * params.j[sites[0] - 1])


def _compact_schedule(
    kind: str, sites: tuple[int, ...], tau: float, params: NmrParameters
) -> PulseSchedule:
    """Schedule [U X_b U X_a]^2, sign columns (a, a*b, b, 1): for ``z:l`` b = -1 off l
    and a = -1 on the other qubits of l's parity class; for ``zz:l,l+1`` b = -1 and
    a alternates along the chain but not across the pair."""
    n = params.n_qubits
    q = np.arange(1, n + 1)
    if kind == "z":
        b = np.where(q == sites[0], 1, -1)
        a = np.where((q != sites[0]) & ((q - sites[0]) % 2 == 0), -1, 1)
    else:
        b = -np.ones(n, dtype=int)
        a = np.where((q - (q > sites[0])) % 2 == 1, 1, -1)
    s = np.column_stack([a, a * b, b, np.ones(n, dtype=int)])
    check_sign_matrix(s, kind, sites)
    return schedule_from_sign_matrix(s, tau, _descriptor(kind, sites, tau, params))


def compile_single_z(l: int, tau: float, params: NmrParameters) -> PulseSchedule:
    """Compact four-interval schedule for u_z = exp(-i (tau/2) omega_l Z_l)."""
    n = params.n_qubits
    if not 1 <= l <= n:
        raise ValueError(f"target qubit {l} outside 1..{n}")
    return _compact_schedule("z", (l,), tau, params)


def compile_zz(pair: tuple[int, int], tau: float, params: NmrParameters) -> PulseSchedule:
    """Compact four-interval schedule for exp(-i tau J_l Z_l Z_{l+1})."""
    n = params.n_qubits
    l, r = pair
    if r != l + 1 or not 1 <= l < n:
        raise ValueError(
            f"pair {pair} is not a nearest-neighbour bond of the {n}-qubit chain; "
            "only chain couplings J_l exist to recouple"
        )
    return _compact_schedule("zz", pair, tau, params)


def compile_xy(pair: tuple[int, int], tau: float, params: NmrParameters) -> ConjugatedSchedule:
    """exp(-i tau J_l (XX + YY)) as two basis-changed ZZ segments."""
    l, r = pair
    zz = compile_zz(pair, tau, params)
    hh = (ci.h(l), ci.h(r))
    gm = (ci.rx(-math.pi / 2, l), ci.rx(-math.pi / 2, r))
    gp = (ci.rx(math.pi / 2, l), ci.rx(math.pi / 2, r))
    segments = (Segment(hh, zz, hh), Segment(gm, zz, gp))
    return ConjugatedSchedule(params.n_qubits, _descriptor("xy", pair, tau, params), segments)


def compile_target(
    kind: str, sites: tuple[int, ...], tau: float, params: NmrParameters
) -> PulseSchedule | ConjugatedSchedule:
    """Schedule for exp(-i coeff TERMS[kind]) on ``sites``, a ``parse_target`` pair; tau >= 0."""
    _check_phases(tau, params)
    if tau < 0:
        raise ValueError(f"tau = {tau!r} is negative; no pulse sequence runs backward")
    if kind == "z":
        return compile_single_z(sites[0], tau, params)
    return {"zz": compile_zz, "xy": compile_xy}[kind](sites, tau, params)


# --- lowering to circuits and verification ----------------------------------


def _interval_instructions(
    params: NmrParameters, delta: float, lowering: str
) -> tuple[ci.Gate, ...]:
    """exp(-i delta H_NMR) as gates on ascending qubit runs; ``opaque``: one phase vector."""
    n = params.n_qubits
    if lowering == "opaque":
        phases = np.exp(-1j * delta * nmr_diagonal(params))
        return (ci.unitary_gate(phases, tuple(range(1, n + 1))),)
    if lowering != "gates":
        raise ValueError(f"unknown lowering {lowering!r}")
    out: list[ci.Gate] = []
    for l in range(1, n + 1):
        if params.omega[l - 1] != 0.0:
            out.append(ci.rz(params.omega[l - 1] * delta, l))
    for l in range(1, n):
        if params.j[l - 1] != 0.0:
            out.append(ci.cnot(l, l + 1))
            out.append(ci.rz(2.0 * params.j[l - 1] * delta, l + 1))
            out.append(ci.cnot(l, l + 1))
    return tuple(out)


def schedule_program(
    sched: PulseSchedule | ConjugatedSchedule,
    params: NmrParameters,
    lowering: str = "opaque",
) -> ci.Program:
    """Lower a schedule to a circuit, for export and as the tests' dense reference.

    ``opaque`` emits each interval as one UNITARY phase vector; ``gates``
    decomposes intervals into RZ singles and CNOT-RZ-CNOT bond factors.  Segments of
    one flat schedule share its interval gates, and each qubit's X pulses are one gate.
    """
    if params.n_qubits != sched.n_qubits:
        raise ValueError("parameter set does not match schedule width")
    ins: list[ci.Gate] = []
    intervals: dict[PulseSchedule, tuple[ci.Gate, ...]] = {}
    pulse = {q: ci.x(q) for q in range(1, sched.n_qubits + 1)}
    for seg in sched.segments:
        flat = seg.schedule
        if flat not in intervals:
            _check_phases(flat.target_time, params)
            intervals[flat] = _interval_instructions(params, flat.interval_duration, lowering)
        ins.extend(seg.pre)
        for k, layer in enumerate(flat.pulse_layers):
            ins.extend(pulse[q] for q in layer)
            if k < flat.intervals:
                ins.extend(intervals[flat])
        ins.extend(seg.post)
    return ci.Program(sched.n_qubits, tuple(ins))


@dataclass(frozen=True)
class VerificationReport:
    target: str
    norm_error: float
    fidelity: float
    passed: bool
    coefficient: float
    params_coefficient: float
    note: str = ""

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        line = (
            f"{state}: {self.target}  norm_error={self.norm_error:.3e}  "
            f"fidelity={self.fidelity:.12f}"
        )
        return line + (f"  ({self.note})" if self.note else "")


def _flat_phases(sched: PulseSchedule, params: NmrParameters, lowering: str) -> np.ndarray:
    """Exact unitary of a flat schedule as its diagonal, O(2^n) per instruction.

    Walks U|x> = phase[x] |idx[x]>: X pulses and CNOTs permute idx, diagonal gates
    multiply phase by diagonal[(idx >> shift) & mask].  CNOTs pair up inside each
    interval and the frame closes, so the last layer (idx back to identity) is skipped.
    The walk runs each gate once over every interval, starting each interval from its
    frame, the XOR of the pulse layers so far.
    """
    n = sched.n_qubits
    _check_phases(sched.target_time, params)
    frames, frame = [], 0
    for layer in sched.pulse_layers[:-1]:
        for q in layer:
            frame ^= 1 << (n - q)
        frames.append(frame)
    idx = np.arange(2**n) ^ np.array(frames, dtype=np.int64)[:, None]
    gates = _interval_instructions(params, sched.interval_duration, lowering)
    # walk[l, k]: the k-th diagonal gate's factor in interval l.  Multiplied in
    # this layer-major order, the product is that of a walk interval by interval.
    walk = np.empty((len(frames), sum(g.kind != "CNOT" for g in gates), 2**n), dtype=complex)
    k = 0
    for g in gates:
        d = ci.gate_matrix(g)
        if g.kind == "CNOT":  # the control bit flips the target bit
            idx ^= ((idx >> (n - g.qubits[0])) & 1) << (n - g.qubits[1])
        else:
            bits = (idx >> (n - g.qubits[-1])) & (len(d) - 1)
            walk[:, k] = (d if d.ndim == 1 else d.diagonal())[bits]
            k += 1
    return np.multiply.reduce(walk.reshape(-1, 2**n))


def apply_schedule(
    sched: PulseSchedule | ConjugatedSchedule,
    params: NmrParameters,
    u: np.ndarray,
    lowering: str = "opaque",
) -> np.ndarray:
    """The schedule's exact unitary times ``u``, a 2^n x k matrix.

    Per segment: the pre-gates (``circuit.apply``), the phase vector of
    ``_flat_phases`` as a row scale, the post-gates; O(2^n k) each.  The phase
    vector is computed once per distinct flat schedule: the two segments of an
    ``xy`` schedule share one ``zz`` schedule.
    """
    n = sched.n_qubits
    if params.n_qubits != n:
        raise ValueError("parameter set does not match schedule width")
    u = np.asarray(u, dtype=complex).reshape(2**n, -1)
    phases: dict[PulseSchedule, np.ndarray] = {}
    for seg in sched.segments:
        if seg.schedule not in phases:
            phases[seg.schedule] = _flat_phases(seg.schedule, params, lowering)[:, None]
        u = ci.apply_gates(seg.post, phases[seg.schedule] * ci.apply_gates(seg.pre, u))
    return u


def _largest_block_norm(a: np.ndarray) -> float:
    """Largest 2-norm of the stacked blocks ``a``: one ``svd``, or for 2 x 2 blocks the root
    of the Gram g = A^dag A's largest eigenvalue (g00 + g11)/2 + hypot((g00 - g11)/2, |g01|),
    in which nothing cancels.  Entries are squared unscaled, so the largest block's must be
    about 1e-150..1e150 in size; ``verify_schedule``'s, differences of unitaries, are <= 2."""
    if a.shape[-2:] != (2, 2):
        return float(np.linalg.svd(a, compute_uv=False).max())
    p = a.real**2 + a.imag**2
    g00, g11 = p[:, 0, 0] + p[:, 1, 0], p[:, 0, 1] + p[:, 1, 1]
    g01 = a[:, 0, 0].conj() * a[:, 0, 1] + a[:, 1, 0].conj() * a[:, 1, 1]
    return float(np.sqrt(((g00 + g11) / 2 + np.hypot((g00 - g11) / 2, np.abs(g01))).max()))


def verify_schedule(
    sched: PulseSchedule | ConjugatedSchedule,
    params: NmrParameters,
    lowering: str = "opaque",
) -> VerificationReport:
    """Reconstruct the scheduled unitary exactly and compare it to the target.

    Flat schedules are diagonal and the target and gates touch only the qubits
    Q, so U is block diagonal over the other qubits: ``apply_schedule`` on one
    2^n x 2^|Q| probe (the identity on Q for each configuration of the rest)
    yields every block at once.  After ``phase_align`` (phase from the target's
    first largest entry, in block 0) the report carries the operator-norm
    error, the largest over the blocks (closed-form for one touched qubit, else
    one ``svd``), and |tr(U^dag V)| / 2^n.  A coefficient the supplied
    parameters realize differently from the descriptor's is noted.
    Registers over 10 qubits are refused before any work.
    """
    n = sched.n_qubits
    check_unitary_register(n)
    kind, sites, coeff = parse_descriptor(sched.target)
    touched = sorted(set(sites).union(*(g.qubits for s in sched.segments for g in s.pre + s.post)))
    if not 1 <= touched[0] <= touched[-1] <= n:
        raise ValueError(f"qubits {touched} outside register 1..{n}")
    m = len(touched)
    order = [q - 1 for q in range(1, n + 1) if q not in touched] + [q - 1 for q in touched]
    rows = np.arange(2**n).reshape((2,) * n).transpose(order).reshape(-1, 2**m)
    probe = np.zeros((2**n, 2**m), dtype=complex)
    probe[rows, np.arange(2**m)] = 1.0
    u = apply_schedule(sched, params, probe, lowering)[rows]
    local = [touched.index(q) + 1 for q in sites]
    v = np.broadcast_to(ci.embed(term_exp(kind, coeff), local, m), u.shape)
    u = phase_align(u, v)
    err = _largest_block_norm(u - v)
    fid = float(abs(np.vdot(u, v))) / 2**n
    run_coeff = _coefficient(kind, sites, sched.target_time, params)
    note = ""
    if abs(run_coeff - coeff) > 1e-12 * max(1.0, abs(coeff)):
        note = (
            f"descriptor promises coefficient {coeff:.12g} but the supplied "
            f"parameters realize {run_coeff:.12g}"
        )
    return VerificationReport(
        target=sched.target,
        norm_error=err,
        fidelity=fid,
        passed=bool(err <= SCHEDULE_VERIFY_ATOL),
        coefficient=coeff,
        params_coefficient=run_coeff,
        note=note,
    )


# --- JSON serialization -------------------------------------------------------


def _gate_to_dict(g: ci.Gate) -> dict:
    d: dict = {"kind": g.kind, "qubits": list(g.qubits)}
    if g.angle is not None:
        d["angle"] = g.angle
    return d


def _gate_from_dict(d, where: str) -> ci.Gate:
    _json_object(d, where, {"kind", "qubits"}, {"angle"})
    kind = _json(d["kind"], "a string", f"{where}.kind")
    angle = float(_json(d["angle"], "a finite number", f"{where}.angle")) if "angle" in d else None
    return _build(ci.Gate, where, kind, _json_ints(d["qubits"], f"{where}.qubits"), angle)


def _gates_from_list(values, where: str) -> tuple[ci.Gate, ...]:
    return tuple(_gate_from_dict(g, at) for g, at in _json_list(values, where))


def _check_duration(duration: float, where: str) -> None:
    """Refuse a negative interval duration: the writer and the reader share the rule."""
    if duration < 0:
        raise ConfigError(f"{where}.interval_duration is negative; no pulse sequence runs backward")


def _flat_dict(s: PulseSchedule, where: str) -> dict:
    _check_duration(s.interval_duration, where)
    return {
        "n_qubits": s.n_qubits,
        "interval_duration": s.interval_duration,
        "intervals": s.intervals,
        "pulse_layers": [list(layer) for layer in s.pulse_layers],
        "target": s.target,
    }


def _flat_from_dict(d, where: str) -> PulseSchedule:
    required = {"n_qubits", "interval_duration", "pulse_layers"}
    _json_object(d, where, required, {"intervals", "target"})
    layers = _json_list(d["pulse_layers"], f"{where}.pulse_layers")
    duration = float(_json(d["interval_duration"], "a finite number", f"{where}.interval_duration"))
    _check_duration(duration, where)
    s = _build(
        PulseSchedule, where,
        _json(d["n_qubits"], "an integer", f"{where}.n_qubits"),
        duration,
        tuple(_json_ints(layer, at) for layer, at in layers),
        _json(d.get("target", ""), "a string", f"{where}.target"),
    )
    intervals = d.get("intervals", s.intervals)
    if _json(intervals, "an integer", f"{where}.intervals") != s.intervals:
        raise ConfigError(f"{where}.intervals does not match the pulse layers")
    return s


def schedule_to_json(sched: PulseSchedule | ConjugatedSchedule) -> str:
    """The document ``schedule_from_json`` reads; it too refuses a negative interval duration."""
    if isinstance(sched, PulseSchedule):
        return json.dumps(_flat_dict(sched, "schedule"), indent=2) + "\n"
    segments = [{"pre": [_gate_to_dict(g) for g in seg.pre],
                 "schedule": _flat_dict(seg.schedule, f"schedule.segments[{i}].schedule"),
                 "post": [_gate_to_dict(g) for g in seg.post]}
                for i, seg in enumerate(sched.segments)]
    doc = {"n_qubits": sched.n_qubits, "target": sched.target, "segments": segments}
    return json.dumps(doc, indent=2) + "\n"


def schedule_from_json(text: str) -> PulseSchedule | ConjugatedSchedule:
    """Parse a schedule document, naming the path of any missing, unknown or mistyped
    field, and of a gate or schedule whose record refuses it."""
    doc = _json(json.loads(text), "an object", "schedule")
    if "segments" not in doc:
        return _flat_from_dict(doc, "schedule")
    _json_object(doc, "schedule", {"n_qubits", "target", "segments"})
    segments = []
    for seg, at in _json_list(doc["segments"], "schedule.segments"):
        _json_object(seg, at, {"pre", "schedule", "post"})
        pre = _gates_from_list(seg["pre"], f"{at}.pre")
        flat = _flat_from_dict(seg["schedule"], f"{at}.schedule")
        segments.append(Segment(pre, flat, _gates_from_list(seg["post"], f"{at}.post")))
    n = _json(doc["n_qubits"], "an integer", "schedule.n_qubits")
    target = _json(doc["target"], "a string", "schedule.target")
    return _build(ConjugatedSchedule, "schedule", n, target, tuple(segments))
