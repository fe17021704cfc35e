"""Pulse compiler: X-pulse re/decoupling schedules for the Ising chain.

The simulator Hamiltonian H_NMR is diagonal, so conjugating an evolution
interval by X pulses flips the signs of the Z terms on the pulsed qubits.  A
schedule is described by a sign matrix S (rows = qubits, columns = equal-time
intervals): interval k evolves under H_NMR with Z_l replaced by S[l,k] Z_l.
Because all interval Hamiltonians commute, the net evolution is

    exp(-i * Delta * [ sum_l (omega_l/2) (sum_k S[l,k]) Z_l
                     + sum_l J_l (sum_k S[l,k] S[l+1,k]) Z_l Z_{l+1} ])

with Delta the interval duration.  Decoupling keeps one row unbalanced (the
target's, all +1) and cancels everything else; recoupling gives a pair of
adjacent qubits equal rows so only their ZZ coupling survives.  Sign matrices
are synthesized from Sylvester Hadamard matrices, whose rows are mutually
orthogonal and (beyond the first) balanced.

Compiled artifacts also come in a compact four-interval form, built from a
parity assignment of the +/- pattern instead of full Hadamard rows.  It
realizes the same targets with two alternating pulse layers:

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

``verify_schedule`` reconstructs a schedule's unitary exactly, without a
2^n x 2^n matrix: a flat schedule is a phase vector, and a conjugated one is
block diagonal over the qubits that its gates and its target leave alone.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import circuit as ci
from .hamiltonians import TERMS, NmrParameters, nmr_diagonal
from .qcore import SCHEDULE_VERIFY_ATOL, matexp_hermitian, phase_align
from .qcore import pauli_embed  # noqa: F401  (benchmarks/tracing.py patches it here)

__all__ = [
    "hadamard_matrix",
    "decoupling_sign_matrix",
    "recoupling_sign_matrix",
    "check_decoupling_sign_matrix",
    "check_recoupling_sign_matrix",
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
    "parse_descriptor",
    "target_unitary",
    "VerificationReport",
    "verify_schedule",
    "schedule_to_json",
    "schedule_from_json",
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


def _hadamard_for(n: int) -> np.ndarray:
    if n > 8:
        raise ValueError("sign matrices support at most 8 qubits")
    k = max(0, math.ceil(math.log2(n)))
    return hadamard_matrix(k)


def decoupling_sign_matrix(n: int, target: int) -> np.ndarray:
    """Sign matrix decoupling everything except the Z term of ``target``.

    Row ``target`` is the all-+1 Hadamard row; the other qubits take the
    remaining rows in ascending order (for target = 1 this is simply the
    Hadamard matrix with its last rows dropped).
    """
    if not 1 <= target <= n:
        raise ValueError(f"target {target} outside 1..{n}")
    h = _hadamard_for(n)
    # insert the all-+ row at position target, shift earlier rows down by one
    rows = []
    for q in range(1, n + 1):
        if q == target:
            rows.append(h[0])
        elif q < target:
            rows.append(h[q])
        else:
            rows.append(h[q - 1])
    return np.array(rows, dtype=int)


def recoupling_sign_matrix(n: int, pair: tuple[int, int]) -> np.ndarray:
    """Sign matrix keeping only the ZZ coupling of ``pair`` (rows equal).

    The pair shares the second Hadamard row; every other qubit takes one of
    the remaining balanced rows in ascending order.
    """
    i, j = pair
    if not 1 <= i < j <= n:
        raise ValueError(f"bad pair {pair} for {n} qubits")
    h = _hadamard_for(n)
    rows = []
    nxt = 2  # next unused 0-based Hadamard row
    for q in range(1, n + 1):
        if q in (i, j):
            rows.append(h[1])
        else:
            rows.append(h[nxt])
            nxt += 1
    return np.array(rows, dtype=int)


def _check_signs(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s)
    if s.ndim != 2 or not np.all(np.abs(s) == 1):
        raise ValueError("sign matrix must be 2-d with entries +-1")
    return s.astype(int)


def check_decoupling_sign_matrix(s: np.ndarray, target: int) -> None:
    """Raise unless s decouples everything but the target's Z term."""
    s = _check_signs(s)
    n = s.shape[0]
    if not np.all(s[target - 1] == 1):
        raise ValueError("target row must be all +1")
    for q in range(n):
        if q != target - 1 and s[q].sum() != 0:
            raise ValueError(f"row {q + 1} is not balanced")
    for q in range(n - 1):
        if int(s[q] @ s[q + 1]) != 0:
            raise ValueError(f"rows {q + 1},{q + 2} are not orthogonal")


def check_recoupling_sign_matrix(s: np.ndarray, pair: tuple[int, int]) -> None:
    """Raise unless s recouples exactly the ZZ term of ``pair``."""
    s = _check_signs(s)
    n, m = s.shape
    i, j = pair
    if np.any(s.sum(axis=1) != 0):
        raise ValueError("all rows must be balanced")
    if not np.all(s[i - 1] == s[j - 1]):
        raise ValueError("pair rows must be equal")
    for q in range(n - 1):
        if (q + 1, q + 2) == (i, j):
            continue
        if int(s[q] @ s[q + 1]) != 0:
            raise ValueError(f"rows {q + 1},{q + 2} are not orthogonal")


def effective_coefficients(
    s: np.ndarray, params: NmrParameters, interval_duration: float
) -> tuple[np.ndarray, np.ndarray]:
    """Algebraic predictor of the net evolution exponent.

    Returns (z, zz) with z[l] the coefficient of Z_{l+1} and zz[l] the
    coefficient of Z_{l+1} Z_{l+2} in the exponent -i * (...) of the
    scheduled evolution.
    """
    s = _check_signs(s)
    z = 0.5 * params.omega * interval_duration * s.sum(axis=1)
    zz = params.j * interval_duration * np.einsum("ik,ik->i", s[:-1], s[1:])
    return z, zz


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
    """A pulse schedule wrapped in single-qubit basis-change gates."""

    pre: tuple[ci.Gate, ...]
    schedule: PulseSchedule
    post: tuple[ci.Gate, ...]


@dataclass(frozen=True)
class ConjugatedSchedule:
    """Composite target realized by conjugated ZZ segments (XX+YY lowering)."""

    n_qubits: int
    target: str
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a conjugated schedule needs at least one segment")

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
    s = _check_signs(s)
    n, m = s.shape
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

    Sites are comma-separated runs of ASCII digits, the form ``_descriptor`` writes.
    """
    kind, _, sites_s = spec.partition(":")
    parts = sites_s.split(",")
    sites = tuple(map(int, parts)) if all(t.isascii() and t.isdigit() for t in parts) else ()
    if kind not in TERMS or len(TERMS[kind]) != 2 ** len(sites):
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
    return ci.embed(matexp_hermitian(TERMS[kind], -1j * coeff), sites, n_qubits)


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


def _parity_column(n: int, equal_after: int | None) -> np.ndarray:
    """+-1 pattern alternating along the chain, optionally not flipping once."""
    a = np.empty(n, dtype=int)
    a[0] = 1
    for q in range(1, n):
        a[q] = a[q - 1] if equal_after is not None and q == equal_after else -a[q - 1]
    return a


def compile_single_z(l: int, tau: float, params: NmrParameters) -> PulseSchedule:
    """Compact four-interval schedule for u_z = exp(-i (tau/2) omega_l Z_l).

    Columns are (a, a*b, b, 1) with b = -1 off the target and a = -1 on the
    qubits of the target's parity class, i.e. [U X_{j!=l} U X_{parity}]^2.
    """
    n = params.n_qubits
    if not 1 <= l <= n:
        raise ValueError(f"target qubit {l} outside 1..{n}")
    a = np.ones(n, dtype=int)
    b = -np.ones(n, dtype=int)
    b[l - 1] = 1
    for q in range(1, n + 1):
        if q != l and (q - l) % 2 == 0:
            a[q - 1] = -1
    s = np.column_stack([a, a * b, b, np.ones(n, dtype=int)])
    check_decoupling_sign_matrix(s, l)
    return schedule_from_sign_matrix(s, tau, _descriptor("z", (l,), tau, params))


def compile_zz(pair: tuple[int, int], tau: float, params: NmrParameters) -> PulseSchedule:
    """Compact four-interval schedule for exp(-i tau J_l Z_l Z_{l+1})."""
    n = params.n_qubits
    l, r = pair
    if r != l + 1 or not 1 <= l < n:
        raise ValueError(
            f"pair {pair} is not a nearest-neighbour bond of the {n}-qubit chain; "
            "only chain couplings J_l exist to recouple"
        )
    a = _parity_column(n, equal_after=l)
    b = -np.ones(n, dtype=int)
    s = np.column_stack([a, a * b, b, np.ones(n, dtype=int)])
    check_recoupling_sign_matrix(s, pair)
    return schedule_from_sign_matrix(s, tau, _descriptor("zz", pair, tau, params))


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
    """Schedule for exp(-i coeff TERMS[kind]) on ``sites``, a ``parse_target`` pair."""
    _check_phases(tau, params)
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
    """Lower a schedule to a circuit.

    ``opaque`` emits each interval as one UNITARY phase vector (exact, used by
    the ``compiled-pulses`` step); ``gates`` decomposes intervals into RZ
    singles and CNOT-RZ-CNOT bond factors (the default for export).
    """
    if isinstance(sched, ConjugatedSchedule):
        ins: list[ci.Gate] = []
        for seg in sched.segments:
            ins.extend(seg.pre)
            ins.extend(schedule_program(seg.schedule, params, lowering).instructions)
            ins.extend(seg.post)
        return ci.Program(sched.n_qubits, tuple(ins))
    if params.n_qubits != sched.n_qubits:
        raise ValueError("parameter set does not match schedule width")
    _check_phases(sched.target_time, params)
    interval = _interval_instructions(params, sched.interval_duration, lowering)
    ins = []
    for k, layer in enumerate(sched.pulse_layers):
        ins.extend(ci.x(q) for q in layer)
        if k < sched.intervals:
            ins.extend(interval)
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
    """
    n = sched.n_qubits
    _check_phases(sched.target_time, params)
    walk = []
    for g in _interval_instructions(params, sched.interval_duration, lowering):
        d = ci.gate_matrix(g)
        if g.kind == "CNOT":  # the control bit flips the target bit
            walk.append((n - g.qubits[0], 1, n - g.qubits[1], None))
        else:
            walk.append((n - g.qubits[-1], len(d) - 1, 0, d if d.ndim == 1 else d.diagonal()))
    idx = np.arange(2**n)
    phase = np.ones(2**n, dtype=complex)
    for layer in sched.pulse_layers[:-1]:
        for q in layer:
            idx ^= 1 << (n - q)
        for shift, mask, target, diagonal in walk:
            bits = (idx >> shift) & mask
            if diagonal is None:
                idx ^= bits << target
            else:
                phase *= diagonal[bits]
    return phase


def verify_schedule(
    sched: PulseSchedule | ConjugatedSchedule,
    params: NmrParameters,
    lowering: str = "opaque",
) -> VerificationReport:
    """Reconstruct the scheduled unitary exactly and compare it to the target.

    Each flat schedule is a phase vector (``_flat_phases``), and the target and
    the conjugating gates act only on the qubits they touch, so both unitaries
    are block diagonal over the configurations of the other qubits and no
    2^n x 2^n matrix is built.  After ``phase_align`` (phase from the target's
    first largest entry, in block 0) the report carries the operator-norm
    error, the largest over the blocks, and |tr(U^dag V)| / 2^n.  A coefficient
    the supplied parameters realize differently from the descriptor's is noted.
    Registers over 10 qubits are refused before any work.
    """
    n = sched.n_qubits
    ci.check_unitary_register(n)
    kind, sites, coeff = parse_descriptor(sched.target)
    flat = isinstance(sched, PulseSchedule)
    segments = (Segment((), sched, ()),) if flat else sched.segments
    if params.n_qubits != n or any(s.schedule.n_qubits != n for s in segments):
        raise ValueError("parameter set does not match schedule width")
    touched = sorted(set(sites).union(*(g.qubits for s in segments for g in s.pre + s.post)))
    if not 1 <= touched[0] <= touched[-1] <= n:
        raise ValueError(f"qubits {touched} outside register 1..{n}")
    local = {q: i for i, q in enumerate(touched, 1)}
    m = len(touched)
    order = [q - 1 for q in range(1, n + 1) if q not in local] + [q - 1 for q in touched]

    def place(op: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
        return ci.embed(op, [local[q] for q in qubits], m)

    u = np.eye(2**m, dtype=complex)
    for seg in segments:
        for g in seg.pre:
            u = place(ci.gate_matrix(g), g.qubits) @ u
        phases = _flat_phases(seg.schedule, params, lowering)
        u = phases.reshape((2,) * n).transpose(order).reshape(-1, 2**m, 1) * u
        for g in seg.post:
            u = place(ci.gate_matrix(g), g.qubits) @ u
    v = np.broadcast_to(place(matexp_hermitian(TERMS[kind], -1j * coeff), sites), u.shape)
    u = phase_align(u, v)
    err = float(np.linalg.norm(u - v, 2, axis=(1, 2)).max())
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


_JSON_TYPES = {"an integer": (int,), "a finite number": (int, float), "a string": (str,)}


def _json(value, kind: str, where: str):
    """``value`` if it is JSON ``kind``, a key of ``_JSON_TYPES`` (never a boolean)."""
    types = _JSON_TYPES[kind]
    if type(value) not in types or float in types and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where} must be {kind}")
    return value


def _json_ints(values, where: str) -> tuple[int, ...]:
    return tuple(_json(q, "an integer", where) for q in values)


def _gate_from_dict(d: dict) -> ci.Gate:
    kind = _json(d["kind"], "a string", "gate kind")
    angle = float(_json(d["angle"], "a finite number", "gate angle")) if "angle" in d else None
    return ci.Gate(kind, _json_ints(d["qubits"], "gate qubit"), angle)


def _flat_dict(s: PulseSchedule) -> dict:
    return {
        "n_qubits": s.n_qubits,
        "interval_duration": s.interval_duration,
        "intervals": s.intervals,
        "pulse_layers": [list(layer) for layer in s.pulse_layers],
        "target": s.target,
    }


def _flat_from_dict(d: dict) -> PulseSchedule:
    known = {"n_qubits", "interval_duration", "intervals", "pulse_layers", "target"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown schedule keys {sorted(unknown)}")
    s = PulseSchedule(
        _json(d["n_qubits"], "an integer", "n_qubits"),
        float(_json(d["interval_duration"], "a finite number", "interval_duration")),
        tuple(_json_ints(layer, "pulse layer entry") for layer in d["pulse_layers"]),
        _json(d.get("target", ""), "a string", "target"),
    )
    if "intervals" in d and _json(d["intervals"], "an integer", "intervals") != s.intervals:
        raise ValueError("interval count does not match pulse layers")
    return s


def schedule_to_json(sched: PulseSchedule | ConjugatedSchedule) -> str:
    if isinstance(sched, PulseSchedule):
        return json.dumps(_flat_dict(sched), indent=2) + "\n"
    doc = {
        "n_qubits": sched.n_qubits,
        "target": sched.target,
        "segments": [
            {
                "pre": [_gate_to_dict(g) for g in seg.pre],
                "schedule": _flat_dict(seg.schedule),
                "post": [_gate_to_dict(g) for g in seg.post],
            }
            for seg in sched.segments
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def schedule_from_json(text: str) -> PulseSchedule | ConjugatedSchedule:
    doc = json.loads(text)
    if "segments" not in doc:
        return _flat_from_dict(doc)
    unknown = set(doc) - {"n_qubits", "target", "segments"}
    if unknown:
        raise ValueError(f"unknown schedule keys {sorted(unknown)}")
    segments = tuple(
        Segment(
            tuple(_gate_from_dict(g) for g in seg["pre"]),
            _flat_from_dict(seg["schedule"]),
            tuple(_gate_from_dict(g) for g in seg["post"]),
        )
        for seg in doc["segments"]
    )
    n = _json(doc["n_qubits"], "an integer", "n_qubits")
    return ConjugatedSchedule(n, _json(doc["target"], "a string", "target"), segments)
