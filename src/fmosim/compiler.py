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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import circuit as ci
from .hamiltonians import TERMS, NmrParameters, nmr_diagonal
from .qcore import SCHEDULE_VERIFY_ATOL, average_gate_overlap, matexp_hermitian, phase_align
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
        counts = np.zeros(self.n_qubits, dtype=int)
        for layer in layers:
            for q in layer:
                if not 1 <= q <= self.n_qubits:
                    raise ValueError(f"pulsed qubit {q} outside register")
                counts[q - 1] += 1
        if np.any(counts % 2):
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
    """Split a target 'kind:sites' into a ``TERMS`` kind and its 1-based sites."""
    kind, _, sites_s = spec.partition(":")
    try:
        sites = tuple(int(t) for t in sites_s.split(","))
    except ValueError:
        sites = ()
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
    n = params.n_qubits
    if lowering == "opaque":
        ci.check_unitary_register(n)  # before the 2^n x 2^n diagonal is allocated
        u = np.diag(np.exp(-1j * delta * nmr_diagonal(params)))
        return (ci.unitary_gate(u, tuple(range(1, n + 1))),)
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

    ``opaque`` emits each interval as one explicit diagonal unitary block
    (exact, the default for verification); ``gates`` decomposes intervals
    into RZ singles and CNOT-RZ-CNOT bond factors (the default for export).
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


def verify_schedule(
    sched: PulseSchedule | ConjugatedSchedule,
    params: NmrParameters,
    lowering: str = "opaque",
) -> VerificationReport:
    """Reconstruct the scheduled unitary and compare it to the target.

    The comparison is phase-aligned on the largest entry of the target; the
    report carries the operator-norm error and |tr(U^dag V)| / 2^n.  If the
    supplied parameters imply a different effective coefficient than the one
    recorded in the target descriptor, the mismatch is noted (and will
    generally show up as a failure).  Registers over 10 qubits are refused by
    ``circuit.embed``, which builds the target before anything else is built.
    """
    kind, sites, coeff = parse_descriptor(sched.target)
    v = target_unitary(sched.target, sched.n_qubits)
    u = ci.unitary_of(schedule_program(sched, params, lowering))
    u = phase_align(u, v)
    err = float(np.linalg.norm(u - v, 2))
    fid = average_gate_overlap(u, v)
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


def _gate_from_dict(d: dict) -> ci.Gate:
    return ci.Gate(d["kind"], tuple(d["qubits"]), d.get("angle"))


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
        int(d["n_qubits"]),
        float(d["interval_duration"]),
        tuple(tuple(layer) for layer in d["pulse_layers"]),
        str(d.get("target", "")),
    )
    if "intervals" in d and int(d["intervals"]) != s.intervals:
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
    return ConjugatedSchedule(int(doc["n_qubits"]), str(doc["target"]), segments)
