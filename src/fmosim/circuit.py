"""A small gate-level circuit IR with simulators and text serialization.

Instructions are either unitary gates (X, H, RX, RY, RZ, CZ, CNOT and opaque
UNITARY blocks), a single-qubit Kraus channel placed on one qubit, or a
measure-and-discard of one qubit (dephase in the computational basis, then
trace out; the reduced state of the survivors is the same either way, so it is
implemented as a partial trace).  Qubit 1 is the most significant bit of a
basis index.

``KrausChannel`` is the one channel type of the package: ``KrausApply`` only
places it on a qubit, and ``fmosim.channels`` builds the physical channels as
instances of it.  Its CPTP status and completeness deficit are always
computed from the operators.  Applying a channel whose status is
``violated`` (``run_density``, ``channels.apply_kraus``) raises unless the
caller passes ``allow_noncptp``, and then logs a warning.  Behind that gate
``operator_sum`` is the one place the sum K rho K^dag is taken.

The text format is line based: ``GATE(angle) qubits...`` with 1-based qubit
indices, ``MEASURE_DISCARD q``, ``#`` comments, and ``UNITARY q... :`` (1 to
10 qubits) / ``KRAUS q key=value... :`` headers followed by row-major complex
matrix rows.  A KRAUS header carries ``ops=<count>``, the derived
``cptp=<status>`` (a value that disagrees with the operators is a parse
error), ``angles=<alpha>,<beta>`` when the channel has them, each key at most
once, and ends with ``provenance=<text>``.  Angles and matrix entries
are printed with 17 significant digits so that exporting a parsed program
gives back the same bytes.  ``parse_text`` walks the numbered non-blank lines
with one iterator, from which a header takes its matrix rows, and hands each
line's instruction to ``Program`` as it reads it.  So every refusal from the
``QUBITS`` header on names its line, ``Program``'s qubit count, range and
discard checks included, or for a matrix row its header's line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence, Union

import numpy as np

from .qcore import CPTP_VERIFIED_ATOL, SX, UNITARY_ATOL, _read_only, is_unitary
from .qcore import check_unitary_register, parse_basis_label

__all__ = [
    "Gate",
    "KrausChannel",
    "completeness_deficit",
    "KrausApply",
    "MeasureAndDiscard",
    "Program",
    "x",
    "h",
    "rx",
    "ry",
    "rz",
    "cz",
    "cnot",
    "unitary_gate",
    "gate_matrix",
    "run_statevector",
    "run_density",
    "operator_sum",
    "unitary_of",
    "apply",
    "apply_gates",
    "embed",
    "partial_trace",
    "export_text",
    "parse_text",
]

# The gate vocabulary: kind -> (qubit count, read-only matrix, or a function from angle to matrix).
_GATES = {
    "X": (1, SX),
    "H": (1, _read_only(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0))),
    "RX": (1, lambda t: np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                                  [-1j * math.sin(t / 2), math.cos(t / 2)]])),
    "RY": (1, lambda t: np.array([[math.cos(t / 2), -math.sin(t / 2)],
                                  [math.sin(t / 2), math.cos(t / 2)]], dtype=complex)),
    "RZ": (1, lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])),
    "CZ": (2, _read_only(np.diag([1.0, 1.0, 1.0, -1.0]), complex)),
    "CNOT": (2, _read_only([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], complex)),
}


@dataclass(frozen=True, eq=False)
class Gate:
    """One unitary instruction.  ``matrix``, for kind UNITARY only, is 2^k x 2^k or its diagonal."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.kind == "UNITARY":
            if not self.qubits:
                raise ValueError("UNITARY gate needs at least one qubit")
            m = _read_only(self.matrix, complex)
            dim = 2 ** len(self.qubits)
            if m.shape not in ((dim,), (dim, dim)):
                raise ValueError("UNITARY matrix shape does not match qubit count")
            if not (np.abs(np.abs(m) - 1).max() <= UNITARY_ATOL if m.ndim == 1 else is_unitary(m)):
                raise ValueError("UNITARY block is not unitary")
            object.__setattr__(self, "matrix", m)
        else:
            if self.kind not in _GATES:
                raise ValueError(f"unknown gate kind {self.kind!r}")
            arity, matrix = _GATES[self.kind]
            if len(self.qubits) != arity:
                raise ValueError(f"{self.kind} expects {arity} qubit(s)")
            if callable(matrix) != (self.angle is not None):
                raise ValueError(f"bad angle for {self.kind}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("repeated qubit in gate")


def completeness_deficit(ops: tuple[np.ndarray, ...]) -> float:
    """Max-norm of sum_k K_k^dag K_k - I (zero for a CPTP operator sum)."""
    acc = sum(k.conj().T @ k for k in ops)
    return float(np.abs(acc - np.eye(acc.shape[0])).max())


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Single-qubit operator-sum channel with its derived CPTP status.

    ``deficit`` is ``completeness_deficit(ops)`` and ``cptp`` is
    ``verified`` when it is at most ``CPTP_VERIFIED_ATOL``, else
    ``violated``.  ``angles`` holds (alpha, beta) when the channel comes
    from the diag/antidiag family, which is what the circuit realization
    needs.  ``provenance`` is one printable line without ``#``, so that the
    text format carries it.  ``ops`` holds read-only copies of the operators given.
    """

    ops: tuple[np.ndarray, ...]
    provenance: str
    angles: tuple[float, float] | None = None
    cptp: str = field(init=False)
    deficit: float = field(init=False)

    def __post_init__(self):
        ops = tuple(_read_only(k, complex) for k in self.ops)
        if not ops or any(k.shape != (2, 2) for k in ops):
            raise ValueError("Kraus operators must be 2x2 matrices")
        if not self.provenance.isprintable() or "#" in self.provenance:
            raise ValueError(f"provenance {self.provenance!r} is not one printable line without #")
        deficit = completeness_deficit(ops)
        status = "verified" if deficit <= CPTP_VERIFIED_ATOL else "violated"
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "deficit", deficit)
        object.__setattr__(self, "cptp", status)


@dataclass(frozen=True)
class KrausApply:
    """Apply ``channel`` to ``qubit``."""

    qubit: int
    channel: KrausChannel


@dataclass(frozen=True)
class MeasureAndDiscard:
    """Trace out ``qubit``; remaining qubits above it shift down by one."""

    qubit: int


Instruction = Union[Gate, KrausApply, MeasureAndDiscard]


@dataclass(frozen=True)
class Program:
    """``n_qubits`` and the instructions, taken from any iterable into a tuple.  Each one is
    checked against the live register as it is taken (so ``parse_text`` names its line)."""

    n_qubits: int
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        live, taken = self.n_qubits, []
        for ins in self.instructions:
            qs = ins.qubits if isinstance(ins, Gate) else (ins.qubit,)
            if min(qs) < 1 or max(qs) > live:
                raise ValueError(f"qubit out of range in {ins}")
            if isinstance(ins, MeasureAndDiscard):
                live -= 1
                if live == 0:
                    raise ValueError("cannot discard the last remaining qubit")
            taken.append(ins)
        object.__setattr__(self, "instructions", tuple(taken))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def h(q: int) -> Gate:
    return Gate("H", (q,))


def rx(theta: float, q: int) -> Gate:
    return Gate("RX", (q,), float(theta))


def ry(theta: float, q: int) -> Gate:
    return Gate("RY", (q,), float(theta))


def rz(theta: float, q: int) -> Gate:
    return Gate("RZ", (q,), float(theta))


def cz(q1: int, q2: int) -> Gate:
    return Gate("CZ", (q1, q2))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def unitary_gate(matrix: np.ndarray, qubits: Sequence[int]) -> Gate:
    return Gate("UNITARY", tuple(qubits), matrix=matrix)


def gate_matrix(g: Gate) -> np.ndarray:
    """Local unitary of a gate on its qubits (row = qubit order as listed) or its phase vector."""
    if g.kind == "UNITARY":
        return g.matrix
    matrix = _GATES[g.kind][1]
    return matrix(g.angle) if callable(matrix) else matrix


# --- simulators -------------------------------------------------------------
#
# One kernel, ``apply``, places every local operator on a 2^n x k matrix.  It
# views the matrix as a tensor with one axis per qubit (qubit 1 first) and one
# for the k columns, moves the target axes next to each other at the position
# of the first of them, multiplies the contiguous (2^lo, 2^k, rest) view by the
# 2^k x 2^k operator with one matmul (a phase vector elementwise), and moves the
# axes back; for ascending neighbours (a 1-qubit gate, CNOT l,l+1, a phase
# vector on all qubits) both moves are no-ops and are skipped.  ``apply_gates`` is the
# one gate loop.  A density matrix stays 2^n x 2^n: ``operator_sum`` takes
# K rho K^dag as (K (K rho)^dag)^dag, two calls of ``apply``, and ``run_density``
# sends gates and Kraus channels alike through it.


def apply(op: np.ndarray, qubits: Sequence[int], u: np.ndarray) -> np.ndarray:
    """``op`` placed on ``qubits`` times ``u``, a 2^n x k array; a 1-d ``op`` is a phase vector.
    Ascending neighbouring ``qubits`` skip both ``moveaxis`` calls."""
    n, qubits = len(u).bit_length() - 1, tuple(qubits)
    if len(u) != 1 << n or len(set(qubits)) != len(qubits) or any(not 1 <= q <= n for q in qubits):
        raise ValueError(f"qubits {qubits} are repeated or outside register 1..{n}")
    k, axes = len(qubits), [q - 1 for q in qubits]
    lo = min(axes)
    block = list(range(lo, lo + k))
    moved = axes != block
    t = np.moveaxis(u.reshape((2,) * n + (-1,)), axes, block) if moved else u
    t3 = t.reshape(2**lo, 2**k, -1)
    out = op[:, None] * t3 if op.ndim == 1 else np.matmul(op, t3)
    return (np.moveaxis(out.reshape(t.shape), block, axes) if moved else out).reshape(len(u), -1)


def apply_gates(gates: Sequence[Instruction], u: np.ndarray) -> np.ndarray:
    """The unitary of ``gates``, applied in order, times the 2^n x k matrix ``u``."""
    for g in gates:
        if not isinstance(g, Gate):
            raise ValueError("only unitary gates can be applied to a state or matrix")
        u = apply(gate_matrix(g), g.qubits, u)
    return u


def embed(op: np.ndarray, qubits: Sequence[int], n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the local operator ``op`` acting on ``qubits``."""
    check_unitary_register(n)
    return apply(op, qubits, np.eye(2**n, dtype=complex))


def run_statevector(program: Program, init: str | int | np.ndarray = 0) -> np.ndarray:
    """Evolve a pure state through a unitary-only program."""
    n = program.n_qubits
    if isinstance(init, (str, int)):
        psi = parse_basis_label(init, n)
    else:
        psi = np.asarray(init, dtype=complex).reshape(2**n)
        if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
            raise ValueError("initial state is not normalized")
    return apply_gates(program.instructions, psi[:, None]).reshape(2**n)


def run_density(
    program: Program, rho0: np.ndarray, allow_noncptp: bool = False
) -> np.ndarray:
    """Evolve a 2^n x 2^n density matrix through gates, Kraus channels and discards.

    A gate (its matrix or phase vector) and a channel (its Kraus operators)
    both go through ``operator_sum``; a discard is a partial trace.  A channel
    whose CPTP status is ``violated`` raises unless ``allow_noncptp`` is
    passed; it is then applied with a logged warning, and the caller owns the
    interpretation of the trace-changing output.
    """
    n = program.n_qubits
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (2**n, 2**n):
        raise ValueError(f"density matrix must be {2**n}x{2**n}")
    for ins in program.instructions:
        if isinstance(ins, MeasureAndDiscard):
            rho = partial_trace(rho, [q for q in range(1, n + 1) if q != ins.qubit], n)
            n -= 1
            continue
        if isinstance(ins, Gate):
            ops, qubits = (gate_matrix(ins),), ins.qubits
        else:
            ch = ins.channel
            if ch.cptp == "violated":
                if not allow_noncptp:
                    raise ValueError(
                        f"channel {ch.provenance!r} violates CPTP (completeness deficit "
                        f"{ch.deficit:.3g}); pass allow_noncptp=True to apply it anyway"
                    )
                import logging  # loaded by a non-CPTP channel's application only

                logging.getLogger(__name__).warning(
                    "applying non-trace-preserving channel %r (deficit %.3g); "
                    "the output trace will drift",
                    ch.provenance,
                    ch.deficit,
                )
            ops, qubits = ch.ops, (ins.qubit,)
        rho = operator_sum(rho, ops, qubits)
    return rho


def operator_sum(
    rho: np.ndarray, ops: Sequence[np.ndarray], qubits: Sequence[int] = (1,)
) -> np.ndarray:
    """sum_k K_k rho K_k^dag, each K_k placed on ``qubits`` of a 2^n x 2^n rho.

    Each K_k is a matrix or a phase vector, as in ``apply``, and each term is
    taken as (K_k (K_k rho)^dag)^dag, so both sides go through ``apply``.
    The operator sum alone, with no CPTP check: ``run_density`` calls it
    after its gate on ``violated`` channels, and a diagnostic that must see
    a non-CPTP channel's action (``channels.bloch_map``) calls it directly.
    """
    return sum(apply(k, qubits, apply(k, qubits, rho).conj().T).conj().T for k in ops)


def unitary_of(program: Program) -> np.ndarray:
    """Dense unitary of a gate-only program (register capped at 10 qubits)."""
    check_unitary_register(program.n_qubits)
    return apply_gates(program.instructions, np.eye(2**program.n_qubits, dtype=complex))


def partial_trace(rho: np.ndarray, keep: Sequence[int], n: int) -> np.ndarray:
    """Reduced density matrix on the 1-based qubits ``keep``, in the order ``keep`` lists them."""
    keep = tuple(keep)
    if len(set(keep)) != len(keep) or any(not 1 <= q <= n for q in keep):
        raise ValueError("bad keep set")
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * n))
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = list(letters[:n])
    col = [letters[n + j] if (j + 1) in keep else row[j] for j in range(n)]
    out = "".join(row[q - 1] for q in keep) + "".join(col[q - 1] for q in keep)
    k = len(keep)
    return np.einsum("".join(row + col) + "->" + out, t).reshape(2**k, 2**k)


# --- text serialization -----------------------------------------------------


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _fmt_matrix_rows(m: np.ndarray, indent: str = "  ") -> list[str]:
    return [indent + " ".join(_fmt_complex(z) for z in row) for row in m]


def _instruction_lines(ins: Instruction) -> list[str]:
    if isinstance(ins, KrausApply):
        ch = ins.channel
        head = f"KRAUS {ins.qubit} ops={len(ch.ops)} cptp={ch.cptp}"
        if ch.angles is not None:
            head += " angles={:.17g},{:.17g}".format(*ch.angles)
        return [f"{head} provenance={ch.provenance} :"] + sum(map(_fmt_matrix_rows, ch.ops), [])
    if isinstance(ins, MeasureAndDiscard):
        return [f"MEASURE_DISCARD {ins.qubit}"]
    targets = " ".join(str(q) for q in ins.qubits)
    if ins.kind == "UNITARY":
        check_unitary_register(len(ins.qubits))  # a phase vector is written dense
        m = ins.matrix
        return [f"UNITARY {targets} :"] + _fmt_matrix_rows(np.diag(m) if m.ndim == 1 else m)
    angle = "" if ins.angle is None else f"({ins.angle:.17g})"
    return [f"{ins.kind}{angle} {targets}"]


def export_text(program: Program) -> str:
    """The program as text.  Each distinct instruction object is formatted once:
    a schedule's program repeats the same interval gates in every interval."""
    lines = [f"# fmosim circuit, {program.n_qubits} qubit(s)", f"QUBITS {program.n_qubits}"]
    formatted: dict[int, list[str]] = {}  # by id(); the program keeps every instruction alive
    for ins in program.instructions:
        if id(ins) not in formatted:
            formatted[id(ins)] = _instruction_lines(ins)
        lines += formatted[id(ins)]
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Program:
    """The program of circuit text in the format above, as ``export_text`` writes it."""
    stripped = (ln.split("#", 1)[0].rstrip() for ln in text.splitlines())
    lines = ((i, ln) for i, ln in enumerate(stripped, 1) if ln.strip())  # numbered, non-blank

    def matrix(dim: int, what: str) -> np.ndarray:
        """The next ``dim`` lines as a dim x dim complex matrix."""
        rows = [ln.split() for _, ln in islice(lines, dim)]
        if len(rows) != dim:
            raise ValueError(f"{what}: expected {dim} matrix rows")
        out = np.empty((dim, dim), dtype=complex)
        for i, entries in enumerate(rows):
            if len(entries) != dim:
                raise ValueError(f"{what}: row {i + 1} has {len(entries)} entries, want {dim}")
            out[i] = [complex(e) for e in entries]
        return out

    lineno, ln = next(lines, (0, ""))
    if not ln:
        raise ValueError("empty circuit text")
    head = ln.split()
    if head[0] != "QUBITS" or len(head) != 2:
        raise ValueError("first line must be a QUBITS header")

    def instructions():
        """Each line's instruction, drawn one at a time by ``Program``; ``lineno`` follows."""
        nonlocal lineno
        for lineno, ln in lines:
            tokens = ln.split()
            name = tokens[0]
            if name == "UNITARY":
                if tokens[-1] != ":":
                    raise ValueError("UNITARY header must end with ':'")
                qubits = tuple(int(t) for t in tokens[1:-1])
                if not qubits:
                    raise ValueError("UNITARY header names no qubit")
                check_unitary_register(len(qubits))
                yield unitary_gate(matrix(2 ** len(qubits), "UNITARY"), qubits)
            elif name == "KRAUS":
                if tokens[-1] != ":":
                    raise ValueError("KRAUS header must end with ':'")
                head, _, provenance = ln[:-2].partition(" provenance=")
                fields = head.split()[1:]
                if not fields or "=" in fields[0] or not all("=" in t for t in fields[1:]):
                    raise ValueError("KRAUS header takes one qubit, then key=value options")
                opts = {}
                for key, _, value in (t.partition("=") for t in fields[1:]):
                    if key in opts:
                        raise ValueError(f"KRAUS header repeats {key}=")
                    opts[key] = value
                if "ops" not in opts:
                    raise ValueError("KRAUS header needs ops=<count>")
                n_ops = int(opts.pop("ops"))
                cptp = opts.pop("cptp", None)
                angles = opts.pop("angles", None)
                if opts:
                    raise ValueError(f"unknown KRAUS options {sorted(opts)}")
                ops = [matrix(2, "KRAUS") for _ in range(n_ops)]
                if angles is not None:
                    angles = tuple(map(float, angles.split(",")))
                    if len(angles) != 2:
                        raise ValueError("KRAUS angles= takes two numbers")
                ch = KrausChannel(tuple(ops), provenance, angles)
                if cptp not in (None, ch.cptp):
                    raise ValueError(
                        f"cptp={cptp} disagrees with the operators "
                        f"({ch.cptp}, completeness deficit {ch.deficit:.3g})"
                    )
                yield KrausApply(int(fields[0]), ch)
            elif name == "MEASURE_DISCARD":
                if len(tokens) != 2:
                    raise ValueError("MEASURE_DISCARD takes one qubit")
                yield MeasureAndDiscard(int(tokens[1]))
            else:
                angle = None
                if "(" in name:
                    name, _, arg = name.partition("(")
                    if not arg.endswith(")"):
                        raise ValueError("malformed angle")
                    angle = float(arg[:-1])
                qubits = tuple(int(t) for t in tokens[1:])
                if name not in _GATES:
                    raise ValueError(f"unknown gate {name!r}")
                yield Gate(name, qubits, angle)

    try:
        return Program(int(head[1]), instructions())
    except (ValueError, IndexError, KeyError) as exc:
        raise ValueError(f"parse error at line {lineno}: {exc}") from exc
