"""Dense linear-algebra primitives shared by every other module.

Conventions used throughout the package:

- Qubits are labelled 1..n.  Qubit 1 is the leftmost tensor factor, i.e. the
  most significant bit of a computational-basis index: for a basis state
  ``|b_1 b_2 ... b_n>`` the flat index is ``sum(b_j << (n - j))``.
- ``|0>`` is the ground state (Bloch north pole, r_z = +1); ``|1>`` carries
  the excitation.
- Bloch vectors follow ``rho = (I + r_x X + r_y Y + r_z Z) / 2``.

Everything is plain ``numpy.ndarray`` with ``complex128`` dtype; structure
(hermiticity, unitarity, density-matrix validity) is enforced by explicit
checker functions rather than wrapper classes.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

__all__ = [
    "ID2",
    "SX",
    "SY",
    "SZ",
    "HERMITIAN_ATOL",
    "UNITARY_ATOL",
    "TRACE_ATOL",
    "EIGVAL_FLOOR",
    "SCHEDULE_VERIFY_ATOL",
    "CPTP_VERIFIED_ATOL",
    "pauli_embed",
    "matexp_hermitian",
    "is_hermitian",
    "is_unitary",
    "check_density_matrix",
    "bloch_to_density",
    "density_to_bloch",
    "trace_distance",
    "phase_align",
    "RegisterTooLarge",
    "check_unitary_register",
    "parse_basis_label",
]

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Central tolerance table.  Structural checks are near machine precision;
# end-to-end reconstruction tolerances are deliberately looser.
HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGVAL_FLOOR = -1e-10
SCHEDULE_VERIFY_ATOL = 1e-8
CPTP_VERIFIED_ATOL = 1e-10


def pauli_embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator on qubit ``site`` (1-based) of an n-qubit register."""
    if not 1 <= site <= n:
        raise ValueError(f"site {site} outside register 1..{n}")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError("pauli_embed expects a 2x2 operator")
    return reduce(np.kron, [op if j == site else ID2 for j in range(1, n + 1)])


def is_hermitian(a: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    return bool(np.max(np.abs(a - a.conj().swapaxes(-1, -2))) <= atol)


def is_unitary(a: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) <= atol)


def matexp_hermitian(h: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * h) for Hermitian h, via eigendecomposition.

    ``scale = -1j * t`` yields the time-evolution unitary of the Hamiltonian h.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("matexp_hermitian requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


def check_density_matrix(rho: np.ndarray, atol: float = TRACE_ATOL) -> np.ndarray:
    """Validate trace one, hermiticity and positivity; returns rho unchanged."""
    rho = np.asarray(rho, dtype=complex)
    if abs(np.trace(rho) - 1.0) > atol:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    if not is_hermitian(rho, atol=atol):
        raise ValueError("density matrix is not Hermitian")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < EIGVAL_FLOOR:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def bloch_to_density(r: Sequence[float]) -> np.ndarray:
    """Single-qubit density matrix of a Bloch vector (|r| <= 1)."""
    rx, ry, rz = (float(c) for c in r)
    if rx * rx + ry * ry + rz * rz > 1.0 + 1e-12:
        raise ValueError("Bloch vector outside the unit ball")
    return 0.5 * (ID2 + rx * SX + ry * SY + rz * SZ)


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (r_x, r_y, r_z) of a single-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("density_to_bloch expects a 2x2 matrix")
    return np.array(
        [np.trace(rho @ SX).real, np.trace(rho @ SY).real, np.trace(rho @ SZ).real]
    )


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """T(a, b) = (1/2) * sum of |eigenvalues| of (a - b): a float for two matrices, an array
    for two stacks (..., m, m), with one check and one batched ``eigvalsh`` per ~256 KiB slice."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    shape, m = a.shape[:-2], a.shape[-1]
    a, b, step = a.reshape(-1, m, m), b.reshape(-1, m, m), max(1, (1 << 18) // (16 * m * m))
    t = np.empty(len(a))
    for i in range(0, len(a), step):
        d = a[i:i + step] - b[i:i + step]
        if not is_hermitian(d, atol=1e-9):
            raise ValueError("trace_distance requires Hermitian inputs")
        h = 0.5 * (d + d.conj().swapaxes(-1, -2))
        t[i:i + step] = 0.5 * np.abs(np.linalg.eigvalsh(h)).sum(axis=-1)
    return t.reshape(shape) if shape else float(t[0])


def phase_align(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return u times a global phase chosen so it best matches v.

    The phase is fixed by the largest-magnitude entry of v, which makes the
    alignment deterministic and insensitive to entries that are numerically
    zero in either matrix.
    """
    v = np.asarray(v, dtype=complex)
    idx = np.unravel_index(int(np.argmax(np.abs(v))), v.shape)
    ref = np.asarray(u, dtype=complex)[idx]
    if abs(ref) < 1e-300:
        return np.asarray(u, dtype=complex)
    phase = (v[idx] / ref) / abs(v[idx] / ref)
    return u * phase


class RegisterTooLarge(ValueError):
    """A dense 2^n x 2^n matrix was asked for on more than 10 qubits."""


def check_unitary_register(n: int) -> None:
    """Refuse a dense 2^n x 2^n matrix on more than 10 qubits.

    Every function outside this module that allocates a matrix of 2^n rows and
    more than one column from a register size n calls it first, so no route
    builds one over 10 qubits; a statevector is not capped.
    """
    if n > 10:
        raise RegisterTooLarge(f"dense 2^n x 2^n matrices capped at 10 qubits, got {n}")


def parse_basis_label(init: str | int, n: int) -> np.ndarray:
    """Statevector of a computational-basis label ('0110...', or flat index)."""
    if isinstance(init, str):
        if len(init) != n or set(init) - {"0", "1"}:
            raise ValueError(f"basis label must be {n} characters of 0/1")
        idx = int(init, 2)
    else:
        idx = int(init)
        if not 0 <= idx < 2**n:
            raise ValueError("basis index out of range")
    psi = np.zeros(2**n, dtype=complex)
    psi[idx] = 1.0
    return psi
