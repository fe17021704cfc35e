"""Hamiltonians of the exciton chain and of the spin-chain simulator, and the
three parameter records a run configuration holds: ``FmoParameters``,
``NoiseParameters`` and ``NmrParameters``.

The exciton (FMO) Hamiltonian is a sum of local terms,

    H = sum_{j < l} 2 nu_{jl} (X_j X_l + Y_j Y_l) + sum_j eps_j Z_j,

one two-site hopping term per coupled pair and one Z term per site with
nonzero energy.  The hopping written as a sum over ordered pairs j != l
counts every unordered pair twice, hence the factor 2: the effective hopping
amplitude of a bond (l, l+1) is J_l = 2 nu_{l,l+1}.  The simulator chain is a
longitudinal Ising chain,

    H_NMR = sum_l (omega_l / 2) Z_l + sum_l J_l Z_l Z_{l+1},

which is diagonal in the computational basis; ``nmr_diagonal`` gives that diagonal.

A term is a triple (kind, sites, c), the operator c * TERMS[kind] on its
sites.  ``TERMS`` maps ``z``, ``zz`` and ``xy`` to Z, ZZ and XX + YY; the pulse
compiler takes the same kinds as targets.  The chain's terms exist once, as
``fmo_terms`` in the first-order step's factor order: pairs descending, then
sites.  ``build_fmo_h`` places and sums them (``circuit.embed``), and
``trotter_step`` turns each into one gate e^{-i dt term}, so its unitary is
prod_s e^{-i dt eps_s Z_s} * prod_{pairs ascending} e^{-i dt H_pair};
``trotter_unitary`` is its N-th power, whose error vanishes as 1/N at fixed t.
``term_eigen`` caches one eigendecomposition per kind, which the ``dense-blocks``
step and the compiler's targets (``term_exp``) share instead of an ``eigh`` per call.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .qcore import SX, SY, SZ, _occupations, check_unitary_register, matexp_hermitian
from .qcore import pauli_embed  # noqa: F401  (benchmarks/tracing.py patches it here)

__all__ = [
    "TERMS",
    "term_eigen",
    "term_exp",
    "FmoParameters",
    "NmrParameters",
    "NoiseParameters",
    "fmo_terms",
    "build_fmo_h",
    "nmr_diagonal",
    "nmr_from_fmo",
    "trotter_step",
    "trotter_unitary",
]

# The local Pauli operator of each term kind, on its one or two sites.
TERMS = {"z": SZ, "zz": np.kron(SZ, SZ), "xy": np.kron(SX, SX) + np.kron(SY, SY)}


@cache
def term_eigen(kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read-only (w, v, d): TERMS[kind] = v diag(w) v^dag from the ``eigh`` that
    ``matexp_hermitian`` runs, and d the real diagonal of a diagonal term, else None."""
    op = TERMS[kind]
    w, v = np.linalg.eigh(op)
    w.setflags(write=False)
    v.setflags(write=False)
    diagonal = not np.any(op - np.diag(np.diagonal(op)))
    return w, v, np.diagonal(op).real if diagonal else None


def term_exp(kind: str, c: float) -> np.ndarray:
    """e^{-i c TERMS[kind]}: bit for bit ``matexp_hermitian(TERMS[kind], -1j * c)``,
    from the cached eigensystem instead of an ``eigh`` and a Hermitian check per call."""
    w, v, _ = term_eigen(kind)
    return (v * np.exp(-1j * c * w)) @ v.conj().T


class _Record:
    """Read-only slots and identity equality, without a frozen dataclass's generated code."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set each slot once, in order; an array is made read-only first."""
        for name, value in zip(self.__slots__, values, strict=True):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")
    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild a record through __init__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class FmoParameters(_Record):
    """Site energies and a symmetric hopping matrix with zero diagonal (read-only arrays)."""

    __slots__ = ("epsilon", "nu")

    def __init__(self, epsilon: np.ndarray, nu: np.ndarray):
        eps = np.array(epsilon, dtype=float)
        nu = np.array(nu, dtype=float)
        if eps.ndim != 1 or eps.shape[0] < 1:
            raise ValueError("epsilon must be a non-empty 1-d array")
        n = eps.shape[0]
        if nu.shape != (n, n):
            raise ValueError(f"nu must be {n}x{n}")
        if not (np.isfinite(eps).all() and np.isfinite(nu).all()):
            raise ValueError("epsilon and nu must be finite")
        if np.max(np.abs(nu - nu.T)) > 1e-12:
            raise ValueError("nu must be symmetric")
        if np.max(np.abs(np.diag(nu))) > 0:
            raise ValueError("nu must have zero diagonal")
        self._set(eps, nu)

    @property
    def n_sites(self) -> int:
        return self.epsilon.shape[0]

    def coupled_pairs(self) -> list[tuple[int, int]]:
        """Ordered list of 1-based pairs (j, l), j < l, with nu != 0."""
        n = self.n_sites
        return [
            (j, l)
            for j in range(1, n + 1)
            for l in range(j + 1, n + 1)
            if self.nu[j - 1, l - 1] != 0.0
        ]


class NmrParameters(_Record):
    """Chemical shifts omega_l and nearest-neighbour couplings J_l (read-only arrays)."""

    __slots__ = ("omega", "j")

    def __init__(self, omega: np.ndarray, j: np.ndarray):
        omega = np.array(omega, dtype=float)
        j = np.array(j, dtype=float)
        if omega.ndim != 1 or omega.shape[0] < 1:
            raise ValueError("omega must be a non-empty 1-d array")
        if j.shape != (omega.shape[0] - 1,):
            raise ValueError("j must have one entry per nearest-neighbour bond")
        if not (np.isfinite(omega).all() and np.isfinite(j).all()):
            raise ValueError("omega and j must be finite")
        self._set(omega, j)

    @property
    def n_qubits(self) -> int:
        return self.omega.shape[0]


class NoiseParameters(_Record):
    """Per-site dissipation and dephasing rates: nonnegative, read-only arrays."""

    __slots__ = ("dissipation", "dephasing")

    def __init__(self, dissipation: np.ndarray, dephasing: np.ndarray):
        diss = np.array(dissipation, dtype=float)
        deph = np.array(dephasing, dtype=float)
        if diss.ndim != 1 or deph.shape != diss.shape:
            raise ValueError("dissipation and dephasing must be equal-length vectors")
        if np.any(diss < 0) or np.any(deph < 0):
            raise ValueError("noise rates must be nonnegative")
        if not (np.all(np.isfinite(diss)) and np.all(np.isfinite(deph))):
            raise ValueError("noise rates must be finite")
        self._set(diss, deph)

    @property
    def n_sites(self) -> int:
        return self.dissipation.shape[0]

    @classmethod
    def uniform(cls, n: int, dissipation: float, dephasing: float) -> "NoiseParameters":
        return cls(np.full(n, dissipation), np.full(n, dephasing))


def fmo_terms(p: FmoParameters) -> list[tuple[str, tuple[int, ...], float]]:
    """The local terms of H as (kind, sites, c), in the step's factor order.

    ("xy", (j, l), 2 nu_jl) for every coupled pair (j, l), pairs descending,
    then ("z", (s,), eps_s) for every site s with eps_s != 0.
    """
    terms = [("xy", (j, l), 2.0 * p.nu[j - 1, l - 1]) for j, l in reversed(p.coupled_pairs())]
    terms += [("z", (s,), e) for s, e in enumerate(p.epsilon, 1) if e != 0.0]
    return terms


def build_fmo_h(p: FmoParameters) -> np.ndarray:
    """Dense H: the sum of the placed local terms of ``fmo_terms`` (at most 10 sites)."""
    from .circuit import embed  # loaded by the dense builders only

    n = p.n_sites
    check_unitary_register(n)  # before the 2^n x 2^n sum is allocated
    h = np.zeros((2**n, 2**n), dtype=complex)
    for kind, sites, c in fmo_terms(p):
        h += embed(c * TERMS[kind], sites, n)
    return h


def nmr_diagonal(p: NmrParameters) -> np.ndarray:
    """Diagonal of H_NMR as a length-2^n real vector."""
    signs = 1 - 2 * _occupations(np.arange(2**p.n_qubits), p.n_qubits)
    # Row by row, so the J terms add in site order.
    return np.add.reduce([0.5 * p.omega @ signs, *(p.j[:, None] * signs[:-1] * signs[1:])], axis=0)


def nmr_from_fmo(p: FmoParameters) -> NmrParameters:
    """Simulator parameters realizing the chain part of the FMO model.

    omega_l = 2 eps_l makes the compiled single-Z target with tau = t equal to
    e^{-i t eps_l Z_l}; J_l = 2 nu_{l,l+1} makes the compiled XX+YY target with
    tau = t equal to the bond factor of the Trotter step.  A coupling beyond
    nearest neighbours has no J_l, and a doubling past the float range has no
    finite value, so a model with either is refused.
    """
    far = [(j, l) for j, l in p.coupled_pairs() if l != j + 1]
    if far:
        raise ValueError(f"couplings {far} are not nearest-neighbour bonds of the chain")
    with np.errstate(over="ignore"):
        omega, j = 2.0 * p.epsilon, 2.0 * np.diagonal(p.nu, 1)
    if not (np.isfinite(omega).all() and np.isfinite(j).all()):
        raise ValueError("omega = 2 epsilon or J = 2 nu overflows the float range")
    return NmrParameters(omega=omega, j=j)


def trotter_step(p: FmoParameters, dt: float) -> np.ndarray:
    """One first-order step: one UNITARY gate e^{-i dt term} per local term (at most 10 sites)."""
    from . import circuit as ci

    ins = (ci.unitary_gate(matexp_hermitian(c * TERMS[kind], -1j * dt), sites)
           for kind, sites, c in fmo_terms(p))
    return ci.unitary_of(ci.Program(p.n_sites, tuple(ins)))


def trotter_unitary(p: FmoParameters, t: float, n_steps: int) -> np.ndarray:
    """First-order Trotter approximation of e^{-i H t}."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return np.linalg.matrix_power(trotter_step(p, t / n_steps), n_steps)
