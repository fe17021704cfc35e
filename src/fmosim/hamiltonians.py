"""Hamiltonians of the exciton chain and of the spin-chain simulator.

The exciton (FMO) Hamiltonian is split into on-site energies and a hopping
term,

    H0 = sum_j eps_j Z_j
    HI = sum_{j != l} nu_{jl} (X_j X_l + Y_j Y_l),

where the interaction sum runs over ordered pairs, so every unordered pair
contributes twice and the effective hopping amplitude of a bond (l, l+1) is
J_l = 2 nu_{l,l+1}.  The simulator chain is a longitudinal Ising chain,

    H_NMR = sum_l (omega_l / 2) Z_l + sum_l J_l Z_l Z_{l+1},

which is diagonal in the computational basis.

The factor order of the first-order step e^{-i H0 dt} * prod_{pairs
ascending} e^{-i H_pair dt} is defined once, as the gate program
``trotter_program``; ``trotter_step`` is its unitary and ``trotter_unitary``
its N-th power, whose error vanishes as 1/N at fixed t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuit as ci
from .qcore import SX, SY, SZ, matexp_hermitian, pauli_embed

__all__ = [
    "FmoParameters",
    "NmrParameters",
    "build_fmo_h0",
    "build_fmo_hi",
    "build_fmo_h",
    "build_nmr_h",
    "nmr_diagonal",
    "nmr_from_fmo",
    "pair_hopping_h",
    "trotter_program",
    "trotter_step",
    "trotter_unitary",
]


@dataclass(frozen=True, eq=False)
class FmoParameters:
    """Site energies and a symmetric hopping matrix with zero diagonal."""

    epsilon: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        eps = np.array(self.epsilon, dtype=float)
        nu = np.array(self.nu, dtype=float)
        n = eps.shape[0]
        if eps.ndim != 1 or n < 1:
            raise ValueError("epsilon must be a non-empty 1-d array")
        if nu.shape != (n, n):
            raise ValueError(f"nu must be {n}x{n}")
        if np.max(np.abs(nu - nu.T)) > 1e-12:
            raise ValueError("nu must be symmetric")
        if np.max(np.abs(np.diag(nu))) > 0:
            raise ValueError("nu must have zero diagonal")
        eps.setflags(write=False)
        nu.setflags(write=False)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "nu", nu)

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


@dataclass(frozen=True, eq=False)
class NmrParameters:
    """Chemical shifts omega_l and nearest-neighbour couplings J_l."""

    omega: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        omega = np.array(self.omega, dtype=float)
        j = np.array(self.j, dtype=float)
        if omega.ndim != 1 or omega.shape[0] < 1:
            raise ValueError("omega must be a non-empty 1-d array")
        if j.shape != (omega.shape[0] - 1,):
            raise ValueError("j must have one entry per nearest-neighbour bond")
        omega.setflags(write=False)
        j.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "j", j)

    @property
    def n_qubits(self) -> int:
        return self.omega.shape[0]


def build_fmo_h0(p: FmoParameters) -> np.ndarray:
    """On-site part: sum_j eps_j Z_j (diagonal)."""
    n = p.n_sites
    h = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(1, n + 1):
        h += p.epsilon[site - 1] * pauli_embed(SZ, site, n)
    return h


def pair_hopping_h(p: FmoParameters, j: int, l: int) -> np.ndarray:
    """Both ordered contributions of one pair: 2 nu_{jl} (X_j X_l + Y_j Y_l)."""
    n = p.n_sites
    xx = pauli_embed(SX, j, n) @ pauli_embed(SX, l, n)
    yy = pauli_embed(SY, j, n) @ pauli_embed(SY, l, n)
    return 2.0 * p.nu[j - 1, l - 1] * (xx + yy)


def build_fmo_hi(p: FmoParameters) -> np.ndarray:
    """Hopping part over ordered site pairs (each unordered pair twice)."""
    n = p.n_sites
    h = np.zeros((2**n, 2**n), dtype=complex)
    for j, l in p.coupled_pairs():
        h += pair_hopping_h(p, j, l)
    return h


def build_fmo_h(p: FmoParameters) -> np.ndarray:
    return build_fmo_h0(p) + build_fmo_hi(p)


def nmr_diagonal(p: NmrParameters) -> np.ndarray:
    """Diagonal of H_NMR as a length-2^n real vector."""
    n = p.n_qubits
    signs = np.empty((n, 2**n))
    idx = np.arange(2**n)
    for site in range(1, n + 1):
        signs[site - 1] = 1.0 - 2.0 * ((idx >> (n - site)) & 1)
    diag = 0.5 * p.omega @ signs
    for l in range(n - 1):
        diag = diag + p.j[l] * signs[l] * signs[l + 1]
    return diag


def build_nmr_h(p: NmrParameters) -> np.ndarray:
    """Dense (diagonal) matrix of the Ising-chain Hamiltonian."""
    return np.diag(nmr_diagonal(p)).astype(complex)


def nmr_from_fmo(p: FmoParameters) -> NmrParameters:
    """Simulator parameters realizing the chain part of the FMO model.

    omega_l = 2 eps_l makes the compiled single-Z target with tau = t equal to
    e^{-i t eps_l Z_l}; J_l = 2 nu_{l,l+1} makes the compiled XX+YY target with
    tau = t equal to the bond factor of the Trotter step.
    """
    bonds = np.array(
        [p.nu[l, l + 1] for l in range(p.n_sites - 1)], dtype=float
    )
    return NmrParameters(omega=2.0 * p.epsilon, j=2.0 * bonds)


def trotter_program(p: FmoParameters, dt: float) -> ci.Program:
    """The step's factor order, defined once, as a gate program.

    In circuit time: e^{-i H_pair dt} on (j, l) for the coupled pairs in
    descending order, then RZ(2 eps_s dt) = e^{-i dt eps_s Z_s} on every site
    with nonzero energy.
    """
    hop = np.kron(SX, SX) + np.kron(SY, SY)
    ins = [
        ci.unitary_gate(matexp_hermitian(2.0 * p.nu[j - 1, l - 1] * hop, -1j * dt), (j, l))
        for j, l in reversed(p.coupled_pairs())
    ]
    ins += [ci.rz(2.0 * e * dt, s) for s, e in enumerate(p.epsilon, 1) if e != 0.0]
    return ci.Program(p.n_sites, tuple(ins))


def trotter_step(p: FmoParameters, dt: float) -> np.ndarray:
    """One first-order step: the unitary of ``trotter_program`` (at most 10 sites)."""
    return ci.unitary_of(trotter_program(p, dt))


def trotter_unitary(p: FmoParameters, t: float, n_steps: int) -> np.ndarray:
    """First-order Trotter approximation of e^{-i (H0 + HI) t}."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return np.linalg.matrix_power(trotter_step(p, t / n_steps), n_steps)
