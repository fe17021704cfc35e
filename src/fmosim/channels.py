"""Single-qubit noise channels in Kraus, Bloch-affine and circuit form.

Orientation: |0> (the first basis state, Bloch north pole) is the ground
state; dissipation relaxes toward it.  Populations in the excitation sense
are <1|rho|1>, which decay as exp(-8*Gamma*t) while coherences decay as
exp(-4*Gamma*t).  Pure dephasing leaves populations alone and damps
coherences as exp(-gamma*t).

The two-Kraus family used throughout is parametrized by angles (alpha, beta):

    K1 = diag(cos beta, cos alpha),   K2 = [[0, sin alpha], [sin beta, 0]]

whose Bloch action is diagonal, (cos v, cos u, cos v * cos u) with shift
(0, 0, sin v * sin u) for v = alpha - beta, u = alpha + beta.  A channel of
this family is realized exactly by a two-qubit circuit with one ancilla: two
RY rotations on the ancilla with angles beta + alpha and beta - alpha,
sandwiched by CNOTs (lowered to H/CZ), then a measure-and-discard of the
ancilla.

Every channel here is a ``circuit.KrausChannel`` (re-exported with
``completeness_deficit``), so its CPTP status is computed from its
operators, and ``apply_kraus`` is ``circuit.run_density`` on one qubit.

One published dephasing Kraus pair is reproduced verbatim behind
``dephasing_kraus_paper``; it is not trace preserving (the completeness sum
misses the identity by 0.75 at t = 0, and by a strictly positive deficit for
every finite gamma*t), so its status is ``violated`` and simulators refuse
it unless explicitly overridden.  ``dephasing_kraus_corrected`` is the CPTP
phase-flip channel matching the dephasing generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit as ci
from .circuit import KrausChannel, completeness_deficit
from .qcore import CPTP_VERIFIED_ATOL, ID2, SX, SY, SZ

__all__ = [
    "KrausChannel",
    "AffineChannel",
    "completeness_deficit",
    "kraus_from_angles",
    "dissipation_kraus",
    "dephasing_kraus_paper",
    "dephasing_kraus_corrected",
    "damping_basis_solution",
    "apply_kraus",
    "bloch_map",
    "channel_circuit",
    "channel_report",
]


def kraus_from_angles(upsilon: float, mu: float) -> KrausChannel:
    """Two-Kraus channel with Bloch diagonal (cos v, cos u, cos v cos u).

    alpha = (u + v)/2 and beta = (u - v)/2; the operator sum is complete for
    every angle pair.
    """
    alpha = 0.5 * (mu + upsilon)
    beta = 0.5 * (mu - upsilon)
    k1 = np.diag([math.cos(beta), math.cos(alpha)]).astype(complex)
    k2 = np.array([[0.0, math.sin(alpha)], [math.sin(beta), 0.0]], dtype=complex)
    return KrausChannel(
        (k1, k2),
        provenance=f"angles(upsilon={upsilon:.12g}, mu={mu:.12g})",
        angles=(alpha, beta),
    )


def dissipation_kraus(rate: float, t: float) -> KrausChannel:
    """Amplitude damping toward |0><0| accumulated over duration t.

    K1 = diag(1, e^{-4 rate t}), K2 = [[0, sqrt(1 - e^{-8 rate t})], [0, 0]];
    the pulse angle realizing it is alpha = arccos(e^{-4 rate t}), beta = 0.
    """
    if not (0 <= rate < math.inf and 0 <= t < math.inf):
        raise ValueError("dissipation rate and duration must be finite and nonnegative")
    e4 = math.exp(-4.0 * rate * t)
    k1 = np.diag([1.0, e4]).astype(complex)
    k2 = np.array([[0.0, math.sqrt(max(0.0, 1.0 - e4 * e4))], [0.0, 0.0]], dtype=complex)
    return KrausChannel(
        (k1, k2),
        provenance=f"dissipation(rate={rate:.12g}, t={t:.12g})",
        angles=(math.acos(min(1.0, e4)), 0.0),
    )


def dephasing_kraus_paper(rate: float, t: float) -> KrausChannel:
    """Published dephasing Kraus pair, reproduced verbatim.

    K1 = diag(-e^{-2 rate t}/2, e^{-2 rate t}/2),
    K2 = [[0, sqrt(1 - e^{-2 rate t}/2)], [sqrt(1 + e^{-2 rate t}/2), 0]].

    The completeness sum is diag(1 + d/4 + d/2... ) != I; its max-norm
    deficit is e^{-4 rate t}/4 + e^{-2 rate t}/2, strictly positive for all
    finite rate*t (0.75 at t = 0).  The channel is returned as-is; its
    derived status is ``violated``, so applying it needs an explicit opt-in.
    """
    if not (0 <= rate < math.inf and 0 <= t < math.inf):
        raise ValueError("dephasing rate and duration must be finite and nonnegative")
    e2 = math.exp(-2.0 * rate * t)
    k1 = np.diag([-0.5 * e2, 0.5 * e2]).astype(complex)
    k2 = np.array(
        [[0.0, math.sqrt(1.0 - 0.5 * e2)], [math.sqrt(1.0 + 0.5 * e2), 0.0]],
        dtype=complex,
    )
    return KrausChannel((k1, k2), provenance=f"dephasing-paper(rate={rate:.12g}, t={t:.12g})")


def dephasing_kraus_corrected(rate: float, t: float) -> KrausChannel:
    """CPTP phase-flip channel matching the pure-dephasing generator.

    The generator gamma*(2 n rho n - n rho - rho n) with n = |1><1| damps
    coherences as e^{-gamma t} and leaves populations untouched; that Bloch
    action (e^{-gamma t}, e^{-gamma t}, 1) is exactly a phase flip with
    probability p = (1 - e^{-gamma t})/2.
    """
    if not (0 <= rate < math.inf and 0 <= t < math.inf):
        raise ValueError("dephasing rate and duration must be finite and nonnegative")
    p = 0.5 * (1.0 - math.exp(-rate * t))
    k1 = math.sqrt(1.0 - p) * ID2.astype(complex)
    k2 = math.sqrt(p) * SZ.astype(complex)
    return KrausChannel(
        (k1, k2), provenance=f"dephasing-corrected(rate={rate:.12g}, t={t:.12g})"
    )


def damping_basis_solution(rate: float, rho0: np.ndarray, t: float) -> np.ndarray:
    """Closed-form dissipation evolution of a single-qubit state.

    In Bloch form r_x,y -> e^{-4 rate t} r_x,y and
    r_z -> 1 - e^{-8 rate t} (1 - r_z): exponential relaxation onto |0><0|.
    (The same solution written for the opposite pole convention flips the
    sign of r_z on both sides; this package fixes |0> as the attractor.)
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise ValueError("damping_basis_solution acts on one qubit")
    e4 = math.exp(-4.0 * rate * t)
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = rho0[0, 0] + (1.0 - e4 * e4) * rho0[1, 1]
    out[1, 1] = e4 * e4 * rho0[1, 1]
    out[0, 1] = e4 * rho0[0, 1]
    out[1, 0] = e4 * rho0[1, 0]
    return out


def apply_kraus(rho: np.ndarray, ch: KrausChannel, allow_noncptp: bool = False) -> np.ndarray:
    """Operator-sum action sum_k K rho K^dag on a single-qubit state.

    Runs ``circuit.run_density``, so a channel whose status is ``violated``
    is refused unless ``allow_noncptp`` is passed.
    """
    program = ci.Program(1, (ci.KrausApply(1, ch),))
    return ci.run_density(program, rho, allow_noncptp=allow_noncptp)


@dataclass(frozen=True, eq=False)
class AffineChannel:
    """Bloch-ball picture of a channel: r -> matrix @ r + shift."""

    matrix: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        s = np.array(self.shift, dtype=float)
        if m.shape != (3, 3) or s.shape != (3,):
            raise ValueError("affine channel needs a 3x3 matrix and a 3-vector")
        m.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", s)

    def maps_ball_into_ball(self, samples: int = 200, slack: float = 1e-9) -> bool:
        """Check |M r + m| <= 1 on a deterministic sample of the unit sphere."""
        rng = np.random.default_rng(1234)
        pts = rng.normal(size=(samples, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        out = pts @ self.matrix.T + self.shift
        return bool(np.linalg.norm(out, axis=1).max() <= 1.0 + slack)


def bloch_map(ch: KrausChannel) -> AffineChannel:
    """Extract the affine Bloch action of a channel numerically.

    Columns are probed with the Pauli basis, the shift with the maximally
    mixed state.  For a trace-preserving channel this is the usual affine map
    of the Bloch ball; for a flagged non-TP channel it is still the linear
    action on the (x, y, z) components, reported for diagnostics, so it
    calls ``circuit.operator_sum`` directly, without the CPTP gate.
    """

    def act(rho: np.ndarray) -> np.ndarray:
        out = ci.operator_sum(rho, ch.ops)
        return np.array(
            [np.trace(s @ out).real for s in (SX, SY, SZ)], dtype=float
        )

    shift = act(0.5 * ID2)
    cols = [act(0.5 * (ID2 + s)) - shift for s in (SX, SY, SZ)]
    return AffineChannel(np.column_stack(cols), shift)


def _angles_of(ch: KrausChannel) -> tuple[float, float]:
    """(alpha, beta) of a diag/antidiag two-Kraus channel, checked against its operators."""
    if len(ch.ops) != 2:
        raise ValueError("circuit realization needs a two-operator channel")
    k1, k2 = ch.ops
    alpha, beta = ch.angles or (
        math.atan2(k2[0, 1].real, k1[1, 1].real),
        math.atan2(k2[1, 0].real, k1[0, 0].real),
    )
    want1 = np.diag([math.cos(beta), math.cos(alpha)])
    want2 = np.array([[0.0, math.sin(alpha)], [math.sin(beta), 0.0]])
    if (
        np.abs(k1 - want1).max() > CPTP_VERIFIED_ATOL
        or np.abs(k2 - want2).max() > CPTP_VERIFIED_ATOL
    ):
        raise ValueError(
            f"channel {ch.provenance} is not the diagonal/antidiagonal two-Kraus "
            f"channel of angles ({alpha:.6g}, {beta:.6g}) and has no circuit realization here"
        )
    return alpha, beta


def channel_circuit(ch: KrausChannel) -> ci.Program:
    """One-ancilla circuit realizing a diag/antidiag two-Kraus channel.

    Qubit 1 is the system, qubit 2 the ancilla (starts in |0>, discarded at
    the end).  The isometry sends |s>|0> to (K1|s>)|0> + (K2|s>)|1>, built
    from two ancilla RY rotations, with angles beta + alpha and beta - alpha,
    interleaved with system-controlled CNOTs and closed by an ancilla-
    controlled CNOT; CNOTs are lowered to the H/CZ gate set.  Supplied
    ``angles`` are checked against the operators like recovered ones.
    """
    alpha, beta = _angles_of(ch)
    ins = [ci.ry(beta + alpha, 2)]
    ins += [ci.h(2), ci.cz(1, 2), ci.h(2)]
    ins += [ci.ry(beta - alpha, 2)]
    ins += [ci.h(2), ci.cz(1, 2), ci.h(2)]
    ins += [ci.h(1), ci.cz(1, 2), ci.h(1)]
    ins.append(ci.MeasureAndDiscard(2))
    return ci.Program(2, tuple(ins))


def channel_report(ch: KrausChannel) -> dict:
    """JSON-ready summary: provenance, operators, CPTP status, Bloch action."""
    aff = bloch_map(ch)
    return {
        "provenance": ch.provenance,
        "kraus": [
            [[[float(e.real), float(e.imag)] for e in row] for row in k] for k in ch.ops
        ],
        "cptp_status": ch.cptp,
        "deficit_norm": float(ch.deficit),
        "bloch_diag": [float(aff.matrix[i, i]) for i in range(3)],
        "bloch_shift": [float(x) for x in aff.shift],
    }
