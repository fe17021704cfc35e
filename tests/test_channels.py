"""Channel tests.

The ODE oracle lives here: a tiny fixed-step RK4 integrator for the
single-site generators, written directly against their definitions
(sigma_minus = |0><1|, n = |1><1|), independent of the channel code.
"""

import logging
import math

import numpy as np
import pytest

from fmosim import circuit as ci
from fmosim.channels import (
    AffineChannel,
    KrausChannel,
    apply_kraus,
    bloch_map,
    channel_circuit,
    channel_report,
    completeness_deficit,
    damping_basis_solution,
    dephasing_kraus_corrected,
    dephasing_kraus_paper,
    dissipation_kraus,
    kraus_from_angles,
)
from fmosim.qcore import bloch_to_density

SM = np.array([[0, 1], [0, 0]], dtype=complex)  # lowering |0><1|
NUM = np.array([[0, 0], [0, 1]], dtype=complex)  # excitation projector
ANC0 = np.array([[1, 0], [0, 0]], dtype=complex)


def rk4(rhs, rho, t, steps=4000):
    h = t / steps
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def dissipation_rhs(rate):
    return lambda r: 4 * rate * (2 * SM @ r @ SM.conj().T - NUM @ r - r @ NUM)


def dephasing_rhs(rate):
    return lambda r: rate * (2 * NUM @ r @ NUM - NUM @ r - r @ NUM)


def random_states(k, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(r)
        out.append(bloch_to_density(r))
    return out


# --- angle-parametrized family --------------------------------------------------


def test_identity_channel():
    ch = kraus_from_angles(0.0, 0.0)
    assert np.allclose(ch.ops[0], np.eye(2))
    assert np.allclose(ch.ops[1], 0.0)
    assert ch.cptp == "verified"
    rho = random_states(1, seed=3)[0]
    assert np.allclose(apply_kraus(rho, ch), rho, atol=1e-15)


def test_full_damping_angles():
    ch = kraus_from_angles(math.pi / 2, math.pi / 2)
    assert np.allclose(ch.ops[0], np.diag([1, 0]), atol=1e-15)
    assert np.allclose(ch.ops[1], np.array([[0, 1], [0, 0]]), atol=1e-15)


def test_angle_family_always_complete():
    rng = np.random.default_rng(11)
    for _ in range(40):
        v, u = rng.uniform(-4, 4, 2)
        assert kraus_from_angles(v, u).cptp == "verified"
        assert completeness_deficit(kraus_from_angles(v, u).ops) < 1e-14


def test_angle_family_bloch_action():
    rng = np.random.default_rng(12)
    for _ in range(30):
        v, u = rng.uniform(-3, 3, 2)
        aff = bloch_map(kraus_from_angles(v, u))
        want = np.diag([math.cos(v), math.cos(u), math.cos(v) * math.cos(u)])
        assert np.abs(aff.matrix - want).max() < 1e-12
        assert np.abs(aff.shift - [0, 0, math.sin(v) * math.sin(u)]).max() < 1e-12


# --- dissipation -----------------------------------------------------------------


def test_dissipation_operators_exact():
    ch = dissipation_kraus(1.0, 0.1)
    e4 = math.exp(-0.4)
    assert np.allclose(ch.ops[0], np.diag([1, e4]), atol=1e-15)
    assert np.allclose(
        ch.ops[1], [[0, math.sqrt(1 - e4 * e4)], [0, 0]], atol=1e-15
    )
    assert ch.cptp == "verified" and ch.deficit < 1e-14


def test_dissipation_identity_and_fixed_point():
    assert np.allclose(dissipation_kraus(1.0, 0.0).ops[0], np.eye(2))
    for rho in random_states(5, seed=4):
        out = apply_kraus(rho, dissipation_kraus(1.0, 50.0))
        assert np.abs(out - np.diag([1, 0])).max() < 1e-12


def test_dissipation_rejects_negative_arguments():
    with pytest.raises(ValueError):
        dissipation_kraus(-1.0, 0.1)
    with pytest.raises(ValueError):
        dissipation_kraus(1.0, -0.1)


def test_dissipation_matches_damping_basis():
    rng = np.random.default_rng(5)
    pairs = [(rng.uniform(0.05, 3), rng.uniform(0.01, 2)) for _ in range(10)]
    worst = 0.0
    for rho in random_states(100, seed=6):
        for rate, t in pairs:
            a = apply_kraus(rho, dissipation_kraus(rate, t))
            b = damping_basis_solution(rate, rho, t)
            worst = max(worst, np.abs(a - b).max())
    assert worst < 1e-10


# --- damping-basis closed form ---------------------------------------------------


def test_damping_basis_time_zero_and_trace():
    rho = random_states(1, seed=7)[0]
    assert np.allclose(damping_basis_solution(0.8, rho, 0.0), rho, atol=1e-15)
    out = damping_basis_solution(0.8, rho, 0.63)
    assert abs(np.trace(out) - 1) < 1e-14


def test_damping_basis_pole_trajectories():
    # ground state is stationary; the excited state relaxes through
    # r_z(t) = 1 - 2 exp(-8 rate t)
    rate, t = 0.7, 0.21
    ground = np.diag([1.0, 0.0]).astype(complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    assert np.allclose(damping_basis_solution(rate, ground, t), ground, atol=1e-15)
    out = damping_basis_solution(rate, excited, t)
    rz = (out[0, 0] - out[1, 1]).real
    assert abs(rz - (1 - 2 * math.exp(-8 * rate * t))) < 1e-14


def test_damping_basis_semigroup():
    rho = random_states(1, seed=8)[0]
    a = damping_basis_solution(0.9, damping_basis_solution(0.9, rho, 0.31), 0.47)
    b = damping_basis_solution(0.9, rho, 0.78)
    assert np.abs(a - b).max() < 1e-12


def test_damping_basis_matches_ode_oracle():
    for seed, (rate, t) in enumerate([(1.0, 0.2), (0.4, 1.1), (2.3, 0.05)]):
        rho = random_states(1, seed=20 + seed)[0]
        want = rk4(dissipation_rhs(rate), rho, t)
        assert np.abs(damping_basis_solution(rate, rho, t) - want).max() < 1e-8


def test_damping_basis_rejects_wrong_shape():
    with pytest.raises(ValueError):
        damping_basis_solution(1.0, np.eye(4), 0.1)


# --- dephasing -------------------------------------------------------------------


def test_paper_dephasing_reproduces_printed_entries():
    rate, t = 1.0, 0.35
    e2 = math.exp(-2 * rate * t)
    ch = dephasing_kraus_paper(rate, t)
    assert np.allclose(ch.ops[0], np.diag([-0.5 * e2, 0.5 * e2]), atol=1e-15)
    assert np.allclose(
        ch.ops[1],
        [[0, math.sqrt(1 - 0.5 * e2)], [math.sqrt(1 + 0.5 * e2), 0]],
        atol=1e-15,
    )


def test_paper_dephasing_deficit_is_structural():
    # measured deficit equals e^{-4rt}/4 + e^{-2rt}/2 and never vanishes
    assert dephasing_kraus_paper(1.0, 0.0).deficit == pytest.approx(0.75)
    for gt in [0.0, 0.1, 0.5, 1.0, 5.0]:
        ch = dephasing_kraus_paper(1.0, gt)
        e2 = math.exp(-2 * gt)
        assert ch.cptp == "violated"
        assert ch.deficit > 0
        assert ch.deficit == pytest.approx(0.25 * e2 * e2 + 0.5 * e2, abs=1e-14)


def test_paper_dephasing_refused_without_override(caplog):
    rho = random_states(1, seed=9)[0]
    ch = dephasing_kraus_paper(0.7, 0.2)
    with pytest.raises(ValueError):
        apply_kraus(rho, ch)
    with caplog.at_level(logging.WARNING, logger="fmosim.channels"):
        out = apply_kraus(np.eye(2, dtype=complex) / 2, ch, allow_noncptp=True)
    assert abs(np.trace(out).real - 1) > 1e-3
    assert any("not trace preserving" in m or "drift" in m for m in caplog.messages)


def test_corrected_dephasing_limits():
    assert np.allclose(dephasing_kraus_corrected(1.0, 0.0).ops[0], np.eye(2))
    rho = random_states(1, seed=10)[0]
    out = apply_kraus(rho, dephasing_kraus_corrected(1.0, 200.0))
    assert abs(out[0, 1]) < 1e-12
    assert np.allclose(np.diag(out), np.diag(rho), atol=1e-12)


def test_corrected_dephasing_matches_ode_oracle():
    rate, t = 0.5, 0.3
    ch = dephasing_kraus_corrected(rate, t)
    assert ch.cptp == "verified"
    states = random_states(100, seed=11)
    # One RK4 run on the stacked (100, 2, 2) states: the oracle's products broadcast.
    wants = rk4(dephasing_rhs(rate), np.stack(states), t, steps=2000)
    worst = max(np.abs(apply_kraus(rho, ch) - want).max() for rho, want in zip(states, wants))
    assert worst < 1e-8


# --- Bloch affine picture ---------------------------------------------------------


def test_cptp_channels_contract_ball():
    for ch in (
        dissipation_kraus(0.7, 0.3),
        dephasing_kraus_corrected(1.2, 0.4),
        kraus_from_angles(0.4, 1.3),
    ):
        assert bloch_map(ch).maps_ball_into_ball()


def test_paper_dephasing_escapes_ball():
    assert not bloch_map(dephasing_kraus_paper(1.0, 0.1)).maps_ball_into_ball()


def test_affine_channel_validation_and_apply():
    with pytest.raises(ValueError):
        AffineChannel(np.eye(2), np.zeros(3))
    aff = AffineChannel(0.5 * np.eye(3), np.array([0, 0, 0.25]))
    assert np.allclose(aff.matrix @ [1, 0, 0] + aff.shift, [0.5, 0, 0.25])


def test_dissipation_bloch_diagonal():
    rate, t = 0.6, 0.5
    aff = bloch_map(dissipation_kraus(rate, t))
    e4, e8 = math.exp(-4 * rate * t), math.exp(-8 * rate * t)
    assert np.abs(np.diag(aff.matrix) - [e4, e4, e8]).max() < 1e-12
    assert np.abs(aff.shift - [0, 0, 1 - e8]).max() < 1e-12


# --- circuit realization ----------------------------------------------------------


def circuit_action(prog, rho):
    return ci.run_density(prog, np.kron(rho, ANC0))


def test_circuit_matches_operator_sum_across_channels():
    rng = np.random.default_rng(13)
    channels = [dissipation_kraus(1.0, 0.05), kraus_from_angles(0.0, 0.0)]
    channels += [
        kraus_from_angles(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(8)
    ]
    states = random_states(50, seed=14)
    worst = 0.0
    for ch in channels:
        prog = channel_circuit(ch)
        for rho in states:
            got = circuit_action(prog, rho)
            worst = max(worst, np.abs(got - apply_kraus(rho, ch)).max())
    assert worst < 1e-10


def test_circuit_full_damping_limit():
    prog = channel_circuit(kraus_from_angles(math.pi / 2, math.pi / 2))
    for rho in random_states(5, seed=15):
        assert np.abs(circuit_action(prog, rho) - np.diag([1, 0])).max() < 1e-12


def test_circuit_gate_set():
    prog = channel_circuit(dissipation_kraus(1.0, 0.1))
    kinds = {ins.kind for ins in prog.instructions if isinstance(ins, ci.Gate)}
    assert kinds <= {"RY", "H", "CZ"}
    assert isinstance(prog.instructions[-1], ci.MeasureAndDiscard)


def test_circuit_angle_recovery_without_metadata():
    src = dissipation_kraus(0.8, 0.2)
    bare = KrausChannel(src.ops, provenance="handmade")
    assert bare.angles is None
    prog = channel_circuit(bare)
    rho = random_states(1, seed=16)[0]
    assert np.abs(circuit_action(prog, rho) - apply_kraus(rho, src)).max() < 1e-10


def test_circuit_rejects_unsupported_channels():
    with pytest.raises(ValueError):
        channel_circuit(dephasing_kraus_corrected(1.0, 0.5))
    with pytest.raises(ValueError):
        channel_circuit(dephasing_kraus_paper(1.0, 0.5))


def test_circuit_rejects_angles_that_disagree_with_operators():
    src = dissipation_kraus(0.8, 0.2)
    wrong = KrausChannel(src.ops, provenance="handmade", angles=(0.1, 0.2))
    with pytest.raises(ValueError, match="no circuit realization"):
        channel_circuit(wrong)
    alpha, beta = src.angles
    shifted = KrausChannel(src.ops, provenance="handmade", angles=(alpha + 2 * math.pi, beta))
    rho = random_states(1, seed=18)[0]
    got = circuit_action(channel_circuit(shifted), rho)
    assert np.abs(got - apply_kraus(rho, src)).max() < 1e-10


@pytest.mark.parametrize(
    "ch",
    [
        dissipation_kraus(0.5, 1.0),
        dephasing_kraus_paper(0.5, 1.0),
        dephasing_kraus_corrected(0.5, 1.0),
        kraus_from_angles(0.3, -1.2),
    ],
    ids=lambda ch: ch.provenance.split("(")[0],
)
def test_kraus_apply_round_trips_through_text(ch):
    prog = ci.Program(2, (ci.h(1), ci.KrausApply(2, ch), ci.MeasureAndDiscard(1)))
    text = ci.export_text(prog)
    assert f"cptp={ch.cptp} " in text and f"provenance={ch.provenance} :" in text
    again = ci.parse_text(text)
    assert ci.export_text(again) == text
    parsed = again.instructions[1].channel
    assert (parsed.cptp, parsed.deficit, parsed.angles) == (ch.cptp, ch.deficit, ch.angles)
    assert all(np.array_equal(a, b) for a, b in zip(parsed.ops, ch.ops, strict=True))


# --- reporting and type hygiene -----------------------------------------------


def test_channel_report_contents():
    rate, t = 0.5, 0.4
    rep = channel_report(dissipation_kraus(rate, t))
    assert set(rep) == {
        "provenance",
        "kraus",
        "cptp_status",
        "deficit_norm",
        "bloch_diag",
        "bloch_shift",
    }
    e4, e8 = math.exp(-4 * rate * t), math.exp(-8 * rate * t)
    assert rep["cptp_status"] == "verified"
    assert np.abs(np.array(rep["bloch_diag"]) - [e4, e4, e8]).max() < 1e-12
    assert np.abs(np.array(rep["bloch_shift"]) - [0, 0, 1 - e8]).max() < 1e-12
    assert len(rep["kraus"]) == 2 and len(rep["kraus"][0]) == 2
    assert rep["kraus"][0][0][0] == [1.0, 0.0]
    import json

    json.dumps(rep)  # must be serializable as-is


def test_kraus_channel_validation():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(3),), provenance="bad")
    for provenance in ("two\nlines", "a # comment"):
        with pytest.raises(ValueError, match="provenance"):
            KrausChannel((np.eye(2),), provenance=provenance)
    for derived in ("cptp", "deficit"):
        with pytest.raises(TypeError):
            KrausChannel((np.diag([1.0, 1.1]),), provenance="bad", **{derived: "verified"})
    ch = KrausChannel((np.eye(2, dtype=complex),), provenance="id")
    assert ch.cptp == "verified" and ch.deficit == 0.0
    with pytest.raises(ValueError):
        apply_kraus(np.eye(4) / 4, kraus_from_angles(0, 0))


@pytest.mark.parametrize("n_ops", [1, 3])
def test_circuit_of_a_channel_without_two_operators_is_refused(n_ops):
    ch = KrausChannel((np.eye(2) / math.sqrt(n_ops),) * n_ops, f"{n_ops} operators")
    with pytest.raises(ValueError) as info:
        channel_circuit(ch)
    assert str(info.value) == "circuit realization needs a two-operator channel"
