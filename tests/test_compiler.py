"""Pulse compiler tests.

Expected unitaries are built independently with dense matrix exponentials of
hand-assembled Pauli terms; schedule structure is checked against the sign
matrix invariants rather than against stored artifacts.
"""

import dataclasses
import decimal
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmosim import circuit as ci
from fmosim.compiler import (
    ConfigError,
    ConjugatedSchedule,
    PulseSchedule,
    Segment,
    _flat_phases,
    _interval_instructions,
    _largest_block_norm,
    apply_schedule,
    check_sign_matrix,
    compile_single_z,
    compile_target,
    compile_xy,
    compile_zz,
    decoupling_sign_matrix,
    effective_coefficients,
    hadamard_matrix,
    parse_descriptor,
    parse_target,
    recoupling_sign_matrix,
    schedule_from_json,
    schedule_from_sign_matrix,
    schedule_program,
    schedule_to_json,
    target_unitary,
    verify_schedule,
)
from fmosim.hamiltonians import NmrParameters, nmr_diagonal
from fmosim.qcore import (
    SCHEDULE_VERIFY_ATOL,
    SX,
    SY,
    SZ,
    matexp_hermitian,
    pauli_embed,
    phase_align,
)


GOLDEN = Path(__file__).resolve().parent / "golden"


def params7(seed: int | None = None) -> NmrParameters:
    if seed is None:
        return NmrParameters(omega=np.ones(7), j=0.2 * np.ones(6))
    rng = np.random.default_rng(seed)
    return NmrParameters(omega=rng.uniform(-2, 2, 7), j=rng.uniform(-1, 1, 6))


# --- Hadamard and sign matrices ----------------------------------------------


def test_hadamard_popcount_formula():
    h = hadamard_matrix(3)
    for i in range(8):
        for j in range(8):
            assert h[i, j] == (-1) ** bin(i & j).count("1")


def test_hadamard_orthogonal_rows():
    for k in range(4):
        h = hadamard_matrix(k)
        assert np.array_equal(h @ h.T, (1 << k) * np.eye(1 << k, dtype=int))


def test_hadamard_order_cap():
    with pytest.raises(ValueError):
        hadamard_matrix(7)


def test_decoupling_matrix_first_target_is_hadamard_prefix():
    assert np.array_equal(decoupling_sign_matrix(7, 1), hadamard_matrix(3)[:7])


@pytest.mark.parametrize("n", [2, 3, 5, 7, 8])
def test_decoupling_matrices_satisfy_invariants(n):
    for target in range(1, n + 1):
        s = decoupling_sign_matrix(n, target)
        check_sign_matrix(s, "z", (target,))
        assert s.shape == (n, 1 << max(0, math.ceil(math.log2(n))))


@pytest.mark.parametrize("n", [2, 4, 7])
def test_recoupling_matrices_satisfy_invariants(n):
    for left in range(1, n):
        s = recoupling_sign_matrix(n, (left, left + 1))
        check_sign_matrix(s, "zz", (left, left + 1))


def test_recoupling_nonadjacent_pair_supported_by_generator():
    s = recoupling_sign_matrix(6, (2, 5))
    check_sign_matrix(s, "zz", (2, 5))


def test_checkers_reject_corruption():
    s = decoupling_sign_matrix(7, 2)
    bad = s.copy()
    bad[4, 3] *= -1
    with pytest.raises(ValueError):
        check_sign_matrix(bad, "z", (2,))
    r = recoupling_sign_matrix(7, (3, 4))
    bad = r.copy()
    bad[2] = bad[3] = np.abs(bad[2])  # equal but unbalanced
    with pytest.raises(ValueError):
        check_sign_matrix(bad, "zz", (3, 4))
    with pytest.raises(ValueError):
        check_sign_matrix(np.array([[1, 2], [0, 1]]), "z", (1,))


def sign_matrices(n):
    """Every Hadamard and compact sign matrix for n qubits, with its kept term."""
    p = NmrParameters(omega=np.ones(n), j=0.2 * np.ones(n - 1))
    for l in range(1, n + 1):
        yield decoupling_sign_matrix(n, l), "z", (l,)
        yield compile_single_z(l, 1.0, p).sign_matrix(), "z", (l,)
    for i in range(1, n):
        yield compile_zz((i, i + 1), 1.0, p).sign_matrix(), "zz", (i, i + 1)
        for j in range(i + 1, n + 1):
            yield recoupling_sign_matrix(n, (i, j)), "zz", (i, j)


@pytest.mark.parametrize("n", range(2, 9))
def test_checker_accepts_every_built_matrix_and_rejects_each_flip(n):
    # A flip moves its row sum by 2, off both the kept value m and 0.
    for s, kind, sites in sign_matrices(n):
        check_sign_matrix(s, kind, sites)
        for q, k in np.ndindex(s.shape):
            bad = s.copy()
            bad[q, k] *= -1
            with pytest.raises(ValueError, match="must be all \\+1|not balanced"):
                check_sign_matrix(bad, kind, sites)


def reference_compact_columns(kind, sites, n):
    """The compact (a, a*b, b, 1) columns as built with an explicit parity column."""

    def parity_column(equal_after):
        a = np.empty(n, dtype=int)
        a[0] = 1
        for q in range(1, n):
            a[q] = a[q - 1] if q == equal_after else -a[q - 1]
        return a

    b = -np.ones(n, dtype=int)
    if kind == "z":
        (l,) = sites
        a = np.ones(n, dtype=int)
        b[l - 1] = 1
        for q in range(1, n + 1):
            if q != l and (q - l) % 2 == 0:
                a[q - 1] = -1
    else:
        a = parity_column(equal_after=sites[0])
    return np.column_stack([a, a * b, b, np.ones(n, dtype=int)])


@pytest.mark.parametrize("n", range(2, 9))
def test_compact_schedules_match_parity_column_reference(n):
    p = NmrParameters(omega=np.ones(n), j=0.2 * np.ones(n - 1))
    built = [(compile_single_z(l, 0.3, p), "z", (l,)) for l in range(1, n + 1)]
    built += [(compile_zz((l, l + 1), 0.3, p), "zz", (l, l + 1)) for l in range(1, n)]
    for sched, kind, sites in built:
        want = schedule_from_sign_matrix(reference_compact_columns(kind, sites, n), 0.3)
        assert sched.pulse_layers == want.pulse_layers


def test_checker_names_the_broken_rule():
    s = decoupling_sign_matrix(4, 2)
    with pytest.raises(ValueError, match="rows 3,4 are not orthogonal"):
        check_sign_matrix(s[[0, 1, 2, 2]], "z", (2,))
    r = recoupling_sign_matrix(4, (1, 3))
    with pytest.raises(ValueError, match="pair rows must be equal"):
        check_sign_matrix(r, "zz", (1, 2))
    for kind, sites in (("xy", (1, 2)), ("z", (5,)), ("zz", (3,))):
        with pytest.raises(ValueError, match="no sign matrix rule"):
            check_sign_matrix(s, kind, sites)


def test_width_cap():
    with pytest.raises(ValueError):
        decoupling_sign_matrix(9, 1)


# --- schedules from sign matrices ---------------------------------------------


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
            min_size=1,
            max_size=10,
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_sign_matrix_round_trip(columns):
    s = np.array(columns, dtype=int).T
    sched = schedule_from_sign_matrix(s, 1.0)
    assert np.array_equal(sched.sign_matrix(), s)
    assert sched.intervals == s.shape[1]


def test_layer_rule_small_example():
    s = np.array([[1, -1], [-1, -1]])
    sched = schedule_from_sign_matrix(s, 0.5)
    assert sched.pulse_layers == ((2,), (1,), (1, 2))
    assert sched.interval_duration == 0.25


def test_frame_parity_enforced():
    with pytest.raises(ValueError):
        PulseSchedule(2, 0.1, ((1,), ()))
    with pytest.raises(ValueError):
        PulseSchedule(2, 0.1, ((3,), (3,)))


@pytest.mark.parametrize("kind, sites", [("z", (3,)), ("zz", (2, 3)), ("xy", (4, 5))])
def test_negative_pulse_times_are_refused_at_the_inputs(kind, sites):
    # compile_target (the CLI's and the digital step's entry) and the schedule
    # reader refuse negative time; the per-kind compilers still realize it as
    # the exact inverse (test_negative_time_and_coupling).
    p = params7()
    assert compile_target(kind, sites, 0.0, p).target_time == 0.0
    with pytest.raises(ValueError, match="tau = -0.1 is negative"):
        compile_target(kind, sites, -0.1, p)
    doc = json.loads(schedule_to_json(compile_target(kind, sites, 0.1, p)))
    flat = doc["segments"][1]["schedule"] if kind == "xy" else doc
    flat["interval_duration"] = -0.025
    at = "schedule.segments[1].schedule" if kind == "xy" else "schedule"
    with pytest.raises(ConfigError, match=rf"^{re.escape(at)}\.interval_duration is negative"):
        schedule_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "compile_, sites", [(compile_single_z, 3), (compile_zz, (2, 3)), (compile_xy, (4, 5))]
)
def test_schedule_writer_refuses_what_the_reader_refuses(compile_, sites):
    # The per-kind compilers realize tau < 0, but no document the reader refuses
    # is written: the writer raises the reader's error, at the same field path.
    p = params7()
    at = re.escape("schedule.segments[0].schedule" if compile_ is compile_xy else "schedule")
    for tau in (-0.5, -1e-300):
        with pytest.raises(ValueError, match=rf"^{at}\.interval_duration is negative; no pulse"):
            schedule_to_json(compile_(sites, tau, p))
    for tau in (0.0, -0.0, 0.7316):
        text = schedule_to_json(compile_(sites, tau, p))
        assert schedule_to_json(schedule_from_json(text)) == text


def test_effective_coefficients_predictor():
    p = params7(seed=5)
    tau = 0.7
    sched = compile_single_z(4, tau, p)
    z, zz = effective_coefficients(sched.sign_matrix(), p, sched.interval_duration)
    expect = np.zeros(7)
    expect[3] = 0.5 * tau * p.omega[3]
    assert np.allclose(z, expect, atol=1e-14)
    assert np.allclose(zz, 0.0, atol=1e-14)

    sched = compile_zz((2, 3), tau, p)
    z, zz = effective_coefficients(sched.sign_matrix(), p, sched.interval_duration)
    expect = np.zeros(6)
    expect[1] = tau * p.j[1]
    assert np.allclose(z, 0.0, atol=1e-14)
    assert np.allclose(zz, expect, atol=1e-14)


# --- compiled schedules vs dense exponentials ---------------------------------


def test_single_z_compact_structure():
    sched = compile_single_z(1, 1.0, params7())
    assert sched.intervals == 4
    assert sched.pulse_layers == (
        (3, 5, 7),
        (2, 3, 4, 5, 6, 7),
        (3, 5, 7),
        (2, 3, 4, 5, 6, 7),
        (),
    )


def test_zz_compact_structure():
    sched = compile_zz((3, 4), 1.0, params7())
    assert sched.intervals == 4
    assert sched.pulse_layers == (
        (2, 5, 7),
        (1, 2, 3, 4, 5, 6, 7),
        (2, 5, 7),
        (1, 2, 3, 4, 5, 6, 7),
        (),
    )


@pytest.mark.parametrize("l", range(1, 8))
def test_single_z_all_targets_verify(l):
    p = params7(seed=l)
    report = verify_schedule(compile_single_z(l, 0.9, p), p)
    assert report.passed and report.norm_error < 1e-10
    assert report.note == ""


@pytest.mark.parametrize("left", range(1, 7))
def test_zz_all_bonds_verify(left):
    p = params7(seed=10 + left)
    report = verify_schedule(compile_zz((left, left + 1), 1.3, p), p)
    assert report.passed and report.norm_error < 1e-10


def test_zz_rejects_nonadjacent_pair():
    with pytest.raises(ValueError):
        compile_zz((2, 5), 1.0, params7())


def test_negative_time_and_coupling():
    p = params7(seed=3)
    assert verify_schedule(compile_single_z(2, -0.6, p), p).passed
    assert verify_schedule(compile_zz((5, 6), -1.1, p), p).passed


def test_hadamard_path_schedules_verify():
    p = params7(seed=42)
    tau = 0.8
    sched = schedule_from_sign_matrix(
        decoupling_sign_matrix(7, 3), tau, f"z:3 coeff={0.5 * tau * p.omega[2]:.17g}"
    )
    assert sched.intervals == 8
    assert verify_schedule(sched, p).passed
    sched = schedule_from_sign_matrix(
        recoupling_sign_matrix(7, (2, 3)), tau, f"zz:2,3 coeff={tau * p.j[1]:.17g}"
    )
    assert verify_schedule(sched, p).passed


def test_xy_matches_dense_exponential():
    p = params7(seed=8)
    tau = 0.45
    sched = compile_xy((3, 4), tau, p)
    hop = pauli_embed(SX, 3, 7) @ pauli_embed(SX, 4, 7) + pauli_embed(
        SY, 3, 7
    ) @ pauli_embed(SY, 4, 7)
    want = matexp_hermitian(hop, -1j * tau * p.j[2])
    got = ci.unitary_of(schedule_program(sched, p))
    # conjugator singles are phase-exact too, so no alignment is needed
    assert np.abs(got - want).max() < 1e-12
    report = verify_schedule(sched, p)
    assert report.passed and report.fidelity > 1 - 1e-12


def test_xy_segment_layout():
    sched = compile_xy((1, 2), 0.3, params7())
    assert isinstance(sched, ConjugatedSchedule)
    assert len(sched.segments) == 2
    xx, yy = sched.segments
    assert {g.kind for g in xx.pre} == {"H"} and {g.kind for g in xx.post} == {"H"}
    assert {g.kind for g in yy.pre} == {"RX"} and {g.kind for g in yy.post} == {"RX"}
    assert all(g.angle == -math.pi / 2 for g in yy.pre)
    assert all(g.angle == math.pi / 2 for g in yy.post)
    for seg in sched.segments:
        assert seg.schedule.target.startswith("zz:1,2 ")


def test_golden_amplitude_includes_global_phase():
    p = params7()
    prog = schedule_program(compile_single_z(1, 1.0, p), p)
    psi = ci.run_statevector(prog)
    assert abs(psi[0] - np.exp(-0.5j)) < 1e-12
    assert abs(np.abs(psi[0]) - 1.0) < 1e-12


def test_verify_detects_corrupted_layers():
    p = params7()
    good = compile_single_z(1, 1.0, p)
    layers = list(good.pulse_layers)
    # drop qubit 2 from both flip layers: its row becomes all +1 and the
    # omega_2 term survives decoupling, while the frame stays closed
    layers[1] = (3, 4, 5, 6, 7)
    layers[3] = (3, 4, 5, 6, 7)
    bad = PulseSchedule(7, good.interval_duration, tuple(layers), good.target)
    report = verify_schedule(bad, p)
    assert not report.passed
    assert report.norm_error > 1e-2


def test_verify_notes_parameter_mismatch():
    p = params7()
    sched = compile_single_z(1, 1.0, p)
    doubled = NmrParameters(omega=2 * np.ones(7), j=0.2 * np.ones(6))
    report = verify_schedule(sched, doubled)
    assert not report.passed
    assert "0.5" in report.note and "1" in report.note
    assert report.params_coefficient == pytest.approx(1.0)


# --- block reconstruction vs the dense unitary ----------------------------------


def dense_verify(sched, params, lowering):
    """The dense path: the full 2^n x 2^n schedule unitary against the full target."""
    v = target_unitary(sched.target, sched.n_qubits)
    u = phase_align(ci.unitary_of(schedule_program(sched, params, lowering)), v)
    err = float(np.linalg.norm(u - v, 2))
    return err, abs(np.vdot(u, v)) / len(u), err <= SCHEDULE_VERIFY_ATOL


def assert_matches_dense(sched, params, lowering):
    report = verify_schedule(sched, params, lowering)
    err, fid, passed = dense_verify(sched, params, lowering)
    assert abs(report.norm_error - err) <= 1e-12, (sched.target, lowering)
    assert abs(report.fidelity - fid) <= 1e-12, (sched.target, lowering)
    assert report.passed == passed, (sched.target, lowering)
    return report


@pytest.mark.parametrize("lowering", ["opaque", "gates"])
@pytest.mark.parametrize("n", range(2, 9))
def test_verify_matches_dense_reconstruction(n, lowering):
    rng = np.random.default_rng(40 + n)
    p = NmrParameters(omega=rng.uniform(-2, 2, n), j=rng.uniform(-1, 1, n - 1))
    specs = [f"z:{l}" for l in range(1, n + 1)] + [f"xy:{l},{l + 1}" for l in range(1, n)]
    specs += ["zz:3,4"] if n >= 4 else []
    for spec in specs:
        sched = compile_target(*parse_target(spec), 0.7316, p)
        assert assert_matches_dense(sched, p, lowering).passed


@pytest.mark.parametrize("lowering", ["opaque", "gates"])
def test_verify_matches_dense_on_wrong_schedules(lowering):
    p = params7(seed=51)
    z = compile_single_z(1, 1.0, p)
    xy = compile_xy((2, 3), 0.6, p)
    layers = list(z.pulse_layers)
    layers[1] = layers[3] = (3, 4, 5, 6, 7)  # qubit 2's pulse pair dropped
    extra_h = dataclasses.replace(xy.segments[0], pre=xy.segments[0].pre + (ci.h(5),))
    wrong = [
        dataclasses.replace(z, target=f"z:1 coeff={0.5 * 1.1 * p.omega[0]:.17g}"),
        dataclasses.replace(xy, target=f"xy:2,3 coeff={1.1 * p.j[1]:.17g}"),
        PulseSchedule(7, z.interval_duration, tuple(layers), z.target),
        dataclasses.replace(xy, segments=(extra_h,) + xy.segments[1:]),
    ]
    for sched in wrong:
        assert not assert_matches_dense(sched, p, lowering).passed, sched.target
    for sched in (z, xy):
        assert not assert_matches_dense(sched, params7(seed=52), lowering).passed
    # Passing edits, still compared: swapping pre and post turns YY into
    # (-Y)(-Y), and H on every other qubit before and after each segment
    # conjugates the identity the segment leaves there (one block of all 7 qubits).
    others = tuple(ci.h(q) for q in (1, 4, 5, 6, 7))
    swapped = [Segment(seg.post, seg.schedule, seg.pre) for seg in xy.segments]
    everywhere = [Segment(seg.pre + others, seg.schedule, others + seg.post) for seg in xy.segments]
    for segments in (swapped, everywhere):
        sched = dataclasses.replace(xy, segments=tuple(segments))
        assert assert_matches_dense(sched, p, lowering).passed


def test_schedule_program_rejects_width_mismatch():
    sched = compile_single_z(1, 1.0, params7())
    with pytest.raises(ValueError):
        schedule_program(sched, NmrParameters(omega=np.ones(3), j=np.zeros(2)))


def test_conjugated_schedule_rejects_a_segment_of_another_width():
    seg = compile_xy((1, 2), 0.4, params7()).segments[0]
    with pytest.raises(ValueError, match="segment width"):
        ConjugatedSchedule(6, "xy:1,2 coeff=0.08", (seg,))


# --- the shared reconstruction vs the dense circuit ---------------------------------


def hand_conjugated(n, p):
    """Conjugators on descending and non-adjacent qubits around zz and z segments."""
    zz = compile_zz((1, 2), 0.37, p)
    z = compile_single_z(n, 0.61, p)
    first = Segment((ci.cnot(n, 1), ci.h(n)), zz, (ci.rx(0.3, 1), ci.cz(n, 1)))
    second = Segment((ci.ry(-0.8, n), ci.cz(2, 1)), z, (ci.h(1),))
    return ConjugatedSchedule(n, zz.target, (first, second))


@pytest.mark.parametrize("lowering", ["opaque", "gates"])
@pytest.mark.parametrize("n", range(2, 9))
def test_apply_schedule_matches_the_dense_circuit(n, lowering):
    rng = np.random.default_rng(60 + n)
    p = NmrParameters(omega=rng.uniform(-2, 2, n), j=rng.uniform(-1, 1, n - 1))
    scheds = [compile_single_z(l, 0.7316, p) for l in (1, n)]
    scheds += [compile_zz((1, 2), 0.5, p), compile_xy((n - 1, n), 0.9, p), hand_conjugated(n, p)]
    for sched in scheds:
        k = int(rng.integers(1, 6))
        u = rng.normal(size=(2**n, k)) + 1j * rng.normal(size=(2**n, k))
        want = ci.unitary_of(schedule_program(sched, p, lowering)) @ u
        got = apply_schedule(sched, p, u, lowering)
        assert got.shape == (2**n, k)
        assert np.abs(got - want).max() <= 1e-13, (sched.target, lowering)


def interval_walk_phases(sched, params, lowering):
    """Reference: the phase walk of a flat schedule run interval by interval."""
    n = sched.n_qubits
    idx, phase = np.arange(2**n), np.ones(2**n, dtype=complex)
    gates = _interval_instructions(params, sched.interval_duration, lowering)
    for layer in sched.pulse_layers[:-1]:
        for q in layer:
            idx ^= 1 << (n - q)
        for g in gates:
            d = ci.gate_matrix(g)
            if g.kind == "CNOT":
                idx ^= ((idx >> (n - g.qubits[0])) & 1) << (n - g.qubits[1])
            else:
                bits = (idx >> (n - g.qubits[-1])) & (len(d) - 1)
                phase *= (d if d.ndim == 1 else d.diagonal())[bits]
    return phase


@pytest.mark.parametrize("seed", [None, 3])
def test_batched_phase_walk_is_the_interval_walk_bit_for_bit(seed):
    p = params7(seed)
    targets = [("z", (l,)) for l in range(1, 8)] + [("xy", (l, l + 1)) for l in range(1, 7)]
    for tau in (0.25, 0.7316, 1.3):
        for kind, sites in targets:
            for seg in compile_target(kind, sites, tau, p).segments:
                for lowering in ("opaque", "gates"):
                    want = interval_walk_phases(seg.schedule, p, lowering)
                    got = _flat_phases(seg.schedule, p, lowering)
                    assert got.tobytes() == want.tobytes(), (kind, sites, tau, lowering)


@pytest.mark.parametrize("lowering", ["opaque", "gates"])
def test_apply_schedule_walks_a_shared_flat_schedule_once(lowering, monkeypatch):
    """An xy schedule's two segments share one zz schedule, also once read back from
    JSON (equal, not identical): one phase walk, and the per-segment result bit for bit."""
    import fmosim.compiler as compiler

    p = params7(5)
    sched = compile_xy((3, 4), 0.7316, p)
    u = np.random.default_rng(8).normal(size=(2**7, 3)) + 0j
    want = u
    for seg in sched.segments:
        phases = _flat_phases(seg.schedule, p, lowering)
        want = ci.apply_gates(seg.pre, want)
        want = ci.apply_gates(seg.post, ci.apply(phases, range(1, 8), want))
    walks = []
    monkeypatch.setattr(compiler, "_flat_phases", lambda *a: walks.append(a) or _flat_phases(*a))
    for same in (sched, schedule_from_json(schedule_to_json(sched))):
        walks.clear()
        got = apply_schedule(same, p, u, lowering)
        assert len(walks) == 1 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lowering", ["opaque", "gates"])
def test_verify_norm_error_is_the_largest_block_two_norm(lowering, monkeypatch):
    """On a broken schedule, whose blocks differ, ``norm_error`` is exactly
    ``np.linalg.norm(u - v, 2, axis=(1, 2)).max()`` of the stacked blocks it compares."""
    p = params7(4)
    good = compile_xy((2, 3), 0.7316, p)
    flat = good.segments[0].schedule
    broken = dataclasses.replace(flat, pulse_layers=((), (1, 5), (), (1, 5), ()))
    sched = ConjugatedSchedule(7, good.target, (dataclasses.replace(good.segments[0], schedule=broken),))
    svd, seen = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a.copy()) or svd(a, **kw))
    report = verify_schedule(sched, p, lowering)
    monkeypatch.undo()
    [blocks] = seen
    norms = np.linalg.norm(blocks, 2, axis=(1, 2))
    assert not report.passed and np.ptp(norms) > 1e-3
    assert report.norm_error == norms.max()


def exact_largest_norm(blocks) -> float:
    """The largest 2-norm of 2 x 2 blocks in 50-digit decimal arithmetic, from the
    exact values of their entries: sqrt of the Gram's largest eigenvalue."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        best = decimal.Decimal(0)
        for (a, b), (c, d) in np.asarray(blocks).tolist():
            (ar, ai), (br, bi), (cr, cim), (dr, di) = (
                (decimal.Decimal(z.real), decimal.Decimal(z.imag)) for z in (a, b, c, d))
            g00 = ar * ar + ai * ai + cr * cr + cim * cim  # column (a, c)
            g11 = br * br + bi * bi + dr * dr + di * di  # column (b, d)
            g01r = ar * br + ai * bi + cr * dr + cim * di  # g01 = conj(a) b + conj(c) d
            g01i = ar * bi - ai * br + cr * di - cim * dr
            half = (g00 - g11) / 2
            root = (half * half + g01r * g01r + g01i * g01i).sqrt()
            best = max(best, ((g00 + g11) / 2 + root).sqrt())
    return float(best)


def two_by_two_stacks():
    """Named 2 x 2 stacks: random at scales 1e-16..2, diagonal, rank one, equal
    singular values (scaled unitaries) and all zero."""
    rng = np.random.default_rng(34)

    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for scale in np.geomspace(1e-16, 2.0, 12):
        for size in (1, 5, 64):
            yield f"random-{scale:.0e}-{size}", scale * gauss(size, 2, 2)
    for scale in (1e-16, 1e-8, 1.0, 2.0):
        yield f"diagonal-{scale:.0e}", scale * np.einsum("bi,ij->bij", gauss(64, 2), np.eye(2))
        yield f"rank-one-{scale:.0e}", scale * gauss(64, 2, 1) @ gauss(64, 1, 2)
        q, _ = np.linalg.qr(gauss(64, 2, 2))
        yield f"equal-{scale:.0e}", scale * rng.uniform(0.5, 1.0, (64, 1, 1)) * q
    yield "zero", np.zeros((64, 2, 2), dtype=complex)


STACKS = dict(two_by_two_stacks())


# ``np.linalg.svd`` itself strays from the exact largest 2 x 2 norm, by up to 5.6 ulp
# over 20 000 random stacks, so the closed form is held to the exact norm within 2 ulp
# and to the SVD within 8.
SVD_ULPS = 8


@pytest.mark.parametrize("name", STACKS)
def test_closed_form_block_norm_matches_the_svd(name):
    a = STACKS[name]
    got = _largest_block_norm(a)
    exact = exact_largest_norm(a)
    svd = float(np.linalg.svd(a, compute_uv=False).max())
    assert abs(got - exact) <= 2 * np.spacing(exact), (got, exact)
    assert abs(got - svd) <= SVD_ULPS * np.spacing(svd), (got, svd)


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("lowering", ["opaque", "gates"])
def test_single_qubit_verify_norm_error_is_the_svd_of_its_blocks(lowering, seed, monkeypatch):
    """Every ``z:l`` target compares 2 x 2 blocks: ``norm_error`` lies within 1 ulp of
    their exact largest norm and within ``SVD_ULPS`` of their SVD, and ``passed`` is
    what the SVD would decide."""
    import fmosim.compiler as compiler

    p, seen = params7(seed), []
    monkeypatch.setattr(compiler, "_largest_block_norm",
                        lambda a: seen.append(a.copy()) or _largest_block_norm(a))
    for l in range(1, 8):
        for tau in (0.5, 0.7316, 1.0, 3.3, 17.0):
            seen.clear()
            report = verify_schedule(compile_single_z(l, tau, p), p, lowering)
            [blocks] = seen
            exact = exact_largest_norm(blocks)
            svd = float(np.linalg.svd(blocks, compute_uv=False).max())
            assert blocks.shape == (64, 2, 2)
            assert abs(report.norm_error - exact) <= np.spacing(exact), (l, tau)
            assert abs(report.norm_error - svd) <= SVD_ULPS * np.spacing(svd), (l, tau)
            assert report.passed and svd <= SCHEDULE_VERIFY_ATOL


@pytest.mark.parametrize("lowering", ["opaque", "gates"])
@pytest.mark.parametrize("l", range(1, 7))
def test_xy_program_lowers_its_shared_zz_schedule_once(l, lowering):
    """Both segments of an ``xy`` program hold the same interval and X gate objects, one X
    object per pulsed qubit, and the program exports the golden circuit text."""
    p = params7()
    prog = schedule_program(compile_xy((l, l + 1), 0.7316, p), p, lowering)
    ins = prog.instructions
    half = len(ins) // 2
    first, second = ins[2 : half - 2], ins[half + 2 : -2]  # between the two conjugator pairs
    assert len(first) == len(second) and all(a is b for a, b in zip(first, second))
    xs: dict[int, set[int]] = {}
    for g in ins:
        if g.kind == "X":
            xs.setdefault(g.qubits[0], set()).add(id(g))
    assert xs and all(len(objects) == 1 for objects in xs.values())
    if lowering == "gates":
        golden = GOLDEN / f"compile-xy-{l}-{l + 1}.txt"
        assert ci.export_text(prog) == golden.read_text()


# --- lowering modes ------------------------------------------------------------


def test_gate_lowering_matches_opaque():
    p = params7(seed=21)
    for sched in (compile_zz((4, 5), 0.9, p), compile_xy((2, 3), 0.6, p)):
        u_a = ci.unitary_of(schedule_program(sched, p, "opaque"))
        u_b = ci.unitary_of(schedule_program(sched, p, "gates"))
        assert np.abs(u_a - u_b).max() < 1e-12


def test_gate_lowering_verifies():
    p = params7(seed=22)
    report = verify_schedule(compile_single_z(6, 1.2, p), p, lowering="gates")
    assert report.passed


def test_opaque_interval_matches_hamiltonian_exponential():
    p = params7(seed=23)
    sched = compile_single_z(2, 0.4, p)
    prog = schedule_program(sched, p, "opaque")
    blocks = [ins for ins in prog.instructions if ins.kind == "UNITARY"]
    assert len(blocks) == sched.intervals
    want = matexp_hermitian(np.diag(nmr_diagonal(p)), -1j * sched.interval_duration)
    assert np.abs(np.diag(blocks[0].matrix) - want).max() < 1e-12


def test_opaque_program_survives_the_text_round_trip():
    p = params7(seed=24)
    for sched in (compile_single_z(3, 0.7316, p), compile_xy((2, 3), 0.7316, p)):
        prog = schedule_program(sched, p, "opaque")
        vectors = [ins.matrix for ins in prog.instructions if ins.kind == "UNITARY"]
        assert vectors and all(v.shape == (2**7,) for v in vectors)
        parsed = ci.parse_text(ci.export_text(prog))
        assert np.abs(ci.unitary_of(parsed) - ci.unitary_of(prog)).max() <= 1e-15


def test_unknown_lowering_rejected():
    sched = compile_single_z(1, 1.0, params7())
    with pytest.raises(ValueError):
        schedule_program(sched, params7(), lowering="pulses")


# --- descriptors and JSON ------------------------------------------------------


def test_descriptor_round_trip():
    kind, sites, coeff = parse_descriptor("zz:3,4 coeff=0.125")
    assert (kind, sites, coeff) == ("zz", (3, 4), 0.125)
    with pytest.raises(ValueError):
        parse_descriptor("yy:1 coeff=1")
    with pytest.raises(ValueError):
        parse_descriptor("z:1 angle=1")
    for desc in ("z:1,2 coeff=1", "xy:3 coeff=1", "zz:1,2,3 coeff=1"):
        with pytest.raises(ValueError, match="malformed target descriptor"):
            parse_descriptor(desc)


def test_parse_target_accepts_terms_and_rejects_bad_arity_or_kind():
    assert parse_target("z:3") == ("z", (3,))
    assert parse_target("zz:3,4") == ("zz", (3, 4))
    assert parse_target("xy:3,4") == ("xy", (3, 4))
    for spec in ("z:1,2", "xy:3", "zz:1,2,3", "w:1", "z:", "z:a", ":1", "Z:1"):
        with pytest.raises(ValueError, match="malformed target"):
            parse_target(spec)


CHAIN_TARGETS = [f"z:{l}" for l in range(1, 8)] + [f"xy:{l},{l + 1}" for l in range(1, 7)]


@pytest.mark.parametrize("spec", CHAIN_TARGETS + ["zz:3,4"])
def test_target_grammar_is_the_descriptor_head(spec):
    sched = compile_target(*parse_target(spec), 0.7316, params7(5))
    assert parse_descriptor(sched.target)[:2] == parse_target(spec)


def pauli_embed_target(kind, sites, coeff, n):
    """Reference: exp(-i coeff P), with P built from 2^n x 2^n pauli_embed products."""
    a, b = sites[0], sites[-1]
    if kind == "z":
        op = pauli_embed(SZ, a, n)
    elif kind == "zz":
        op = pauli_embed(SZ, a, n) @ pauli_embed(SZ, b, n)
    else:
        xx = pauli_embed(SX, a, n) @ pauli_embed(SX, b, n)
        op = xx + pauli_embed(SY, a, n) @ pauli_embed(SY, b, n)
    return matexp_hermitian(op, -1j * coeff)


def test_target_unitary_matches_pauli_embed_exponential():
    rng = np.random.default_rng(29)
    for n in range(1, 8):
        coeff = rng.uniform(-2.0, 2.0)
        targets = [("z", (q,)) for q in range(1, n + 1)]
        targets += [
            (kind, (a, b))
            for kind in ("zz", "xy")
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            if a != b
        ]
        for kind, sites in targets:
            desc = f"{kind}:{','.join(map(str, sites))} coeff={coeff!r}"
            want = pauli_embed_target(kind, sites, coeff, n)
            assert np.abs(target_unitary(desc, n) - want).max() <= 1e-14, desc
    for desc in ("z:0 coeff=1", "z:5 coeff=1", "xy:3,3 coeff=1", "zz:1,5 coeff=1"):
        with pytest.raises(ValueError):
            target_unitary(desc, 4)


def test_target_unitary_single_z_diagonal():
    u = target_unitary("z:1 coeff=0.5", 1)
    assert np.allclose(u, np.diag([np.exp(-0.5j), np.exp(0.5j)]))


def test_flat_json_round_trip():
    sched = compile_zz((5, 6), 0.7321, params7(seed=31))
    again = schedule_from_json(schedule_to_json(sched))
    assert again == sched
    assert again.interval_duration == sched.interval_duration


def test_segmented_json_round_trip():
    sched = compile_xy((6, 7), 1.17, params7(seed=32))
    text = schedule_to_json(sched)
    assert schedule_to_json(schedule_from_json(text)) == text


def test_json_rejects_unknown_keys_and_bad_counts():
    sched = compile_single_z(3, 1.0, params7())
    import json as _json

    doc = _json.loads(schedule_to_json(sched))
    doc["extra"] = 1
    with pytest.raises(ValueError):
        schedule_from_json(_json.dumps(doc))
    del doc["extra"]
    doc["intervals"] = 3
    with pytest.raises(ValueError):
        schedule_from_json(_json.dumps(doc))
    empty = {"n_qubits": 7, "target": "xy:1,2 coeff=0.1", "segments": []}
    with pytest.raises(ValueError, match="at least one segment"):
        schedule_from_json(_json.dumps(empty))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: decoupling_sign_matrix(3, 0), "target 0 outside 1..3"),
        (lambda: decoupling_sign_matrix(3, 4), "target 4 outside 1..3"),
        (lambda: recoupling_sign_matrix(3, (2, 1)), "bad pair (2, 1) for 3 qubits"),
        (lambda: recoupling_sign_matrix(3, (1, 4)), "bad pair (1, 4) for 3 qubits"),
        (lambda: PulseSchedule(2, math.inf, ((), ())), "interval duration must be finite"),
        (lambda: PulseSchedule(2, math.nan, ((), ())), "interval duration must be finite"),
    ],
    ids=["target-low", "target-high", "pair-reversed", "pair-outside", "duration-inf",
         "duration-nan"],
)
def test_refusals_keep_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_segments_and_conjugated_schedules_hold_tuples():
    p = params7()
    xy = compile_xy((2, 3), 0.4, p)
    listed = ConjugatedSchedule(
        7, xy.target, [Segment(list(seg.pre), seg.schedule, list(seg.post)) for seg in xy.segments])
    assert isinstance(listed.segments, tuple) and hash(listed) == hash(xy)
    assert all(isinstance(seg.pre, tuple) and isinstance(seg.post, tuple) for seg in listed.segments)
    assert verify_schedule(listed, p).passed and schedule_to_json(listed) == schedule_to_json(xy)
