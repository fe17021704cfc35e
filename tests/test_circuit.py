"""Tests for the circuit IR, simulators and the text format."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmosim import circuit as ci
from fmosim.qcore import ID2, SX, SZ, RegisterTooLarge, is_unitary, parse_basis_label, pauli_embed

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / math.sqrt(2)


def test_gate_validation():
    with pytest.raises(ValueError):
        ci.Gate("X", (1, 2))
    with pytest.raises(ValueError):
        ci.Gate("RZ", (1,))  # missing angle
    with pytest.raises(ValueError):
        ci.Gate("NOPE", (1,))
    with pytest.raises(ValueError):
        ci.cnot(2, 2)
    with pytest.raises(ValueError):
        ci.unitary_gate(np.eye(3), (1, 2))
    with pytest.raises(ValueError):
        ci.unitary_gate(1.001 * np.eye(2), (1,))


def test_program_qubit_range_checked():
    with pytest.raises(ValueError):
        ci.Program(2, (ci.x(3),))
    with pytest.raises(ValueError):
        ci.Program(1, (ci.MeasureAndDiscard(1),))


def test_builtin_gate_matrices_unitary():
    gates = [
        ci.x(1),
        ci.h(1),
        ci.rx(0.3, 1),
        ci.ry(-1.2, 1),
        ci.rz(2.5, 1),
        ci.cz(1, 2),
        ci.cnot(1, 2),
    ]
    for g in gates:
        assert is_unitary(ci.gate_matrix(g))


def test_h_cz_h_is_cnot():
    prog = ci.Program(2, (ci.h(2), ci.cz(1, 2), ci.h(2)))
    np.testing.assert_allclose(
        ci.unitary_of(prog), ci.gate_matrix(ci.cnot(1, 2)), atol=1e-12
    )


def test_statevector_hadamard():
    psi = ci.run_statevector(ci.Program(1, (ci.h(1),)), "0")
    np.testing.assert_allclose(psi, np.array([1, 1]) / math.sqrt(2), atol=1e-12)


def test_statevector_qubit_order():
    # X on qubit 1 of 3 flips the most significant bit.
    psi = ci.run_statevector(ci.Program(3, (ci.x(1),)), "000")
    assert abs(psi[4] - 1) < 1e-12


def test_bell_state():
    psi = ci.run_statevector(ci.Program(2, (ci.h(1), ci.cnot(1, 2))), "00")
    np.testing.assert_allclose(psi, BELL, atol=1e-12)


def _random_program(n, depth, rng):
    pool = []
    for _ in range(depth):
        kind = rng.integers(0, 6)
        q = int(rng.integers(1, n + 1))
        q2 = int(rng.integers(1, n + 1))
        while q2 == q:
            q2 = int(rng.integers(1, n + 1))
        theta = float(rng.uniform(-np.pi, np.pi))
        pool.append(
            [
                ci.x(q),
                ci.h(q),
                ci.rx(theta, q),
                ci.rz(theta, q),
                ci.cnot(q, q2),
                ci.cz(q2, q),
            ][kind]
        )
    return ci.Program(n, tuple(pool))


def test_simulators_agree_with_reconstructed_unitary():
    rng = np.random.default_rng(11)
    for _ in range(10):
        prog = _random_program(4, 12, rng)
        u = ci.unitary_of(prog)
        assert is_unitary(u)
        psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 /= np.linalg.norm(psi0)
        np.testing.assert_allclose(
            ci.run_statevector(prog, psi0), u @ psi0, atol=1e-10
        )
        rho0 = np.outer(psi0, psi0.conj())
        np.testing.assert_allclose(
            ci.run_density(prog, rho0), u @ rho0 @ u.conj().T, atol=1e-10
        )


def test_adjoint_program_restores_identity():
    rng = np.random.default_rng(5)
    prog = _random_program(3, 10, rng)
    u = ci.unitary_of(prog)
    inverse = ci.Program(3, tuple(ci.unitary_gate(ci.gate_matrix(g).conj().T, g.qubits)
                                  for g in reversed(prog.instructions)))
    np.testing.assert_allclose(ci.unitary_of(inverse) @ u, np.eye(8), atol=1e-10)


def test_opaque_block_on_scattered_qubits():
    # UNITARY applied to (3, 1) of a 3-qubit register, compared against
    # an explicit permutation-aware embedding.
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(a)
    prog = ci.Program(3, (ci.unitary_gate(q, (3, 1)),))
    u = ci.unitary_of(prog)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)
    # reference: reorder axes to (3,1,2), apply on first two axes, restore
    t = psi.reshape(2, 2, 2).transpose(2, 0, 1)
    t = (q.reshape(2, 2, 2, 2).reshape(4, 4) @ t.reshape(4, 2)).reshape(2, 2, 2)
    ref = t.transpose(1, 2, 0).reshape(8)
    np.testing.assert_allclose(u @ psi, ref, atol=1e-12)


def test_unitary_of_rejects_nonunitary_instructions():
    prog = ci.Program(2, (ci.h(1), ci.MeasureAndDiscard(2)))
    with pytest.raises(ValueError):
        ci.unitary_of(prog)
    with pytest.raises(ValueError):
        ci.run_statevector(prog, "00")


def test_unitary_of_register_cap():
    with pytest.raises(ValueError):
        ci.unitary_of(ci.Program(11, (ci.x(1),)))


# --- the matmul kernel against a tensordot reference simulator ---------------------
#
# A self-contained reference that shares no placement code with ``apply``:
# statevectors on rank-n tensors, unitaries column by column, and densities on
# rank-2n tensors with u on axis q - 1 and u.conj() on axis n + q - 1, so rho's
# columns are not reached through its adjoint.  A phase vector enters as its diagonal.


def tensordot_apply(tensor, u, qubits, offset):
    """Contract u's input axes with the axes offset + q - 1, then move the axes back."""
    k = len(qubits)
    axes = [offset + q - 1 for q in qubits]
    ut = (np.diag(u) if u.ndim == 1 else u).reshape((2,) * (2 * k))
    out = np.tensordot(ut, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def reference_statevector(program, psi):
    n = program.n_qubits
    t = np.asarray(psi, dtype=complex).reshape((2,) * n)
    for g in program.instructions:
        t = tensordot_apply(t, ci.gate_matrix(g), g.qubits, 0)
    return t.reshape(2**n)


def reference_unitary(program):
    eye = np.eye(2**program.n_qubits, dtype=complex)
    return np.column_stack([reference_statevector(program, col) for col in eye.T])


def reference_density(program, rho):
    n = program.n_qubits
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * n))
    for ins in program.instructions:
        if isinstance(ins, ci.MeasureAndDiscard):
            keep = [q for q in range(1, n + 1) if q != ins.qubit]
            t = ci.partial_trace(t.reshape(2**n, 2**n), keep, n)
            n -= 1
            t = t.reshape((2,) * (2 * n))
            continue
        if isinstance(ins, ci.Gate):
            ops, qubits = [ci.gate_matrix(ins)], ins.qubits
        else:
            ops, qubits = ins.channel.ops, (ins.qubit,)
        t = sum(tensordot_apply(tensordot_apply(t, k, qubits, 0), k.conj(), qubits, n) for k in ops)
    return t.reshape(2**n, 2**n)


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kernel_program(n, rng, noisy):
    """Random 1-3-qubit UNITARY gates, dense or phase vectors, in any qubit order.

    If noisy, Kraus channels and discards too.
    """
    ins, live = [], n
    for _ in range(10):
        k = int(rng.integers(1, min(3, live) + 1))
        qubits = tuple(int(q) + 1 for q in rng.permutation(live)[:k])
        if rng.random() < 0.3:
            ins.append(ci.unitary_gate(np.exp(1j * rng.uniform(-math.pi, math.pi, size=2**k)), qubits))
        else:
            ins.append(ci.unitary_gate(random_unitary(2**k, rng), qubits))
        if noisy and rng.random() < 0.4:
            g = rng.uniform()
            ops = (np.diag([1.0, np.sqrt(1.0 - g)]), np.array([[0.0, np.sqrt(g)], [0.0, 0.0]]))
            ch = ci.KrausChannel(ops, provenance=f"damp({g:.3f})")
            ins.append(ci.KrausApply(int(rng.integers(1, live + 1)), ch))
        if noisy and live > 1 and rng.random() < 0.15:
            ins.append(ci.MeasureAndDiscard(int(rng.integers(1, live + 1))))
            live -= 1
    return ci.Program(n, tuple(ins))


def test_matmul_kernel_matches_tensordot_kernel():
    rng = np.random.default_rng(17)
    cases = []
    for n in range(1, 7):
        for _ in range(4):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            rho = a @ a.conj().T
            gates = random_kernel_program(n, rng, noisy=False)
            noisy = random_kernel_program(n, rng, noisy=True)
            cases.append((gates, noisy, psi / np.linalg.norm(psi), rho / np.trace(rho)))
    placements = [g.qubits for gates, _, _, _ in cases for g in gates.instructions]
    assert any(list(q) != sorted(q) for q in placements)  # descending
    assert any(max(q) - min(q) >= len(q) for q in placements)  # non-adjacent
    assert any(len(q) == 3 for q in placements)
    ins_all = [ins for gates, noisy, _, _ in cases for ins in gates.instructions + noisy.instructions]
    assert {ci.KrausApply, ci.MeasureAndDiscard} <= {type(ins) for ins in ins_all}
    assert {g.matrix.ndim for g in ins_all if isinstance(g, ci.Gate)} == {1, 2}  # phase vectors too

    for gates, noisy, psi, rho in cases:
        pairs = [
            (ci.unitary_of(gates), reference_unitary(gates)),
            (ci.run_statevector(gates, psi), reference_statevector(gates, psi)),
            (ci.run_density(noisy, rho), reference_density(noisy, rho)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape and np.abs(got - want).max() <= 1e-12


def moveaxis_apply(op, qubits, u):
    """Reference: ``circuit.apply`` with both ``moveaxis`` calls, for any placement."""
    n, k, axes = len(u).bit_length() - 1, len(qubits), [q - 1 for q in qubits]
    block = list(range(min(axes), min(axes) + k))
    t = np.moveaxis(u.reshape((2,) * n + (-1,)), axes, block)
    t3 = t.reshape(2 ** min(axes), 2**k, -1)
    out = op[:, None] * t3 if op.ndim == 1 else np.matmul(op, t3)
    return np.moveaxis(out.reshape(t.shape), block, axes).reshape(len(u), -1)


@pytest.mark.parametrize("n", range(1, 8))
def test_ascending_neighbour_placement_is_the_moveaxis_form_bit_for_bit(n):
    """The no-move path of ``apply`` (ascending neighbours) against the general form:
    matrices and phase vectors, on C-contiguous matrices and on the transposed
    conjugate views that ``operator_sum`` passes."""
    rng = np.random.default_rng(90 + n)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    inputs = [a, a.conj().T, a[:, ::2]]
    assert not (inputs[1].flags.c_contiguous or inputs[2].flags.c_contiguous)
    for lo in range(1, n + 1):
        for k in range(1, n - lo + 2):
            qubits = tuple(range(lo, lo + k))
            ops = [rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)),
                   np.exp(1j * rng.uniform(-np.pi, np.pi, 2**k))]
            for op in ops:
                for u in inputs:
                    got, want = ci.apply(op, qubits, u), moveaxis_apply(op, qubits, u)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), qubits


# --- a diagonal UNITARY held as its phase vector ----------------------------------


def test_phase_vector_gate_matches_its_dense_diagonal():
    rng = np.random.default_rng(31)
    placements = []
    for n in range(1, 6):
        for _ in range(6):
            k = int(rng.integers(1, n + 1))
            qubits = tuple(int(q) + 1 for q in rng.permutation(n)[:k])
            placements.append(qubits)
            d = np.exp(1j * rng.uniform(-math.pi, math.pi, size=2**k))
            vec = ci.Program(n, (ci.unitary_gate(d, qubits),))
            dense = ci.Program(n, (ci.unitary_gate(np.diag(d), qubits),))
            assert vec.instructions[0].matrix.shape == (2**k,)
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            rho = a @ a.conj().T / np.trace(a @ a.conj().T)
            pairs = [
                (ci.unitary_of(vec), ci.unitary_of(dense)),
                (ci.run_statevector(vec, psi), ci.run_statevector(dense, psi)),
                (ci.run_density(vec, rho), ci.run_density(dense, rho)),
                (ci.embed(d, qubits, n), ci.embed(np.diag(d), qubits, n)),
            ]
            for got, want in pairs:
                assert got.shape == want.shape and np.abs(got - want).max() <= 1e-15
            assert ci.export_text(vec) == ci.export_text(dense)
    assert any(list(q) != sorted(q) for q in placements)  # descending
    assert any(max(q) - min(q) >= len(q) for q in placements)  # non-adjacent


@pytest.mark.parametrize(
    "phases",
    [
        np.array([1.0, 1.001, 1.0, 1.0]),
        np.array([1.0, 0.0, 1.0, 1.0]),
        np.array([1.0, np.nan, 1.0, 1.0]),
        np.ones(3),
        np.ones(8),
        np.ones((2, 2)),
    ],
    ids=["modulus", "zero", "nan", "short", "long", "2x2"],
)
def test_phase_vector_gate_refused(phases):
    with pytest.raises(ValueError):
        ci.unitary_gate(phases, (1, 2))


def test_phase_vector_export_capped_at_ten_qubits():
    prog = ci.Program(11, (ci.unitary_gate(np.ones(2**11), tuple(range(1, 12))),))
    assert ci.run_statevector(prog, 5)[5] == 1.0
    with pytest.raises(RegisterTooLarge):
        ci.export_text(prog)


def test_partial_trace_product_state():
    rho_a = np.array([[0.75, 0.1j], [-0.1j, 0.25]])
    rho_b = np.array([[0.5, 0.2], [0.2, 0.5]])
    rho = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(ci.partial_trace(rho, (1,), 2), rho_a, atol=1e-14)
    np.testing.assert_allclose(ci.partial_trace(rho, (2,), 2), rho_b, atol=1e-14)
    # The kept qubits follow the order of keep, not the register's.
    rho3 = np.kron(np.kron(np.diag([0.0, 1.0]), np.diag([0.3, 0.7])), ID2 / 2)
    for keep, diagonal in [
        ((1, 2), [0, 0, 0.3, 0.7]),
        ((2, 1), [0, 0.3, 0, 0.7]),
        ((2, 3), [0.15, 0.15, 0.35, 0.35]),
        ((3, 2), [0.15, 0.35, 0.15, 0.35]),
    ]:
        np.testing.assert_allclose(np.diag(ci.partial_trace(rho3, keep, 3)), diagonal, atol=1e-14)


def test_partial_trace_bell():
    rho = np.outer(BELL, BELL.conj())
    np.testing.assert_allclose(ci.partial_trace(rho, (1,), 2), ID2 / 2, atol=1e-14)


def test_measure_and_discard_equals_partial_trace():
    rho = np.outer(BELL, BELL.conj())
    out = ci.run_density(ci.Program(2, (ci.MeasureAndDiscard(2),)), rho)
    np.testing.assert_allclose(out, ID2 / 2, atol=1e-14)


def test_kraus_apply_amplitude_damping_limit():
    # In the long-time limit amplitude damping sends everything to |0><0|.
    k1 = np.diag([1.0, 0.0])
    k2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    ins = ci.KrausApply(1, ci.KrausChannel((k1, k2), provenance="damp"))
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    out = ci.run_density(ci.Program(1, (ins,)), rho)
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_kraus_preserves_trace_and_positivity():
    # CPTP channel from random isometry: trace exactly kept, spectrum >= 0.
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    v, _ = np.linalg.qr(a)
    k1, k2 = v[:2], v[2:]
    ins = ci.KrausApply(2, ci.KrausChannel((k1, k2), provenance="isometry"))
    for _ in range(20):
        b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = b @ b.conj().T
        rho /= np.trace(rho)
        out = ci.run_density(ci.Program(3, (ins,)), rho)
        assert abs(np.trace(out) - 1) <= 1e-12
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_sum_matches_explicit_sum(n):
    # run_density's Kraus step and operator_sum, (K (K rho)^dag)^dag through
    # apply at every n, against sum_k K rho K^dag with K embedded by Kronecker products.
    rng = np.random.default_rng(20 + n)
    for trial in range(20):
        n_ops = 1 + trial % 4
        a = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
        v, _ = np.linalg.qr(a)
        ops = [v[2 * i : 2 * i + 2] for i in range(n_ops)]
        ch = ci.KrausChannel(tuple(ops), provenance="isometry")
        q = 1 + trial % n
        b = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = b @ b.conj().T / np.trace(b @ b.conj().T)
        embedded = [reduce(np.kron, [k if j == q else ID2 for j in range(1, n + 1)]) for k in ops]
        want = sum(k @ rho @ k.conj().T for k in embedded)
        got = ci.run_density(ci.Program(n, (ci.KrausApply(q, ch),)), rho)
        assert np.abs(got - want).max() <= 1e-14
        assert np.abs(ci.operator_sum(rho, ops, (q,)) - want).max() <= 1e-14


def test_operator_sum_is_the_linear_map_on_any_matrix():
    # K X K^dag for a non-Hermitian X too: (K (K X)^dag)^dag is K X K^dag for
    # every X, so the outer adjoint matters.  Matrices and a phase vector.
    rng = np.random.default_rng(40)
    for n in (1, 2, 3):
        x = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
        for q in range(1, n + 1):
            embedded = [reduce(np.kron, [k if j == q else ID2 for j in range(1, n + 1)])
                        for k in ops]
            want = sum(k @ x @ k.conj().T for k in embedded)
            assert np.abs(ci.operator_sum(x, ops, (q,)) - want).max() <= 1e-13
        qubits = tuple(range(n, 0, -1))
        d = np.exp(1j * rng.uniform(-math.pi, math.pi, size=2**n))
        e = ci.embed(np.diag(d), qubits, n)
        assert np.abs(ci.operator_sum(x, [d], qubits) - e @ x @ e.conj().T).max() <= 1e-13


def test_noncptp_kraus_requires_override():
    bad = ci.KrausApply(1, ci.KrausChannel((np.diag([1.0, 1.1]),), provenance="bad"))
    prog = ci.Program(1, (bad,))
    with pytest.raises(ValueError, match="CPTP"):
        ci.run_density(prog, ID2 / 2)
    out = ci.run_density(prog, ID2 / 2, allow_noncptp=True)
    assert abs(np.trace(out) - 1) > 1e-3


NONCPTP_TEXT = """QUBITS 1
KRAUS 1 ops=1{status} provenance=diag(1, 1.1) :
  1+0j 0+0j
  0+0j 1.1+0j
"""


@pytest.mark.parametrize("route", ["program", "parsed", "apply_kraus"])
def test_noncptp_operators_refused_however_they_arrive(route, caplog):
    from fmosim.channels import apply_kraus

    ch = ci.KrausChannel((np.diag([1.0, 1.1]),), provenance="diag(1, 1.1)")
    assert ch.cptp == "violated" and ch.deficit == pytest.approx(0.21)
    prog = ci.Program(1, (ci.KrausApply(1, ch),))
    if route == "parsed":
        prog = ci.parse_text(NONCPTP_TEXT.format(status=""))
        assert ci.export_text(prog) == ci.export_text(ci.Program(1, (ci.KrausApply(1, ch),)))

    def run(**kw):
        if route == "apply_kraus":
            return apply_kraus(ID2 / 2, ch, **kw)
        return ci.run_density(prog, ID2 / 2, **kw)

    with pytest.raises(ValueError, match="violates CPTP"):
        run()
    with caplog.at_level("WARNING"):
        out = run(allow_noncptp=True)
    assert np.trace(out).real == pytest.approx(1.105)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "diag(1, 1.1)" in caplog.records[0].getMessage()


def test_kraus_header_with_wrong_status_is_parse_error():
    with pytest.raises(ValueError, match="line 2: cptp=verified disagrees"):
        ci.parse_text(NONCPTP_TEXT.format(status=" cptp=verified"))
    assert ci.parse_text(NONCPTP_TEXT.format(status=" cptp=violated")).instructions
    identity = NONCPTP_TEXT.replace("1.1+0j", "1+0j")
    with pytest.raises(ValueError, match="cptp=violated disagrees"):
        ci.parse_text(identity.format(status=" cptp=violated"))
    with pytest.raises(ValueError, match="cptp=maybe disagrees"):
        ci.parse_text(identity.format(status=" cptp=maybe"))


def test_basis_label_parsing():
    psi = parse_basis_label("10", 2)
    assert abs(psi[2] - 1) < 1e-15
    with pytest.raises(ValueError):
        parse_basis_label("102", 3)
    with pytest.raises(ValueError):
        parse_basis_label(8, 3)


# --- text format ------------------------------------------------------------


def test_export_readable():
    prog = ci.Program(2, (ci.h(1), ci.rz(0.25, 2), ci.cnot(1, 2)))
    text = ci.export_text(prog)
    assert "QUBITS 2" in text
    assert "RZ(0.25) 2" in text
    assert "CNOT 1 2" in text


def test_round_trip_fig3_style_circuit():
    k = np.diag([1.0, np.exp(-0.4)])
    k2 = np.array([[0.0, math.sqrt(1 - np.exp(-0.8))], [0.0, 0.0]])
    prog = ci.Program(
        2,
        (
            ci.ry(0.937, 2),
            ci.h(2),
            ci.cz(1, 2),
            ci.h(2),
            ci.ry(-0.233, 2),
            ci.unitary_gate(np.diag([1.0, 1j]), (1,)),
            ci.KrausApply(1, ci.KrausChannel((k, k2), provenance="damp(G=1, t=0.1)")),
            ci.MeasureAndDiscard(2),
        ),
    )
    text = ci.export_text(prog)
    again = ci.parse_text(text)
    assert ci.export_text(again) == text
    psi = np.array([0.5, 0.5j, -0.5, 0.5])
    rho = np.outer(psi, psi.conj())
    assert np.array_equal(ci.run_density(again, rho), ci.run_density(prog, rho))


@st.composite
def programs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    depth = draw(st.integers(min_value=0, max_value=8))
    ins = []
    for _ in range(depth):
        choice = draw(st.integers(min_value=0, max_value=7))
        q = draw(st.integers(min_value=1, max_value=n))
        theta = draw(
            st.floats(
                min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
            )
        )
        if choice <= 1 or n == 1:
            ins.append([ci.x(q), ci.h(q)][choice % 2])
        elif choice == 2:
            ins.append(ci.rx(theta, q))
        elif choice == 3:
            ins.append(ci.ry(theta, q))
        elif choice == 4:
            ins.append(ci.rz(theta, q))
        else:
            q2 = draw(st.integers(min_value=1, max_value=n).filter(lambda v: v != q))
            ins.append(
                [ci.cz(q, q2), ci.cnot(q, q2), ci.cz(q2, q)][choice - 5]
            )
    return ci.Program(n, tuple(ins))


@given(programs())
@settings(max_examples=60, deadline=None)
def test_round_trip_is_bit_exact(prog):
    text = ci.export_text(prog)
    again = ci.parse_text(text)
    assert ci.export_text(again) == text
    assert np.array_equal(ci.unitary_of(again), ci.unitary_of(prog))


def test_parse_errors_are_informative():
    with pytest.raises(ValueError, match="QUBITS"):
        ci.parse_text("X 1\n")
    with pytest.raises(ValueError, match="line 2"):
        ci.parse_text("QUBITS 2\nWIBBLE 1\n")
    with pytest.raises(ValueError, match="line 2"):
        ci.parse_text("QUBITS 2\nRZ(nope) 1\n")


def test_comments_and_blank_lines_ignored():
    text = "# header\nQUBITS 1\n\nX 1  # flip\n"
    assert ci.export_text(ci.parse_text(text)) == ci.export_text(ci.Program(1, (ci.x(1),)))
