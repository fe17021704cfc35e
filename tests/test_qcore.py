"""Unit and property tests for the linear-algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmosim import qcore
from fmosim.qcore import (
    ID2,
    SX,
    SY,
    SZ,
    bloch_to_density,
    check_density_matrix,
    density_to_bloch,
    is_hermitian,
    is_unitary,
    matexp_hermitian,
    pauli_embed,
    phase_align,
    trace_distance,
)

RNG = np.random.default_rng(20240817)


def random_hermitian(n, rng=RNG):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_density(n, rng=RNG):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestPauliEmbed:
    def test_diagonal_of_embedded_z(self):
        # Z on qubit 3 of 7: +1 wherever the third most significant bit is 0.
        d = np.diag(pauli_embed(SZ, 3, 7)).real
        for b in range(128):
            expected = 1.0 if (b >> 4) & 1 == 0 else -1.0
            assert d[b] == expected

    def test_site_one_is_most_significant(self):
        u = pauli_embed(SX, 1, 2)
        np.testing.assert_allclose(u, np.kron(SX, ID2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pauli_embed(SZ, 8, 7)
        with pytest.raises(ValueError):
            pauli_embed(SZ, 0, 3)

    def test_embeddings_on_distinct_sites_commute(self):
        a = pauli_embed(SX, 2, 4)
        b = pauli_embed(SY, 4, 4)
        assert np.max(np.abs(a @ b - b @ a)) <= 1e-14


class TestMatexp:
    def test_pauli_z_half_turn(self):
        np.testing.assert_allclose(
            matexp_hermitian(SZ, -1j * np.pi), -ID2, atol=1e-12
        )

    def test_pauli_x_quarter_turn(self):
        np.testing.assert_allclose(
            matexp_hermitian(SX, -1j * np.pi / 2), -1j * SX, atol=1e-12
        )

    def test_unitary_for_imaginary_scale(self):
        h = random_hermitian(8)
        u = matexp_hermitian(h, -1j * 0.37)
        assert is_unitary(u)

    def test_agrees_with_series(self):
        h = random_hermitian(4)
        series = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 40):
            term = term @ (-1j * 0.2 * h) / k
            series = series + term
        np.testing.assert_allclose(
            matexp_hermitian(h, -1j * 0.2), series, atol=1e-12
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            matexp_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestBloch:
    def test_north_pole(self):
        np.testing.assert_allclose(
            bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]), atol=1e-15
        )

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = rng.normal(size=3)
            r = r / np.linalg.norm(r) * rng.uniform(0, 1)
            np.testing.assert_allclose(
                density_to_bloch(bloch_to_density(r)), r, atol=1e-12
            )

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            bloch_to_density((1.0, 1.0, 1.0))

    def test_valid_density_for_interior_points(self):
        check_density_matrix(bloch_to_density((0.3, -0.2, 0.4)))


class TestTraceDistance:
    def test_maximally_mixed_vs_pure(self):
        assert trace_distance(0.5 * ID2, np.diag([1.0, 0.0])) == pytest.approx(0.5)

    def test_zero_on_equal_states(self):
        rho = random_density(8)
        assert trace_distance(rho, rho) <= 1e-14

    def test_symmetry_and_triangle(self):
        a, b, c = (random_density(4) for _ in range(3))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


class TestPhaseAlign:
    @given(st.floats(min_value=-np.pi, max_value=np.pi))
    @settings(max_examples=50, deadline=None)
    def test_random_global_phase_removed(self, phi):
        u = matexp_hermitian(random_hermitian(4, np.random.default_rng(3)), -1j)
        aligned = phase_align(np.exp(1j * phi) * u, u)
        assert np.max(np.abs(aligned - u)) <= 1e-10


class TestCheckDensity:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            check_density_matrix(2 * np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([1.5, -0.5]))

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError):
            check_density_matrix(rho)

    def test_hermiticity_and_unitarity_predicates(self):
        assert is_hermitian(SY)
        assert not is_hermitian(SY + 1e-6 * np.array([[0, 1], [0, 0]]))
        assert is_unitary(SX)
        assert not is_unitary(1.001 * SX)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pauli_embed(np.eye(4), 1, 2), "pauli_embed expects a 2x2 operator"),
        (lambda: density_to_bloch(np.eye(4) / 4), "density_to_bloch expects a 2x2 matrix"),
    ],
    ids=["embed-4x4", "bloch-4x4"],
)
def test_refusals_keep_their_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
