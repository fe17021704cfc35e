"""Tests for the Hamiltonian builders and the first-order Trotter splitting."""

import numpy as np
import pytest

from fmosim.hamiltonians import (
    TERMS,
    FmoParameters,
    NmrParameters,
    build_fmo_h,
    nmr_diagonal,
    nmr_from_fmo,
    term_eigen,
    term_exp,
    trotter_unitary,
)
from fmosim.qcore import SX, SY, SZ, is_hermitian, is_unitary, matexp_hermitian, pauli_embed


def random_fmo(n, rng, scale=0.2):
    eps = rng.uniform(0.5, 1.5, n)
    m = rng.uniform(-scale, scale, (n, n))
    nu = 0.5 * (m + m.T)
    np.fill_diagonal(nu, 0.0)
    return FmoParameters(eps, nu)


def chain_fmo(n, eps_value=1.0, nu_value=0.1):
    eps = np.full(n, eps_value)
    nu = np.zeros((n, n))
    for l in range(n - 1):
        nu[l, l + 1] = nu[l + 1, l] = nu_value
    return FmoParameters(eps, nu)


class TestParameters:
    def test_nu_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            FmoParameters(np.ones(2), np.array([[0.0, 0.1], [0.2, 0.0]]))

    def test_nu_zero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            FmoParameters(np.ones(2), np.array([[0.1, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["epsilon", "nu"])
    def test_fmo_fields_must_be_finite(self, field, bad):
        eps, nu = np.ones(2), np.array([[0.0, 0.1], [0.1, 0.0]])
        if field == "epsilon":
            eps[1] = bad
        else:
            nu[0, 1] = nu[1, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            FmoParameters(eps, nu)

    def test_epsilon_must_be_a_vector(self):
        with pytest.raises(ValueError, match="1-d"):
            FmoParameters(1.0, np.zeros((1, 1)))

    def test_nmr_bond_count(self):
        with pytest.raises(ValueError):
            NmrParameters(np.ones(7), np.ones(7))

    def test_arrays_read_only(self):
        p = chain_fmo(3)
        with pytest.raises(ValueError):
            p.epsilon[0] = 2.0


class TestFmoH0:
    def test_single_site_energy(self):
        p = FmoParameters(np.array([1.0, 0, 0, 0, 0, 0, 0]), np.zeros((7, 7)))
        d = np.diag(build_fmo_h(p)).real
        for b in range(128):
            assert d[b] == (1.0 if (b >> 6) & 1 == 0 else -1.0)

    def test_uniform_energies(self):
        p = FmoParameters(np.ones(7), np.zeros((7, 7)))
        d = np.diag(build_fmo_h(p)).real
        for b in range(128):
            assert d[b] == 7 - 2 * bin(b).count("1")


class TestFmoHi:
    def test_two_site_element_matches_hand_expansion(self):
        # Ordered-pair sum: both (1,2) and (2,1) contribute, so
        # HI = 2 nu (XX + YY) and <01|HI|10> = 4 nu.
        nu = 0.37
        hand = 2 * nu * (np.kron(SX, SX) + np.kron(SY, SY))
        p = FmoParameters(np.zeros(2), np.array([[0.0, nu], [nu, 0.0]]))
        np.testing.assert_allclose(build_fmo_h(p), hand, atol=1e-14)
        assert build_fmo_h(p)[1, 2] == pytest.approx(4 * nu)

    def test_hermitian(self):
        p = random_fmo(5, np.random.default_rng(0))
        assert is_hermitian(build_fmo_h(p))

    def test_conserves_excitation_number(self):
        p = random_fmo(4, np.random.default_rng(1))
        n_op = sum(pauli_embed((np.eye(2) - SZ) / 2, j, 4) for j in range(1, 5))
        h = build_fmo_h(p)
        assert np.max(np.abs(h @ n_op - n_op @ h)) <= 1e-12

    def test_long_range_pairs_included(self):
        nu = np.zeros((3, 3))
        nu[0, 2] = nu[2, 0] = 0.25
        p = FmoParameters(np.zeros(3), nu)
        hi = build_fmo_h(p)
        # |100> <-> |001| hopping present
        assert abs(hi[4, 1]) == pytest.approx(4 * 0.25)


def pauli_embed_h(p):
    """Reference H: sum_j eps_j Z_j plus 2 nu_jl (XX + YY) per pair, from pauli_embed."""
    n = p.n_sites
    h = sum(p.epsilon[s - 1] * pauli_embed(SZ, s, n) for s in range(1, n + 1))
    for j, l in p.coupled_pairs():
        xx = pauli_embed(SX, j, n) @ pauli_embed(SX, l, n)
        yy = pauli_embed(SY, j, n) @ pauli_embed(SY, l, n)
        h = h + 2.0 * p.nu[j - 1, l - 1] * (xx + yy)
    return h


def test_build_fmo_h_matches_pauli_embed_sum():
    rng = np.random.default_rng(23)
    for n in range(1, 8):
        p = random_fmo(n, rng)
        assert len(p.coupled_pairs()) == n * (n - 1) // 2
        eps = p.epsilon.copy()
        eps[rng.integers(n)] = 0.0
        p = FmoParameters(eps, p.nu)
        assert np.abs(build_fmo_h(p) - pauli_embed_h(p)).max() <= 1e-14


class TestNmr:
    def test_all_plus_entry(self):
        p = NmrParameters(np.ones(7), np.ones(6))
        h = np.diag(nmr_diagonal(p))
        assert h[0, 0].real == pytest.approx(7 / 2 + 6)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0

    def test_diagonal_vector_agrees_with_pauli_sum(self):
        rng = np.random.default_rng(2)
        p = NmrParameters(rng.normal(size=4), rng.normal(size=3))
        ref = sum(
            0.5 * p.omega[l - 1] * pauli_embed(SZ, l, 4) for l in range(1, 5)
        ) + sum(
            p.j[l - 1] * pauli_embed(SZ, l, 4) @ pauli_embed(SZ, l + 1, 4)
            for l in range(1, 4)
        )
        np.testing.assert_allclose(nmr_diagonal(p), np.diag(ref).real, atol=1e-12)

    def test_nmr_from_fmo_mapping(self):
        p = chain_fmo(4, eps_value=0.7, nu_value=0.1)
        nmr = nmr_from_fmo(p)
        np.testing.assert_allclose(nmr.omega, 1.4 * np.ones(4))
        np.testing.assert_allclose(nmr.j, 0.2 * np.ones(3))

    def test_nmr_from_fmo_refuses_long_range_coupling(self):
        nu = np.zeros((3, 3))
        nu[0, 2] = nu[2, 0] = 0.1
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            nmr_from_fmo(FmoParameters(epsilon=np.ones(3), nu=nu))


class TestTrotter:
    def test_unitary(self):
        p = random_fmo(4, np.random.default_rng(3))
        assert is_unitary(trotter_unitary(p, 0.5, 4))

    def test_error_scales_quadratically_in_t_at_one_step(self):
        p = random_fmo(4, np.random.default_rng(4))
        exact = lambda t: matexp_hermitian(build_fmo_h(p), -1j * t)
        e1 = np.linalg.norm(trotter_unitary(p, 0.1, 1) - exact(0.1), 2)
        e2 = np.linalg.norm(trotter_unitary(p, 0.05, 1) - exact(0.05), 2)
        assert e1 / e2 == pytest.approx(4.0, rel=0.08)

    def test_first_order_in_n_steps(self):
        p = random_fmo(5, np.random.default_rng(5))
        exact = matexp_hermitian(build_fmo_h(p), -1j * 0.5)
        ns = np.array([1, 2, 4, 8, 16])
        errs = [np.linalg.norm(trotter_unitary(p, 0.5, int(n)) - exact, 2) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_exact_for_commuting_parts(self):
        # With nu = 0 a single step is already exact.
        p = FmoParameters(np.array([0.3, -0.7]), np.zeros((2, 2)))
        exact = matexp_hermitian(build_fmo_h(p), -1j * 2.0)
        np.testing.assert_allclose(trotter_unitary(p, 2.0, 1), exact, atol=1e-12)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            trotter_unitary(chain_fmo(2), 1.0, 0)


@pytest.mark.parametrize("kind", sorted(TERMS))
def test_cached_term_exponential_is_matexp_hermitian_bit_for_bit(kind):
    rng = np.random.default_rng(7)
    for c in [0.0, -0.0, 1.0, -2.5, 1e-9, 37.0] + list(rng.uniform(-10, 10, 300)):
        want = matexp_hermitian(TERMS[kind], -1j * c)
        assert term_exp(kind, c).tobytes() == want.tobytes(), c
    w, v, d = term_eigen(kind)
    assert not (w.flags.writeable or v.flags.writeable)
    assert (d is None) == (kind == "xy")
