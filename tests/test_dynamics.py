"""Dynamics tests.

The independent oracle for the structured generator is a naive Lindblad
right-hand side assembled from explicitly embedded operators; trajectories
are checked against dense matrix exponentials and single-site closed forms.
"""

import dataclasses
import io
import logging
import math
import tracemalloc

import numpy as np
import pytest

from fmosim import circuit as ci
from fmosim import dynamics
from fmosim.channels import (
    damping_basis_solution,
    dephasing_kraus_corrected,
    dissipation_kraus,
)
from fmosim.compiler import compile_target, schedule_program
from fmosim.dynamics import (
    LindbladGenerator,
    NoiseParameters,
    Trajectory,
    _step_unitary,
    _support,
    evolve_trotter_open,
    initial_density,
    integrate_exact,
    site_populations,
)
from fmosim.hamiltonians import (
    FmoParameters,
    build_fmo_h,
    fmo_terms,
    nmr_from_fmo,
    trotter_step,
)
from fmosim.qcore import SX, SY, SZ, matexp_hermitian, pauli_embed, trace_distance
from textcompare import assert_same_text

SM = np.array([[0, 1], [0, 0]], dtype=complex)
NP_ = np.array([[0, 0], [0, 1]], dtype=complex)


def chain_fmo(n, seed=0, coupling=0.3):
    rng = np.random.default_rng(seed)
    nu = np.zeros((n, n))
    for j in range(n - 1):
        nu[j, j + 1] = nu[j + 1, j] = rng.uniform(-coupling, coupling)
    return FmoParameters(epsilon=rng.uniform(0.5, 1.5, n), nu=nu)


def random_density(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def state_json(traj):
    """``traj.to_state_json`` written into a string."""
    buf = io.StringIO()
    traj.to_state_json(buf)
    return buf.getvalue()


def naive_rhs(rho, fmo, noise):
    n = fmo.n_sites
    h = build_fmo_h(fmo)
    out = -1j * (h @ rho - rho @ h)
    for j in range(1, n + 1):
        sm = pauli_embed(SM, j, n)
        nj = pauli_embed(NP_, j, n)
        big, small = noise.dissipation[j - 1], noise.dephasing[j - 1]
        out = out + 4 * big * (2 * sm @ rho @ sm.conj().T - nj @ rho - rho @ nj)
        out = out + small * (2 * nj @ rho @ nj - nj @ rho - rho @ nj)
    return out


# --- parameters and observables -------------------------------------------------


def test_noise_parameter_validation():
    with pytest.raises(ValueError):
        NoiseParameters(np.array([-0.1, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        NoiseParameters(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        NoiseParameters(np.array([np.inf]), np.array([0.0]))
    p = NoiseParameters.uniform(7, 0.05, 0.1)
    assert p.n_sites == 7
    with pytest.raises(ValueError):
        p.dissipation[0] = 1.0


def test_site_populations_basis_cases():
    assert np.allclose(site_populations(initial_density("site1", 7)), np.eye(7)[0])
    assert np.allclose(site_populations(np.eye(128) / 128), 0.5)
    psi = np.zeros(128)
    psi[int("1000000", 2)] = psi[int("0100000", 2)] = 1 / math.sqrt(2)
    pops = site_populations(np.outer(psi, psi))
    assert np.allclose(pops, [0.5, 0.5, 0, 0, 0, 0, 0], atol=1e-15)


def test_initial_density_labels():
    assert np.allclose(initial_density("ground", 3), np.diag([1, 0, 0, 0, 0, 0, 0, 0]))
    assert np.allclose(initial_density("site3", 3), np.diag(np.eye(8)[1]))
    assert np.allclose(initial_density("010", 3), np.diag(np.eye(8)[2]))
    with pytest.raises(ValueError):
        initial_density("site9", 3)
    with pytest.raises(ValueError):
        initial_density("012", 3)


def test_initial_density_refuses_eleven_sites_before_allocating():
    # A 2^11 x 2^11 complex matrix is 64 MiB; refusing first keeps the peak tiny.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at 10 qubits"):
            initial_density("site1", 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- generator -------------------------------------------------------------------


def test_rhs_matches_naive_operator_form():
    n = 3
    fmo = chain_fmo(n, seed=1)
    rng = np.random.default_rng(2)
    noise = NoiseParameters(rng.uniform(0, 0.4, n), rng.uniform(0, 0.4, n))
    for s in range(10):
        rho = random_density(n, seed=s)
        got = LindbladGenerator(fmo, noise, np.arange(2**n)).rhs(rho)
        assert np.abs(got - naive_rhs(rho, fmo, noise)).max() < 1e-13


def test_rhs_traceless_and_hermiticity_preserving():
    fmo = chain_fmo(3, seed=3)
    noise = NoiseParameters.uniform(3, 0.2, 0.3)
    gen = LindbladGenerator(fmo, noise, np.arange(2**3))
    for s in range(50):
        d = gen.rhs(random_density(3, seed=s))
        assert abs(np.trace(d)) < 1e-12
        assert np.abs(d - d.conj().T).max() < 1e-12


def test_rhs_vanishes_on_eigenprojector_without_noise():
    fmo = chain_fmo(3, seed=4)
    _, vecs = np.linalg.eigh(build_fmo_h(fmo))
    proj = np.outer(vecs[:, 2], vecs[:, 2].conj())
    d = LindbladGenerator(fmo, NoiseParameters.uniform(3, 0, 0), np.arange(2**3)).rhs(proj)
    assert np.abs(d).max() < 1e-12


def test_rhs_single_site_dephasing_rate():
    # H = 0, one site, rho = |+><+|: x component decays at exactly gamma
    fmo = FmoParameters(epsilon=np.zeros(1), nu=np.zeros((1, 1)))
    noise = NoiseParameters(np.zeros(1), np.array([0.7]))
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    d = LindbladGenerator(fmo, noise, np.arange(2**1)).rhs(plus)
    assert d[0, 1] == pytest.approx(-0.7 * 0.5, abs=1e-14)
    assert abs(d[0, 0]) < 1e-14


def test_rhs_dimension_mismatch():
    with pytest.raises(ValueError):
        integrate_exact(np.eye(4) / 4, chain_fmo(3), NoiseParameters.uniform(3, 0, 0), 0.1, 0.1)
    with pytest.raises(ValueError):
        LindbladGenerator(chain_fmo(3), NoiseParameters.uniform(4, 0, 0), np.arange(2**3))


@pytest.mark.parametrize(
    "support",
    [
        [3, 2, 1, 5, 0, 6, 7, 4],  # every state, out of order: ran, with a wrong rhs
        [7, 6, 5, 4, 3, 2, 1, 0],  # raised IndexError from the refill's scatter
        [1, 2, 4],  # one excitation, no ground state: site 1's decay fed |001>
        [0, 1, 2, 3, 4],  # the one-excitation sector and part of the next
        [0, 1, 2, 2],  # a duplicated state
        [0, 1, 2, 8],  # a state outside the 3-site register
        [-1, 0, 1, 2, 4],
        [],
        np.arange(8.0),
        np.arange(8).reshape(2, 4),
    ],
)
def test_generator_refuses_a_support_it_cannot_step(support):
    nu = np.diag([0.1, 0.2], 1)
    fmo = FmoParameters(epsilon=np.array([1.0, 0.8, 1.2]), nu=nu + nu.T)
    noise = NoiseParameters(np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.0, 0.2]))
    with pytest.raises(ValueError, match="support must be every basis state"):
        LindbladGenerator(fmo, noise, support)


# --- exact integrator -------------------------------------------------------------


def test_exact_matches_unitary_evolution_without_noise():
    fmo = chain_fmo(3, seed=5)
    rho0 = random_density(3, seed=6)
    traj = integrate_exact(rho0, fmo, NoiseParameters.uniform(3, 0, 0), 0.7, 1e-3, 100)
    u = matexp_hermitian(build_fmo_h(fmo), -1j * 0.7)
    assert np.abs(traj.final_state() - u @ rho0 @ u.conj().T).max() < 1e-8
    assert traj.method == "exact"


def test_exact_pure_dissipation_matches_damping_basis():
    fmo = FmoParameters(epsilon=np.zeros(3), nu=np.zeros((3, 3)))
    noise = NoiseParameters(np.array([0.8, 0, 0]), np.zeros(3))
    traj = integrate_exact(initial_density("site1", 3), fmo, noise, 0.5, 1e-3, 500)
    site1 = damping_basis_solution(0.8, np.diag([0, 1]).astype(complex), 0.5)
    rest = np.diag([1.0, 0, 0, 0]).astype(complex)
    assert np.abs(traj.final_state() - np.kron(site1, rest)).max() < 1e-10


def test_exact_time_zero_and_bad_dt():
    rho0 = random_density(2, seed=7)
    fmo = chain_fmo(2, seed=7)
    traj = integrate_exact(rho0, fmo, NoiseParameters.uniform(2, 0.1, 0), 0.0, 0.1)
    assert traj.times == (0.0,)
    assert np.allclose(traj.states[0], rho0)
    with pytest.raises(ValueError):
        integrate_exact(rho0, fmo, NoiseParameters.uniform(2, 0.1, 0), 1.0, 0.0)


@pytest.mark.parametrize("route", [integrate_exact, evolve_trotter_open])
def test_step_count_must_be_finite(route):
    rho0 = random_density(2, seed=7)
    noise = NoiseParameters.uniform(2, 0.1, 0)
    with pytest.raises(ValueError, match="t_max / dt = inf"):
        route(rho0, chain_fmo(2, seed=7), noise, 1e300, 1e-300)


def test_exact_fourth_order_convergence():
    fmo = chain_fmo(3, seed=8)
    noise = NoiseParameters.uniform(3, 0.15, 0.2)
    rho0 = random_density(3, seed=9)
    ref = integrate_exact(rho0, fmo, noise, 0.4, 0.4 / 256).final_state()
    errs = [
        np.abs(integrate_exact(rho0, fmo, noise, 0.4, 0.4 / k).final_state() - ref).max()
        for k in (4, 8, 16)
    ]
    for a, b in zip(errs, errs[1:]):
        assert 16 * 0.7 < a / b < 16 * 1.4


def test_exact_trace_drift_and_recording():
    fmo = chain_fmo(3, seed=10)
    noise = NoiseParameters.uniform(3, 0.1, 0.1)
    traj = integrate_exact(random_density(3, seed=11), fmo, noise, 1.0, 1e-3, 250)
    assert len(traj.times) == 5
    for s in traj.states:
        assert abs(np.trace(s).real - 1) < 1e-8


def test_exact_total_population_monotone_under_dissipation():
    fmo = chain_fmo(3, seed=12)
    noise = NoiseParameters.uniform(3, 0.2, 0.1)
    traj = integrate_exact(initial_density("site2", 3), fmo, noise, 1.0, 2e-3, 50)
    totals = traj.populations().sum(axis=1)
    assert np.all(np.diff(totals) <= 1e-8)


# --- digital evolution --------------------------------------------------------------


def test_trotter_constant_populations_without_anything():
    fmo = FmoParameters(epsilon=np.ones(3), nu=np.zeros((3, 3)))
    noise = NoiseParameters.uniform(3, 0, 0)
    traj = evolve_trotter_open(initial_density("site2", 3), fmo, noise, 1.0, 0.1)
    pops = traj.populations()
    assert np.abs(pops - pops[0]).max() < 1e-12


def test_trotter_first_order_convergence_to_exact():
    fmo = chain_fmo(3, seed=13)
    noise = NoiseParameters.uniform(3, 0.15, 0.2)
    rho0 = random_density(3, seed=14)
    ref = integrate_exact(rho0, fmo, noise, 0.5, 1e-3).final_state()
    errs = [
        trace_distance(
            evolve_trotter_open(rho0, fmo, noise, 0.5, dt).final_state(), ref
        )
        for dt in (0.05, 0.025, 0.0125)
    ]
    for a, b in zip(errs, errs[1:]):
        assert 2 * 0.85 < a / b < 2 * 1.15


def test_trotter_excitation_number_conserved_without_noise():
    fmo = chain_fmo(4, seed=15)
    noise = NoiseParameters.uniform(4, 0, 0)
    for method in ("dense", "exact"):
        if method == "dense":
            traj = evolve_trotter_open(
                initial_density("site1", 4), fmo, noise, 0.8, 0.05
            )
        else:
            traj = integrate_exact(
                initial_density("site1", 4), fmo, noise, 0.8, 2e-3, 40
            )
        totals = traj.populations().sum(axis=1)
        assert np.abs(totals - 1.0).max() < 1e-8


def test_trotter_states_stay_physical():
    fmo = chain_fmo(3, seed=16)
    noise = NoiseParameters.uniform(3, 0.1, 0.2)
    traj = evolve_trotter_open(random_density(3, seed=17), fmo, noise, 1.0, 0.05)
    for s in traj.states:
        assert np.abs(s - s.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(s).min() > -1e-7


@pytest.mark.parametrize("dephasing", [0.0, 0.2])
def test_trotter_logs_the_corrected_dephasing_channel_once_when_dephasing(dephasing, caplog):
    noise = NoiseParameters(np.full(3, 0.1), np.array([0.0, dephasing, 0.0]))
    with caplog.at_level(logging.INFO, logger="fmosim.dynamics"):
        evolve_trotter_open(initial_density("site1", 3), chain_fmo(3), noise, 0.3, 0.1)
    records = [(r.name, r.levelno) for r in caplog.records]
    assert records == ([("fmosim.dynamics", logging.INFO)] if dephasing else [])
    if dephasing:
        assert "corrected CPTP phase-flip channel" in caplog.records[0].getMessage()


def test_dense_and_compiled_lowerings_agree():
    fmo = chain_fmo(7, seed=18, coupling=0.2)
    noise = NoiseParameters.uniform(7, 0.05, 0.05)
    rho0 = initial_density("site1", 7)
    a = evolve_trotter_open(rho0, fmo, noise, 0.2, 0.05, lowering="dense-blocks")
    b = evolve_trotter_open(rho0, fmo, noise, 0.2, 0.05, lowering="compiled-pulses")
    assert a.times == b.times
    worst = max(np.abs(x - y).max() for x, y in zip(a.states, b.states))
    assert worst < 1e-7


def test_compiled_lowering_rejects_long_range():
    nu = np.zeros((4, 4))
    nu[0, 3] = nu[3, 0] = 0.1
    fmo = FmoParameters(epsilon=np.ones(4), nu=nu)
    with pytest.raises(ValueError):
        evolve_trotter_open(
            initial_density("site1", 4),
            fmo,
            NoiseParameters.uniform(4, 0, 0),
            0.1,
            0.05,
            lowering="compiled-pulses",
        )
    with pytest.raises(ValueError):
        evolve_trotter_open(
            initial_density("site1", 4),
            chain_fmo(4),
            NoiseParameters.uniform(4, 0, 0),
            0.1,
            0.05,
            lowering="unitaries",
        )


# --- elementwise noise against the dense forms it replaced --------------------------


def random_rates(n, rng):
    """Per-site rates in [0.1, 2), every third site from a random offset set to zero."""
    rates = rng.uniform(0.1, 2.0, n)
    rates[rng.integers(3) :: 3] = 0.0
    return rates


def dense_kraus_noise(rho, noise, dt):
    """Reference noise step: sum K rho K^dag over embedded per-site Kraus operators."""
    n = noise.n_sites
    for j in range(1, n + 1):
        for ch in (
            dissipation_kraus(noise.dissipation[j - 1], dt),
            dephasing_kraus_corrected(noise.dephasing[j - 1], dt),
        ):
            ops = [pauli_embed(k, j, n) for k in ch.ops]
            rho = sum(k @ rho @ k.conj().T for k in ops)
    return rho


def gather_refill_rhs(rho, fmo, noise):
    """Reference generator: occupation-bit decay mask plus np.ix_ refill gathers."""
    n = fmo.n_sites
    h = build_fmo_h(fmo)
    idx = np.arange(2**n)
    bits = np.array([(idx >> (n - j)) & 1 for j in range(1, n + 1)])
    occ_row, occ_col = bits[:, :, None], bits[:, None, :]
    decay = -np.sum(
        4.0 * noise.dissipation[:, None, None] * (occ_row + occ_col)
        + noise.dephasing[:, None, None] * (occ_row ^ occ_col),
        axis=0,
    )
    out = -1j * (h @ rho - rho @ h)
    out += decay * rho
    for j in range(n):
        if noise.dissipation[j] > 0:
            empty = np.nonzero(bits[j] == 0)[0]
            src = empty + (1 << (n - 1 - j))
            out[np.ix_(empty, empty)] += 8.0 * noise.dissipation[j] * rho[np.ix_(src, src)]
    return out


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("dt", [1e-3, 0.05, 0.5])
def test_trotter_step_matches_dense_kraus_reference(n, dt):
    rng = np.random.default_rng(100 * n + int(1000 * dt))
    fmo = chain_fmo(n, seed=n)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    rho0 = random_density(n, seed=n)
    before = rho0.copy()
    traj = evolve_trotter_open(rho0, fmo, noise, 2 * dt, dt)
    assert np.array_equal(rho0, before)
    u = trotter_step(fmo, dt)
    for prev, got in zip(traj.states, traj.states[1:]):
        want = dense_kraus_noise(u @ prev @ u.conj().T, noise, dt)
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_noise_step_is_exact_without_hamiltonian(n):
    # With H = 0 one digital step is e^{dt D} itself, at any dt: a single
    # step of dt = 1 matches RK4 at dt = 1e-3, on every sector up to full
    # rank, where the refills of several sites chain.
    rng = np.random.default_rng(500 + n)
    fmo = FmoParameters(epsilon=np.zeros(n), nu=np.zeros((n, n)))
    for k in range(n + 1):
        dissipation = rng.uniform(0.1, 2.0, n)
        dissipation[rng.integers(n)] = 0.0
        noise = NoiseParameters(dissipation, rng.uniform(0.1, 2.0, n))
        rho0 = random_sector_density(n, k, rng)
        digital = evolve_trotter_open(rho0, fmo, noise, 1.0, 1.0).final_state()
        oracle = integrate_exact(rho0, fmo, noise, 1.0, 1e-3, record_every=1000).final_state()
        assert trace_distance(digital, oracle) <= 1e-11


@pytest.mark.parametrize("n", range(1, 8))
def test_rhs_matches_gather_refill_reference(n):
    rng = np.random.default_rng(n)
    fmo = chain_fmo(n, seed=n)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    rho = random_density(n, seed=n + 1)
    got = LindbladGenerator(fmo, noise, np.arange(2**n)).rhs(rho)
    assert np.abs(got - gather_refill_rhs(rho, fmo, noise)).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 8))
def test_rk4_step_matches_classical_rk4(n):
    rng = np.random.default_rng(40 + n)
    fmo = chain_fmo(n, seed=n)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    rho = random_density(n, seed=n + 2)
    h = 0.05
    rhs = LindbladGenerator(fmo, noise, np.arange(2**n)).rhs
    k1 = rhs(rho)
    k2 = rhs(rho + 0.5 * h * k1)
    k3 = rhs(rho + 0.5 * h * k2)
    k4 = rhs(rho + h * k3)
    want = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = integrate_exact(rho, fmo, noise, h, h).final_state()
    assert np.abs(got - want).max() <= 1e-14


# --- step unitary against the dense product it replaced -------------------------------


def random_couplings(n, rng):
    """Random chain couplings plus the long-range pair (1, n); one site energy is zero."""
    nu = np.zeros((n, n))
    for j in range(n - 1):
        nu[j, j + 1] = nu[j + 1, j] = rng.uniform(-0.5, 0.5)
    if n >= 3:
        nu[0, n - 1] = nu[n - 1, 0] = rng.uniform(-0.5, 0.5)
    eps = rng.uniform(-1.5, 1.5, n)
    eps[rng.integers(n)] = 0.0
    return FmoParameters(epsilon=eps, nu=nu)


def dense_trotter_step(fmo, dt):
    """Reference step: diag(e^{-i dt h0}) times dense pair exponentials, ascending."""
    n = fmo.n_sites
    h0 = sum(e * pauli_embed(SZ, s, n) for s, e in enumerate(fmo.epsilon, 1))
    u = np.diag(np.exp(-1j * dt * np.diag(h0).real))
    for j, l in fmo.coupled_pairs():
        xx = pauli_embed(SX, j, n) @ pauli_embed(SX, l, n)
        yy = pauli_embed(SY, j, n) @ pauli_embed(SY, l, n)
        u = u @ matexp_hermitian(2.0 * fmo.nu[j - 1, l - 1] * (xx + yy), -1j * dt)
    return u


@pytest.mark.parametrize("dt", [1e-3, 0.05, 0.5])
def test_trotter_step_matches_dense_product_and_compiled_pulses(dt):
    rng = np.random.default_rng(int(1000 * dt))
    for n in range(1, 8):
        fmo = random_couplings(n, rng)
        if n >= 3:
            assert (1, n) in fmo.coupled_pairs()
        assert np.abs(trotter_step(fmo, dt) - dense_trotter_step(fmo, dt)).max() <= 1e-12
    for n in range(2, 8):
        fmo = chain_fmo(n, seed=n)
        compiled = _step_unitary(fmo, dt, "compiled-pulses", np.arange(2**n))
        assert np.abs(compiled - trotter_step(fmo, dt)).max() <= 1e-12


def ir_replay_step_unitary(fmo, dt):
    """Reference: every term's ``schedule_program`` in one circuit, through ``unitary_of``."""
    nmr = nmr_from_fmo(fmo)
    ins = []
    for kind, sites, _ in fmo_terms(fmo):
        ins.extend(schedule_program(compile_target(kind, sites, dt, nmr), nmr).instructions)
    return ci.unitary_of(ci.Program(fmo.n_sites, tuple(ins)))


@pytest.mark.parametrize("dt", [0.02, 0.05])
def test_compiled_step_matches_the_circuit_replay(dt):
    fmo = chain_fmo(7, seed=17)
    want = ir_replay_step_unitary(fmo, dt)
    assert np.abs(_step_unitary(fmo, dt, "compiled-pulses", np.arange(2**7)) - want).max() <= 1e-13


# --- trajectory container -----------------------------------------------------------


def test_trajectory_validation():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        Trajectory((0.0, 0.0), (rho, rho), "exact", np.arange(2), 1)
    with pytest.raises(ValueError):
        Trajectory((0.0,), (np.eye(2),), "exact", np.arange(2), 1)  # trace 2
    t = Trajectory((0.0, 1.0), (rho, rho), "exact", np.arange(2), 1)
    with pytest.raises(ValueError):
        t.states[0][0, 0] = 5.0


def test_trajectory_csv_layout():
    fmo = chain_fmo(3, seed=19)
    noise = NoiseParameters.uniform(3, 0.1, 0.0)
    traj = integrate_exact(initial_density("site1", 3), fmo, noise, 0.2, 0.01, 10)
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,p1,p2,p3,loss,trace,purity"
    assert len(lines) == 1 + len(traj.times)
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 1.0
    assert first[4] == pytest.approx(1 - (first[1] + first[2] + first[3]), abs=1e-9)
    assert first[5] == pytest.approx(1.0, abs=1e-9)
    last = [float(x) for x in lines[-1].split(",")]
    assert last[4] > 0  # dissipation has drained population


def test_trajectory_csv_extra_columns():
    rho = np.eye(2, dtype=complex) / 2
    traj = Trajectory((0.0, 0.5), (rho, rho), "exact", np.arange(2), 1)
    text = traj.to_csv(extra_columns={"trace_distance": np.array([0.0, 0.125])})
    lines = text.strip().split("\n")
    assert lines[0].endswith(",trace_distance")
    assert lines[2].endswith(",0.125")
    with pytest.raises(ValueError):
        traj.to_csv(extra_columns={"bad": np.array([1.0])})


def test_trajectory_state_json():
    import json

    rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
    traj = Trajectory((0.0,), (rho,), "exact", np.arange(2), 1)
    doc = json.loads(state_json(traj))
    assert doc["method"] == "exact"
    assert doc["states"][0][0][1] == [0.0, 0.5]


def test_state_json_matches_nested_comprehension():
    import json

    rng = np.random.default_rng(5)
    states = []
    for n in (1, 2, 3):
        rho = random_density(n, seed=n)
        rho.real[rng.random(rho.shape) < 0.3] = -0.0
        rho.imag[rng.random(rho.shape) < 0.3] = -0.0
        rho[0, -1], rho[-1, 0] = complex(-0.0, -0.0), complex(0.0, -0.0)
        rho[np.diag_indices(2**n)] = 1 / 2**n
        states.append(rho)
    for n, rho in enumerate(states, 1):
        traj = Trajectory((0.0, 1.0), (rho, rho), "exact", np.arange(2**n), n)
        want = {
            "method": "exact",
            "times": [0.0, 1.0],
            "states": [[[[e.real, e.imag] for e in row] for row in s] for s in traj.states],
        }
        text = state_json(traj)
        assert "[-0.0, -0.0]" in text and "[0.0, -0.0]" in text
        assert text == json.dumps(want) + "\n"


# --- block writers against the scattered full-layout writers they replaced -------------

# (n, initial-state label): siteK, 2- and 3-excitation bitstrings, and the full register.
SUPPORT_CASES = [
    (3, "site2"),
    (7, "site1"),
    (7, "1100000"),
    (7, "0101010"),
    (3, "full"),
]


def case_state(n, label):
    """rho0 of a SUPPORT_CASES entry; "full" is a full-rank state on the whole register."""
    return random_density(n, seed=29) if label == "full" else initial_density(label, n)


def scattered(traj):
    """Each block of ``traj`` in a zeroed 2^n x 2^n array."""
    dim = 2**traj.n_sites
    out = []
    for block in traj.blocks:
        full = np.zeros((dim, dim), dtype=complex)
        full[np.ix_(traj.support, traj.support)] = block
        out.append(full)
    return out


def reference_state_json(traj):
    """The full-layout writer: ``json.dumps`` of every scattered state's [re, im] lists."""
    import json

    states = [np.stack([s.real, s.imag], -1).tolist() for s in scattered(traj)]
    return json.dumps({"method": traj.method, "times": list(traj.times), "states": states}) + "\n"


def reference_csv(traj, extra):
    """The full-layout CSV: populations, trace and purity of the scattered states."""
    n = traj.n_sites
    header = ["t"] + [f"p{j}" for j in range(1, n + 1)] + ["loss", "trace", "purity"] + list(extra)
    lines = [",".join(header)]
    for i, (t, s) in enumerate(zip(traj.times, scattered(traj))):
        pops = site_populations(s)
        row = [f"{t:.12g}"] + [f"{p:.12g}" for p in pops] + [f"{1.0 - pops.sum():.12g}"]
        row += [f"{np.trace(s).real:.12g}", f"{np.vdot(s, s).real:.12g}"]
        row += [f"{float(extra[name][i]):.12g}" for name in extra]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def signed_zero_block(m, rng):
    """A random m x m density matrix with -0.0 in some real and imaginary parts."""
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    upper = np.triu(rng.random((m, m)) < 0.3, 1)
    rho.real[upper | upper.T] = -0.0
    upper = np.triu(rng.random((m, m)) < 0.3, 1)
    rho.imag[upper] = -0.0
    rho.imag[upper.T] = 0.0
    return rho


@pytest.mark.parametrize("n, label", SUPPORT_CASES)
def test_block_writers_match_the_scattered_writers(n, label):
    rng = np.random.default_rng(n * 31 + len(label))
    support = _support(case_state(n, label), n)
    blocks = [signed_zero_block(len(support), rng) for _ in range(3)]
    traj = Trajectory((0.0, 0.25, 0.5), tuple(blocks), "exact", support, n)
    extra = {"trace_distance": rng.random(3)}
    text = state_json(traj)
    assert "[-0.0, " in text and ", -0.0]" in text
    assert_same_text(text, reference_state_json(traj))
    assert_same_text(traj.to_csv(extra), reference_csv(traj, extra))


class CharCount:
    """A text sink that keeps only how many characters were written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_state_json_streams_one_state_at_a_time():
    """Writing 20 states at n = 8 peaks under 3x one state's text, not with the record count."""
    import json

    n, records = 8, 20
    support = _support(initial_density("site1", n), n)
    block = signed_zero_block(len(support), np.random.default_rng(8))
    times = tuple(0.1 * k for k in range(records))
    traj = Trajectory(times, (block,) * records, "exact", support, n)
    full = traj.final_state()
    one_state = len(json.dumps(np.stack([full.real, full.imag], -1).tolist()))
    sink = CharCount()
    tracemalloc.start()
    try:
        traj.to_state_json(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > records * one_state
    assert peak < 3 * one_state


@pytest.mark.parametrize("n, label", SUPPORT_CASES)
def test_recorded_blocks_match_the_scattered_writers(n, label):
    fmo = chain_fmo(n, seed=23)
    noise = NoiseParameters.uniform(n, 0.05, 0.05)
    rho0 = case_state(n, label)
    exact = integrate_exact(rho0, fmo, noise, 0.3, 0.02, record_every=4)
    for lowering in ("dense-blocks", "compiled-pulses"):
        digital = evolve_trotter_open(rho0, fmo, noise, 0.3, 0.02, lowering, record_every=4)
        assert np.array_equal(digital.support, exact.support)
        block_td = [trace_distance(a, b) for a, b in zip(digital.blocks, exact.blocks)]
        full_td = [trace_distance(a, b) for a, b in zip(scattered(digital), scattered(exact))]
        assert np.abs(np.array(block_td) - full_td).max() <= 1e-15
        extra = {"trace_distance": np.array(block_td)}
        assert_same_text(digital.to_csv(extra), reference_csv(digital, extra))
        assert_same_text(state_json(digital), reference_state_json(digital))
    assert len(exact.times) == 5
    assert_same_text(exact.to_csv(), reference_csv(exact, {}))
    assert_same_text(state_json(exact), reference_state_json(exact))


def test_states_scatter_on_first_access_only():
    n, support = 3, np.array([0, 1, 2, 4])
    block = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    block[0, 3] = block[3, 0] = 0.125
    traj = Trajectory((0.0, 1.0), (block, block), "exact", support, n)
    assert "states" not in vars(traj)
    final = traj.final_state()
    assert "states" not in vars(traj)
    states = traj.states
    assert traj.states is states
    for full in (*states, final):
        assert full.shape == (8, 8) and not full.flags.writeable
        assert np.array_equal(full[np.ix_(support, support)], block)
        assert np.count_nonzero(full) == np.count_nonzero(block)
    assert np.allclose(traj.populations(), [site_populations(s) for s in states])


def test_trajectory_keywords_name_blocks_not_states():
    """The second field is ``blocks``; the ``states=`` keyword is gone."""
    rho = np.eye(2, dtype=complex) / 2
    traj = Trajectory(times=(0.0,), blocks=(rho,), method="exact", support=np.arange(2), n_sites=1)
    assert np.array_equal(traj.states[0], rho) and list(traj.support) == [0, 1]
    with pytest.raises(TypeError):
        Trajectory(times=(0.0,), states=(rho,), method="exact", support=np.arange(2), n_sites=1)
    moved = dataclasses.replace(traj, times=(1.0,))
    assert moved.times == (1.0,) and np.array_equal(moved.blocks[0], rho)


def test_trajectory_support_validation():
    block = np.eye(2, dtype=complex) / 2
    for support, n in (([0, 1], None), ([1, 0], 2), ([0, 4], 2), ([-1, 0], 2), ([], 2)):
        with pytest.raises(ValueError):
            Trajectory((0.0,), (block,), "exact", np.array(support, dtype=int), n)
    with pytest.raises(ValueError):
        Trajectory((0.0,), (block,), "exact", np.array([0, 1, 2]), 2)  # block is 2 x 2


def test_negative_zeros_off_the_support_print_as_positive_zeros():
    """A rho0 with -0.0 off its support prints 0.0 there in state 0.

    The support drops those entries, so the recorded state 0 is zero off the
    support like every later state; a full-layout dump of rho0 itself would
    have printed -0.0.
    """
    import json

    n = 3
    rho0 = initial_density("site1", n)
    rho0[7, 7] = -0.0
    rho0[3, 5] = complex(-0.0, -0.0)
    rho0[5, 3] = complex(0.0, -0.0)
    traj = integrate_exact(rho0, chain_fmo(n), NoiseParameters.uniform(n, 0.1, 0.0), 0.1, 0.05)
    assert list(traj.support) == [0, 1, 2, 4]
    state0 = json.loads(state_json(traj))["states"][0]
    for a, b in ((7, 7), (3, 5), (5, 3)):
        assert [math.copysign(1.0, x) for x in state0[a][b]] == [1.0, 1.0]
        z = traj.states[0][a, b]
        assert math.copysign(1.0, z.real) == math.copysign(1.0, z.imag) == 1.0
    assert state0[4][4] == [1.0, 0.0]


# --- support stepping against the full-space stepper it replaced ----------------------


def site_blocks(rho, j):
    """Site j's row and column bits of rho as axes 1 and 4 (a view if C-contiguous)."""
    hi, lo = 1 << (j - 1), rho.shape[0] >> j
    return rho.reshape(hi, 2, lo, hi, 2, lo)


def full_space_trajectory(rho0, fmo, noise, t_max, dt, route, record_every):
    """Reference: RK4 or the Trotter step on the whole 2^n x 2^n state.

    ``route`` is "exact" or a lowering.  Decay, refill and the per-site noise
    channels act on the ``site_blocks`` views.
    """
    rates = [
        (j, 4.0 * big + small, 8.0 * big)
        for j, (big, small) in enumerate(zip(noise.dissipation, noise.dephasing), 1)
        if big > 0 or small > 0
    ]
    steps = max(1, math.ceil(t_max / dt - 1e-9))
    h = t_max / steps
    if route == "exact":
        ham = build_fmo_h(fmo)
        decay = np.zeros(ham.shape)
        for j, coherence, excited in rates:
            v = site_blocks(decay, j)
            v[:, 0, :, :, 1, :] -= coherence
            v[:, 1, :, :, 0, :] -= coherence
            v[:, 1, :, :, 1, :] -= excited

        def rhs(rho):
            out = -1j * (ham @ rho - rho @ ham)
            out += decay * rho
            for j, _, weight in rates:
                src = site_blocks(rho, j)[:, 1, :, :, 1, :]
                site_blocks(out, j)[:, 0, :, :, 0, :] += weight * src
            return out

        def step(rho):
            acc = rho
            for m in (4, 3, 2, 1):
                acc = rho + (h / m) * rhs(acc)
            return acc

    else:
        u = trotter_step(fmo, h) if route == "dense-blocks" else _step_unitary(
            fmo, h, "compiled-pulses", np.arange(2**fmo.n_sites)
        )

        def step(rho):
            rho = u @ rho @ u.conj().T
            for j, coherence, excited in rates:
                keep_coherence, keep_excited = math.exp(-coherence * h), math.exp(-excited * h)
                v = site_blocks(rho, j)
                v[:, 0, :, :, 1, :] *= keep_coherence
                v[:, 1, :, :, 0, :] *= keep_coherence
                v[:, 0, :, :, 0, :] += (1.0 - keep_excited) * v[:, 1, :, :, 1, :]
                v[:, 1, :, :, 1, :] *= keep_excited
            return rho

    rho, states = rho0, [rho0]
    for k in range(1, steps + 1):
        rho = step(rho)
        if k % record_every == 0 or k == steps:
            states.append(rho)
    return states


def excitations(n):
    return np.array([bin(a).count("1") for a in range(2**n)])


def random_sector_density(n, k, rng):
    """Random full-rank density matrix on the basis states with at most k excitations."""
    keep = np.flatnonzero(excitations(n) <= k)
    a = rng.normal(size=(len(keep),) * 2) + 1j * rng.normal(size=(len(keep),) * 2)
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[np.ix_(keep, keep)] = a @ a.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("route", ["exact", "dense-blocks", "compiled-pulses"])
def test_support_stepping_matches_full_space(n, route):
    rng = np.random.default_rng(200 + n)
    fmo = chain_fmo(n, seed=n)
    t_max, dt, every = 0.25, 0.05, 2
    for k in range(n + 1):
        noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
        rho0 = random_sector_density(n, k, rng)
        if route == "exact":
            traj = integrate_exact(rho0, fmo, noise, t_max, dt, every)
        else:
            traj = evolve_trotter_open(rho0, fmo, noise, t_max, dt, route, every)
        want = full_space_trajectory(rho0, fmo, noise, t_max, dt, route, every)
        assert len(traj.states) == len(want) == 4
        for got, ref in zip(traj.states, want):
            assert trace_distance(got, ref) <= 1e-12


def test_support_is_the_reachable_excitation_sector():
    support = _support(initial_density("site1", 7), 7)
    assert support.tolist() == [0] + [1 << s for s in range(7)]
    assert _support(np.zeros((8, 8)), 3).tolist() == [0]
    three = np.flatnonzero(excitations(4) <= 3).tolist()
    for row, col in ((0, 0b0111), (0b1011, 0)):
        off = np.zeros((16, 16), dtype=complex)
        off[row, col] = 1e-300  # one nonzero coherence sets K = 3
        assert _support(off, 4).tolist() == three
    assert _support(random_density(3), 3).tolist() == list(range(8))


@pytest.mark.parametrize("n", range(2, 8))
def test_generator_and_step_keep_the_sector(n):
    # The exactness argument of the support: the generator maps a state on
    # the sector into it, and the step unitary does not couple excitation
    # numbers (exactly for dense-blocks, to roundoff for compiled-pulses).
    rng = np.random.default_rng(300 + n)
    fmo = chain_fmo(n, seed=n)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    weight = excitations(n)
    for k in range(n):
        outside = (weight[:, None] > k) | (weight[None, :] > k)
        d = LindbladGenerator(fmo, noise, np.arange(2**n)).rhs(random_sector_density(n, k, rng))
        assert np.all(d[outside] == 0)
    other = weight[:, None] != weight[None, :]
    assert np.all(trotter_step(fmo, 0.05)[other] == 0)
    u = _step_unitary(fmo, 0.05, "compiled-pulses", np.arange(2**n))
    assert np.abs(u[other]).max() <= 1e-14


# --- propagator stepping against the per-step path it replaces on small supports ------

# (n, K): random states on the sector of at most K excitations, m = 8, 11, 16 and 29.
PROPAGATOR_CASES = [(7, 1), (4, 2), (5, 2), (7, 2)]
ROUTES = ["exact", "dense-blocks", "compiled-pulses"]


def run_route(route, rho0, fmo, noise, t_max, dt, every):
    if route == "exact":
        return integrate_exact(rho0, fmo, noise, t_max, dt, every)
    return evolve_trotter_open(rho0, fmo, noise, t_max, dt, route, every)


def spy_propagators(monkeypatch):
    """Patch ``_propagator`` to keep every P it builds; returns that list."""
    built, real = [], dynamics._propagator

    def spy(step, m):
        built.append(real(step, m))
        return built[-1]

    monkeypatch.setattr(dynamics, "_propagator", spy)
    return built


@pytest.mark.parametrize("n, k", PROPAGATOR_CASES)
@pytest.mark.parametrize("route", ROUTES)
def test_propagator_stepping_matches_the_step_function(n, k, route, monkeypatch):
    rng = np.random.default_rng(900 + 10 * n + k)
    fmo = chain_fmo(n, seed=n)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    rho0 = random_sector_density(n, k, rng)
    built = spy_propagators(monkeypatch)
    # 0, 1 and 15 steps of dt = 0.02, recorded every step and every 7th.
    for t_max, every in ((0.0, 1), (0.02, 1), (0.02, 7), (0.3, 1), (0.3, 7)):
        runs = []
        for cap in (10**6, 0):  # the propagator on any support, then on none
            monkeypatch.setattr(dynamics, "PROPAGATOR_MAX_STATES", cap)
            runs.append(run_route(route, rho0, fmo, noise, t_max, 0.02, every))
        fast, slow = runs
        assert len(built) == (t_max > 0)
        built.clear()
        assert len(fast.support) == {1: n + 1, 2: 1 + n + n * (n - 1) // 2}[k]
        assert fast.times == slow.times and len(fast.times) == {0.0: 1, 0.02: 2}.get(
            t_max, 16 if every == 1 else 4
        )
        for a, b in zip(fast.blocks, slow.blocks):
            assert np.abs(a - b).max() <= 1e-13


@pytest.mark.parametrize("n, k", PROPAGATOR_CASES)
def test_stacked_rhs_matches_one_block_at_a_time(n, k):
    rng = np.random.default_rng(950 + n + k)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    support = _support(random_sector_density(n, k, rng), n)
    gen = LindbladGenerator(chain_fmo(n, seed=n), noise, support)
    m = len(support)
    stack = rng.normal(size=(2, 3, m, m)) + 1j * rng.normal(size=(2, 3, m, m))
    got = gen.rhs(stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.abs(got[idx] - gen.rhs(stack[idx])).max() <= 1e-14


@pytest.mark.parametrize("n, k", PROPAGATOR_CASES[:3])
@pytest.mark.parametrize("route", ROUTES)
def test_propagator_trace_row_is_the_identity(n, k, route, monkeypatch):
    # tr(step(rho)) = tr(rho) for every rho: vec(I)^T P = vec(I)^T.
    rng = np.random.default_rng(970 + n + k)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    rho0 = random_sector_density(n, k, rng)
    built = spy_propagators(monkeypatch)
    run_route(route, rho0, chain_fmo(n, seed=n), noise, 0.05, 0.05, 1)
    [p] = built
    m = len(_support(rho0, n))
    trace_row = np.eye(m).reshape(-1)
    assert np.abs(trace_row @ p - trace_row).max() <= 1e-14


@pytest.mark.parametrize("route", ROUTES)
def test_record_budget_refuses_before_stepping(route, monkeypatch):
    # site1 at n = 3 has m = 4: one recorded block is 4 * 4 * 16 = 256 bytes.
    rho0, fmo = initial_density("site1", 3), chain_fmo(3)
    noise = NoiseParameters.uniform(3, 0.1, 0.1)
    monkeypatch.setattr(dynamics, "RECORD_BUDGET_BYTES", 11 * 256)
    assert len(run_route(route, rho0, fmo, noise, 1.0, 0.1, 1).times) == 11
    assert len(run_route(route, rho0, fmo, noise, 1.0, 0.02, 5).times) == 11
    for dt, every in ((1 / 11, 1), (1 / 55, 5)):
        with pytest.raises(ValueError, match="would record 12 states of 4 x 4 entries"):
            run_route(route, rho0, fmo, noise, 1.0, dt, every)
    monkeypatch.setattr(dynamics, "_propagator", lambda step, m: pytest.fail("stepped"))
    with pytest.raises(ValueError, match="record 1000000000001 states"):
        run_route(route, rho0, fmo, noise, 1e6, 1e-6, 1)


@pytest.mark.parametrize("route", ROUTES)
def test_step_budget_refuses_before_stepping(route, monkeypatch):
    # site1 at n = 3 has m = 4: a step costs 16 in steps x m^2.
    rho0, fmo = initial_density("site1", 3), chain_fmo(3)
    noise = NoiseParameters.uniform(3, 0.1, 0.1)
    monkeypatch.setattr(dynamics, "STEP_BUDGET", 10 * 16)
    assert len(run_route(route, rho0, fmo, noise, 1.0, 0.1, 10).times) == 2
    with pytest.raises(ValueError, match="would take 11 steps of 4 x 4 states"):
        run_route(route, rho0, fmo, noise, 1.0, 1 / 11, 11)
    monkeypatch.undo()
    # Two records pass the record budget; the 10^12 steps must not start.
    monkeypatch.setattr(dynamics, "_propagator", lambda step, m: pytest.fail("stepped"))
    with pytest.raises(ValueError, match="would take 1000000000000 steps"):
        run_route(route, rho0, fmo, noise, 1e6, 1e-6, 10**12)


# --- whole-stack kernels, the flat walk and RK4's work blocks against the forms they replace --

# (n, K): supports of m = 1, 8, 11, 16 and 22 states.
STACK_SUPPORTS = [(3, 0), (7, 1), (10, 1), (5, 2), (6, 2)]


def assert_close(got, want):
    """Within 1e-15 of the larger of 1 and the largest entry: one rounding at most."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0) <= 1e-15 * max(1.0, np.abs(want).max(initial=0))


def per_site_rhs(gen, rho):
    """The generator on one block with one gather-and-add refill per site."""
    out = -1j * (gen.h @ rho - rho @ gen.h)
    out += gen.decay * rho
    flat, src = out.reshape(-1), rho.reshape(-1)
    for weight, lo, hi in gen.refill:
        flat[lo] += weight * src[hi]
    return out


def recorded_step(monkeypatch, run):
    """The step function that ``run()`` hands to ``_record``."""
    seen, real = [], dynamics._record

    def spy(setup, step, *rest):
        seen.append(step)
        return real(setup, step, *rest)

    monkeypatch.setattr(dynamics, "_record", spy)
    run()
    monkeypatch.setattr(dynamics, "_record", real)
    return seen[-1]


@pytest.mark.parametrize("n, k", STACK_SUPPORTS)
def test_stack_kernels_match_one_block_at_a_time(n, k, monkeypatch):
    # Unlike test_stacked_rhs_matches_one_block_at_a_time, which checks a stack against
    # rhs on its own blocks, this checks rhs and the Trotter step against per-site
    # references, so a fault shared by the block and stack paths shows too.
    rng = np.random.default_rng(2100 + 10 * n + k)
    fmo = chain_fmo(n, seed=n)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    rho0 = random_sector_density(n, k, rng)
    support = _support(rho0, n)
    m, h = len(support), 0.05
    gen = LindbladGenerator(fmo, noise, support)
    trotter = recorded_step(monkeypatch, lambda: evolve_trotter_open(rho0, fmo, noise, 0.0, h))
    u = _step_unitary(fmo, h, "dense-blocks", support)

    def per_site_trotter(rho):
        rho = u @ rho @ u.conj().T
        flat = rho.reshape(-1)
        for weight, lo, hi in gen.refill:
            flat[lo] += (1.0 - math.exp(-weight * h)) * flat[hi]
        return rho * np.exp(h * gen.decay)

    for lead in ((), (3,), (2, 3)):
        stack = rng.normal(size=(*lead, m, m)) + 1j * rng.normal(size=(*lead, m, m))
        # C order, and rows outermost as rhs returns a stack.
        for rho in (stack, np.ascontiguousarray(stack.swapaxes(0, -2)).swapaxes(0, -2)):
            for step, reference in ((gen.rhs, lambda b: per_site_rhs(gen, b)),
                                    (trotter, per_site_trotter)):
                kept = rho.copy()
                got = step(rho)
                assert np.array_equal(rho, kept)
                for idx in np.ndindex(lead):
                    assert_close(got[idx], reference(stack[idx]))


@pytest.mark.parametrize("k", [2, 7])  # m = 29 and 128
def test_buffered_rk4_steps_match_the_allocating_form(k):
    rng = np.random.default_rng(2200 + k)
    fmo = chain_fmo(7, seed=7)
    noise = NoiseParameters(random_rates(7, rng), random_rates(7, rng))
    traj = integrate_exact(random_sector_density(7, k, rng), fmo, noise, 0.1, 0.02)
    assert len(traj.support) == {2: 29, 7: 128}[k] and len(traj.blocks) == 6
    gen, h = LindbladGenerator(fmo, noise, traj.support), traj.times[1]
    rho = traj.blocks[0]
    for got in traj.blocks[1:]:
        acc = rho
        for j in (4, 3, 2, 1):
            acc = rho + (h / j) * gen.rhs(acc)
        rho = acc
        assert_close(got, rho)


def test_rhs_refuses_an_out_that_overlaps_rho():
    rng = np.random.default_rng(2300)
    noise = NoiseParameters(random_rates(7, rng), random_rates(7, rng))
    gen = LindbladGenerator(chain_fmo(7, seed=7), noise, _support(initial_density("site1", 7), 7))
    m = len(gen.h)
    buf = rng.normal(size=m * m + m) + 1j * rng.normal(size=m * m + m)
    rho, shifted = buf[: m * m].reshape(m, m), buf[m:].reshape(m, m)
    want = gen.rhs(rho)
    for out in (rho, shifted):
        with pytest.raises(ValueError, match="must not overlap rho"):
            gen.rhs(rho, out=out)
    with pytest.raises(ValueError, match="laid out as rhs returns"):
        gen.rhs(rho, out=np.empty((m, m), dtype=complex, order="F"))
    assert np.array_equal(buf[: m * m].reshape(m, m), rho)
    out = np.empty((m, m), dtype=complex)
    assert gen.rhs(rho, out=out) is not None and np.array_equal(out, want)


@pytest.mark.parametrize("n, k", [(7, 1), (5, 2)])  # m = 8 and 16
@pytest.mark.parametrize("route", ROUTES)
def test_flat_walk_matches_block_steps_with_the_same_propagator(n, k, route, monkeypatch):
    rng = np.random.default_rng(2400 + 10 * n + k)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    built = spy_propagators(monkeypatch)
    traj = run_route(route, random_sector_density(n, k, rng), chain_fmo(n, seed=n), noise,
                     0.3, 0.02, 4)
    [p] = built
    m = len(traj.support)
    rho, want = traj.blocks[0], [traj.blocks[0]]
    for step in range(1, 16):
        rho = (p @ rho.reshape(-1)).reshape(m, m)
        if step % 4 == 0 or step == 15:
            want.append(rho)
    assert len(traj.blocks) == len(want)
    for got, block in zip(traj.blocks, want):
        assert_close(got, block)


@pytest.mark.parametrize("n, k", [(7, 1), (5, 2)])  # m = 8 and 16
@pytest.mark.parametrize("route", ROUTES)
def test_walk_by_dot_is_the_matmul_walk_bit_for_bit(n, k, route, monkeypatch):
    rng = np.random.default_rng(2500 + 10 * n + k)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    built = spy_propagators(monkeypatch)
    traj = run_route(route, random_sector_density(n, k, rng), chain_fmo(n, seed=n), noise,
                     0.3, 0.02, 4)
    [p] = built
    v, want = traj.blocks[0].reshape(-1), [traj.blocks[0]]
    for step in range(1, 16):
        v = p @ v
        if step % 4 == 0 or step == 15:
            want.append(v.reshape(traj.blocks[0].shape))
    assert len(traj.blocks) == len(want)
    for got, block in zip(traj.blocks, want):
        assert got.tobytes() == block.tobytes()


@pytest.mark.parametrize("n, k", [(7, 1), (5, 2)])  # m = 8 and 16
def test_rhs_follows_the_stack_size_from_call_to_call(n, k):
    # The propagator build stacks m^2 blocks; rhs keeps the scatter and decay of
    # the last stack size, so a generator handed other sizes in turn must rebuild them.
    rng = np.random.default_rng(2600 + 10 * n + k)
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    support = _support(random_sector_density(n, k, rng), n)
    gen, m = LindbladGenerator(chain_fmo(n, seed=n), noise, support), len(support)
    for lead in ((m * m,), (6,), (2, 3), (m * m,), (), (1,), (6,)):
        stack = rng.normal(size=(*lead, m, m)) + 1j * rng.normal(size=(*lead, m, m))
        got = gen.rhs(stack)
        for idx in np.ndindex(lead):
            assert_close(got[idx], per_site_rhs(gen, stack[idx]))


def per_site_dissipator(noise, support, n):
    """``_dissipator`` as one pass per site: the decay term and refill triple of site j."""
    m = len(support)
    decay = np.zeros((m, m))
    refill = []
    for j, (big, small) in enumerate(zip(noise.dissipation, noise.dephasing), 1):
        bit = 1 << (n - j)
        occ = (support & bit) != 0
        a, b = occ[:, None], occ[None, :]
        decay -= (4.0 * big + small) * (a ^ b) + 8.0 * big * (a & b)
        if big > 0:
            hi = np.flatnonzero(occ)
            lo = np.searchsorted(support, support[hi] ^ bit)
            lo, hi = ((k[:, None] * m + k).ravel() for k in (lo, hi))
            refill.append((8.0 * big, lo, hi))
    return decay, refill


@pytest.mark.parametrize("n", range(1, 9))
def test_dissipator_is_the_per_site_pass_bit_for_bit(n):
    rng = np.random.default_rng(2700 + n)
    for support in support_cases(n, rng):
        noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
        (decay, refill), (want_decay, want_refill) = (
            f(noise, support, n) for f in (dynamics._dissipator, per_site_dissipator))
        assert decay.shape == want_decay.shape and decay.tobytes() == want_decay.tobytes()
        assert len(refill) == len(want_refill) == np.count_nonzero(noise.dissipation)
        for (w, lo, hi), (want_w, want_lo, want_hi) in zip(refill, want_refill):
            assert w == want_w
            assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


# --- H and the step unitary built on the support ----------------------------------------


def support_cases(n, rng):
    """Supports of site1, of a two-excitation basis state (n >= 2) and of a full-rank rho0."""
    labels = ["site1"] + (["11" + "0" * (n - 2)] if n >= 2 else [])
    supports = [_support(initial_density(label, n), n) for label in labels]
    supports.append(_support(random_density(n, seed=int(rng.integers(1 << 30))), n))
    assert len(supports[-1]) == 2**n
    return supports


@pytest.mark.parametrize("n", range(1, 9))
def test_support_builds_match_the_cut_full_space_builds(n):
    rng = np.random.default_rng(1600 + n)
    fmo = random_couplings(n, rng)  # the long-range pair (1, n) places non-adjacent terms
    chain = FmoParameters(fmo.epsilon, np.triu(np.tril(fmo.nu, 1), -1))  # compiled needs bonds
    noise = NoiseParameters(random_rates(n, rng), random_rates(n, rng))
    dt = float(rng.uniform(0.01, 0.5))
    h, step, replay = build_fmo_h(fmo), trotter_step(fmo, dt), ir_replay_step_unitary(chain, dt)
    for s in support_cases(n, rng):
        cut = np.ix_(s, s)
        assert np.array_equal(LindbladGenerator(fmo, noise, s).h, h[cut])
        assert np.abs(_step_unitary(fmo, dt, "dense-blocks", s) - step[cut]).max() <= 1e-14
        got = _step_unitary(chain, dt, "compiled-pulses", s)
        assert np.abs(got - replay[cut]).max() <= 1e-13


@pytest.mark.parametrize("n", range(1, 9))
def test_support_placement_is_the_cut_embedded_operator(n):
    rng = np.random.default_rng(1900 + n)
    sites = [(q,) for q in range(1, n + 1)]
    if n >= 2:
        pair = tuple(int(q) for q in rng.choice(np.arange(1, n + 1), 2, replace=False))
        sites += [(1, 2), (2, 1), (1, n), (n, 1), pair]  # (1, n) is non-adjacent from n = 3
    supports = support_cases(n, rng)
    weight = dynamics._occupations(np.arange(2**n), n).sum(axis=0)
    supports.append(np.flatnonzero(weight == 1))  # one sector alone
    for s in supports:
        for q in sites:
            dim = 2 ** len(q)
            matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
            for op in (matrix, phases):
                got = dynamics._place(op, q, s, n)
                want = ci.embed(op, q, n)[np.ix_(s, s)]
                assert np.array_equal(np.diag(got) if op.ndim == 1 else got, want), (s, q)


def test_support_builds_past_ten_sites_are_the_single_excitation_matrices():
    # On |0...0> and |j> (site j excited), Z_s is +1 or -1 and XX + YY swaps |j>
    # and |l> with amplitude 2, so H and each step factor are known at any n.
    n, dt = 30, 0.05
    fmo, noise = chain_fmo(n, seed=30), NoiseParameters.uniform(n, 0.05, 0.05)
    support = np.array([0] + [1 << (n - j) for j in range(n, 0, -1)])  # ground, site n, ..., site 1
    site = [0] + list(range(n, 0, -1))  # the excited site of each support state, 0 for ground
    h = np.diag([fmo.epsilon.sum() - 2 * (fmo.epsilon[j - 1] if j else 0) for j in site])
    for j, l in fmo.coupled_pairs():
        a, b = site.index(j), site.index(l)
        h[a, b] = h[b, a] = 4 * fmo.nu[j - 1, l - 1]
    assert np.abs(LindbladGenerator(fmo, noise, support).h - h).max() <= 1e-14
    step = np.eye(n + 1, dtype=complex)
    for kind, sites, c in fmo_terms(fmo):
        factor = np.eye(n + 1, dtype=complex)
        if kind == "z":
            factor = np.diag([np.exp(-1j * dt * c * (-1 if j == sites[0] else 1)) for j in site])
        else:
            ab = [site.index(q) for q in sites]
            factor[np.ix_(ab, ab)] = matexp_hermitian(2 * c * SX, -1j * dt)
        step = factor @ step
    assert np.abs(_step_unitary(fmo, dt, "dense-blocks", support) - step).max() <= 1e-14


@pytest.mark.parametrize("route", ROUTES)
def test_building_a_ten_site_route_from_site1_stays_on_the_support(route):
    # The support has 11 states; one 2^10 x 2^10 complex matrix alone is 16 MiB.
    fmo, noise = chain_fmo(10, seed=10), NoiseParameters.uniform(10, 0.05, 0.05)
    rho0 = initial_density("site1", 10)
    tracemalloc.start()
    try:
        traj = run_route(route, rho0, fmo, noise, 0.0, 0.05, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.support) == 11 and traj.times == (0.0,)
    assert peak < 4 << 20
