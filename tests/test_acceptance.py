"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints one PASS line with the measured figure of merit; a failure
fails the corresponding test.  Expected values are either fixed reference
constants, independently constructed operators, or convergence-rate laws.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from fmosim import circuit as ci
from fmosim.channels import (
    apply_kraus,
    channel_circuit,
    completeness_deficit,
    damping_basis_solution,
    dephasing_kraus_corrected,
    dephasing_kraus_paper,
    dissipation_kraus,
    kraus_from_angles,
)
from fmosim.cli import parse_config
from fmosim.compiler import (
    compile_single_z,
    compile_xy,
    compile_zz,
    decoupling_sign_matrix,
    hadamard_matrix,
    schedule_program,
    verify_schedule,
)
from fmosim.dynamics import (
    NoiseParameters,
    evolve_trotter_open,
    initial_density,
    integrate_exact,
)
from fmosim.hamiltonians import (
    FmoParameters,
    NmrParameters,
    build_fmo_h,
    trotter_unitary,
)
from fmosim.qcore import bloch_to_density, matexp_hermitian, trace_distance

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "example.json"


def random_nmr(seed: int) -> NmrParameters:
    rng = np.random.default_rng(seed)
    return NmrParameters(omega=rng.uniform(-2, 2, 7), j=rng.uniform(-1, 1, 6))


def test_acceptance_01_golden_amplitude():
    t0 = time.time()
    params = NmrParameters(omega=np.ones(7), j=0.2 * np.ones(6))
    sched = compile_single_z(1, 1.0, params)
    psi = ci.run_statevector(schedule_program(sched, params))
    expected = 0.8775825619 - 0.4794255386j
    err = abs(psi[0] - expected)
    rest = np.abs(np.delete(psi, 0)).max()
    assert err < 1e-6
    assert rest < 1e-10
    assert time.time() - t0 < 1.0
    print(f"\nPASS 01 golden amplitude: |amp - ref| = {err:.2e}, leakage {rest:.1e}")


def test_acceptance_02_hadamard_and_sign_matrix():
    block = np.array([[1, 1], [1, -1]])
    reference_h8 = np.kron(np.kron(block, block), block)
    assert np.array_equal(hadamard_matrix(3), reference_h8)
    assert np.array_equal(decoupling_sign_matrix(7, 1), reference_h8[:7])
    print("\nPASS 02 Hadamard and sign matrix: entrywise exact")


def test_acceptance_03_xy_support():
    t0 = time.time()
    rng = np.random.default_rng(42)
    allowed = {0, 8, 16, 24}  # only qubits 3 and/or 4 excited
    worst = 0.0
    for _ in range(20):
        params = NmrParameters(omega=rng.uniform(-2, 2, 7), j=rng.uniform(-1, 1, 6))
        tau = rng.uniform(-1.5, 1.5)
        prog = schedule_program(compile_xy((3, 4), tau, params), params)
        psi = ci.run_statevector(prog)
        outside = sum(
            abs(psi[k]) ** 2 for k in range(psi.size) if k not in allowed
        )
        worst = max(worst, outside)
    assert worst < 1e-8
    assert time.time() - t0 < 10.0
    print(f"\nPASS 03 XY support confinement: worst outside-probability {worst:.1e}")


def test_acceptance_04_schedule_verification_sweep():
    t0 = time.time()
    worst = 0.0
    count = 0
    for draw in range(5):
        for l in range(1, 8):
            params = random_nmr(100 + draw * 31 + l)
            tau = float(np.random.default_rng(draw * 7 + l).uniform(0.3, 1.5))
            rep = verify_schedule(compile_single_z(l, tau, params), params)
            worst = max(worst, rep.norm_error)
            count += 1
        for l in range(1, 7):
            params = random_nmr(200 + draw * 31 + l)
            tau = float(np.random.default_rng(draw * 11 + l).uniform(0.3, 1.5))
            for sched in (
                compile_zz((l, l + 1), tau, params),
                compile_xy((l, l + 1), tau, params),
            ):
                rep = verify_schedule(sched, params)
                worst = max(worst, rep.norm_error)
                count += 1
    assert worst <= 1e-8
    assert time.time() - t0 < 120.0
    print(f"\nPASS 04 schedule verification: {count} targets, worst norm error {worst:.1e}")


def test_acceptance_05_trotter_order():
    t0 = time.time()
    slopes = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        nu = np.zeros((7, 7))
        for j in range(7):
            for l in range(j + 1, 7):
                nu[j, l] = nu[l, j] = rng.uniform(-0.2, 0.2)
        fmo = FmoParameters(epsilon=rng.uniform(0.5, 1.5, 7), nu=nu)
        exact = matexp_hermitian(build_fmo_h(fmo), -1j * 0.5)
        ns = np.array([1, 2, 4, 8, 16])
        errs = [
            np.linalg.norm(trotter_unitary(fmo, 0.5, int(n)) - exact, 2) for n in ns
        ]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        slopes.append(slope)
        assert abs(slope + 1.0) < 0.1
    assert time.time() - t0 < 60.0
    print(f"\nPASS 05 Trotter order: log-log slopes {[f'{s:.3f}' for s in slopes]}")


def _rk4(rhs, rho, t, steps=4000):
    h = t / steps
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def test_acceptance_06_channel_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(6)
    states = []
    for _ in range(100):
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(r)
        states.append(bloch_to_density(r))
    pairs = [(rng.uniform(0.05, 2.5), rng.uniform(0.02, 2.0)) for _ in range(10)]
    worst = 0.0
    for rho in states:
        for rate, t in pairs:
            a = apply_kraus(rho, dissipation_kraus(rate, t))
            b = damping_basis_solution(rate, rho, t)
            worst = max(worst, np.abs(a - b).max())
    assert worst < 1e-10

    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    nproj = np.array([[0, 0], [0, 1]], dtype=complex)
    worst_ode = 0.0
    for rate, t in pairs[:3]:
        rhs = lambda r: 4 * rate * (2 * sm @ r @ sm.conj().T - nproj @ r - r @ nproj)
        # One RK4 run on the stacked states; the products broadcast over the stack.
        for rho, evolved in zip(states[:5], _rk4(rhs, np.stack(states[:5]), t)):
            diff = np.abs(evolved - damping_basis_solution(rate, rho, t)).max()
            worst_ode = max(worst_ode, diff)
    assert worst_ode < 1e-8
    assert time.time() - t0 < 10.0
    print(
        f"\nPASS 06 channel oracle: kraus-vs-closed-form {worst:.1e}, "
        f"closed-form-vs-RK4 {worst_ode:.1e}"
    )


def test_acceptance_07_channel_circuit_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(7)
    channels = [
        kraus_from_angles(0.0, 0.0),
        kraus_from_angles(math.pi / 2, math.pi / 2),
        dissipation_kraus(1.0, 0.05),
        dissipation_kraus(0.3, 0.8),
    ]
    channels += [
        kraus_from_angles(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)
    ]
    states = []
    for _ in range(50):
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(r)
        states.append(bloch_to_density(r))
    anc = np.array([[1, 0], [0, 0]], dtype=complex)
    worst = 0.0
    for ch in channels:
        prog = channel_circuit(ch)
        for rho in states:
            got = ci.run_density(prog, np.kron(rho, anc))
            worst = max(worst, np.abs(got - apply_kraus(rho, ch)).max())
    assert worst < 1e-10
    assert time.time() - t0 < 10.0
    print(f"\nPASS 07 circuit equivalence: 10 channels x 50 states, worst {worst:.1e}")


def test_acceptance_08_cptp_audit():
    t0 = time.time()
    rng = np.random.default_rng(8)
    worst_diss = max(
        completeness_deficit(dissipation_kraus(rng.uniform(0, 3), rng.uniform(0, 2)).ops)
        for _ in range(50)
    )
    assert worst_diss <= 1e-14

    deficits = []
    for gt in (0.0, 0.1, 0.5, 1.0, 5.0):
        ch = dephasing_kraus_paper(1.0, gt)
        assert ch.cptp == "violated" and ch.deficit > 0.0
        deficits.append(ch.deficit)

    worst_corr = max(
        completeness_deficit(
            dephasing_kraus_corrected(rng.uniform(0, 3), rng.uniform(0, 2)).ops
        )
        for _ in range(50)
    )
    assert worst_corr <= 1e-10
    assert time.time() - t0 < 5.0
    print(
        f"\nPASS 08 CPTP audit: dissipation deficit {worst_diss:.1e}, published "
        f"dephasing deficits {[f'{d:.2e}' for d in deficits]}, corrected {worst_corr:.1e}"
    )


def test_acceptance_09_end_to_end_convergence():
    t0 = time.time()
    cfg = parse_config(json.loads(CONFIG_PATH.read_text()))
    rho0 = initial_density(cfg.initial_state, cfg.fmo.n_sites)
    t_max = 2.0
    ref = integrate_exact(
        rho0, cfg.fmo, cfg.noise, t_max, 1e-3, record_every=500
    )
    for s in ref.states:
        assert abs(np.trace(s).real - 1) < 1e-8
        assert np.linalg.eigvalsh(s).min() > -1e-7
    errs = []
    for dt in (0.1, 0.05, 0.025):
        traj = evolve_trotter_open(rho0, cfg.fmo, cfg.noise, t_max, dt)
        for s in traj.states:
            assert abs(np.trace(s).real - 1) < 1e-6
            assert np.linalg.eigvalsh(s).min() > -1e-7
        errs.append(trace_distance(traj.final_state(), ref.final_state()))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    for r in ratios:
        assert 2 * 0.85 < r < 2 * 1.15
    assert time.time() - t0 < 300.0
    print(
        f"\nPASS 09 end-to-end convergence: errors {[f'{e:.2e}' for e in errs]}, "
        f"halving ratios {[f'{r:.3f}' for r in ratios]}"
    )


def test_acceptance_10_cross_mode_equivalence():
    t0 = time.time()
    cfg = parse_config(json.loads(CONFIG_PATH.read_text()))
    noise0 = NoiseParameters.uniform(cfg.fmo.n_sites, 0.0, 0.0)
    rho0 = initial_density(cfg.initial_state, cfg.fmo.n_sites)
    a = evolve_trotter_open(rho0, cfg.fmo, noise0, 1.0, 0.05, "dense-blocks")
    b = evolve_trotter_open(rho0, cfg.fmo, noise0, 1.0, 0.05, "compiled-pulses")
    assert a.times == b.times
    worst = max(trace_distance(x, y) for x, y in zip(a.states, b.states))
    assert worst < 1e-7
    assert time.time() - t0 < 180.0
    print(f"\nPASS 10 cross-mode equivalence: worst trace distance {worst:.1e}")
