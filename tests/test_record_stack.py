"""A run's records as one (R, m, m) stack, against the per-record code it replaced.

``Trajectory`` checks its blocks, ``populations`` and ``to_csv`` build their
table, and ``trace_distance`` takes the ``both`` distances, each on the whole
stack.  Every reference below is the per-record form, one block of its own at a
time, kept here so the stack paths can be held to it bit for bit and byte for
byte.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fmosim import cli
from fmosim.dynamics import Trajectory, _occupations, _support, initial_density
from fmosim.qcore import trace_distance
from textcompare import assert_same_text

EXAMPLE_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "example.json")

# (n, initial-state label): supports of m = 1, 8, 29 and 128 (the full 7-site
# register) states, and 11 at 10 sites, where the loss sums 10 populations.
SUPPORT_CASES = [(7, "ground"), (7, "site1"), (7, "1100000"), (7, "full"), (10, "site1")]


def case_support(n, label):
    return np.arange(2**n) if label == "full" else _support(initial_density(label, n), n)


def random_blocks(m, records, rng):
    """``records`` random m x m density matrices, as a list of separate arrays."""
    a = rng.normal(size=(records, m, m)) + 1j * rng.normal(size=(records, m, m))
    rho = a @ a.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return [np.array(block) for block in rho]


def reference_trace_distance(a, b):
    """The per-pair trace distance: one Hermitian check and one ``eigvalsh`` per pair."""
    d = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    if not np.max(np.abs(d - d.conj().T)) <= 1e-9:
        raise ValueError("trace_distance requires Hermitian inputs")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T)))))


def reference_populations(traj):
    occ = _occupations(traj.support, traj.n_sites)
    return np.array([occ @ np.real(np.diagonal(np.array(s))) for s in traj.blocks])


def reference_csv(traj, extra):
    """The per-row CSV writer: numpy calls and one f-string per cell, block by block."""
    n = traj.n_sites
    header = ["t"] + [f"p{j}" for j in range(1, n + 1)] + ["loss", "trace", "purity"] + list(extra)
    lines = [",".join(header)]
    pops = reference_populations(traj)
    for i, (t, s) in enumerate(zip(traj.times, traj.blocks)):
        s = np.array(s)
        row = [f"{t:.12g}"] + [f"{p:.12g}" for p in pops[i]] + [f"{1.0 - pops[i].sum():.12g}"]
        row += [f"{np.trace(s).real:.12g}", f"{np.vdot(s, s).real:.12g}"]
        row += [f"{float(extra[name][i]):.12g}" for name in extra]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_validation_error(times, blocks, m, tol):
    """The message of the per-record check for the first faulty record, or None."""
    for t, s in zip(times, blocks):
        s = np.array(s, dtype=complex)
        if s.shape != (m, m):
            return f"state at t={t:g} is not {m} x {m}"
        tr = np.trace(s)
        if not (np.isfinite(s).all() and abs(tr.real - 1.0) <= tol and abs(tr.imag) <= tol):
            return f"state at t={t:g} is not finite or has trace {tr:.8g}"
    return None


# --- trace_distance on stacks -------------------------------------------------------------


@pytest.mark.parametrize("m, records", [(1, 3), (8, 40), (29, 45), (128, 3)])
def test_stacked_trace_distance_is_the_per_pair_value(m, records):
    """45 blocks of 29 states span three 256 KiB slices, and blocks of 128 states one each."""
    rng = np.random.default_rng(m)
    a, b = random_blocks(m, records, rng), random_blocks(m, records, rng)
    got = trace_distance(np.stack(a), np.stack(b))
    assert got.shape == (records,)
    want = [reference_trace_distance(x, y) for x, y in zip(a, b)]
    assert got.tolist() == want
    assert [trace_distance(x, y) for x, y in zip(a, b)] == want
    assert all(type(trace_distance(x, y)) is float for x, y in zip(a[:2], b[:2]))
    pairs = [(a[k % records], b[(k + 1) % records]) for k in range(6)]
    x, y = (np.stack(side).reshape(2, 3, m, m) for side in zip(*pairs))
    grid = trace_distance(x, y)
    assert grid.shape == (2, 3)
    assert grid.ravel().tolist() == [reference_trace_distance(*pair) for pair in pairs]


@pytest.mark.parametrize("where", [0, 20, 44])
def test_stacked_trace_distance_refuses_one_non_hermitian_block(where):
    rng = np.random.default_rng(3)
    a, b = np.stack(random_blocks(29, 45, rng)), np.stack(random_blocks(29, 45, rng))
    assert trace_distance(a, b).shape == (45,)
    a[where, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        trace_distance(a, b)
    with pytest.raises(ValueError, match="Hermitian"):
        trace_distance(a[where], b[where])


def test_stacked_trace_distance_temporaries_do_not_grow_with_the_stack():
    """Each slice's temporaries are about 1 MiB, however many blocks are stacked."""
    rng = np.random.default_rng(4)
    a, b = np.stack(random_blocks(29, 8, rng) * 40), np.stack(random_blocks(29, 8, rng) * 40)
    tracemalloc.start()
    try:
        trace_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.nbytes > 4_000_000 and peak < 1_500_000


def test_evolve_both_takes_every_distance_in_one_call(tmp_path, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(np.shape(a))
        return trace_distance(a, b)

    monkeypatch.setattr(cli, "trace_distance", counted)
    out = tmp_path / "t.csv"
    argv = ["evolve", "--config", EXAMPLE_CONFIG, "--method", "both", "--out", str(out)]
    assert cli.main(argv) == 0
    assert calls == [(51, 8, 8)] and len(out.read_text().splitlines()) == 52


# --- Trajectory validation ----------------------------------------------------------------


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("fault", ["shape", "nan", "inf", "trace", "imaginary trace"])
@pytest.mark.parametrize("method", ["exact", "trotter(dt=0.1)"])
def test_trajectory_names_the_faulty_record_as_the_per_record_check(where, fault, method):
    n, support = 3, np.array([0, 1, 2, 4])
    times = (0.0, 0.125, 0.25, 0.375, 0.5)
    blocks = random_blocks(4, 5, np.random.default_rng(where))
    if fault == "shape":
        blocks[where] = np.eye(5, dtype=complex) / 5
    elif fault == "nan":
        blocks[where][0, 1] = np.nan
    elif fault == "inf":
        blocks[where][2, 2] = np.inf
    elif fault == "trace":
        blocks[where] = blocks[where] * (1 + 1e-5)
    else:
        blocks[where][1, 1] += 1e-5j
    tol = 1e-8 if method == "exact" else 1e-6
    want = reference_validation_error(times, blocks, 4, tol)
    assert want is not None and f"t={times[where]:g} " in want
    with pytest.raises(ValueError) as info:
        Trajectory(times, tuple(blocks), method, support, n)
    assert str(info.value) == want


@pytest.mark.parametrize("fault", ["shape", "trace"])
def test_trajectory_names_the_earlier_of_two_faulty_records(fault):
    times, support = (0.0, 0.25, 0.5, 0.75), np.array([0, 1, 2, 4])
    blocks = random_blocks(4, 4, np.random.default_rng(7))
    for k in (1, 3):
        blocks[k] = np.eye(3, dtype=complex) / 3 if fault == "shape" else 2 * blocks[k]
    want = reference_validation_error(times, blocks, 4, 1e-8)
    assert "t=0.25 " in want
    with pytest.raises(ValueError) as info:
        Trajectory(times, tuple(blocks), "exact", support, 3)
    assert str(info.value) == want


def test_trajectory_names_the_first_record_of_a_wrongly_shaped_stack():
    stack = np.stack(random_blocks(3, 4, np.random.default_rng(1)))
    with pytest.raises(ValueError, match=r"^state at t=0\.5 is not 4 x 4$"):
        Trajectory((0.5, 1.0, 1.5, 2.0), stack, "exact", np.array([0, 1, 2, 4]), 3)


@pytest.mark.parametrize("times", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan)])
def test_trajectory_refuses_non_finite_times(times):
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError, match="times must be finite"):
        Trajectory(times, (rho, rho), "exact", np.arange(2), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_to_csv_refuses_a_non_finite_extra_column(bad):
    rho = np.eye(2, dtype=complex) / 2
    traj = Trajectory((0.0, 0.5), (rho, rho), "exact", np.arange(2), 1)
    with pytest.raises(ValueError, match="'trace_distance' must hold one finite number"):
        traj.to_csv(extra_columns={"trace_distance": np.array([0.0, bad])})


def test_trajectory_holds_one_read_only_copy_of_its_records():
    """One copy of a 1.3 MB stack, read-only, and 20 views of it, one per record."""
    rng = np.random.default_rng(2)
    source = np.stack(random_blocks(64, 20, rng))
    tracemalloc.start()
    try:
        traj = Trajectory(tuple(0.1 * k for k in range(20)), source, "exact", np.arange(64), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * source.nbytes
    stack = traj.blocks
    assert stack.shape == (20, 64, 64) and stack.dtype == complex and not stack.flags.writeable
    assert not np.shares_memory(stack, source) and np.array_equal(stack, source)
    assert len(stack) == 20 and all(b.shape == (64, 64) and b.base is stack for b in stack)
    assert np.array_equal(stack[-1], source[-1])


# --- populations and the CSV --------------------------------------------------------------


@pytest.mark.parametrize("n, label", SUPPORT_CASES)
def test_stack_table_matches_the_per_row_writer(n, label):
    support = case_support(n, label)
    m = len(support)
    assert m == {("ground", 7): 1, ("site1", 7): 8, ("1100000", 7): 29,
                 ("full", 7): 128, ("site1", 10): 11}[(label, n)]
    rng = np.random.default_rng(m)
    records = 4 if m == 128 else 12
    times = tuple(np.concatenate([[0.0], np.cumsum(rng.random(records - 1))]).tolist())
    traj = Trajectory(times, tuple(random_blocks(m, records, rng)), "exact", support, n)
    assert traj.populations().tobytes() == reference_populations(traj).tobytes()
    extra = {"trace_distance": rng.random(records) * 10.0 ** rng.integers(-17, 3, records),
             "signed": np.array([-0.0, 0.0, -1e-300, 1e300] * records)[:records]}
    assert_same_text(traj.to_csv(), reference_csv(traj, {}))
    assert_same_text(traj.to_csv(extra), reference_csv(traj, extra))
    assert_same_text(traj.to_csv({"listed": extra["signed"].tolist()}),
                     reference_csv(traj, {"listed": extra["signed"]}))


@pytest.mark.parametrize("seed", [1452, 34415])
def test_csv_purity_is_the_per_record_vdot(seed):
    """Purity prints ``np.vdot``'s sum of |rho_ab|^2.  These two states were picked
    because a stacked ``(abs(blocks) ** 2).sum((1, 2))`` rounds them to a different
    last printed digit (0.248782769643 for seed 1452 and 0.223095113545 for 34415,
    with OpenBLAS on x86-64), so the test tells the two sums apart."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    traj = Trajectory((0.0,), (rho,), "exact", np.arange(8), 3)
    assert traj.to_csv().splitlines()[1].split(",")[-1] == "%.12g" % np.vdot(rho, rho).real
