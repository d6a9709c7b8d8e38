"""Circuit execution, noise channels, sampling, and sector diagonalization."""
from functools import reduce

import numpy as np
import pytest

from qcmoments.fermion import FermionOperator, PauliOperator, jordan_wigner
from qcmoments.simulator import (
    Circuit, CountsTable, NoiseSpec, Statevector, exact_diagonalize,
    noisy_distribution, run, sample, sector_basis,
)

from reference_simulator import expectation

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
S = np.diag([1, 1j])
X = np.array([[0, 1], [1, 0]])
CNOT_LO = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
CNOT_HI = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
FSWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])


def dense_unitary(circ):
    """Independent kron-composed unitary; qubit j is bit j of the index."""
    n = circ.n_qubits
    u = np.eye(1 << n, dtype=complex)
    for name, qubits, param in circ.gates:
        if name == "RY":
            c, s = np.cos(param / 2), np.sin(param / 2)
            g = np.array([[c, -s], [s, c]])
        elif name == "RZ":
            g = np.diag([np.exp(-0.5j * param), np.exp(0.5j * param)])
        elif name in ("H", "S", "SDG", "X"):
            g = {"H": H, "S": S, "SDG": S.conj(), "X": X}[name]
        elif name == "CNOT":
            g = CNOT_LO if qubits[0] < qubits[1] else CNOT_HI
        elif name == "FSWAP":
            g = FSWAP
        lo = min(qubits)
        hi_pad = n - lo - (2 if len(qubits) == 2 else 1)
        full = np.kron(np.eye(1 << hi_pad), np.kron(g, np.eye(1 << lo)))
        u = full @ u
    return u


def random_circuit(n, rng, n_gates=25):
    circ = Circuit(n)
    for _ in range(n_gates):
        kind = rng.integers(0, 8)
        q = int(rng.integers(0, n))
        if kind == 0:
            circ.h(q)
        elif kind == 1:
            circ.s(q)
        elif kind == 2:
            circ.sdg(q)
        elif kind == 3:
            circ.x(q)
        elif kind == 4:
            circ.ry(q, float(rng.normal()))
        elif kind == 5:
            circ.rz(q, float(rng.normal()))
        else:
            a = int(rng.integers(0, n - 1))
            if kind == 6:
                if rng.integers(0, 2):
                    circ.cnot(a, a + 1)
                else:
                    circ.cnot(a + 1, a)
            else:
                circ.fswap(a, a + 1)
    return circ


def test_run_matches_dense_unitary():
    rng = np.random.default_rng(42)
    for seed in range(4):
        circ = random_circuit(4, np.random.default_rng(seed))
        u = dense_unitary(circ)
        for bits in range(16):
            out = run(circ, Statevector.basis_state(bits, 4))
            assert np.allclose(out.amplitudes, u[:, bits], atol=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_stacked_run_matches_single_runs_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    circ = random_circuit(n, rng, n_gates=80)
    kinds = {(name, qubits[0] < qubits[-1]) for name, qubits, _ in circ.gates}
    assert {name for name, _ in kinds} == {"H", "S", "SDG", "X", "RY", "RZ",
                                           "CNOT", "FSWAP"}
    assert {("CNOT", True), ("CNOT", False)} <= kinds
    stack = rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
    stack /= np.linalg.norm(stack, axis=1, keepdims=True)
    out = run(circ, stack)
    assert out.shape == stack.shape
    for row, amps in zip(stack, out):
        assert np.array_equal(amps, run(circ, Statevector(row, n)).amplitudes)
    assert np.allclose(out, stack @ dense_unitary(circ).T, atol=1e-10)


def test_cnot_orientation_and_fswap_sign():
    circ = Circuit(2)
    circ.cnot(0, 1)  # control = qubit 0 (low bit)
    out = run(circ, Statevector.basis_state(0b01, 2))
    assert abs(out.amplitudes[0b11] - 1) < 1e-12
    circ = Circuit(2)
    circ.cnot(1, 0)
    out = run(circ, Statevector.basis_state(0b10, 2))
    assert abs(out.amplitudes[0b11] - 1) < 1e-12
    circ = Circuit(2)
    circ.fswap(0, 1)
    out = run(circ, Statevector.basis_state(0b11, 2))
    assert abs(out.amplitudes[0b11] + 1) < 1e-12
    out = run(circ, Statevector.basis_state(0b01, 2))
    assert abs(out.amplitudes[0b10] - 1) < 1e-12


def test_adjacency_enforced():
    circ = Circuit(3)
    with pytest.raises(ValueError):
        circ.cnot(0, 2)
    with pytest.raises(ValueError):
        circ.fswap(2, 0)


def test_circuit_metrics():
    circ = Circuit(3)
    circ.h(0).cnot(0, 1).fswap(1, 2).ry(2, 0.3)
    assert circ.cnot_count() == 4
    # layers: H(0) | CNOT(0,1) | FSWAP(1,2) x3 | RY(2)
    assert circ.depth() == 6


def test_expectation_matches_dense():
    rng = np.random.default_rng(3)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    state = Statevector(vec, 3)
    op = PauliOperator(3, {("X", "I", "Z"): 0.7, ("Y", "Y", "I"): -0.3,
                           ("Z", "Z", "Z"): 1.1, ("I", "I", "I"): 0.25})
    m = op.to_matrix()
    ref = float(np.real(vec.conj() @ m @ vec))
    assert expectation(state, op) == pytest.approx(ref, abs=1e-10)


def test_noisy_distribution_depolarizing_and_readout():
    zero, one = np.eye(2)
    noise = NoiseSpec(global_depolarizing_q=0.2)
    assert np.allclose(noisy_distribution([zero], noise, [0]), [[0.9, 0.1]])
    noise = NoiseSpec.uniform_readout(1, p01=0.1, p10=0.3)
    p = noisy_distribution([zero, one], noise, [0, 0])
    assert np.allclose(p, [[0.9, 0.1], [0.3, 0.7]])
    # per-CNOT folding: q_eff = 1 - (1-q)(1-qc)^k
    noise = NoiseSpec(global_depolarizing_q=0.1, gate_depolarizing_cnot=0.01)
    assert noise.effective_q(10) == pytest.approx(1 - 0.9 * 0.99 ** 10)


def test_noisy_rows_match_single_rows_bit_for_bit():
    rng = np.random.default_rng(8)
    probs = rng.random((6, 16))
    probs /= probs.sum(axis=1, keepdims=True)
    noise = NoiseSpec(global_depolarizing_q=0.1, gate_depolarizing_cnot=0.01,
                      readout_flip=NoiseSpec.uniform_readout(
                          4, 0.03, 0.05).readout_flip)
    n_cnots = [0, 3, 7, 12, 0, 40]
    rows = noisy_distribution(probs, noise, n_cnots)
    flip = reduce(np.kron, [noise.readout_flip[0]] * 4)
    for p, c, row in zip(probs, n_cnots, rows):
        assert np.array_equal(row, noisy_distribution([p], noise, [c])[0])
        q = noise.effective_q(c)
        assert np.allclose(row, flip @ ((1 - q) * p + q / 16), atol=1e-14)


def test_readout_matrix_validation():
    with pytest.raises(ValueError):
        NoiseSpec(readout_flip=np.array([[[0.9, 0.2], [0.2, 0.8]]]))
    with pytest.raises(ValueError):
        NoiseSpec(global_depolarizing_q=1.5)


def test_sampling_deterministic_and_calibrated():
    circ = Circuit(2)
    circ.h(0)
    state = run(circ, Statevector.basis_state(0, 2))
    t1 = sample(np.abs(state.amplitudes) ** 2, 4000, seed=5)
    t2 = sample(np.abs(state.amplitudes) ** 2, 4000, seed=5)
    assert np.array_equal(t1.outcomes, t2.outcomes)
    assert np.array_equal(t1.counts, t2.counts)
    assert t1.shots == 4000
    # ~50/50 within 5 sigma of binomial
    p0 = t1.vector(2)[0] / 4000
    assert abs(p0 - 0.5) < 5 * np.sqrt(0.25 / 4000)
    assert t1.outcomes.tolist() == [0, 1]  # qubit 1 (bit 1) never set


def test_counts_table_roundtrip():
    t = CountsTable(np.array([1, 2]), np.array([3, 7]), shots=10)
    v = t.vector(2)
    assert v.dtype == np.int64 and v.tolist() == [0, 3, 7, 0]
    back = CountsTable(np.flatnonzero(v), v[v > 0], shots=10)
    assert back.outcomes.tolist() == [1, 2] and back.counts.tolist() == [3, 7]
    with pytest.raises(ValueError, match="shot total"):
        CountsTable(np.array([0]), np.array([1]), shots=2)
    with pytest.raises(ValueError, match="shot total"):
        CountsTable(np.array([0, 1]), np.array([3, -1]), shots=2)
    with pytest.raises(ValueError, match="increasing"):
        CountsTable(np.array([2, 1]), np.array([1, 1]), shots=2)


def test_sector_basis_counts():
    assert len(sector_basis(4, 2)) == 6
    assert len(sector_basis(4, 2, sz=0.0)) == 4
    assert len(sector_basis(8, 4, sz=0.0)) == 36


def test_exact_diagonalize_matches_dense():
    rng = np.random.default_rng(17)
    n, ne = 4, 2
    op = FermionOperator(n)
    for _ in range(6):
        j, k = rng.integers(0, n, size=2)
        op.add_string([(int(j), True), (int(k), False)],
                      complex(rng.normal(), rng.normal()))
    op.compress()
    op = op + op.dagger()
    mat = jordan_wigner(op).to_matrix()
    masks = [m for m in range(16) if bin(m).count("1") == ne]
    sub = mat[np.ix_(masks, masks)]
    ref = np.linalg.eigvalsh(sub)[0]
    energy, state = exact_diagonalize(op, ne)
    assert energy == pytest.approx(ref, abs=1e-10)
    assert float(np.real(state.amplitudes.conj() @ mat @ state.amplitudes)) == \
        pytest.approx(ref, abs=1e-10)
