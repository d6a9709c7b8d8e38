"""Readout inversion, clipping, post-selection, RDM assembly, calibration."""
import numpy as np
import pytest

from qcmoments.conventions import interleaved_spins
from qcmoments.fermion import FermionOperator
from qcmoments.mitigation import (
    AssignmentCalibration, apply_qrem, assemble_rdm, calibration_from_counts,
    check_representability, clip_to_physical, fit_white_noise_rate,
    mixed_state_value, reference_calibrate, rescale_rdm, symmetry_postselect,
)
from qcmoments.planner import build_measurement_circuit, build_plan, \
    enumerate_elements
from qcmoments.rdm import RDM
from qcmoments.simulator import (
    CountsTable, assignment_matrices, noisy_distribution,
    operator_matrix_in_sector, run, sample, sector_basis,
)

from reference_analysis import (
    bits_to_string, bitstring_probabilities, checked, identity_calibration,
)
from reference_fermion import add_string, identity, number_operator
from reference_planner import measured_circuit
from reference_rdm import matricize, rdm_from_determinant, \
    rdm_representability
from reference_simulator import basis_state, rdm_from_statevector


# -- calibration

def sample_calibration(n_qubits, p01, p10, shots, seeds):
    """Count vectors of an all-zeros and an all-ones preparation under the
    readout flips alone, drawn with ``seeds[0]`` and ``seeds[1]``."""
    ideal = np.zeros((2, 1 << n_qubits))
    ideal[0, 0] = ideal[1, -1] = 1.0
    flips = assignment_matrices(np.full(n_qubits, p01),
                                np.full(n_qubits, p10))
    rows = noisy_distribution(ideal, [0.0, 0.0], flips)
    return [sample(p, shots, seed=seed).vector(n_qubits)
            for p, seed in zip(rows, seeds)]


def test_calibrate_zero_noise_is_identity():
    cal = checked(calibration_from_counts,
        *sample_calibration(3, 0.0, 0.0, 100, seeds=(0, 7)))
    assert np.allclose(cal.matrices, np.broadcast_to(np.eye(2), (3, 2, 2)))


def test_calibrate_estimates_flip_rates():
    cal = checked(calibration_from_counts,
        *sample_calibration(4, 0.02, 0.05, 100_000, seeds=(5, 20)))
    sigma01 = np.sqrt(0.02 * 0.98 / 100_000)
    sigma10 = np.sqrt(0.05 * 0.95 / 100_000)
    for q in range(4):
        assert abs(cal.matrices[q][1, 0] - 0.02) < 3 * sigma01 + 1e-12
        assert abs(cal.matrices[q][0, 1] - 0.05) < 3 * sigma10 + 1e-12


def test_calibrate_singular_matrix_is_an_error():
    with pytest.raises(ValueError, match="singular"):
        checked(calibration_from_counts,
            *sample_calibration(2, 0.0, 0.6, 50_000, seeds=(0, 3)))


def test_assignment_calibration_validation():
    bad = np.broadcast_to(np.array([[0.9, 0.2], [0.2, 0.8]]), (1, 2, 2))
    with pytest.raises(ValueError, match="sum to 1"):
        checked(AssignmentCalibration, bad.copy(), bad.copy())


# -- QREM

def test_qrem_identity_calibration_is_noop():
    counts = CountsTable(np.array([0b010, 0b111]), np.array([40, 60]),
                         shots=100)
    out = apply_qrem(counts, identity_calibration(3))
    assert out == pytest.approx({"010": 0.4, "111": 0.6})


def test_qrem_reduces_total_variation():
    rng = np.random.default_rng(9)
    amps = rng.normal(size=16)
    state = (amps / np.linalg.norm(amps)).astype(complex)
    ideal = np.abs(state) ** 2
    flips = assignment_matrices(np.full(4, 0.03), np.full(4, 0.06))
    counts = sample(noisy_distribution(ideal[None], [0.0], flips)[0],
                    1_000_000, seed=11)
    cal = checked(AssignmentCalibration.from_flip_rates, [0.03] * 4,
                  [0.06] * 4)
    quasi = apply_qrem(counts, cal)

    def tv(dist):
        return 0.5 * sum(abs(dist.get(bits_to_string(i, 4), 0.0) - ideal[i])
                         for i in range(16))

    assert tv(quasi) * 5 <= tv(bitstring_probabilities(counts, 4))


def test_qrem_produces_negative_entries():
    counts = CountsTable(np.array([0]), np.array([100]), shots=100)
    cal = checked(AssignmentCalibration.from_flip_rates, [0.2, 0.2],
                  [0.1, 0.1])
    quasi = apply_qrem(counts, cal)
    assert min(quasi.values()) < 0.0
    assert sum(quasi.values()) == pytest.approx(1.0, abs=1e-12)


# -- clipping

def reference_clip(quasi):
    """Independent re-implementation of iterative even redistribution."""
    vals = dict(quasi)
    frozen = set()
    while min(vals.values()) < 0:
        neg = sum(v for v in vals.values() if v < 0)
        for b, v in list(vals.items()):
            if v < 0:
                vals[b] = 0.0
                frozen.add(b)
        live = [b for b, v in vals.items() if v > 0 and b not in frozen]
        for b in live:
            vals[b] += neg / len(live)
    total = sum(vals.values())
    return {b: v / total for b, v in vals.items()}


def test_clip_already_physical():
    dist = {"00": 0.25, "11": 0.75}
    assert clip_to_physical(dist) == pytest.approx(dist)


def test_clip_two_outcomes():
    out = clip_to_physical({"0": 1.1, "1": -0.1})
    assert out == pytest.approx({"0": 1.0, "1": 0.0})


def test_clip_matches_reference_on_random_quasi_distributions():
    rng = np.random.default_rng(21)
    for _ in range(20):
        raw = rng.normal(size=8) * 0.3 + 0.125
        raw = raw / raw.sum()
        quasi = {format(i, "03b"): float(v) for i, v in enumerate(raw)}
        out = clip_to_physical(quasi)
        ref = reference_clip(quasi)
        assert out == pytest.approx(ref, abs=1e-12)
        assert min(out.values()) >= 0.0
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-10)


def test_clip_errors():
    with pytest.raises(ValueError, match="sum"):
        clip_to_physical({"0": 0.5, "1": 0.1})


# -- post-selection

def test_postselect_uniform_acceptance_rate():
    spins = interleaved_spins(8)
    uniform = {format(i, "08b"): 1 / 256 for i in range(256)}
    filtered, rate = symmetry_postselect(uniform, 4, 0.0, spins)
    assert rate == pytest.approx(36 / 256)
    assert len(filtered) == 36
    assert sum(filtered.values()) == pytest.approx(1.0)


def test_postselect_clean_state_accepts_everything():
    probs = {"00001111": 1.0}
    filtered, rate = symmetry_postselect(probs, 4, 0.0, interleaved_spins(8))
    assert rate == 1.0 and filtered == probs


def test_postselect_zero_mass_is_an_error():
    with pytest.raises(ValueError, match="mass"):
        symmetry_postselect({"0011": 1.0}, 3, 0.5, interleaved_spins(4))


# -- RDM assembly

def exact_tables(plan, layout, state):
    circuits = [build_measurement_circuit(p, layout) for p in plan.level1]
    tables = []
    for basis in plan.bases:
        probs = np.abs(run(measured_circuit(circuits[basis.parent],
                                            basis.kinds), state)) ** 2
        tables.append({bits_to_string(i, plan.n_modes): float(p)
                       for i, p in enumerate(probs) if p > 1e-15})
    return circuits, tables


def random_sector_state(n_modes, n_electrons, seed, sz=None):
    """Random real state in a fixed (N, S_z) sector so that all
    spin-nonconserving RDM elements vanish exactly."""
    spins = interleaved_spins(n_modes)
    rng = np.random.default_rng(seed)
    amps = np.zeros(1 << n_modes)
    for mask in sector_basis(n_modes, n_electrons,
                             sz=0.0 if sz is None else sz, spins=spins):
        amps[mask] = rng.normal()
    return (amps / np.linalg.norm(amps)).astype(complex)


def test_assemble_rdm_matches_statevector_oracle():
    spins = interleaved_spins(4)
    plan = build_plan(enumerate_elements(4, 2, spins), spins)
    state = random_sector_state(4, 2, seed=3)
    circuits, tables = exact_tables(plan, (0, 1, 2, 3), state)
    rdm = assemble_rdm(plan, circuits, tables, n_electrons=2)
    oracle = rdm_from_statevector(state, 2, n_electrons=2)
    for key in oracle.data:
        assert rdm.get(*key) == pytest.approx(oracle.get(*key), abs=1e-9)


def test_assemble_rdm_hartree_fock_pattern():
    spins = interleaved_spins(4)
    plan = build_plan(enumerate_elements(4, 2, spins), spins)
    state = basis_state(0b0011, 4)
    circuits, tables = exact_tables(plan, (0, 1, 2, 3), state)
    rdm = assemble_rdm(plan, circuits, tables, n_electrons=2)
    ref = rdm_from_determinant((0, 1), 4, 2)
    for sub in [(0, 1), (0, 2), (2, 3), (1, 3)]:
        for sup in [(0, 1), (0, 2), (2, 3), (1, 3)]:
            assert rdm.get(sub, sup) == pytest.approx(
                ref.get(sub, sup), abs=1e-10)


def test_assemble_rdm_from_sampled_counts():
    spins = interleaved_spins(4)
    plan = build_plan(enumerate_elements(4, 2, spins), spins)
    state = random_sector_state(4, 2, seed=13)
    oracle = rdm_from_statevector(state, 2, n_electrons=2)
    circuits = [build_measurement_circuit(p, (0, 1, 2, 3))
                for p in plan.level1]
    tables = []
    for i, basis in enumerate(plan.bases):
        out = run(measured_circuit(circuits[basis.parent], basis.kinds),
                  state)
        counts = sample(np.abs(out) ** 2, 100_000, seed=100 + i)
        tables.append(bitstring_probabilities(counts, 4))
    rdm = assemble_rdm(plan, circuits, tables, n_electrons=2)
    # 5-sigma-style bound: each product mean carries at most ~2/sqrt(shots)
    for key in oracle.data:
        assert abs(rdm.get(*key) - oracle.get(*key)) < 0.05


def test_assemble_rdm_missing_basis_is_an_error():
    spins = interleaved_spins(4)
    plan = build_plan(enumerate_elements(4, 2, spins), spins)
    state = random_sector_state(4, 2, seed=3)
    circuits, tables = exact_tables(plan, (0, 1, 2, 3), state)
    circuits[0] = None
    with pytest.raises(ValueError, match="unavailable"):
        assemble_rdm(plan, circuits, tables, n_electrons=2)


# -- rescaling and representability

def test_rescale_restores_ideal_trace():
    rdm = rdm_from_determinant((0, 1, 2, 3), 6, 2).scaled(0.8)
    out = rescale_rdm(rdm)
    assert out.trace() == pytest.approx(out.ideal_trace(), abs=1e-12)
    assert out.get((0, 1), (0, 1)) == pytest.approx(
        0.8 * 1.25, abs=1e-12)
    again = rescale_rdm(out)
    assert again.trace() == pytest.approx(out.trace(), abs=1e-12)


def test_rescale_zero_trace_is_an_error():
    rdm = RDM(2, 4, 2)
    rdm.set((0, 1), (0, 1), 0.0)
    with pytest.raises(ValueError, match="trace"):
        rescale_rdm(rdm)


def test_representability_exact_state():
    state = random_sector_state(4, 2, seed=23)
    rdm = rdm_from_statevector(state, 2, n_electrons=2)
    report = rdm_representability(rdm)
    assert report["trace_residual"] < 1e-9
    assert report["min_eigenvalue"] >= -1e-9


def test_representability_mixed_sector_state():
    from itertools import combinations
    rdm = RDM(2, 4, 2)
    dets = list(combinations(range(4), 2))
    for sub in dets:
        rdm.set(sub, sub, 0.0)
    for det in dets:
        contrib = rdm_from_determinant(det, 4, 2)
        for key, v in contrib.data.items():
            rdm.data[key] = rdm.data.get(key, 0.0) + v / len(dets)
    report = rdm_representability(rdm)
    assert report["trace_residual"] < 1e-12
    assert report["min_eigenvalue"] >= -1e-12


def test_representability_flags_corruption():
    state = random_sector_state(4, 2, seed=29)
    rdm = rdm_from_statevector(state, 2, n_electrons=2)
    density = matricize(rdm)
    # a pure state's 2-RDM has rank 1: take 0.3 off along a null vector
    _, vectors = np.linalg.eigh(density)
    null = vectors[:, 0]
    report = check_representability(
        density - 0.3 * np.outer(null, null.conj()), rdm.ideal_trace())
    assert report["trace_residual"] == pytest.approx(0.3, abs=1e-12)
    assert report["min_eigenvalue"] == pytest.approx(-0.3, abs=1e-12)


# -- white-noise calibration

def calibrate(noisy_trial, noisy_ref, ideal_ref, mixed):
    """Fit the white-noise rate on the reference, then invert it."""
    return reference_calibrate(
        noisy_trial,
        checked(fit_white_noise_rate, noisy_ref, ideal_ref, mixed), mixed)


def test_reference_calibrate_noiseless():
    q, corrected = calibrate(-1.2, -2.0, -2.0, 0.5)
    assert q == 0.0 and corrected == -1.2


@pytest.mark.parametrize("q", [0.05, 0.3, 0.6, 0.9])
def test_reference_calibrate_exact_white_noise(q):
    ideal_trial, ideal_ref, mixed = -75.0, -74.2, -1.5
    noisy_trial = (1 - q) * ideal_trial + q * mixed
    noisy_ref = (1 - q) * ideal_ref + q * mixed
    q_hat, corrected = calibrate(noisy_trial, noisy_ref, ideal_ref, mixed)
    assert q_hat == pytest.approx(q, abs=1e-12)
    assert corrected == pytest.approx(ideal_trial, abs=1e-9)


def test_reference_calibrate_fits_arrays_by_least_squares():
    rng = np.random.default_rng(41)
    ideal_trial, ideal_ref, mixed = rng.normal(size=(3, 20))
    q = 0.15
    noisy_trial = (1 - q) * ideal_trial + q * mixed
    noisy_ref = (1 - q) * ideal_ref + q * mixed
    q_hat, corrected = calibrate(noisy_trial, noisy_ref, ideal_ref, mixed)
    assert q_hat == pytest.approx(q, abs=1e-12)
    assert corrected == pytest.approx(ideal_trial, abs=1e-12)
    # off the model, q̂ is the least-squares rate over all elements
    perturbed = noisy_ref + 0.01 * rng.normal(size=20)
    q_hat, _ = calibrate(noisy_trial, perturbed, ideal_ref, mixed)
    d = mixed - ideal_ref
    assert q_hat == pytest.approx(
        np.dot(perturbed - ideal_ref, d) / np.dot(d, d), abs=1e-12)
    with pytest.warns(UserWarning, match="clamped"):
        q_hat, corrected = calibrate(
            noisy_trial, ideal_ref - 0.1 * (mixed - ideal_ref), ideal_ref,
            mixed)
    assert q_hat == 0.0 and (corrected == noisy_trial).all()


def test_reference_calibrate_errors_and_clamp():
    with pytest.raises(ValueError, match="unresolvable"):
        calibrate(0.0, 0.1, 0.5, 0.5)
    with pytest.raises(ValueError, match=">= 1"):
        calibrate(0.0, 2.0, 0.0, 1.0)
    with pytest.warns(UserWarning, match="clamped"):
        q, corrected = calibrate(-1.0, -0.1, 0.0, 1.0)
    assert q == 0.0 and corrected == -1.0


# -- mixed-state values

def test_mixed_state_number_operator():
    op = number_operator(8)
    assert mixed_state_value(op, 4) == pytest.approx(4.0)


def test_mixed_state_identity():
    op = identity(6)
    assert mixed_state_value(op, 3) == pytest.approx(1.0)


def test_mixed_state_matches_dense_sector_average():
    from qcmoments.fermion import jordan_wigner
    rng = np.random.default_rng(31)
    op = FermionOperator(6)
    add_string(op, [(0, True), (1, False)], 0.7)
    add_string(op, [(1, True), (0, False)], 0.7)
    add_string(op, [(2, True), (2, False)], -1.3)
    add_string(op, [(0, True), (3, True), (3, False), (0, False)], 0.4)
    spins = interleaved_spins(6)
    masks = sector_basis(6, 3, sz=0.5, spins=spins)
    dense = jordan_wigner(op).to_matrix()
    expected = float(np.mean([dense[m, m].real for m in masks]))
    assert mixed_state_value(op, 3, sz=0.5, spins=spins) == \
        pytest.approx(expected, abs=1e-12)


def test_mixed_state_matches_sector_matrix_trace():
    rng = np.random.default_rng(7)
    op = FermionOperator(6)
    for _ in range(40):
        q = int(rng.integers(1, 3))
        dags = rng.choice(6, q, replace=False)
        anns = dags if rng.random() < 0.4 else rng.choice(6, q, replace=False)
        add_string(op, [(int(m), True) for m in dags]
                       + [(int(m), False) for m in anns], rng.normal())
    spins = interleaved_spins(6)
    basis = sector_basis(6, 3, sz=-0.5, spins=spins)
    assert any(set(d) != set(a) for d, a in op.terms)  # off-diagonal terms
    expected = np.trace(operator_matrix_in_sector(op, basis)).real / \
        len(basis)
    assert mixed_state_value(op, 3, sz=-0.5, spins=spins) == \
        pytest.approx(expected, abs=1e-12)


def test_mixed_state_empty_sector():
    with pytest.raises(ValueError, match="empty"):
        mixed_state_value(number_operator(4), 5)
