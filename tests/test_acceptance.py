"""Acceptance suite: one test per release criterion.

Each test is self-contained, pins its tolerance explicitly, and prints a
single machine-greppable pass line; run with ``pytest -v`` to get one
pass/fail line per criterion.
"""
import json
import time
from dataclasses import astuple

import numpy as np
import pytest

from fixtures_util import (
    H2_PATH, dense_fock_matrix, h2_system, h4_system, optimized_thetas,
    shared_powers,
)
from reference_planner import measured_circuit
from reference_qcm import moments_from_statevector
from reference_rdm import rdm_representability
from reference_routing import check_constraints, exhaustive_min_depth
from reference_simulator import basis_state
from reference_trial import local_double_excitation, trial_state_in_mode_order
from test_qcm import (
    cumulants_recursive, lanczos_mp, matrix_moments,
    random_state_and_hamiltonian,
)

from qcmoments.cli import main
from qcmoments.conventions import interleaved_spins
from qcmoments.fermion import jordan_wigner
from qcmoments.mitigation import (
    assemble_rdm, rescale_rdm, symmetry_postselect,
)
from qcmoments.planner import (
    IM, RE, RdmElement, build_measurement_circuit, build_plan,
    decompose_element, enumerate_elements, group_level1, group_level2,
)
from qcmoments.qcm import (
    MomentSet, cumulants, lanczos_energy,
    moments_from_rdm,
)
from qcmoments.routing import route_pairs
from qcmoments.simulator import run, sector_basis
from qcmoments.trial import (
    Ansatz, Excitation, build_uccd, exact_trial_state,
)

H2_FCI = -1.001125164303071


def _pass(num, name, detail=""):
    suffix = f" -- {detail}" if detail else ""
    print(f"criterion {num:02d} ({name}): PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. element counting


def test_criterion_01_element_counting():
    start = time.perf_counter()
    assert len(enumerate_elements(8, 4)) == 2485
    assert len(enumerate_elements(8, 4, interleaved_spins(8))) == 940
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, "element counting", f"2485/940 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. grouping golden walkthrough

SPINS4 = ("u", "u", "d", "d")

# the twelve spin-conserving two-body excitations on 4 modes (2 up, 2 down)
TWELVE = [RdmElement(c, a) for c, a in [
    ((0, 1), (0, 1)),
    ((0, 2), (0, 2)), ((0, 2), (1, 2)), ((0, 2), (0, 3)), ((0, 2), (1, 3)),
    ((1, 2), (1, 2)), ((1, 2), (0, 3)), ((1, 2), (1, 3)),
    ((0, 3), (0, 3)), ((0, 3), (1, 3)),
    ((1, 3), (1, 3)),
    ((2, 3), (2, 3)),
]]


def test_criterion_02_grouping_golden():
    bases, assignments = group_level1(TWELVE, SPINS4)
    # the four final level-1 bases
    assert [b.interactions for b in bases] == [
        [(0, 1), (2, 2), (3, 3)],
        [(0, 0), (1, 1), (2, 2), (3, 3)],
        [(0, 0), (1, 1), (2, 3)],
        [(0, 1), (2, 3)],
    ]
    # the step-by-step basis-set state: which basis absorbs each element,
    # in insertion order
    assert [a[0] for a in assignments] == [0, 1, 0, 2, 3, 1, 3, 2, 1, 0, 1, 0]
    # level-2 outcomes: computational basis, single-X sites, {XX, YY} split
    outcomes = []
    for i, b in enumerate(bases):
        products = [(e, decompose_element(e, a[1]))
                    for e, a in zip(TWELVE, assignments) if a[0] == i]
        concrete, _ = group_level2(bases, i, products)
        assert all(c.parent == i for c in concrete)
        outcomes.append([c.kinds for c in concrete])
    # one Re/Im per pair site of the parent, in pair_sites() order
    assert outcomes[0] == [(RE,)]           # (0, 1)
    assert outcomes[1] == [()]              # numbers only
    assert outcomes[2] == [(RE,)]           # (2, 3)
    assert outcomes[3] == [(RE, RE), (IM, IM)]
    _pass(2, "grouping golden", "4 level-1 bases, 5 concrete")


# ---------------------------------------------------------------------------
# 3. basis-count interval


def test_criterion_03_basis_count_interval():
    start = time.perf_counter()
    spins = interleaved_spins(8)
    plan = build_plan(enumerate_elements(8, 4, spins), spins)
    elapsed = time.perf_counter() - start
    assert 190 <= len(plan.bases) <= 215
    assert len(plan.elements) == 940
    assert elapsed < 30.0
    _pass(3, "basis-count interval",
          f"{len(plan.bases)} bases in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. cumulant / E_L oracle


def test_criterion_04_cumulant_energy_oracle():
    rng = np.random.default_rng(2024)
    compared = 0
    while compared < 200:
        v, hmat = random_state_and_hamiltonian(rng)
        m = matrix_moments(v, hmat)
        c = cumulants(m)
        ref_c = cumulants_recursive(astuple(m))
        scale = max(1.0, max(abs(x) for x in ref_c))
        assert max(abs(a - b) for a, b in zip(astuple(c), ref_c)) \
            < 1e-9 * scale
        if 3.0 * ref_c[2] ** 2 - 2.0 * ref_c[1] * ref_c[3] < 0.0:
            continue  # estimate undefined for this state; not an oracle case
        e_l = lanczos_energy(c)
        ref = lanczos_mp(*ref_c)
        assert abs(e_l - ref) < 1e-9 * max(1.0, abs(ref))
        compared += 1
    # eigenstate fixed point
    for _ in range(20):
        _, hmat = random_state_and_hamiltonian(rng)
        evals, evecs = np.linalg.eigh(hmat)
        k = rng.integers(len(evals))
        m = matrix_moments(evecs[:, k], hmat)
        assert abs(lanczos_energy(cumulants(m)) - evals[k]) < 1e-9
    # two-level fixtures recover the exact ground eigenvalue
    for _ in range(50):
        e0, gap = rng.normal(), 0.1 + rng.random()
        p = 0.05 + 0.9 * rng.random()
        m = MomentSet(*[p * e0 ** k + (1 - p) * (e0 + gap) ** k
                        for k in range(1, 5)])
        assert abs(lanczos_energy(cumulants(m)) - e0) < 1e-9
    # hand-worked example: m = (0, 1, 0, 1) -> E_L = -1
    assert lanczos_energy(cumulants(MomentSet(0.0, 1.0, 0.0, 1.0))) \
        == pytest.approx(-1.0, abs=1e-12)
    _pass(4, "cumulant/E_L oracle", "200 states vs 60-dps reference")


# ---------------------------------------------------------------------------
# 5. moments-from-RDM equivalence


def test_criterion_05_rdm_moment_equivalence():
    start = time.perf_counter()
    spins = interleaved_spins(8)
    plan = build_plan(enumerate_elements(8, 4, spins), spins)
    layout = tuple(range(8))
    circuits = [build_measurement_circuit(p, layout) for p in plan.level1]
    _, h, _ = h4_system()
    h_powers = shared_powers(h)
    rng = np.random.default_rng(17)
    for _ in range(5):
        amps = np.zeros(256)
        for mask in sector_basis(8, 4, sz=0.0, spins=spins):
            amps[mask] = rng.normal()
        state = (amps / np.linalg.norm(amps)).astype(complex)
        tables = []
        for b in plan.bases:
            probs = np.abs(run(measured_circuit(circuits[b.parent], b.kinds),
                               state)) ** 2
            tables.append({format(i, "08b"): float(p)
                           for i, p in enumerate(probs) if p > 1e-15})
        rdm = assemble_rdm(plan, circuits, tables, n_electrons=4)
        m = moments_from_rdm(h_powers, rdm, 4)
        ref = moments_from_statevector(h, state)
        scale = max(1.0, max(abs(x) for x in astuple(ref)))
        assert max(abs(a - b) for a, b in zip(astuple(m), astuple(ref))) \
            < 1e-8 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(5, "RDM moment equivalence", f"5 states in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. noise robustness of E_L


@pytest.mark.parametrize("which", ["h2", "h4"])
def test_criterion_06_noise_robustness(which):
    _, h, ansatz = h2_system() if which == "h2" else h4_system()
    hmat = dense_fock_matrix(which)
    dim = hmat.shape[0]
    traces = [float(np.trace(np.linalg.matrix_power(hmat, p)).real) / dim
              for p in range(1, 5)]
    state = exact_trial_state(ansatz.with_thetas(optimized_thetas(which)))
    m0 = moments_from_statevector(h, state)
    e_l0 = lanczos_energy(cumulants(m0))
    for q in (0.05, 0.1, 0.2, 0.3):
        mq = MomentSet(*[(1 - q) * v + q * t
                         for v, t in zip(astuple(m0), traces)])
        e_lq = lanczos_energy(cumulants(mq))
        assert abs(e_lq - e_l0) <= abs(mq.m1 - m0.m1)
    _pass(6, f"noise robustness [{which}]", "q in {0.05,0.1,0.2,0.3}")


# ---------------------------------------------------------------------------
# 7. mitigation recovery


def test_criterion_07_mitigation_recovery(tmp_path):
    start = time.perf_counter()
    cfg = {
        "schema": 1,
        "integrals": str(H2_PATH),
        "order": 2,
        "excitations": [{"creations": [2, 3], "annihilations": [0, 1]}],
        "shots": 100000,
        "noise": {"global_q": 0.1, "p01": 0.03, "p10": 0.05},
        "bootstrap": {"enabled": True, "resamples": 500},
        "spsa": {"iterations": 120, "seeds": 5},
        "output_dir": str(tmp_path / "out"),
        "master_seed": 7,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["pipeline", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    est = report["estimate"]
    assert abs(report["fci"] - H2_FCI) < 1e-9
    assert abs(report["h_error"]) < max(1.6e-3, 3.0 * est["std_h"])
    assert abs(report["e_l_error"]) < max(1.6e-3, 3.0 * est["std_el"])
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _pass(7, "mitigation recovery",
          f"errors {report['h_error'] * 1e3:+.2f}/"
          f"{report['e_l_error'] * 1e3:+.2f} mHa in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. routing optimality


def _matchings(qubits):
    """All nonempty sets of disjoint pairs over the given qubits."""
    qubits = sorted(qubits)
    if not qubits:
        yield []
        return
    first, rest = qubits[0], qubits[1:]
    for m in _matchings(rest):            # first unpaired
        yield m
    for other in rest:
        remaining = [q for q in rest if q != other]
        for m in _matchings(remaining):
            yield [(first, other)] + m


def _simulate_schedule(schedule, pairs, n_qubits):
    """Track pair positions through the swaps; every interaction must occur
    exactly once between adjacent positions."""
    pos = {c: sorted(p) for c, p in enumerate(pairs)}
    interacted = set()
    for step in schedule.steps:
        for (i, j) in step.swaps:
            assert j == i + 1
        for c, (i, j) in step.interactions:
            assert j == i + 1 and sorted(pos[c]) == [i, j]
            assert c not in interacted
            interacted.add(c)
        for c, p in pos.items():
            if c in interacted:
                continue
            for (i, j) in step.swaps:
                for t in (0, 1):
                    if p[t] == i:
                        p[t] = j
                    elif p[t] == j:
                        p[t] = i
    assert interacted == set(range(len(pairs)))


def test_criterion_08_routing_optimality():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for pairs in _matchings(range(n)):
            if not pairs:
                continue
            schedule = route_pairs(pairs, n)
            assert schedule.certified
            assert schedule.depth == exhaustive_min_depth(pairs, n, 8)
            assert check_constraints(schedule, pairs, n)
            _simulate_schedule(schedule, pairs, n)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(8, "routing optimality", f"{checked} configurations "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. post-selection combinatorics


def test_criterion_09_postselection_acceptance():
    uniform = {format(i, "08b"): 1 / 256 for i in range(256)}
    _, rate = symmetry_postselect(uniform, 4, 0.0, interleaved_spins(8))
    # 1/256 is exactly representable, so the acceptance rate is exact
    assert rate == 36 / 256
    _pass(9, "post-selection combinatorics", "36/256 = 0.140625")


# ---------------------------------------------------------------------------
# 10. RDM conditions


def test_criterion_10_rdm_conditions():
    spins = interleaved_spins(4)
    plan = build_plan(enumerate_elements(4, 2, spins), spins)
    layout = (0, 1, 2, 3)
    circuits = [build_measurement_circuit(p, layout) for p in plan.level1]
    rng = np.random.default_rng(29)
    amps = np.zeros(16)
    for mask in sector_basis(4, 2, sz=0.0, spins=spins):
        amps[mask] = rng.normal()
    state = (amps / np.linalg.norm(amps)).astype(complex)
    tables = []
    for b in plan.bases:
        probs = np.abs(run(measured_circuit(circuits[b.parent], b.kinds),
                           state)) ** 2
        tables.append({format(i, "04b"): float(p)
                       for i, p in enumerate(probs) if p > 1e-15})
    rdm = assemble_rdm(plan, circuits, tables, n_electrons=2)
    report = rdm_representability(rdm)
    assert report["trace_residual"] < 1e-9
    assert report["min_eigenvalue"] > -1e-9
    once = rescale_rdm(rdm)
    twice = rescale_rdm(once)
    assert once.trace() == pytest.approx(once.ideal_trace(), abs=1e-12)
    for key in once.data:
        assert twice.get(*key) == pytest.approx(once.get(*key), abs=1e-12)
    _pass(10, "RDM conditions", "residuals < 1e-9, rescale idempotent")


# ---------------------------------------------------------------------------
# 11. circuit fidelity and CNOT budgets

PAIRED_LAYOUT = (0, 1, 4, 5, 2, 3, 6, 7)


def _circuit_unitary(circ):
    dim = 1 << circ.n_qubits
    u = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        u[:, b] = run(circ,
                      basis_state(b, circ.n_qubits))
    return u


def test_criterion_11_circuit_fidelity():
    import scipy.linalg
    rng = np.random.default_rng(41)
    for theta in rng.uniform(-np.pi, np.pi, size=20):
        exc = Excitation((2, 3), (0, 1), float(theta))
        target = scipy.linalg.expm(
            theta * jordan_wigner(exc.generator(4)).to_matrix())
        u = _circuit_unitary(local_double_excitation(float(theta)))
        assert np.max(np.abs(u - target)) < 1e-9

    def build_and_check(excitations):
        ansatz = Ansatz(8, 0b00001111, excitations,
                        initial_layout=PAIRED_LAYOUT)
        built = build_uccd(ansatz)
        state = trial_state_in_mode_order(built, 8)
        ref = exact_trial_state(ansatz)
        assert np.max(np.abs(state - ref)) < 1e-9
        return built.circuit.cnot_count()

    four = build_and_check([
        Excitation((4, 5), (0, 1), 0.31), Excitation((4, 5), (2, 3), -0.52),
        Excitation((6, 7), (2, 3), 0.18), Excitation((4, 5), (0, 1), 0.07)])
    six = build_and_check([
        Excitation((4, 5), (0, 1), 0.31), Excitation((4, 5), (2, 3), -0.52),
        Excitation((6, 7), (2, 3), 0.18), Excitation((4, 5), (0, 1), 0.07),
        Excitation((6, 7), (2, 3), -0.23), Excitation((4, 5), (2, 3), 0.11)])
    # soft CNOT budgets: targets 22 and 72, +6 tolerance
    assert four <= 22 + 6
    assert six <= 72 + 6
    _pass(11, "circuit fidelity",
          f"CNOTs {four}/{six} vs targets 22/72 (+6)")


# ---------------------------------------------------------------------------
# 12. determinism


def test_criterion_12_pipeline_determinism(tmp_path):
    cfg = {
        "schema": 1,
        "integrals": str(H2_PATH),
        "order": 2,
        "excitations": [{"creations": [2, 3], "annihilations": [0, 1]}],
        "shots": 20000,
        "noise": {"global_q": 0.05, "p01": 0.02, "p10": 0.02},
        "bootstrap": {"enabled": True, "resamples": 50},
        "spsa": {"iterations": 60, "seeds": 3},
        "output_dir": str(tmp_path / "out"),
        "master_seed": 123,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    reports = []
    for _ in range(2):
        assert main(["pipeline", "--config", str(path)]) == 0
        reports.append((tmp_path / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]
    _pass(12, "determinism", "bit-identical report JSON")
