"""Trial circuits: excitation blocks, routing, full builds, and SPSA."""
import itertools

import numpy as np
import pytest
import scipy.linalg

from fixtures_util import h2_system, h4_system, optimized_thetas, \
    trial_energy
from qcmoments.fermion import FermionOperator, PauliOperator, jordan_wigner, \
    sort_sign
from qcmoments.simulator import (
    Circuit, operator_matrix_in_sector, run,
)
from qcmoments.trial import (
    TEMPLATE_MASKS, Ansatz, Excitation, build_uccd, energy_objective,
    exact_trial_state, excitation_exponential, fswap_network,
    hartree_fock_circuit, simplified_block, spsa_minimize,
    _pauli_gadget_block, _template_candidates,
)

import reference_trial
from reference_simulator import basis_state, operator_matrix
from reference_fermion import add_string, dagger, from_ops, plus, scaled
from reference_trial import block_from_jordan_wigner_image, \
    fswap_window_by_search, jordan_wigner_strings, local_double_excitation, \
    trial_state_in_mode_order


# non-adjacent excitations on an interleaved 6-mode determinant
NON_ADJACENT = Ansatz(6, 0b001111, [Excitation((4, 5), (0, 3)),
                                    Excitation((1, 4), (2, 3))])


def circuit_unitary(circ):
    dim = 1 << circ.n_qubits
    u = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        u[:, b] = run(circ, basis_state(b, circ.n_qubits))
    return u


def exact_block(exc, n_modes):
    gen = jordan_wigner(exc.generator(n_modes)).to_matrix()
    return scipy.linalg.expm(exc.theta * gen)


def expm_trial_state(ansatz):
    """Product of scipy matrix exponentials of the Jordan-Wigner generators."""
    amps = np.zeros(1 << ansatz.n_qubits, dtype=complex)
    amps[ansatz.initial_occupation] = 1.0
    for exc in ansatz.excitations:
        amps = exact_block(exc, ansatz.n_qubits) @ amps
    return amps


def test_generator_keys_equal_the_normal_ordered_oracle():
    # T - T^dag with T normal-ordered from its four ladder operators: same
    # keys in the same order, same values of the same type, for every
    # ordered choice of 4 distinct modes out of 6
    choices = list(itertools.permutations(range(6), 4))
    assert len(choices) == 360
    for modes in choices:
        creations, annihilations = modes[:2], modes[2:]
        t = from_ops(6, [(m, True) for m in creations]
                     + [(m, False) for m in annihilations])
        want = plus(t, scaled(dagger(t), -1.0)).terms
        got = Excitation(creations, annihilations).generator(6).terms
        assert list(got.items()) == list(want.items())
        assert [type(c) for c in got.values()] == [float, float]
        assert [type(c) for c in want.values()] == [float, float]


@pytest.mark.parametrize("n_modes, excitations", [
    (4, [((2, 3), (0, 1)), ((0, 3), (1, 2)), ((1, 2), (0, 3))]),
    (8, [((4, 5), (0, 1)), ((6, 7), (2, 3)), ((4, 7), (0, 3)),
         ((1, 6), (2, 5))]),
])
def test_generator_cubes_to_minus_itself(n_modes, excitations):
    # G^3 = -G is what makes the closed-form exponential exact
    for creations, annihilations in excitations:
        gen = Excitation(creations, annihilations).generator(n_modes)
        g = operator_matrix_in_sector(gen, range(1 << n_modes))
        assert np.max(np.abs(g)) == 1.0
        assert np.max(np.abs(g @ g @ g + g)) < 1e-15


@pytest.mark.parametrize("ansatz, thetas", [
    (h2_system()[2], [0.43]),
    (h4_system()[2], [0.31, -0.52, 0.18, -1.07]),
    (NON_ADJACENT, [0.45, -2.3]),
])
def test_exact_trial_state_matches_expm(ansatz, thetas):
    ansatz = ansatz.with_thetas(thetas)
    state = exact_trial_state(ansatz)
    assert np.max(np.abs(state - expm_trial_state(ansatz))) \
        < 1e-12


def _random_hamiltonian(n_modes, seed):
    """Hermitian, N-conserving one- and two-body operator."""
    rng = np.random.default_rng(seed)
    op = FermionOperator(n_modes)
    for size in (1, 2) * 12:
        modes = rng.choice(n_modes, 2 * size, replace=False)
        add_string(op, [(int(m), True) for m in modes[:size]]
                   + [(int(m), False) for m in modes[size:]],
                   complex(rng.normal(), rng.normal()))
    op.compress()
    return plus(op, dagger(op))


@pytest.mark.parametrize("which", ["h2", "h4", "non-adjacent"])
def test_sector_objective_matches_dense_energy(which):
    # the objective works on the N-electron occupations; the oracle takes
    # <H> of the 2^n-amplitude trial state with H's matrix on all 2^n
    # states, built one term and one state at a time
    if which == "non-adjacent":
        ansatz, h = NON_ADJACENT, _random_hamiltonian(6, 41)
    else:
        _, h, ansatz = h2_system() if which == "h2" else h4_system()
    hmat = operator_matrix(h, range(1 << h.n_modes))
    objective = energy_objective(ansatz, h)
    rng = np.random.default_rng(43)
    for _ in range(4):
        thetas = rng.uniform(-np.pi, np.pi, len(ansatz.excitations))
        assert abs(objective(thetas) - trial_energy(ansatz, thetas, hmat)) \
            < 1e-14
    with pytest.raises(ValueError, match="parameter count"):
        objective(np.zeros(len(ansatz.excitations) + 1))


def test_hartree_fock_circuit():
    circ = hartree_fock_circuit(5, 0b10011)
    state = run(circ, basis_state(0, 5))
    assert abs(state[0b10011] - 1) < 1e-12
    with pytest.raises(ValueError):
        hartree_fock_circuit(3, 1 << 3)


def test_excitation_validation():
    with pytest.raises(ValueError):
        Excitation((0, 1), (1, 2))
    with pytest.raises(ValueError):  # up,up -> up,down does not conserve spin
        Excitation((4, 6), (0, 3), 0.1).validate_spin("udududud")
    Excitation((4, 7), (0, 3), 0.1).validate_spin("udududud")


@pytest.mark.parametrize("theta", [0.0, 0.3, -1.2, 2.9])
def test_local_double_excitation_matches_exponential(theta):
    circ = local_double_excitation(theta)
    target = exact_block(Excitation((2, 3), (0, 1), theta), 4)
    assert np.max(np.abs(circuit_unitary(circ) - target)) < 1e-9


def test_local_double_excitation_rotates_the_expected_pair():
    theta = 0.4
    u = circuit_unitary(local_double_excitation(theta))
    a, b = 0b0011, 0b1100
    assert u[a, a] == pytest.approx(np.cos(theta), abs=1e-10)
    assert abs(abs(u[b, a]) - abs(np.sin(theta))) < 1e-10
    for k in range(16):
        if k not in (a, b):
            assert abs(u[k, k] - 1) < 1e-10


def test_gadget_block_other_index_orders():
    # the synthesis must be exact for any quadruple ordering in the window
    for creations, annihilations in [((0, 3), (1, 2)), ((1, 2), (0, 3)),
                                     ((0, 2), (1, 3))]:
        exc = Excitation(creations, annihilations, 0.7)
        circ = _pauli_gadget_block(exc, 0.7)
        assert np.max(np.abs(circuit_unitary(circ) - exact_block(exc, 4))) \
            < 1e-9


#: every ordered choice of creations and annihilations on four local modes
LOCAL_EXCITATIONS = [Excitation(m[:2], m[2:])
                     for m in itertools.permutations(range(4))]


def test_gadget_rotations_carry_the_jordan_wigner_coefficients():
    # with the gates before each RZ(phi) on qubit 0 the Clifford P, that
    # rotation is exp(-i phi/2 M) for M = P^dag Z_0 P; at theta = -1/2 the
    # term i c S of G that it applies, with M = +-S, has c = +-phi. The
    # gates without the RZs must cancel to the identity
    z0 = PauliOperator(4, {("Z", "I", "I", "I"): 1.0}).to_matrix()
    strings = {s: PauliOperator(4, {s: 1.0}).to_matrix()
               for s in itertools.product("XY", repeat=4)}
    assert len(LOCAL_EXCITATIONS) == 24
    for exc in LOCAL_EXCITATIONS:
        gates = _pauli_gadget_block(exc, -0.5).gates
        frame = Circuit(4)
        coefficients = {}
        for name, qubits, phi in gates:
            if name != "RZ":
                frame.add(name, qubits, phi)
                continue
            p = run(frame, np.eye(16)).T
            m = p.conj().T @ z0 @ p
            (s, sign), = [(s, sign) for s, mat in strings.items()
                          for sign in (1.0, -1.0)
                          if np.allclose(m, sign * mat, atol=1e-12)]
            coefficients[frozenset(j for j, q in enumerate(s) if q == "Y")] \
                = sign * phi
        assert np.allclose(run(frame, np.eye(16)), np.eye(16), atol=1e-12)
        assert coefficients == jordan_wigner_strings(exc.generator(4))


def test_gadget_block_equals_the_block_from_the_jordan_wigner_image():
    for exc in LOCAL_EXCITATIONS:
        for theta in (0.7, -1.3, 2.9):
            assert _pauli_gadget_block(exc, theta).gates == \
                block_from_jordan_wigner_image(exc.generator(4), theta).gates


def test_gadget_block_cnot_count():
    # shared-ladder synthesis: 3 + (2+4+2+6+2+4+2) + 3 CNOTs
    assert local_double_excitation(0.5).cnot_count() == 28


def fswap_oracle(layout, n):
    """Dense unitary of the mode relabeling defined by a layout."""
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    pos = {m: i for i, m in enumerate(layout)}
    for mask in range(dim):
        occ_modes = [m for m in range(n) if mask >> m & 1]
        occ_pos = sorted(pos[m] for m in occ_modes)
        modes_by_pos = [layout[i] for i in occ_pos]
        inv = sum(1 for i in range(len(modes_by_pos))
                  for j in range(i + 1, len(modes_by_pos))
                  if modes_by_pos[i] > modes_by_pos[j])
        out = sum(1 << i for i in occ_pos)
        u[out, mask] = -1.0 if inv % 2 else 1.0
    return u


def test_fswap_window_is_the_searched_window():
    # the lower median of the targets' offsets is the first start of least
    # swap count, on random layouts and target sets
    rng = np.random.default_rng(5)
    for _ in range(400):
        n = int(rng.integers(1, 11))
        layout = tuple(int(m) for m in rng.permutation(n))
        targets = {int(m) for m in
                   rng.choice(n, int(rng.integers(1, n + 1)), replace=False)}
        circ, new_layout, start = fswap_network(targets, layout)
        assert start == fswap_window_by_search(targets, layout)
        assert set(new_layout[start:start + len(targets)]) == targets


def test_fswap_network_routing_and_signs():
    circ, layout, start = fswap_network({0, 1, 2, 7}, tuple(range(8)))
    assert sum(1 for g in circ.gates if g[0] == "FSWAP") <= 4
    window = set(layout[start:start + 4])
    assert window == {0, 1, 2, 7}
    assert np.max(np.abs(circuit_unitary(circ) - fswap_oracle(layout, 8))) \
        < 1e-12


def test_fswap_network_small_cases():
    circ, layout, start = fswap_network({2, 3}, (0, 1, 2, 3))
    assert layout == (0, 1, 2, 3) and not circ.gates
    circ, layout, start = fswap_network({0, 3}, (0, 1, 2, 3))
    assert set(layout[start:start + 2]) == {0, 3}
    assert np.max(np.abs(circuit_unitary(circ) - fswap_oracle(layout, 4))) \
        < 1e-12
    with pytest.raises(ValueError):
        fswap_network({9}, (0, 1, 2, 3))


def test_simplified_block_costs():
    exc = Excitation((2, 3), (0, 1), 0.37)
    # only the lower pair reachable: single-branch ladder, 3 CNOTs
    block = simplified_block(exc, {0b0011})
    assert block is not None and block.cnot_count() == 3
    # paired patterns on both sides: compressed rotation, 8 CNOTs
    block = simplified_block(exc, {0b0011, 0b1100, 0b0000, 0b1111})
    assert block is not None and block.cnot_count() <= 8
    # excitation untouched by the reachable states: empty circuit
    block = simplified_block(exc, {0b0101, 0b1010})
    assert block is not None and not block.gates
    # a generic pattern set cannot be simplified
    assert simplified_block(exc, {0b0011, 0b0010}) is None


# the 24 local shapes: ordered creation and annihilation positions
LOCAL_SHAPES = [((c1, c2), tuple(a)) for c1 in range(4) for c2 in range(4)
                if c1 != c2 for a in [sorted({0, 1, 2, 3} - {c1, c2}),
                                      sorted({0, 1, 2, 3} - {c1, c2})[::-1]]]


def table_masks(exc):
    """The pattern masks of ``_template_candidates`` for a local shape: the
    identity's in closed form, the others from ``TEMPLATE_MASKS``."""
    c, sign = sum(1 << m for m in exc.creations), sort_sign(exc.modes())[1]
    key = (c, sign) if (c, sign) in TEMPLATE_MASKS else (15 - c, -sign)
    return (0xffff & ~(1 << c | 1 << 15 - c),) + TEMPLATE_MASKS[key]


def test_template_masks_match_simulation():
    # every candidate's mask of exact patterns, recomputed by simulation at
    # the oracle's probe angle and at random angles, is the table's entry
    assert len(set(LOCAL_SHAPES)) == 24
    rng = np.random.default_rng(2024)
    angles = [reference_trial.PROBE_THETA, *rng.uniform(-np.pi, np.pi, 4)]
    for creations, annihilations in LOCAL_SHAPES:
        exc = Excitation(creations, annihilations)
        g = operator_matrix_in_sector(exc.generator(4), range(16))
        for theta in angles:
            target = excitation_exponential(g, theta, np.eye(16))
            masks = tuple(
                sum(1 << p for p in range(16)
                    if reference_trial.verify_on_support(cand, target, [p]))
                for cand in _template_candidates(theta))
            assert masks == table_masks(exc), (exc, theta)


def test_simplified_block_matches_the_simulating_oracle():
    rng = np.random.default_rng(77)
    thetas = [0.0, *(k * np.pi / 2 for k in range(-4, 5) if k)]
    picked = set()
    for case in range(400):
        creations, annihilations = LOCAL_SHAPES[rng.integers(24)]
        theta = float(thetas[case % len(thetas)] if case % 2
                      else rng.uniform(-4.0, 4.0))
        exc = Excitation(creations, annihilations, theta)
        # a few patterns from one candidate's mask, or from all 16, so that
        # every template gets picked, plus a stray pattern now and then
        mask = [*table_masks(exc), 0xffff][rng.integers(8)] or 0xffff
        support = set(rng.choice([p for p in range(16) if mask >> p & 1],
                                  size=rng.integers(1, 5)).tolist())
        if rng.random() < 0.2:
            support.add(int(rng.integers(16)))
        block = simplified_block(exc, support)
        want = reference_trial.simplified_block(
            exc.generator(4), theta, support)
        assert (block is None) == (want is None), (exc, support)
        if block is not None:
            assert block.gates == want.gates, (exc, support)
            picked.add(next(i for i, cand in enumerate(
                _template_candidates(theta)) if cand.gates == block.gates))
    assert picked == set(range(7))


def assert_matches_oracle(ansatz):
    built = build_uccd(ansatz)
    state = trial_state_in_mode_order(built, ansatz.n_qubits)
    ref = exact_trial_state(ansatz)
    assert np.max(np.abs(state - ref)) < 1e-9
    return built


PAIRED_LAYOUT = (0, 1, 4, 5, 2, 3, 6, 7)


def paired_ansatz(thetas):
    excs = [Excitation((4, 5), (0, 1), thetas[0]),
            Excitation((4, 5), (2, 3), thetas[1]),
            Excitation((6, 7), (2, 3), thetas[2]),
            Excitation((4, 5), (0, 1), thetas[3])]
    return Ansatz(8, 0b00001111, excs, initial_layout=PAIRED_LAYOUT)


def test_build_uccd_paired_four_excitations():
    ansatz = paired_ansatz([0.31, -0.52, 0.18, 0.07])
    built = assert_matches_oracle(ansatz)
    assert built.circuit.cnot_count() <= 28
    assert "general" not in built.block_kinds


def test_build_uccd_with_routing():
    # a non-adjacent excitation exercises the FSWAP network inside the build,
    # and its general block is placed at the routed window
    excs = [Excitation((4, 5), (0, 1), 0.45), Excitation((4, 5), (0, 3), -0.3)]
    ansatz = Ansatz(6, 0b001111, excs)
    built = assert_matches_oracle(ansatz)
    assert built.block_kinds == ["template", "general"]


def test_build_uccd_odd_preparation_parity():
    # initial layout that reorders the occupied modes with odd parity
    ansatz = Ansatz(4, 0b0101, [Excitation((1, 3), (0, 2), 0.6)],
                    initial_layout=(2, 1, 0, 3), spins=("u",) * 4)
    assert_matches_oracle(ansatz)


def test_spsa_minimize_trigonometric():
    # degree <= 2 in each coordinate and coupled, with the unique minimizer
    # `target` (mod 2 pi): with u = t - target, f >= sum(1 - cos u
    # + 0.45 sin^2 u) >= 0, with equality only at u = 0
    target = np.array([0.7, -0.4, 1.1])

    def objective(t):
        u = np.asarray(t) - target
        return float(np.sum(1.0 - np.cos(u) + 0.25 * (1.0 - np.cos(2.0 * u)))
                     + 0.1 * np.sin(u[0]) * np.sin(u[1]))

    theta, traces = spsa_minimize(objective, np.zeros(3), [0, 1], 150)
    assert np.max(np.abs(theta - target)) < 1e-5
    assert len(traces) == 2
    assert traces[0][-1] < traces[0][0]
    theta2, _ = spsa_minimize(objective, np.zeros(3), [0, 1], 150)
    assert np.array_equal(theta, theta2)


def test_spsa_polish_never_raises_the_objective():
    # a quadratic is no trigonometric polynomial, so the polish's model
    # misplaces its minima; each seed's averaged result is the last of its
    # 3 * max_iter + 2 evaluations, and the polish must not end above the
    # better of the two
    target = np.array([0.7, -0.4, 1.1])
    values = []

    def objective(t):
        values.append(float(np.sum((np.asarray(t) - target) ** 2)))
        return values[-1]

    max_iter = 150
    theta, _ = spsa_minimize(objective, np.zeros(3), [0, 1], max_iter)
    block = 3 * max_iter + 2
    assert len(values) > 2 * block          # the polish evaluated
    assert objective(theta) <= min(values[block - 1], values[2 * block - 1])


@pytest.mark.parametrize("which", ["h2", "h4"])
def test_spsa_polish_reaches_the_powell_energy(which):
    # from theta = 0 the sweeps alone reach the Powell oracle's energy
    _, h, ansatz = h2_system() if which == "h2" else h4_system()
    objective = energy_objective(ansatz, h)
    theta0 = np.zeros(len(ansatz.excitations))
    theta, _ = spsa_minimize(objective, theta0, [0], 0)
    assert objective(theta) <= \
        objective(np.array(optimized_thetas(which))) + 1e-12


@pytest.mark.parametrize("start", [0.3, 0.3 + np.pi, -2.5, 2.0],
                         ids=["0.3", "0.3+pi", "-2.5", "2.0"])
def test_spsa_polish_takes_the_nearest_tied_minimum(start):
    # the H2 energy has period pi in theta, so its minima 0.355 + k pi tie;
    # the sweep keeps the one nearest its start and does not reduce theta
    # modulo pi
    _, h, ansatz = h2_system()
    objective = energy_objective(ansatz, h)
    theta, _ = spsa_minimize(objective, [start], [0], 0)
    best = optimized_thetas("h2")[0]
    nearest = best + np.pi * np.round((start - best) / np.pi)
    assert abs(theta[0] - nearest) < np.pi / 2


def test_spsa_rejects_non_finite():
    with pytest.raises(ValueError):
        spsa_minimize(lambda t: float("nan"), [0.0], [0], 3)
