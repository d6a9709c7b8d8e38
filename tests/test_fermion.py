"""Algebra checks against dense qubit-space matrix oracles, the reordering
signs, and a bit pin on the normal-ordered products."""
import hashlib
import itertools

import numpy as np
import pytest

from qcmoments.fermion import (
    FermionOperator, PauliOperator, jordan_wigner, multiply, reversal_sign,
    sort_sign,
)
from qcmoments.qcm import hamiltonian_powers
from qcmoments.simulator import operator_matrix_in_sector
from qcmoments.trial import Excitation

from fixtures_util import h4_system, shared_powers
from reference_fermion import (
    add_string, dagger, freeze_operator, from_ops, is_hermitian,
    number_operator, pauli_is_hermitian, plus,
)


def ladder_matrix(mode, dag, n_modes):
    """Dense matrix of a single ladder operator via its Jordan-Wigner image."""
    op = FermionOperator(n_modes)
    key = (((mode,), ()) if dag else ((), (mode,)))
    op.terms[key] = 1.0
    return jordan_wigner(op).to_matrix()


def dense(op):
    return jordan_wigner(op).to_matrix()


def random_operator(n_modes, rng, n_strings=6, max_len=3, hermitian=False):
    op = FermionOperator(n_modes)
    for _ in range(n_strings):
        length = rng.integers(1, max_len + 1)
        ops = [(int(rng.integers(0, n_modes)), bool(rng.integers(0, 2)))
               for _ in range(length)]
        coeff = complex(rng.normal(), rng.normal())
        add_string(op, ops, coeff)
    op.compress()
    if hermitian:
        op = plus(op, dagger(op))
    return op


def test_anticommutation_relations():
    n = 3
    for j in range(n):
        for k in range(n):
            aj = ladder_matrix(j, False, n)
            adk = ladder_matrix(k, True, n)
            ak = ladder_matrix(k, False, n)
            acomm = aj @ adk + adk @ aj
            expect = np.eye(8) if j == k else np.zeros((8, 8))
            assert np.allclose(acomm, expect, atol=1e-12)
            assert np.allclose(aj @ ak + ak @ aj, 0.0, atol=1e-12)


def test_normal_ordering_preserves_matrix():
    rng = np.random.default_rng(11)
    n = 4
    for _ in range(30):
        length = rng.integers(1, 6)
        ops = [(int(rng.integers(0, n)), bool(rng.integers(0, 2)))
               for _ in range(length)]
        op = from_ops(n, ops, coeff=1.25 - 0.5j)
        ref = np.eye(16, dtype=complex) * (1.25 - 0.5j)
        for mode, dag in ops:
            ref = ref @ ladder_matrix(mode, dag, n)
        assert np.allclose(dense(op), ref, atol=1e-10)


def test_multiply_matches_matrix_product():
    rng = np.random.default_rng(7)
    n = 4
    for _ in range(10):
        a = random_operator(n, rng)
        b = random_operator(n, rng)
        assert np.allclose(dense(multiply(a, b)), dense(a) @ dense(b), atol=1e-9)


def test_one_operator_rule_on_every_string_of_three_modes():
    # every normal-ordered string on 3 modes (64 keys) times each of the 6
    # ladder operators, against the product of their dense matrices
    n = 3
    blocks = [c for r in range(n + 1)
              for c in itertools.combinations(range(n), r)]
    for key in itertools.product(blocks, blocks):
        string = FermionOperator(n, {key: 1.0})
        for mode, dag in itertools.product(range(n), (True, False)):
            ladder = FermionOperator(
                n, {(((mode,), ()) if dag else ((), (mode,))): 1.0})
            assert np.allclose(dense(multiply(string, ladder)),
                               dense(string) @ ladder_matrix(mode, dag, n),
                               atol=1e-12)


def test_sort_sign_is_the_permutation_determinant():
    assert sort_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_sign((1, 0)) == ((0, 1), -1)
    assert sort_sign((0, 1, 1)) == (None, 0)
    for n in range(6):
        for perm in itertools.permutations(range(n)):
            det = round(np.linalg.det(np.eye(n)[list(perm)]))
            items = tuple(3 * p - 2 for p in perm)
            assert sort_sign(items) == (tuple(sorted(items)), det)
        for items in itertools.product(range(n), repeat=n):
            if len(set(items)) < n:
                assert sort_sign(items) == (None, 0)


def test_reversal_sign_is_the_sign_of_reversing():
    for q in range(9):
        assert reversal_sign(q) == sort_sign(range(q)[::-1])[1]


# SHA-256 over the terms of the H4 chain's normal-ordered [H, H^2, H^3, H^4]
# and of three excitation generators: each key in order, with the type of
# its coefficient and float.hex of the real and imaginary parts. A change in
# the order in which multiply sums its terms shows here as changed bits.
GENERATORS = [((4, 5), (2, 3)), ((7, 2), (1, 6)), ((0, 3), (5, 4))]
ALGEBRA_PINS = {
    "h4_powers":
        "77ebe89912a6f3c1412f27f2c0dd29b9c35196f600e79585ae250e0cf1b26a39",
    "generators":
        "2c52da220e0289c7d610951f8cd023a42cce4fa86fd2670ba515351d37a712ee",
}


def algebra_digest(ops) -> str:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(b"|")
        for key, c in op.terms.items():
            z = complex(c)
            digest.update(f"{key}:{type(c).__name__}:{z.real.hex()}:"
                          f"{z.imag.hex()};".encode())
    return digest.hexdigest()


def test_algebra_bits_are_pinned():
    _, h, _ = h4_system()
    gens = [Excitation(c, a).generator(8) for c, a in GENERATORS]
    assert [len(p) for p in shared_powers(h)] == [136, 1240, 2192, 2391]
    assert algebra_digest(shared_powers(h)) == ALGEBRA_PINS["h4_powers"]
    assert algebra_digest(gens) == ALGEBRA_PINS["generators"]


def test_hamiltonian_powers_match_matrix_power():
    rng = np.random.default_rng(3)
    n = 4
    h = random_operator(n, rng, hermitian=True)
    m = dense(h)
    acc = np.eye(16, dtype=complex)
    powers = hamiltonian_powers(h)
    assert len(powers) == 4
    for hp in powers:
        acc = acc @ m
        assert np.allclose(dense(hp), acc, atol=1e-8)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bitmask_matrix_matches_jordan_wigner(n):
    # the bitmask builder is the only Fock-matrix builder in the package;
    # the Kronecker-product Jordan-Wigner matrix is its independent oracle
    rng = np.random.default_rng(20 + n)
    for _ in range(10):
        op = random_operator(n, rng, n_strings=8, max_len=4)
        mat = operator_matrix_in_sector(op, range(1 << n))
        assert np.max(np.abs(mat - dense(op))) < 1e-12


def test_dagger_and_hermiticity():
    rng = np.random.default_rng(5)
    n = 4
    a = random_operator(n, rng)
    assert np.allclose(dense(dagger(a)), dense(a).conj().T, atol=1e-10)
    h = plus(a, dagger(a))
    assert is_hermitian(h)
    assert not is_hermitian(a)
    assert pauli_is_hermitian(jordan_wigner(h))


def test_number_operator():
    n = 3
    m = dense(number_operator(n))
    pops = [bin(i).count("1") for i in range(8)]
    assert np.allclose(m, np.diag(pops), atol=1e-12)


def test_jordan_wigner_occupation_convention():
    # n_j = (I - Z_j)/2: bit j of the basis index is the occupation of mode j
    n = 3
    for j in range(n):
        op = FermionOperator(n, {((j,), (j,)): 1.0})
        m = dense(op)
        expect = np.diag([(i >> j) & 1 for i in range(8)]).astype(complex)
        assert np.allclose(m, expect, atol=1e-12)


def embedding_sign(active_mapped, frozen_occ):
    """Parity of sorting creation ops (active block, frozen block) ascending."""
    inv = sum(1 for m in active_mapped for f in frozen_occ if f < m)
    return -1 if inv % 2 else 1


def test_freeze_operator_number_pair():
    # a^dag_1 a^dag_2 a_2 a_1 = n_1 n_2 -> freezing {1,2} occupied gives +1
    op = from_ops(4, [(1, True), (2, True), (2, False), (1, False)])
    frozen = freeze_operator(op, frozen_occ={1, 2}, frozen_virt=set())
    assert frozen.n_modes == 2
    assert frozen.terms == {((), ()): 1.0}


def test_freeze_operator_matches_embedded_matrix_elements():
    from qcmoments.simulator import operator_matrix_in_sector

    rng = np.random.default_rng(19)
    n = 6
    frozen_occ = {0, 3}
    frozen_virt = {5}
    active = [1, 2, 4]
    op = random_operator(n, rng, n_strings=12, max_len=4, hermitian=True)
    frozen = freeze_operator(op, frozen_occ, frozen_virt)
    assert frozen.n_modes == 3
    # embed every active occupation pattern into the full register
    for n_act in range(4):
        from itertools import combinations
        act_masks = [sum(1 << m for m in c)
                     for c in combinations(range(3), n_act)]
        full_masks, signs = [], []
        for c in combinations(range(3), n_act):
            mapped = [active[m] for m in c]
            full_masks.append(sum(1 << m for m in mapped)
                              + sum(1 << f for f in frozen_occ))
            signs.append(embedding_sign(mapped, sorted(frozen_occ)))
        sub = operator_matrix_in_sector(frozen, act_masks)
        full = operator_matrix_in_sector(op, full_masks)
        s = np.array(signs, dtype=float)
        assert np.allclose(sub, s[:, None] * full * s[None, :], atol=1e-10)


def test_freeze_operator_drops_virtual_and_nonconserving_terms():
    op = FermionOperator(3)
    add_string(op, [(2, True), (0, False)], 1.0)   # touches frozen virtual
    add_string(op, [(1, True), (0, False)], 2.0)   # changes frozen occupation
    add_string(op, [(1, True), (1, False)], 3.0)   # survives as identity
    frozen = freeze_operator(op, frozen_occ={1}, frozen_virt={2})
    assert frozen.terms == {((), ()): 3.0}


def test_pauli_multiply_matches_matrices():
    rng = np.random.default_rng(31)
    letters = np.array(["I", "X", "Y", "Z"])
    for _ in range(5):
        s1 = tuple(letters[rng.integers(0, 4, size=3)])
        s2 = tuple(letters[rng.integers(0, 4, size=3)])
        p1 = PauliOperator(3, {s1: 1.5 - 0.25j})
        p2 = PauliOperator(3, {s2: -0.5 + 1j})
        prod = p1.multiply(p2)
        assert np.allclose(prod.to_matrix(), p1.to_matrix() @ p2.to_matrix(),
                           atol=1e-12)
