"""RDM container, contraction, and expectation checks against statevector
oracles."""
from itertools import combinations
from math import comb

import numpy as np
import pytest

from qcmoments.fermion import (
    FermionOperator, expectation_from_rdm, jordan_wigner,
)
from qcmoments.rdm import RDM
from qcmoments.simulator import sector_basis

from reference_fermion import add_string, dagger, plus
from reference_rdm import matricize, rdm_from_determinant
from reference_simulator import rdm_from_statevector


def random_sector_state(n_modes, n_electrons, seed, sz=None):
    rng = np.random.default_rng(seed)
    basis = sector_basis(n_modes, n_electrons, sz=sz)
    vec = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    vec /= np.linalg.norm(vec)
    amps = np.zeros(1 << n_modes, dtype=complex)
    for mask, a in zip(basis, vec):
        amps[mask] = a
    return amps


def test_antisymmetry_of_accessors():
    r = RDM(2, 4, 2)
    r.set((0, 1), (2, 3), 0.5 + 0.25j)
    assert r.get((1, 0), (2, 3)) == -(0.5 + 0.25j)
    assert r.get((0, 1), (3, 2)) == -(0.5 + 0.25j)
    assert r.get((1, 0), (3, 2)) == 0.5 + 0.25j
    # Hermitian mirror
    assert r.get((2, 3), (0, 1)) == (0.5 - 0.25j)
    # repeated index reads as zero
    assert r.get((0, 0), (2, 3)) == 0


def test_determinant_rdm_trace_and_psd():
    occ = (0, 1, 3)
    for p in (1, 2, 3):
        r = rdm_from_determinant(occ, 6, p)
        assert r.trace() == pytest.approx(comb(3, p))
        mat = matricize(r)
        assert np.allclose(mat, mat.conj().T)
        assert np.linalg.eigvalsh(mat).min() > -1e-12


def test_statevector_rdm_is_hermitian_psd_with_ideal_trace():
    state = random_sector_state(6, 3, seed=2)
    for p in (1, 2, 3):
        r = rdm_from_statevector(state, p, 3)
        assert r.trace() == pytest.approx(comb(3, p), abs=1e-10)
        mat = matricize(r)
        assert np.allclose(mat, mat.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(mat).min() > -1e-10


def test_contraction_matches_lower_order_statevector_rdm():
    state = random_sector_state(6, 3, seed=4)
    r3 = rdm_from_statevector(state, 3, 3)
    r2 = r3.contract()
    r2_ref = rdm_from_statevector(state, 2, 3)
    for sub in combinations(range(6), 2):
        for sup in combinations(range(6), 2):
            assert r2.get(sub, sup) == pytest.approx(r2_ref.get(sub, sup),
                                                     abs=1e-10)
    r1 = r2.contract()
    r1_ref = rdm_from_statevector(state, 1, 3)
    for j in range(6):
        assert r1.get((j,), (j,)) == pytest.approx(r1_ref.get((j,), (j,)),
                                                   abs=1e-10)


def test_expectation_from_rdm_matches_dense():
    rng = np.random.default_rng(9)
    n, ne = 5, 2
    op = FermionOperator(n)
    # random particle-conserving Hermitian operator with 1- and 2-body terms
    for _ in range(8):
        j, k = rng.integers(0, n, size=2)
        c = complex(rng.normal(), rng.normal())
        add_string(op, [(int(j), True), (int(k), False)], c)
    for _ in range(8):
        j, k, l, m = rng.integers(0, n, size=4)
        c = complex(rng.normal(), rng.normal())
        add_string(op, [(int(j), True), (int(k), True),
                        (int(l), False), (int(m), False)], c)
    op.compress()
    op = plus(op, dagger(op))
    state = random_sector_state(n, ne, seed=13)
    mat = jordan_wigner(op).to_matrix()
    ref = float(np.real(state.conj() @ mat @ state))
    r2 = rdm_from_statevector(state, 2, ne)
    assert expectation_from_rdm(op, r2, ne) == pytest.approx(ref, abs=1e-10)


def test_expectation_from_rdm_rejects_insufficient_order():
    op = FermionOperator(4)
    add_string(op, [(0, True), (1, True), (1, False), (0, False)], 1.0)
    state = random_sector_state(4, 2, seed=1)
    r1 = rdm_from_statevector(state, 1, 2)
    with pytest.raises(ValueError):
        expectation_from_rdm(op, r1, 2)
    # terms annihilating more electrons than present contribute zero
    op3 = FermionOperator(4)
    add_string(op3, [(0, True), (1, True), (2, True),
                     (2, False), (1, False), (0, False)], 1.0)
    assert expectation_from_rdm(op3, rdm_from_statevector(state, 2, 2), 2) == 0.0


def test_contract_requires_enough_electrons():
    r = RDM(2, 4, 2)
    with pytest.raises(ValueError):
        r.contract().contract().contract()


def test_scaled_and_copy():
    r = rdm_from_determinant((0, 1), 4, 1)
    s = r.scaled(0.5)
    assert s.trace() == pytest.approx(1.0)
    # the scaled RDM is a copy: writing to it leaves the original alone
    s.data[((0,), (0,))] = 9.0
    assert r.get((0,), (0,)) == 1.0
