"""Integral I/O, frozen-core reduction, Hamiltonian construction, and the
fixture generator."""
import importlib.util
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from qcmoments.fermion import jordan_wigner
from qcmoments.integrals import (
    MolecularIntegrals, freeze_orbitals, load_fcidump,
    spin_orbital_hamiltonian, write_fcidump,
)
from qcmoments.simulator import run
from qcmoments.trial import hartree_fock_circuit

from reference_fermion import freeze_operator
from fixtures_util import H2_PATH, H4_PATH
from reference_integrals import determinant_energy, \
    spin_orbital_hamiltonian_by_strings
from reference_simulator import basis_state, expectation


def random_integrals(n, seed, nelec=None):
    rng = np.random.default_rng(seed)
    h1 = rng.normal(size=(n, n))
    h1 = 0.5 * (h1 + h1.T)
    chem = np.zeros((n, n, n, n))
    filled = np.zeros((n, n, n, n), dtype=bool)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    if filled[p, q, r, s]:
                        continue
                    v = rng.normal()
                    for a, b in ((p, q), (q, p)):
                        for c, d in ((r, s), (s, r)):
                            chem[a, b, c, d] = chem[c, d, a, b] = v
                            filled[a, b, c, d] = filled[c, d, a, b] = True
    h2 = np.transpose(chem, (0, 2, 1, 3)).copy()
    return MolecularIntegrals(n, nelec if nelec is not None else n,
                              0.5, h1, h2)


def _unsymmetric_integrals(n, seed, values=None):
    """Integrals without any permutational symmetry, drawn from `values`
    if given (so that terms cancel exactly), else normal."""
    rng = np.random.default_rng(seed)
    draw = (lambda size: rng.normal(size=size)) if values is None else \
        (lambda size: rng.choice(values, size=size))
    return SimpleNamespace(n_spatial=n, e_const=float(draw(None)),
                           h1=draw((n, n)), h2=draw((n, n, n, n)))


@pytest.mark.parametrize("ints", [
    lambda: load_fcidump(H2_PATH), lambda: load_fcidump(H4_PATH),
    lambda: freeze_orbitals(load_fcidump(H4_PATH), [0], [3]),
    lambda: _unsymmetric_integrals(3, 5),
    lambda: _unsymmetric_integrals(3, 6, values=[-1.0, 0.0, 0.5, 1.0]),
], ids=["h2", "h4", "h4_frozen", "random", "random_cancelling"])
def test_direct_terms_match_the_add_string_build(ints):
    # the same keys in the same dict order, with bit-identical coefficients
    ints = ints()
    got = spin_orbital_hamiltonian(ints).terms
    want = spin_orbital_hamiltonian_by_strings(ints).terms
    assert list(got) == list(want)
    assert np.array(list(got.values())).tobytes() == \
        np.array(list(want.values())).tobytes()
    assert [type(c) for c in got.values()] == \
        [type(c) for c in want.values()]


def test_symmetry_validation():
    rng = np.random.default_rng(0)
    h1 = rng.normal(size=(2, 2))  # not symmetric
    with pytest.raises(ValueError):
        MolecularIntegrals(2, 2, 0.0, h1, np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        MolecularIntegrals(2, 2, 0.0, np.eye(2), rng.normal(size=(2, 2, 2, 2)))
    with pytest.raises(ValueError):
        MolecularIntegrals(1, 3, 0.0, np.eye(1), np.zeros((1, 1, 1, 1)))


def test_fcidump_roundtrip(tmp_path):
    ints = random_integrals(3, seed=5, nelec=4)
    path = tmp_path / "dump"
    write_fcidump(ints, path)
    back = load_fcidump(path)
    assert back.n_spatial == 3 and back.n_electrons == 4
    assert back.e_const == ints.e_const
    assert np.array_equal(back.h1, ints.h1)
    assert np.array_equal(back.h2, ints.h2)


def test_fcidump_core_only(tmp_path):
    path = tmp_path / "dump"
    path.write_text("&FCI NORB=2,NELEC=2,\n/\n0.715 0 0 0 0\n")
    ints = load_fcidump(path)
    assert ints.e_const == 0.715
    assert not ints.h1.any() and not ints.h2.any()


def test_fcidump_errors(tmp_path):
    path = tmp_path / "dump"
    path.write_text("&FCI NORB=4,NELEC=2,\n/\n1.0 5 1 0 0\n")
    with pytest.raises(ValueError, match="out of range"):
        load_fcidump(path)
    path.write_text("no header here\n")
    with pytest.raises(ValueError, match="header"):
        load_fcidump(path)
    path.write_text("&FCI NORB=2,NELEC=2,\n/\nnot-a-number 1 1 0 0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_fcidump(path)



@pytest.mark.parametrize("line", ["1.0 0 1 0 0", "1.0 0 0 1 0",
                                  "1.0 1 1 1 0", "1.0 1 0 1 1",
                                  "1.0 0 0 1 1"])
def test_fcidump_partial_zero_indices_are_rejected(tmp_path, line):
    # only "e 0 0 0 0" (core energy), "e i 0 0 0" (orbital energy) and
    # "h i j 0 0" (one-body) leave indices zero
    path = tmp_path / "dump"
    path.write_text(f"&FCI NORB=2,NELEC=2,\n/\n{line}\n")
    with pytest.raises(ValueError, match="partial zero"):
        load_fcidump(path)

def test_freeze_nothing_is_identity():
    ints = random_integrals(3, seed=7)
    out = freeze_orbitals(ints, set(), set())
    assert np.array_equal(out.h1, ints.h1)
    assert np.array_equal(out.h2, ints.h2)
    assert out.e_const == ints.e_const
    assert out.n_electrons == ints.n_electrons


def test_freeze_validation():
    ints = random_integrals(3, seed=7, nelec=2)
    with pytest.raises(ValueError):
        freeze_orbitals(ints, {0}, {0})
    with pytest.raises(ValueError):
        freeze_orbitals(ints, {0, 1}, set())  # would freeze 4 > 2 electrons
    with pytest.raises(ValueError):
        freeze_orbitals(ints, {5}, set())


def test_freeze_matches_operator_level_freezing():
    # folding orbitals at the integral level must agree with projecting the
    # full second-quantized Hamiltonian onto the frozen-occupation subspace
    ints = random_integrals(4, seed=11, nelec=6)
    frozen_occ, frozen_virt = {0}, {3}
    reduced = freeze_orbitals(ints, frozen_occ, frozen_virt)
    assert reduced.n_spatial == 2 and reduced.n_electrons == 4
    h_full = spin_orbital_hamiltonian(ints)
    h_proj = freeze_operator(h_full,
                             frozen_occ={2 * p for p in frozen_occ}
                             | {2 * p + 1 for p in frozen_occ},
                             frozen_virt={2 * p for p in frozen_virt}
                             | {2 * p + 1 for p in frozen_virt})
    h_red = spin_orbital_hamiltonian(reduced)
    diff = h_red - h_proj
    assert all(abs(c) < 1e-9 for c in diff.terms.values())


def test_determinant_energy_matches_operator_expectation():
    ints = random_integrals(3, seed=13, nelec=4)
    h = spin_orbital_hamiltonian(ints)
    pauli = jordan_wigner(h)
    occ = (0, 1, 3, 4)
    state = basis_state(sum(1 << m for m in occ), 6)
    assert determinant_energy(ints, occ) == pytest.approx(
        expectation(state, pauli), abs=1e-10)


def test_frozen_determinant_energy_matches_full_space():
    ints = random_integrals(4, seed=17, nelec=6)
    reduced = freeze_orbitals(ints, {1}, set())
    # active spatial orbitals are 0, 2, 3 -> reduced indices 0, 1, 2
    act_map = {0: 0, 2: 1, 3: 2}
    for occ_act_full in [(0, 1, 6, 7), (4, 5, 6, 7), (0, 5, 4, 1)]:
        occ_full = tuple(sorted(occ_act_full)) + (2, 3)  # orbital 1 doubly occ
        occ_red = tuple(2 * act_map[m // 2] + m % 2 for m in occ_act_full)
        assert determinant_energy(reduced, occ_red) == pytest.approx(
            determinant_energy(ints, occ_full), abs=1e-9)


def test_hartree_fock_circuit_energy():
    ints = random_integrals(2, seed=19, nelec=2)
    h = jordan_wigner(spin_orbital_hamiltonian(ints))
    circ = hartree_fock_circuit(4, 0b0011)
    state = run(circ, basis_state(0, 4))
    assert expectation(state, h) == pytest.approx(
        determinant_energy(ints, (0, 1)), abs=1e-10)


def test_make_fixtures_reproduces_the_committed_files(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", root / "scripts" / "make_fixtures.py")
    fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fixtures)
    for name, ints in (
            ("h2_stretched.fcidump",
             fixtures.h2_sto3g_integrals(fixtures.H2_BOND_LENGTH)),
            ("h4_chain.fcidump", fixtures.h4_hubbard_integrals())):
        write_fcidump(ints, tmp_path / name)
        assert (tmp_path / name).read_bytes() == \
            (root / "tests" / "data" / name).read_bytes(), name
