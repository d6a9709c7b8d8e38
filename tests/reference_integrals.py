"""Determinant energies straight from the integrals, an oracle for the
second-quantized Hamiltonian and for orbital freezing; and the Hamiltonian
built one operator string at a time by ``FermionOperator.add_string``, as
``integrals.spin_orbital_hamiltonian`` built it before it wrote each
term's normal-ordered key and sign directly."""
from qcmoments.fermion import FermionOperator
from qcmoments.integrals import MolecularIntegrals


def determinant_energy(ints: MolecularIntegrals,
                       occupied_spin_orbitals) -> float:
    """Energy of a single Slater determinant, directly from the integrals."""
    occ = sorted(occupied_spin_orbitals)
    e = ints.e_const
    for a in occ:
        e += ints.h1[a // 2, a // 2]
    for a in occ:
        for b in occ:
            pa, sa = a // 2, a % 2
            pb, sb = b // 2, b % 2
            e += 0.5 * ints.h2[pa, pb, pa, pb]
            if sa == sb:
                e -= 0.5 * ints.h2[pa, pb, pb, pa]
    return float(e)


def spin_orbital_hamiltonian_by_strings(ints) -> FermionOperator:
    """``integrals.spin_orbital_hamiltonian``, each term normal-ordered by
    ``add_string``. `ints` needs only n_spatial, e_const, h1 and h2."""
    n = ints.n_spatial
    op = FermionOperator(2 * n)
    if ints.e_const:
        op.add_string([], ints.e_const)
    for p in range(n):
        for q in range(n):
            v = ints.h1[p, q]
            if abs(v) < 1e-14:
                continue
            for sp in (0, 1):
                op.add_string([(2 * p + sp, True), (2 * q + sp, False)], v)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    v = ints.h2[p, q, r, s]
                    if abs(v) < 1e-14:
                        continue
                    for sp in (0, 1):
                        for tp in (0, 1):
                            op.add_string(
                                [(2 * p + sp, True), (2 * q + tp, True),
                                 (2 * s + tp, False), (2 * r + sp, False)],
                                0.5 * v)
    return op.compress()
