"""Determinant energies straight from the integrals, an oracle for the
second-quantized Hamiltonian and for orbital freezing."""
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
