"""Generate the FCIDUMP fixtures committed under tests/data/.

Two small systems exercise the full pipeline:

* ``h2_stretched.fcidump`` — H2 in a minimal STO-3G basis at a stretched
  bond length of 2.8 bohr (2x equilibrium), where static correlation is
  strong. All integrals are evaluated from the closed-form expressions for
  s-type Gaussians and transformed to the symmetry-adapted molecular
  orbitals (bonding/antibonding).

* ``h4_chain.fcidump`` — a four-site Hubbard chain (t = -1, U = 2, open
  boundaries, half filling) expressed in the basis that diagonalizes the
  hopping matrix, so the lowest determinant is a meaningful mean-field
  reference.

Run from the repository root:  python scripts/make_fixtures.py
"""
from __future__ import annotations

import pathlib
import sys
from math import erf

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qcmoments.integrals import MolecularIntegrals, write_fcidump  # noqa: E402

# STO-3G hydrogen 1s: exponents and contraction coefficients (zeta = 1.24)
STO3G_EXPONENTS = np.array([3.425250914, 0.62391373, 0.168855404])
STO3G_COEFFS = np.array([0.154328967, 0.535328142, 0.444634542])

H2_BOND_LENGTH = 2.8  # bohr; equilibrium is ~1.4

HUBBARD_SITES = 4
HUBBARD_T = -1.0
HUBBARD_U = 2.0


def _boys0(t: float) -> float:
    if t < 1e-12:
        return 1.0 - t / 3.0
    return 0.5 * np.sqrt(np.pi / t) * erf(np.sqrt(t))


def _norm(alpha: float) -> float:
    return (2.0 * alpha / np.pi) ** 0.75


def _contracted(f):
    """Contract a primitive-pair integral over the STO-3G expansion."""
    total = 0.0
    for a, da in zip(STO3G_EXPONENTS, STO3G_COEFFS):
        for b, db in zip(STO3G_EXPONENTS, STO3G_COEFFS):
            total += da * db * _norm(a) * _norm(b) * f(a, b)
    return total


def h2_sto3g_integrals(r: float) -> MolecularIntegrals:
    """Closed-form STO-3G integrals for H2, in the g/u molecular orbitals."""
    centers = [0.0, r]

    def overlap(a, b, ra, rb):
        p = a + b
        mu = a * b / p
        return (np.pi / p) ** 1.5 * np.exp(-mu * (ra - rb) ** 2)

    def kinetic(a, b, ra, rb):
        p = a + b
        mu = a * b / p
        return mu * (3.0 - 2.0 * mu * (ra - rb) ** 2) * overlap(a, b, ra, rb)

    def nuclear(a, b, ra, rb, rc):
        p = a + b
        mu = a * b / p
        rp = (a * ra + b * rb) / p
        return (-2.0 * np.pi / p * np.exp(-mu * (ra - rb) ** 2)
                * _boys0(p * (rp - rc) ** 2))

    def eri(a, b, c, d, ra, rb, rc, rd):
        p, q = a + b, c + d
        rp = (a * ra + b * rb) / p
        rq = (c * rc + d * rd) / q
        pref = 2.0 * np.pi ** 2.5 / (p * q * np.sqrt(p + q))
        expo = np.exp(-a * b / p * (ra - rb) ** 2
                      - c * d / q * (rc - rd) ** 2)
        return pref * expo * _boys0(p * q / (p + q) * (rp - rq) ** 2)

    s = np.empty((2, 2))
    hcore = np.empty((2, 2))
    for i, ri in enumerate(centers):
        for j, rj in enumerate(centers):
            s[i, j] = _contracted(lambda a, b: overlap(a, b, ri, rj))
            t_ij = _contracted(lambda a, b: kinetic(a, b, ri, rj))
            v_ij = sum(_contracted(lambda a, b: nuclear(a, b, ri, rj, rc))
                       for rc in centers)
            hcore[i, j] = t_ij + v_ij

    chem = np.empty((2, 2, 2, 2))
    for i, ri in enumerate(centers):
        for j, rj in enumerate(centers):
            for k, rk in enumerate(centers):
                for l, rl in enumerate(centers):
                    val = 0.0
                    for a, da in zip(STO3G_EXPONENTS, STO3G_COEFFS):
                        for b, db in zip(STO3G_EXPONENTS, STO3G_COEFFS):
                            for c, dc in zip(STO3G_EXPONENTS, STO3G_COEFFS):
                                for d, dd in zip(STO3G_EXPONENTS,
                                                 STO3G_COEFFS):
                                    val += (da * db * dc * dd
                                            * _norm(a) * _norm(b)
                                            * _norm(c) * _norm(d)
                                            * eri(a, b, c, d, ri, rj, rk, rl))
                    chem[i, j, k, l] = val

    # symmetry-adapted MOs: bonding and antibonding combinations
    s12 = s[0, 1]
    coeffs = np.array([[1.0 / np.sqrt(2.0 * (1.0 + s12)),
                        1.0 / np.sqrt(2.0 * (1.0 - s12))],
                       [1.0 / np.sqrt(2.0 * (1.0 + s12)),
                        -1.0 / np.sqrt(2.0 * (1.0 - s12))]])
    h1_mo = coeffs.T @ hcore @ coeffs
    chem_mo = np.einsum("ia,jb,kc,ld,ijkl->abcd",
                        coeffs, coeffs, coeffs, coeffs, chem, optimize=True)
    e_nuc = 1.0 / r
    h2_phys = np.transpose(chem_mo, (0, 2, 1, 3)).copy()
    return MolecularIntegrals(2, 2, e_nuc, h1_mo, h2_phys)


def h4_hubbard_integrals(n_sites: int = HUBBARD_SITES, t: float = HUBBARD_T,
                         u: float = HUBBARD_U) -> MolecularIntegrals:
    """Open Hubbard chain at half filling, in the hopping eigenbasis."""
    h1_site = np.zeros((n_sites, n_sites))
    for i in range(n_sites - 1):
        h1_site[i, i + 1] = h1_site[i + 1, i] = t
    chem_site = np.zeros((n_sites,) * 4)
    for i in range(n_sites):
        chem_site[i, i, i, i] = u
    _, coeffs = np.linalg.eigh(h1_site)
    h1_mo = coeffs.T @ h1_site @ coeffs
    chem_mo = np.einsum("ia,jb,kc,ld,ijkl->abcd",
                        coeffs, coeffs, coeffs, coeffs, chem_site,
                        optimize=True)
    h2_phys = np.transpose(chem_mo, (0, 2, 1, 3)).copy()
    return MolecularIntegrals(n_sites, n_sites, 0.0, h1_mo, h2_phys)


def main():
    out = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
    out.mkdir(parents=True, exist_ok=True)
    write_fcidump(h2_sto3g_integrals(H2_BOND_LENGTH),
                  out / "h2_stretched.fcidump")
    write_fcidump(h4_hubbard_integrals(), out / "h4_chain.fcidump")
    print(f"wrote fixtures to {out}")


if __name__ == "__main__":
    main()
