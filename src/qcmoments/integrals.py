"""Molecular integral ingestion and active-space reduction.

One- and two-body electronic integrals are read from FCIDUMP text files
(chemists' index convention) and stored in physicists' ordering:

    h2[p, q, r, s] = <pq|rs> = (pr|qs)_chemists

so the electronic Hamiltonian over spatial orbitals is

    H = e_const + sum_{pq,s} h1[p,q] a+_{ps} a_{qs}
        + 1/2 sum_{pqrs,st} h2[p,q,r,s] a+_{ps} a+_{qt} a_{st} a_{rs}

Spatial orbital p carries spin-orbitals 2p (up) and 2p+1 (down).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fermion import FermionOperator

SYM_TOL = 1e-10


@dataclass
class MolecularIntegrals:
    """Electronic integrals over spatial orbitals (Hartree units)."""

    n_spatial: int
    n_electrons: int
    e_const: float
    h1: np.ndarray            # (n, n), symmetric
    h2: np.ndarray            # (n, n, n, n), physicists' <pq|rs>

    def __post_init__(self):
        self.h1 = np.asarray(self.h1, dtype=float)
        self.h2 = np.asarray(self.h2, dtype=float)
        n = self.n_spatial
        if self.h1.shape != (n, n) or self.h2.shape != (n, n, n, n):
            raise ValueError("integral tensor shape mismatch")
        if self.n_electrons > 2 * n:
            raise ValueError("more electrons than spin-orbitals")
        if np.max(np.abs(self.h1 - self.h1.T), initial=0.0) > SYM_TOL:
            raise ValueError("h1 is not symmetric")
        # 8-fold real-orbital symmetry, phrased on the physicists' tensor
        for perm in ((1, 0, 3, 2), (2, 1, 0, 3), (0, 3, 2, 1)):
            if np.max(np.abs(self.h2 - np.transpose(self.h2, perm)),
                      initial=0.0) > SYM_TOL:
                raise ValueError("h2 lacks the 8-fold permutational symmetry")

    @property
    def n_spin_orbitals(self) -> int:
        return 2 * self.n_spatial


def load_fcidump(path) -> MolecularIntegrals:
    """Read a standard FCIDUMP file (1-based indices, chemists' convention)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    # header: &FCI NORB=...,NELEC=...,.../ possibly spanning several lines
    header_end = None
    header = []
    for i, ln in enumerate(lines):
        header.append(ln)
        if "/" in ln or "&END" in ln.upper():
            header_end = i
            break
    if header_end is None:
        raise ValueError("malformed FCIDUMP header: no terminating '/'")
    head = " ".join(header).replace(",", " ")
    fields = {}
    for tok in head.replace("=", "= ").split():
        tok = tok.strip()
        if tok.endswith("="):
            key = tok[:-1].upper().lstrip("&")
            fields[key] = None
            last = key
        elif fields and fields.get(last, "") is None:
            fields[last] = tok
    try:
        norb = int(fields["NORB"])
        nelec = int(fields["NELEC"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed FCIDUMP header: {exc}") from exc

    h1 = np.zeros((norb, norb))
    chem = np.zeros((norb, norb, norb, norb))
    e_const = 0.0
    for lineno, ln in enumerate(lines[header_end + 1:], start=header_end + 2):
        toks = ln.split()
        if not toks:
            continue
        if len(toks) != 5:
            raise ValueError(f"line {lineno}: expected 'value i j k l'")
        try:
            val = float(toks[0])
            i, j, k, l = (int(t) for t in toks[1:])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if not np.isfinite(val):
            raise ValueError(f"line {lineno}: value {toks[0]} is not finite")
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise ValueError(f"line {lineno}: index {idx} out of range "
                                 f"for NORB={norb}")
        if i == j == k == l == 0:
            e_const = val
        elif j == k == l == 0:
            continue        # orbital energy e_i, not a Hamiltonian term
        elif k == l == 0 and i and j:
            h1[i - 1, j - 1] = h1[j - 1, i - 1] = val
        elif i == 0 or j == 0 or k == 0 or l == 0:
            raise ValueError(f"line {lineno}: partial zero indices")
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b in ((p, q), (q, p)):
                for c, d in ((r, s), (s, r)):
                    chem[a, b, c, d] = chem[c, d, a, b] = val
    # chemists (pr|qs) -> physicists <pq|rs>
    h2 = np.transpose(chem, (0, 2, 1, 3)).copy()
    return MolecularIntegrals(norb, nelec, e_const, h1, h2)


def write_fcidump(ints: MolecularIntegrals, path):
    """Write the stored representative entries back out (chemists' order)."""
    n = ints.n_spatial
    chem = np.transpose(ints.h2, (0, 2, 1, 3))
    with open(path, "w") as fh:
        fh.write(f"&FCI NORB={n},NELEC={ints.n_electrons},MS2=0,\n/\n")
        seen = set()
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    for s in range(n):
                        v = chem[p, q, r, s]
                        if abs(v) < 1e-14:
                            continue
                        reps = {(p, q, r, s), (q, p, r, s), (p, q, s, r),
                                (q, p, s, r), (r, s, p, q), (s, r, p, q),
                                (r, s, q, p), (s, r, q, p)}
                        key = min(reps)
                        if key in seen:
                            continue
                        seen.add(key)
                        a, b, c, d = key
                        fh.write(f"{float(v)!r} {a + 1} {b + 1} {c + 1} {d + 1}\n")
        for p in range(n):
            for q in range(p, n):
                if abs(ints.h1[p, q]) > 1e-14:
                    fh.write(f"{float(ints.h1[p, q])!r} {p + 1} {q + 1} 0 0\n")
        fh.write(f"{float(ints.e_const)!r} 0 0 0 0\n")


def freeze_orbitals(ints: MolecularIntegrals, frozen_occ, frozen_virt
                    ) -> MolecularIntegrals:
    """Fold doubly occupied orbitals into e_const/h1, drop frozen virtuals."""
    frozen_occ = set(frozen_occ)
    frozen_virt = set(frozen_virt)
    n = ints.n_spatial
    if frozen_occ & frozen_virt:
        raise ValueError("frozen_occ and frozen_virt overlap")
    for p in frozen_occ | frozen_virt:
        if not 0 <= p < n:
            raise ValueError(f"frozen orbital {p} out of range")
    if len(frozen_occ | frozen_virt) == n:
        raise ValueError(f"frozen_occupied and frozen_virtual freeze all {n} "
                         "orbitals, which leaves no active space")
    if 2 * len(frozen_occ) > ints.n_electrons:
        raise ValueError("freezing more electrons than available")

    occ = sorted(frozen_occ)
    h2 = ints.h2
    # mean-field energy of the doubly occupied shell
    e_core = 2.0 * sum(ints.h1[i, i] for i in occ)
    for i in occ:
        for j in occ:
            e_core += 2.0 * h2[i, j, i, j] - h2[i, j, j, i]
    # effective one-body term: direct minus exchange with the frozen shell
    h1_eff = ints.h1.copy()
    for i in occ:
        h1_eff += 2.0 * h2[:, i, :, i] - h2[:, i, i, :].reshape(n, n)

    active = [p for p in range(n) if p not in frozen_occ and p not in frozen_virt]
    return MolecularIntegrals(
        len(active), ints.n_electrons - 2 * len(frozen_occ),
        ints.e_const + e_core, h1_eff[np.ix_(active, active)],
        h2[np.ix_(active, active, active, active)])


def spin_orbital_hamiltonian(ints: MolecularIntegrals) -> FermionOperator:
    """Second-quantized Hamiltonian over interleaved spin-orbitals, each
    term written in normal order directly: a†_P a†_Q a_S a_R (zero if P = Q
    or R = S) with both pairs sorted, the sign flipped once per swap. Terms
    accumulate in the order of the sum above; integrals below 1e-14 drop."""
    n = ints.n_spatial
    op = FermionOperator(2 * n)
    if ints.e_const:
        op._add_raw(((), ()), ints.e_const)
    for p, q in np.argwhere(~(np.abs(ints.h1) < 1e-14)).tolist():
        for sp in (0, 1):
            op._add_raw(((2 * p + sp,), (2 * q + sp,)), ints.h1[p, q])
    for p, q, r, s in np.argwhere(~(np.abs(ints.h2) < 1e-14)).tolist():
        v = 0.5 * ints.h2[p, q, r, s]
        for sp, tp in ((0, 0), (0, 1), (1, 0), (1, 1)):
            cre, ann = (2 * p + sp, 2 * q + tp), (2 * s + tp, 2 * r + sp)
            if cre[0] != cre[1] and ann[0] != ann[1]:
                swaps = (cre[0] > cre[1]) + (ann[0] > ann[1])
                op._add_raw((tuple(sorted(cre)), tuple(sorted(ann))),
                            -v if swaps == 1 else v)
    return op.compress()
