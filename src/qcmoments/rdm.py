"""Reduced density matrix container.

A p-body RDM is stored matricized over sorted index tuples: the value under
key ``(sub, sup)`` is

    V(sub, sup) = < a^dag_{s1} .. a^dag_{sp} a_{tp} .. a_{t1} >

with sub = (s1 < .. < sp) the creation indices and sup = (t1 < .. < tp) the
annihilation indices, annihilations applied in descending order. In this
convention the matricized RDM is a Gram matrix: Hermitian, positive
semidefinite, with trace C(N_e, p). Antisymmetry under index permutation is
handled by the accessors.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np


def _sort_signed(indices):
    """Sort an index tuple, returning (sorted_tuple, parity_sign) or (None, 0)
    if it contains duplicates."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None, 0
    sign = 1
    # insertion sort; index lists have length <= 4
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


class RDM:
    """Dense map from (sub, sup) sorted index tuples to complex values."""

    def __init__(self, order: int, n_modes: int, n_electrons: int):
        self.order = order
        self.n_modes = n_modes
        self.n_electrons = n_electrons
        self.data: dict = {}

    # -- storage

    def set(self, sub, sup, value):
        """Store V(sub, sup) and its Hermitian mirror; inputs may be unsorted."""
        sub_s, s1 = _sort_signed(sub)
        sup_s, s2 = _sort_signed(sup)
        if sub_s is None or sup_s is None:
            raise ValueError("repeated index in RDM element")
        v = complex(value) * s1 * s2
        self.data[(sub_s, sup_s)] = v
        if sub_s != sup_s:
            self.data[(sup_s, sub_s)] = v.conjugate()

    def set_raw(self, sub, sup, value):
        """Overwrite a single stored entry without mirroring (fault injection)."""
        self.data[(tuple(sub), tuple(sup))] = complex(value)

    def get(self, sub, sup) -> complex:
        """V for index tuples in any order; 0 for repeated or unmeasured indices."""
        sub_s, s1 = _sort_signed(sub)
        sup_s, s2 = _sort_signed(sup)
        if sub_s is None or sup_s is None:
            return 0.0
        v = self.data.get((sub_s, sup_s))
        if v is None:
            v = self.data.get((sup_s, sub_s))
            v = v.conjugate() if v is not None else 0.0
        return s1 * s2 * v

    def copy(self) -> "RDM":
        out = RDM(self.order, self.n_modes, self.n_electrons)
        out.data = dict(self.data)
        return out

    # -- derived quantities

    def trace(self) -> float:
        keys = combinations(range(self.n_modes), self.order)
        return float(sum(self.get(j, j).real for j in keys))

    def ideal_trace(self) -> float:
        return float(comb(self.n_electrons, self.order))

    def contract(self) -> "RDM":
        """Order p-1 RDM via sum over a repeated index, prefactor 1/(N_e-(p-1)).

        Reference for the contraction ladder that
        :class:`qcmoments.analysis.Analyzer` folds into its moment weights.
        """
        q = self.order - 1
        if q < 0:
            raise ValueError("cannot contract an order-0 RDM")
        denom = self.n_electrons - q
        if denom <= 0:
            raise ValueError("contraction undefined: N_e <= target order")
        out = RDM(q, self.n_modes, self.n_electrons)
        for sub in combinations(range(self.n_modes), q):
            for sup in combinations(range(self.n_modes), q):
                acc = 0.0 + 0.0j
                for l in range(self.n_modes):
                    if l in sub or l in sup:
                        continue
                    # the interleaving parities of l into sub and sup are
                    # applied by get() when it sorts the index tuples
                    acc += self.get(sub + (l,), sup + (l,))
                out.data[(sub, sup)] = acc / denom
        return out

    def matricize(self) -> tuple[np.ndarray, list]:
        """Dense matrix over sorted index tuples plus the tuple index list."""
        keys = list(combinations(range(self.n_modes), self.order))
        dim = len(keys)
        mat = np.zeros((dim, dim), dtype=complex)
        for i, sub in enumerate(keys):
            for j, sup in enumerate(keys):
                mat[i, j] = self.get(sub, sup)
        return mat, keys

    def scaled(self, factor: float) -> "RDM":
        out = RDM(self.order, self.n_modes, self.n_electrons)
        out.data = {k: v * factor for k, v in self.data.items()}
        return out


def rdm_from_determinant(occupied, n_modes: int, order: int) -> RDM:
    """Exact p-RDM of a single Slater determinant."""
    occ = set(occupied)
    out = RDM(order, n_modes, len(occ))
    for sub in combinations(sorted(occ), order):
        out.data[(sub, sub)] = 1.0 + 0.0j
    return out
