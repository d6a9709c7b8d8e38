"""Reduced density matrix container.

A p-body RDM is stored matricized over sorted index tuples: the value under
key ``(sub, sup)`` is

    V(sub, sup) = < a^dag_{s1} .. a^dag_{sp} a_{tp} .. a_{t1} >

with sub = (s1 < .. < sp) the creation indices and sup = (t1 < .. < tp) the
annihilation indices, annihilations applied in descending order. In this
convention the matricized RDM is a Gram matrix: Hermitian, positive
semidefinite, with trace C(N_e, p). Antisymmetry under index permutation is
handled by the accessors: they sort each index tuple with
``fermion.sort_sign`` and apply its sign.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

from .fermion import sort_sign


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
        sub_s, s1 = sort_sign(sub)
        sup_s, s2 = sort_sign(sup)
        if sub_s is None or sup_s is None:
            raise ValueError("repeated index in RDM element")
        v = complex(value) * s1 * s2
        self.data[(sub_s, sup_s)] = v
        if sub_s != sup_s:
            self.data[(sup_s, sub_s)] = v.conjugate()

    def get(self, sub, sup) -> complex:
        """V for index tuples in any order; 0 for repeated or unmeasured indices."""
        sub_s, s1 = sort_sign(sub)
        sup_s, s2 = sort_sign(sup)
        if sub_s is None or sup_s is None:
            return 0.0
        v = self.data.get((sub_s, sup_s))
        if v is None:
            v = self.data.get((sup_s, sub_s))
            v = v.conjugate() if v is not None else 0.0
        return s1 * s2 * v

    # -- derived quantities

    def trace(self) -> float:
        keys = combinations(range(self.n_modes), self.order)
        return float(sum(self.get(j, j).real for j in keys))

    def ideal_trace(self) -> float:
        return float(comb(self.n_electrons, self.order))

    def contract(self) -> "RDM":
        """Order p-1 RDM via sum over a repeated index, prefactor 1/(N_e-(p-1)).

        fermion.expectation_from_rdm reads terms below the RDM order from
        these contractions.
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

    def scaled(self, factor: float) -> "RDM":
        out = RDM(self.order, self.n_modes, self.n_electrons)
        out.data = {k: v * factor for k, v in self.data.items()}
        return out

