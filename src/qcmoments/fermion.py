"""Second-quantized fermionic operator algebra.

Operators are stored as weighted sums of normal-ordered strings: all creation
operators to the left of all annihilation operators, mode indices strictly
increasing within each block. Term keys are ``(daggers, anns)`` tuples of
sorted mode indices, so accumulation is deterministic regardless of input
order.

One rule normal-orders everything: a normal-ordered string times one ladder
operator. An annihilation a_m joins the annihilations, with the sign of
sorting it into place, and the product vanishes if a_m is there already. A
creation a^dag_m passes every annihilation. Where a_m is among them it leaves
the contraction a_m a^dag_m = 1 - a^dag_m a_m, signed by the annihilations
to the right of a_m; it then joins the creations, signed by all the
annihilations and the creations above m. ``multiply`` folds this rule one
operator at a time.

:func:`sort_sign` and :func:`reversal_sign` are the package's one home for
reordering signs: the sign of sorting a sequence of distinct items, and the
sign (-1)^(q(q-1)/2) of reversing q of them (ascending to descending
annihilations, as RDM entries are stored).
"""
from __future__ import annotations

from bisect import bisect_left

DROP_TOL = 1e-12

# ---------------------------------------------------------------------------
# reordering signs and normal ordering


def sort_sign(items):
    """(sorted tuple, sign of the sorting permutation) of distinct items,
    or (None, 0) if an item repeats."""
    out = list(items)
    sign = 1
    for i in range(1, len(out)):
        x, j = out[i], i
        while j and out[j - 1] > x:
            out[j] = out[j - 1]
            j -= 1
        if j and out[j - 1] == x:
            return None, 0
        if (i - j) % 2:
            sign = -sign
        out[j] = x
    return tuple(out), sign


def reversal_sign(q: int) -> int:
    """Sign of reversing the order of q anticommuting operators."""
    return -1 if (q * (q - 1) // 2) % 2 else 1


def _fold(strings: dict, ops) -> dict:
    """Normal-ordered {key: coefficient} times the (mode, dagger) ladder
    operators `ops`, left to right, each by the rule in the module
    docstring."""
    for m, dag in ops:
        nxt: dict = {}
        for (dags, anns), c in strings.items():
            n = len(anns)
            j = bisect_left(anns, m)
            hit = j < n and anns[j] == m
            if not dag:
                if not hit:     # a_m joins the annihilations
                    k = (dags, anns[:j] + (m,) + anns[j:])
                    nxt[k] = nxt.get(k, 0) + c * (-1 if (n - j) % 2 else 1)
                continue
            if hit:             # the contraction a_m a^dag_m -> 1
                k = (dags, anns[:j] + anns[j + 1:])
                nxt[k] = nxt.get(k, 0) + c * (-1 if (n - j - 1) % 2 else 1)
            i = bisect_left(dags, m)
            if i == len(dags) or dags[i] != m:  # a^dag_m joins the creations
                k = (dags[:i] + (m,) + dags[i:], anns)
                s = n + len(dags) - i
                nxt[k] = nxt.get(k, 0) + c * (-1 if s % 2 else 1)
        strings = nxt
    return strings


def _ladder(key: tuple) -> list:
    """The (mode, dagger) operators of the string `key`, left to right."""
    dags, anns = key
    return [(m, True) for m in dags] + [(m, False) for m in anns]


# ---------------------------------------------------------------------------
# operators


class FermionOperator:
    """Weighted sum of normal-ordered creation/annihilation strings."""

    __slots__ = ("n_modes", "terms")

    def __init__(self, n_modes: int, terms: dict | None = None):
        self.n_modes = n_modes
        self.terms: dict = {}
        if terms:
            for k, c in terms.items():
                self._add_raw(k, c)
            self.compress()

    def _add_raw(self, key, coeff):
        c = self.terms.get(key, 0) + coeff
        if c:
            self.terms[key] = c
        elif key in self.terms:
            del self.terms[key]

    def compress(self):
        self.terms = {k: c for k, c in self.terms.items()
                      if abs(c) > DROP_TOL}
        return self

    def __len__(self):
        return len(self.terms)

    def constant(self) -> complex:
        return self.terms.get(((), ()), 0.0)


def multiply(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    """Normal-ordered product of two operators."""
    if a.n_modes != b.n_modes:
        raise ValueError("mode-count mismatch")
    acc: dict = {}
    b_terms = [(_ladder(k2), c2) for k2, c2 in b.terms.items()]
    for k1, c1 in a.terms.items():
        for ops, c2 in b_terms:
            c = c1 * c2
            for k, s in _fold({k1: 1}, ops).items():
                acc[k] = acc.get(k, 0) + c * s
    out = FermionOperator(a.n_modes)
    out.terms = acc
    return out.compress()


# ---------------------------------------------------------------------------
# Jordan-Wigner mapping

_PAULI_MUL = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


class PauliOperator:
    """Weighted sum of Pauli strings on n qubits.

    Strings are tuples of 'I'/'X'/'Y'/'Z', entry j acting on qubit j.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: dict | None = None):
        self.n_qubits = n_qubits
        self.terms = dict(terms) if terms else {}

    def compress(self):
        self.terms = {k: c for k, c in self.terms.items()
                      if abs(c) > DROP_TOL}
        return self

    def _add(self, string, coeff):
        c = self.terms.get(string, 0) + coeff
        if c:
            self.terms[string] = c
        elif string in self.terms:
            del self.terms[string]

    def multiply(self, other: "PauliOperator") -> "PauliOperator":
        out = PauliOperator(self.n_qubits)
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                phase = c1 * c2
                string = []
                for p1, p2 in zip(s1, s2):
                    f, p = _PAULI_MUL[(p1, p2)]
                    phase *= f
                    string.append(p)
                out._add(tuple(string), phase)
        return out.compress()

    def to_matrix(self):
        """Dense 2^n x 2^n matrix; qubit j is bit j of the index. A string
        with X or Y on the qubits of mask x and n_y Ys takes |b> to
        i^n_y (-1)^(b's bits under its Z and Y) |b ^ x>."""
        import numpy as np
        index = np.arange(1 << self.n_qubits)
        bits = index[:, None] >> np.arange(self.n_qubits) & 1
        out = np.zeros((index.size, index.size), dtype=complex)
        for string, c in self.terms.items():
            x = sum(1 << j for j, p in enumerate(string) if p in "XY")
            signs = 1 - 2 * (bits[:, [p in "YZ" for p in string]].sum(1) & 1)
            out[index ^ x, index] += c * 1j ** string.count("Y") * signs
        return out


def jordan_wigner(op: FermionOperator) -> PauliOperator:
    """Jordan-Wigner map: a^dag_j -> (X_j - iY_j)/2 with Z string on modes < j."""
    n = op.n_modes
    out = PauliOperator(n)
    ident = PauliOperator(n, {("I",) * n: 1.0})
    cache: dict = {}
    for key, coeff in op.terms.items():
        acc = ident
        for mode, dag in _ladder(key):
            fac = cache.get((mode, dag))
            if fac is None:
                sx = ["I"] * n
                sy = ["I"] * n
                for j in range(mode):
                    sx[j] = sy[j] = "Z"
                sx[mode] = "X"
                sy[mode] = "Y"
                ic = -0.5j if dag else 0.5j
                fac = PauliOperator(n, {tuple(sx): 0.5, tuple(sy): ic})
                cache[(mode, dag)] = fac
            acc = acc.multiply(fac)
        for s, c in acc.terms.items():
            out._add(s, coeff * c)
    return out.compress()


# ---------------------------------------------------------------------------
# expectation from reduced density matrices


def expectation_from_rdm(op: FermionOperator, rdm, n_electrons: int) -> float:
    """Evaluate <op> by contracting a p-body RDM.

    Terms of order q < p are read from successively contracted RDMs
    (prefactor 1/(N_e - q) per contraction step). Terms of order q > p are
    exactly zero when q > N_e; otherwise the RDM order is insufficient.
    Reference for the linear moment map of
    :class:`qcmoments.analysis.Analyzer`.
    """
    p = rdm.order
    ladder = {p: rdm}
    for q in range(p - 1, -1, -1):
        ladder[q] = ladder[q + 1].contract()
    total = 0.0 + 0.0j
    for (dags, anns), c in op.terms.items():
        if len(dags) != len(anns):
            continue  # zero on fixed-particle-number states
        q = len(dags)
        if q > p:
            if q > n_electrons:
                continue  # annihilates more electrons than present
            raise ValueError(
                f"order-{q} term needs an order-{q} RDM "
                f"(have {p}, N_e = {n_electrons})")
        if q == 0:
            total += c
            continue
        # normal-ordered string has annihilations ascending; RDM storage uses
        # descending annihilation order (positive-semidefinite convention)
        total += c * reversal_sign(q) * ladder[q].get(dags, anns)
    if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
        raise ValueError(f"non-negligible imaginary expectation {total}")
    return float(total.real)
