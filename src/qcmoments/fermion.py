"""Second-quantized fermionic operator algebra.

Operators are stored as weighted sums of normal-ordered strings: all creation
operators to the left of all annihilation operators, mode indices strictly
increasing within each block. Products are normal-ordered with Wick's theorem
using {a_j, a^dag_k} = delta_jk.

Term keys are ``(daggers, anns)`` tuples of sorted mode indices, so
accumulation is deterministic regardless of input order.
"""
from __future__ import annotations

from typing import Iterable

DROP_TOL = 1e-12

# ---------------------------------------------------------------------------
# low-level normal ordering


def _merge_signed(a: tuple, b: tuple):
    """Merge two strictly increasing tuples of fermionic ops of the same kind.

    Returns (merged, sign) where sign is the parity of the interleaving
    permutation, or (None, 0) if the tuples share an index (string vanishes).
    """
    if not a:
        return b, 1
    if not b:
        return a, 1
    out = []
    i = j = 0
    sign = 1
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i elements of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


_WICK_CACHE: dict = {}


def _wick(anns: tuple, dags: tuple):
    """Normal order the block product a_{u1}..a_{up} a^dag_{d1}..a^dag_{dq}.

    Both inputs sorted increasing. Returns dict {(anns_rem, dags_rem): sign}
    where each key stands for a^dag_{dags_rem} a_{anns_rem}.
    """
    key = (anns, dags)
    hit = _WICK_CACHE.get(key)
    if hit is not None:
        return hit
    if not anns or not dags:
        out = {(anns, dags): 1}
        _WICK_CACHE[key] = out
        return out
    d = dags[0]
    rest = dags[1:]
    p = len(anns)
    out: dict = {}
    # move a^dag_d left through all annihilations
    for i, u in enumerate(anns):
        if u == d:
            sub = _wick(anns[:i] + anns[i + 1:], rest)
            s = -1 if (p - 1 - i) % 2 else 1
            for k, c in sub.items():
                out[k] = out.get(k, 0) + s * c
            break  # indices distinct within a block: at most one match
    s0 = -1 if p % 2 else 1
    for (u_rem, d_rem), c in _wick(anns, rest).items():
        k = (u_rem, (d,) + d_rem)
        out[k] = out.get(k, 0) + s0 * c
    out = {k: c for k, c in out.items() if c}
    _WICK_CACHE[key] = out
    return out


def _string_product(key1: tuple, key2: tuple):
    """Normal-ordered product of two normal-ordered strings.

    Each key is (daggers, anns). Returns dict {key: integer sign}.
    """
    d1, u1 = key1
    d2, u2 = key2
    out: dict = {}
    for (u_rem, d_rem), s in _wick(u1, d2).items():
        dags, s1 = _merge_signed(d1, d_rem)
        if dags is None:
            continue
        anns, s2 = _merge_signed(u_rem, u2)
        if anns is None:
            continue
        k = (dags, anns)
        out[k] = out.get(k, 0) + s * s1 * s2
    return out


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

    # -- construction helpers

    @classmethod
    def identity(cls, n_modes: int) -> "FermionOperator":
        return cls(n_modes, {((), ()): 1.0})

    @classmethod
    def from_ops(cls, n_modes: int, ops: Iterable[tuple[int, bool]],
                 coeff: complex = 1.0) -> "FermionOperator":
        """Build from an arbitrary (mode, dagger) sequence, normal ordering it."""
        op = cls(n_modes)
        op.add_string(ops, coeff)
        op.compress()
        return op

    def add_string(self, ops: Iterable[tuple[int, bool]], coeff: complex = 1.0):
        """Accumulate one operator string (any order), normal ordering on the fly."""
        acc = {((), ()): coeff}
        for mode, dag in ops:
            if mode < 0 or mode >= self.n_modes:
                raise ValueError(f"mode {mode} out of range for {self.n_modes} modes")
            fac = ((mode,), ()) if dag else ((), (mode,))
            nxt: dict = {}
            for k, c in acc.items():
                for k2, s in _string_product(k, fac).items():
                    nxt[k2] = nxt.get(k2, 0) + c * s
            acc = nxt
        for k, c in acc.items():
            self._add_raw(k, c)

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

    # -- arithmetic

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if self.n_modes != other.n_modes:
            raise ValueError("mode-count mismatch")
        out = FermionOperator(self.n_modes)
        out.terms = dict(self.terms)
        for k, c in other.terms.items():
            out._add_raw(k, c)
        return out.compress()

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "FermionOperator":
        out = FermionOperator(self.n_modes)
        out.terms = {k: c * factor for k, c in self.terms.items()}
        return out

    def dagger(self) -> "FermionOperator":
        out = FermionOperator(self.n_modes)
        for (dags, anns), c in self.terms.items():
            q, r = len(dags), len(anns)
            sign = -1 if ((q * (q - 1) // 2) + (r * (r - 1) // 2)) % 2 else 1
            out._add_raw((anns, dags), sign * c.conjugate())
        return out.compress()

    def __len__(self):
        return len(self.terms)

    def constant(self) -> complex:
        return self.terms.get(((), ()), 0.0)


def multiply(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    """Normal-ordered product of two operators."""
    if a.n_modes != b.n_modes:
        raise ValueError("mode-count mismatch")
    acc: dict = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            c = c1 * c2
            for k, s in _string_product(k1, k2).items():
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

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        out = PauliOperator(self.n_qubits, self.terms)
        for k, c in other.terms.items():
            out._add(k, c)
        return out.compress()

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
    for (dags, anns), coeff in op.terms.items():
        ops = [(m, True) for m in dags] + [(m, False) for m in anns]
        acc = ident
        for mode, dag in ops:
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
        sign = -1 if (q * (q - 1) // 2) % 2 else 1
        total += c * sign * ladder[q].get(dags, anns)
    if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
        raise ValueError(f"non-negligible imaginary expectation {total}")
    return float(total.real)
