"""Second-quantized fermionic operator algebra.

Operators are stored as weighted sums of normal-ordered strings: all creation
operators to the left of all annihilation operators, mode indices strictly
increasing within each block. Products are normal-ordered with Wick's theorem
using {a_j, a^dag_k} = delta_jk.

Term keys are ``(daggers, anns)`` tuples of sorted mode indices, so
accumulation is deterministic regardless of input order.
"""
from __future__ import annotations

import cmath
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
    def identity(cls, n_modes: int, coeff: complex = 1.0) -> "FermionOperator":
        return cls(n_modes, {((), ()): coeff})

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

    def compress(self, tol: float = DROP_TOL):
        self.terms = {k: c for k, c in self.terms.items() if abs(c) > tol}
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

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        dag = self.dagger()
        keys = set(self.terms) | set(dag.terms)
        return all(abs(self.terms.get(k, 0) - dag.terms.get(k, 0)) <= tol
                   for k in keys)

    def __len__(self):
        return len(self.terms)

    def constant(self) -> complex:
        return self.terms.get(((), ()), 0.0)


def multiply(a: FermionOperator, b: FermionOperator,
             tol: float = DROP_TOL) -> FermionOperator:
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
    out.terms = {k: c for k, c in acc.items() if abs(c) > tol}
    return out


def operator_power(h: FermionOperator, p: int,
                   tol: float = DROP_TOL) -> FermionOperator:
    """Normal-ordered H^p for p in 1..4."""
    if p not in (1, 2, 3, 4):
        raise ValueError(f"power {p} out of range (expected 1..4)")
    out = h
    for _ in range(p - 1):
        out = multiply(out, h, tol=tol)
    return out


def number_operator(n_modes: int) -> FermionOperator:
    return FermionOperator(
        n_modes, {(((m,), (m,))): 1.0 for m in range(n_modes)})


# ---------------------------------------------------------------------------
# operator freezing


def freeze_operator(op: FermionOperator, frozen_occ: set[int],
                    frozen_virt: set[int]) -> FermionOperator:
    """Project onto frozen_occ occupied / frozen_virt empty and re-index.

    Strings touching a frozen-virtual mode vanish. Frozen-occupied modes must
    appear in the creation and annihilation blocks symmetrically (their number
    substring gives factor 1); anything else changes a frozen occupation and
    vanishes. Surviving strings pick up interleaving parities and are
    re-indexed onto the active modes.
    """
    frozen_occ = set(frozen_occ)
    frozen_virt = set(frozen_virt)
    if frozen_occ & frozen_virt:
        raise ValueError("frozen_occ and frozen_virt overlap")
    frozen = frozen_occ | frozen_virt
    active = [m for m in range(op.n_modes) if m not in frozen]
    remap = {m: i for i, m in enumerate(active)}
    occ_sorted = sorted(frozen_occ)

    def below(m):
        # frozen-occupied modes with index < m
        import bisect
        return bisect.bisect_left(occ_sorted, m)

    out = FermionOperator(len(active))
    for (dags, anns), c in op.terms.items():
        if any(m in frozen_virt for m in dags) or any(m in frozen_virt for m in anns):
            continue
        cd = frozenset(m for m in dags if m in frozen_occ)
        ca = frozenset(m for m in anns if m in frozen_occ)
        if cd != ca:
            # term changes a frozen occupation: non-particle-conserving on the
            # frozen modes, projects to zero
            continue
        common = sorted(cd)
        d_act = tuple(m for m in dags if m not in cd)
        u_act = tuple(m for m in anns if m not in ca)
        sign = 1
        # bring frozen daggers to the front of the dagger block
        for m in d_act:
            if sum(1 for f in common if f > m) % 2:
                sign = -sign
        # bring frozen annihilations to the back of the annihilation block
        for m in u_act:
            if sum(1 for f in common if f < m) % 2:
                sign = -sign
        # reversed frozen annihilation block (C down-sorted)
        if (len(common) * (len(common) - 1) // 2) % 2:
            sign = -sign
        # frozen pair a^dag_C .. a_C moved around the active ops
        if (len(common) * (len(d_act) + len(u_act))) % 2:
            sign = -sign
        # interleaving parity of active ops against frozen-occupied creations
        par = sum(below(m) for m in d_act) + sum(below(m) for m in u_act)
        if par % 2:
            sign = -sign
        key = (tuple(remap[m] for m in d_act), tuple(remap[m] for m in u_act))
        out._add_raw(key, sign * c)
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

    def compress(self, tol: float = DROP_TOL):
        self.terms = {k: c for k, c in self.terms.items() if abs(c) > tol}
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

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c in self.terms.values())

    def to_matrix(self):
        """Dense 2^n x 2^n matrix; qubit j is bit j of the index."""
        import numpy as np
        n = self.n_qubits
        dim = 1 << n
        mats = {
            "I": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        out = np.zeros((dim, dim), dtype=complex)
        for string, c in self.terms.items():
            m = np.array([[1.0 + 0j]])
            # qubit 0 is the least significant bit: kron from high to low
            for j in range(n - 1, -1, -1):
                m = np.kron(m, mats[string[j]])
            out += c * m
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


# ---------------------------------------------------------------------------
# text serialization: lines like "(-0.5+0j)  [3^ 2^ 1 0]"


def dumps(op: FermionOperator) -> str:
    lines = [f"modes {op.n_modes}"]
    for (dags, anns) in sorted(op.terms):
        c = op.terms[(dags, anns)]
        body = " ".join([f"{m}^" for m in dags] + [str(m) for m in anns])
        lines.append(f"{c!r}  [{body}]")
    return "\n".join(lines) + "\n"


def loads(text: str) -> FermionOperator:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("modes "):
        raise ValueError("operator dump must start with a 'modes N' line")
    op = FermionOperator(int(lines[0].split()[1]))
    for ln in lines[1:]:
        coeff_part, _, body = ln.partition("[")
        body = body.rstrip("]").strip()
        coeff = complex(coeff_part.strip().strip("()"))
        dags, anns = [], []
        for tok in body.split():
            if tok.endswith("^"):
                dags.append(int(tok[:-1]))
            else:
                anns.append(int(tok))
        op._add_raw((tuple(dags), tuple(anns)), coeff)
    return op.compress()
