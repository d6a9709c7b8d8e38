"""Statevector simulation: circuits, noise channels, sampling, sector
diagonalization.

Two-qubit gates are restricted to adjacent qubits of a linear array. Noise is
applied at sampling time: a global white-noise (depolarizing) mixture followed
by independent per-qubit readout flips.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import cos, sin, sqrt

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .conventions import interleaved_spins, sz_of
from .fermion import FermionOperator, PauliOperator
from .rdm import RDM

SINGLE_QUBIT_GATES = {"H", "S", "SDG", "X", "RY", "RZ"}
TWO_QUBIT_GATES = {"CNOT", "FSWAP"}

_SQ = 1 / sqrt(2)
_MAT_1Q = {
    "H": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
}


def _mat_1q(name: str, param):
    if name == "RY":
        c, s = cos(param / 2), sin(param / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "RZ":
        return np.array([[np.exp(-0.5j * param), 0],
                         [0, np.exp(0.5j * param)]], dtype=complex)
    return _MAT_1Q[name]


# basis order |b_hi b_lo> = 00, 01, 10, 11 (lo = lower qubit index)
_FSWAP = np.array([[1, 0, 0, 0],
                   [0, 0, 1, 0],
                   [0, 1, 0, 0],
                   [0, 0, 0, -1]], dtype=complex)
_CNOT_CTRL_LO = np.array([[1, 0, 0, 0],
                          [0, 0, 0, 1],
                          [0, 0, 1, 0],
                          [0, 1, 0, 0]], dtype=complex)
_CNOT_CTRL_HI = np.array([[1, 0, 0, 0],
                          [0, 1, 0, 0],
                          [0, 0, 0, 1],
                          [0, 0, 1, 0]], dtype=complex)


class Circuit:
    """Ordered gate list on a linear array of qubits."""

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        self.gates: list[tuple] = []  # (name, qubits_tuple, param_or_None)

    # -- builders

    def _check(self, *qubits):
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range")

    def h(self, q):
        self._check(q)
        self.gates.append(("H", (q,), None))
        return self

    def s(self, q):
        self._check(q)
        self.gates.append(("S", (q,), None))
        return self

    def sdg(self, q):
        self._check(q)
        self.gates.append(("SDG", (q,), None))
        return self

    def x(self, q):
        self._check(q)
        self.gates.append(("X", (q,), None))
        return self

    def ry(self, q, theta):
        self._check(q)
        self.gates.append(("RY", (q,), float(theta)))
        return self

    def rz(self, q, theta):
        self._check(q)
        self.gates.append(("RZ", (q,), float(theta)))
        return self

    def cnot(self, control, target):
        self._check(control, target)
        if abs(control - target) != 1:
            raise ValueError(f"CNOT on non-adjacent qubits {control},{target}")
        self.gates.append(("CNOT", (control, target), None))
        return self

    def fswap(self, q1, q2):
        self._check(q1, q2)
        if abs(q1 - q2) != 1:
            raise ValueError(f"FSWAP on non-adjacent qubits {q1},{q2}")
        self.gates.append(("FSWAP", (min(q1, q2), max(q1, q2)), None))
        return self

    def extend(self, other: "Circuit"):
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch")
        self.gates.extend(other.gates)
        return self

    def inverse(self) -> "Circuit":
        inv = Circuit(self.n_qubits)
        for name, qubits, param in reversed(self.gates):
            if name == "S":
                inv.gates.append(("SDG", qubits, None))
            elif name == "SDG":
                inv.gates.append(("S", qubits, None))
            elif name in ("RY", "RZ"):
                inv.gates.append((name, qubits, -param))
            else:  # H, X, CNOT, FSWAP are involutions
                inv.gates.append((name, qubits, param))
        return inv

    # -- metrics

    def cnot_count(self) -> int:
        """CNOT count with FSWAP counted at its 3-CNOT decomposition."""
        return sum(3 if name == "FSWAP" else 1
                   for name, _, _ in self.gates if name in TWO_QUBIT_GATES)

    def single_qubit_count(self) -> int:
        return sum(1 for name, _, _ in self.gates if name in SINGLE_QUBIT_GATES)

    def depth(self) -> int:
        """Minimal dependency layering after decomposing FSWAP into 3 CNOTs."""
        avail = [0] * self.n_qubits
        for name, qubits, _ in self.gates:
            slots = 3 if name == "FSWAP" else 1
            start = max(avail[q] for q in qubits)
            for q in qubits:
                avail[q] = start + slots
        return max(avail) if avail else 0

    # -- text format: one gate per line

    def dumps(self) -> str:
        lines = [f"qubits {self.n_qubits}"]
        for name, qubits, param in self.gates:
            parts = [name] + [str(q) for q in qubits]
            if param is not None:
                parts.append(repr(param))
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Circuit":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("qubits "):
            raise ValueError("circuit dump must start with a 'qubits N' line")
        circ = cls(int(lines[0].split()[1]))
        for ln in lines[1:]:
            toks = ln.split()
            name = toks[0]
            if name in SINGLE_QUBIT_GATES:
                q = int(toks[1])
                param = float(toks[2]) if len(toks) > 2 else None
                circ.gates.append((name, (q,), param))
            elif name in TWO_QUBIT_GATES:
                circ.gates.append((name, (int(toks[1]), int(toks[2])), None))
            else:
                raise ValueError(f"unknown gate {name!r}")
        return circ


class Statevector:
    """Complex amplitude vector; bit j of the index is qubit j."""

    def __init__(self, amplitudes, n_qubits: int | None = None):
        self.amplitudes = np.asarray(amplitudes, dtype=complex)
        if n_qubits is None:
            n_qubits = int(self.amplitudes.size).bit_length() - 1
        if self.amplitudes.size != 1 << n_qubits:
            raise ValueError("amplitude length is not a power of two")
        self.n_qubits = n_qubits
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"statevector norm {norm} deviates from 1")

    @classmethod
    def basis_state(cls, bits: int, n_qubits: int) -> "Statevector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[bits] = 1.0
        return cls(amps, n_qubits)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class NoiseSpec:
    """Global white-noise rate, per-qubit readout assignment matrices, and an
    optional per-CNOT depolarizing rate."""

    global_depolarizing_q: float = 0.0
    readout_flip: np.ndarray | None = None  # shape (n, 2, 2), columns sum to 1
    gate_depolarizing_cnot: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.global_depolarizing_q <= 1.0:
            raise ValueError("global depolarizing rate outside [0, 1]")
        if self.gate_depolarizing_cnot is not None:
            if not 0.0 <= self.gate_depolarizing_cnot <= 1.0:
                raise ValueError("CNOT depolarizing rate outside [0, 1]")
        if self.readout_flip is not None:
            self.readout_flip = np.asarray(self.readout_flip, dtype=float)
            if np.any(self.readout_flip < -1e-12) or np.any(self.readout_flip > 1 + 1e-12):
                raise ValueError("readout probabilities outside [0, 1]")
            cols = self.readout_flip.sum(axis=1)
            if not np.allclose(cols, 1.0, atol=1e-12):
                raise ValueError("assignment matrix columns must sum to 1")

    @classmethod
    def uniform_readout(cls, n_qubits: int, p01: float, p10: float,
                        q: float = 0.0, seed: int = 0,
                        cnot_q: float | None = None) -> "NoiseSpec":
        """Same flip rates on every qubit: p01 = p(0->1), p10 = p(1->0)."""
        a = np.array([[1 - p01, p10], [p01, 1 - p10]], dtype=float)
        mats = np.broadcast_to(a, (n_qubits, 2, 2)).copy()
        return cls(global_depolarizing_q=q, readout_flip=mats,
                   gate_depolarizing_cnot=cnot_q, rng_seed=seed)

    def effective_q(self, n_cnots: int = 0) -> float:
        q = self.global_depolarizing_q
        if self.gate_depolarizing_cnot and n_cnots:
            q = 1.0 - (1.0 - q) * (1.0 - self.gate_depolarizing_cnot) ** n_cnots
        return q


@dataclass
class CountsTable:
    """Sampled outcomes: the distinct outcome indices in increasing order,
    their counts, and the total shot number they sum to."""

    outcomes: np.ndarray
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        self.outcomes = np.asarray(self.outcomes, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.outcomes.shape != self.counts.shape or \
                np.any(np.diff(self.outcomes) <= 0):
            raise ValueError("outcomes must be increasing, one per count")
        if np.any(self.counts < 0) or self.counts.sum() != self.shots:
            raise ValueError("counts do not sum to the declared shot total")

    def vector(self, n_qubits: int) -> np.ndarray:
        """Counts indexed by integer outcome, length 2^n_qubits."""
        out = np.zeros(1 << n_qubits, dtype=np.int64)
        out[self.outcomes] = self.counts
        return out


# ---------------------------------------------------------------------------
# execution


def _apply_1q(amps: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    a = amps.reshape(1 << (n - 1 - q), 2, 1 << q)
    out = np.empty_like(a)
    out[:, 0, :] = mat[0, 0] * a[:, 0, :] + mat[0, 1] * a[:, 1, :]
    out[:, 1, :] = mat[1, 0] * a[:, 0, :] + mat[1, 1] * a[:, 1, :]
    return out.reshape(-1)


def _apply_2q_adjacent(amps: np.ndarray, mat: np.ndarray, lo: int, n: int) -> np.ndarray:
    # acts on qubits (lo, lo+1); basis order |b_{lo+1} b_lo>
    a = amps.reshape(1 << (n - 2 - lo), 4, 1 << lo)
    out = np.einsum("ij,ajb->aib", mat, a)
    return out.reshape(-1)


def run(circuit: Circuit, initial: Statevector) -> Statevector:
    """Exact unitary application, gate by gate."""
    if circuit.n_qubits != initial.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = circuit.n_qubits
    amps = initial.amplitudes.copy()
    for name, qubits, param in circuit.gates:
        if name in SINGLE_QUBIT_GATES:
            amps = _apply_1q(amps, _mat_1q(name, param), qubits[0], n)
        elif name == "FSWAP":
            amps = _apply_2q_adjacent(amps, _FSWAP, min(qubits), n)
        elif name == "CNOT":
            control, target = qubits
            if abs(control - target) != 1:
                raise ValueError("CNOT on non-adjacent qubits")
            mat = _CNOT_CTRL_LO if control < target else _CNOT_CTRL_HI
            amps = _apply_2q_adjacent(amps, mat, min(qubits), n)
        else:
            raise ValueError(f"unknown gate {name!r}")
    return Statevector(amps, n)


def noisy_distribution(state: Statevector, noise: NoiseSpec,
                       n_cnots: int = 0) -> np.ndarray:
    """Outcome distribution after the white-noise mixture and readout flips."""
    n = state.n_qubits
    q = noise.effective_q(n_cnots)
    p = (1.0 - q) * state.probabilities() + q / (1 << n)
    if noise.readout_flip is not None:
        if noise.readout_flip.shape[0] != n:
            raise ValueError("readout calibration does not cover all qubits")
        for qq in range(n):
            p = _apply_1q(p.astype(float), noise.readout_flip[qq], qq, n).real
    return np.real(p)


def sample(state: Statevector, shots: int, noise: NoiseSpec,
           n_cnots: int = 0, seed: int | None = None) -> CountsTable:
    """Multinomial sampling from the noisy outcome distribution; seeded."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = noisy_distribution(state, noise, n_cnots)
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(noise.rng_seed if seed is None else seed)
    draw = rng.multinomial(shots, p)
    outcomes = np.flatnonzero(draw)
    return CountsTable(outcomes, draw[outcomes], shots)


def expectation(state: Statevector, op: PauliOperator) -> float:
    """Exact <psi|op|psi> for a Hermitian Pauli operator."""
    n = state.n_qubits
    if op.n_qubits != n:
        raise ValueError("qubit-count mismatch")
    amps = state.amplitudes
    idx = np.arange(1 << n, dtype=np.int64)
    total = 0.0 + 0.0j
    for string, coeff in op.terms.items():
        xmask = zmask = 0
        n_y = 0
        for j, p in enumerate(string):
            if p == "X":
                xmask |= 1 << j
            elif p == "Y":
                xmask |= 1 << j
                zmask |= 1 << j
                n_y += 1
            elif p == "Z":
                zmask |= 1 << j
        signs = 1 - 2 * (_popcount(idx & zmask) & 1)
        phase = 1j ** n_y
        total += coeff * phase * np.sum(np.conj(amps[idx ^ xmask]) * signs * amps)
    if abs(total.imag) > 1e-10 * max(1.0, abs(total.real)):
        raise ValueError(f"non-negligible imaginary expectation {total}")
    return float(total.real)


def _popcount(arr: np.ndarray) -> np.ndarray:
    out = np.zeros_like(arr)
    a = arr.copy()
    while np.any(a):
        out += a & 1
        a >>= 1
    return out


# ---------------------------------------------------------------------------
# fermionic action on occupation bitmasks and sector diagonalization


def apply_term_to_mask(dags, anns, mask: int):
    """Act a^dag_{dags} a_{anns} (normal order) on an occupation bitmask.

    Returns (new_mask, sign) or None if the state is annihilated.
    """
    sign = 1
    # annihilations, rightmost written op first (they are sorted ascending,
    # rightmost is the largest)
    for m in reversed(anns):
        bit = 1 << m
        if not mask & bit:
            return None
        if _parity_below(mask, m):
            sign = -sign
        mask ^= bit
    for m in reversed(dags):
        bit = 1 << m
        if mask & bit:
            return None
        if _parity_below(mask, m):
            sign = -sign
        mask ^= bit
    return mask, sign


def _parity_below(mask: int, m: int) -> bool:
    return bool(bin(mask & ((1 << m) - 1)).count("1") & 1)


def rdm_from_statevector(state: Statevector, order: int,
                         n_electrons: int) -> RDM:
    """Exact p-body RDM of a statevector (descending-annihilation convention)."""
    n = state.n_qubits
    amps = state.amplitudes
    nz = [m for m in range(1 << n) if abs(amps[m]) > 1e-14]
    out = RDM(order, n, n_electrons)
    # V(sub, sup) applies annihilations descending: reverse of the ascending
    # normal-order string, sign (-1)^{p(p-1)/2}
    sgn_p = -1 if (order * (order - 1) // 2) % 2 else 1
    for sub in combinations(range(n), order):
        for sup in combinations(range(n), order):
            if sub > sup:
                continue
            acc = 0.0 + 0.0j
            for mask in nz:
                res = apply_term_to_mask(sub, sup, mask)
                if res is None:
                    continue
                new_mask, s = res
                acc += s * np.conj(amps[new_mask]) * amps[mask]
            if abs(acc) > 1e-14:
                v = sgn_p * acc
                out.data[(sub, sup)] = v
                if sub != sup:
                    out.data[(sup, sub)] = v.conjugate()
    return out


def sector_basis(n_modes: int, n_electrons: int, sz=None, spins=None) -> list[int]:
    """Occupation bitmasks with fixed particle number and optional S_z."""
    if spins is None:
        spins = interleaved_spins(n_modes)
    masks = []
    for occ in combinations(range(n_modes), n_electrons):
        if sz is not None and abs(sz_of(occ, spins) - sz) > 1e-9:
            continue
        masks.append(sum(1 << m for m in occ))
    return masks


def operator_matrix_in_sector(op: FermionOperator, basis: list[int]) -> np.ndarray:
    index = {m: i for i, m in enumerate(basis)}
    dim = len(basis)
    mat = np.zeros((dim, dim), dtype=complex)
    for (dags, anns), c in op.terms.items():
        for j, mask in enumerate(basis):
            res = apply_term_to_mask(dags, anns, mask)
            if res is None:
                continue
            new_mask, sign = res
            i = index.get(new_mask)
            if i is not None:
                mat[i, j] += sign * c
    return mat


def exact_diagonalize(op: FermionOperator, n_electrons: int, sz=None,
                      spins=None):
    """Lowest eigenvalue and ground vector in the (N, S_z) Fock-space sector."""
    basis = sector_basis(op.n_modes, n_electrons, sz, spins)
    if not basis:
        raise ValueError("empty symmetry sector")
    mat = operator_matrix_in_sector(op, basis)
    herm_err = np.max(np.abs(mat - mat.conj().T))
    if herm_err > 1e-9:
        raise ValueError(f"operator not particle-conserving/Hermitian in sector "
                         f"(residual {herm_err:.2e})")
    if len(basis) <= 600:
        vals, vecs = np.linalg.eigh(mat)
        energy, vec = vals[0], vecs[:, 0]
    else:
        sp = scipy.sparse.csr_matrix(mat)
        vals, vecs = scipy.sparse.linalg.eigsh(sp, k=1, which="SA")
        energy, vec = vals[0], vecs[:, 0]
    amps = np.zeros(1 << op.n_modes, dtype=complex)
    for i, mask in enumerate(basis):
        amps[mask] = vec[i]
    return float(energy), Statevector(amps, op.n_modes)
