"""Statevector simulation: circuits, noise channels, sampling, sector
diagonalization.

Two-qubit gates are restricted to adjacent qubits of a linear array; gate
kernels act on the last axis, so :func:`run` evolves a stack of states at
once. Noise is applied at sampling time, to a matrix of distributions at
once: a global white-noise mixture, then per-qubit readout flips.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import cos, sin, sqrt

import numpy as np

from .conventions import interleaved_spins, sz_of
from .fermion import FermionOperator

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


# basis order |b_hi b_lo> = 00, 01, 10, 11 (lo = lower qubit index): each
# two-qubit gate permutes these four entries, and FSWAP also negates |11>
_FSWAP = [0, 2, 1, 3]
_CNOT_CTRL_LO = [0, 3, 2, 1]
_CNOT_CTRL_HI = [0, 1, 3, 2]


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

    # -- metrics

    def cnot_count(self) -> int:
        """CNOT count with FSWAP counted at its 3-CNOT decomposition."""
        return sum(3 if name == "FSWAP" else 1
                   for name, _, _ in self.gates if name in TWO_QUBIT_GATES)

    def depth(self) -> int:
        """Minimal dependency layering after decomposing FSWAP into 3 CNOTs."""
        avail = [0] * self.n_qubits
        for name, qubits, _ in self.gates:
            slots = 3 if name == "FSWAP" else 1
            start = max(avail[q] for q in qubits)
            for q in qubits:
                avail[q] = start + slots
        return max(avail) if avail else 0


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


@dataclass
class NoiseSpec:
    """Global white-noise rate, per-qubit readout assignment matrices, and an
    optional per-CNOT depolarizing rate."""

    global_depolarizing_q: float = 0.0
    readout_flip: np.ndarray | None = None  # shape (n, 2, 2), columns sum to 1
    gate_depolarizing_cnot: float | None = None

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
                        q: float = 0.0,
                        cnot_q: float | None = None) -> "NoiseSpec":
        """Same flip rates on every qubit: p01 = p(0->1), p10 = p(1->0)."""
        a = np.array([[1 - p01, p10], [p01, 1 - p10]], dtype=float)
        mats = np.broadcast_to(a, (n_qubits, 2, 2)).copy()
        return cls(global_depolarizing_q=q, readout_flip=mats,
                   gate_depolarizing_cnot=cnot_q)

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


def apply_1q(amps: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    """`mat` (2x2) applied to qubit q of each row (last axis) of `amps`."""
    a = amps.reshape(-1, 2, 1 << q)
    out = np.empty_like(a)
    out[:, 0] = mat[0, 0] * a[:, 0] + mat[0, 1] * a[:, 1]
    out[:, 1] = mat[1, 0] * a[:, 0] + mat[1, 1] * a[:, 1]
    return out.reshape(amps.shape)


def _permute_pair(amps: np.ndarray, perm, lo: int, negate_11: bool):
    # acts on qubits (lo, lo+1); basis order |b_{lo+1} b_lo>
    out = amps.reshape(-1, 4, 1 << lo)[:, perm]
    if negate_11:
        out[:, 3] = -out[:, 3]
    return out.reshape(amps.shape)


def run(circuit: Circuit, initial):
    """Exact gate-by-gate evolution of a Statevector or a (k x 2^n) stack."""
    stacked = not isinstance(initial, Statevector)
    amps = np.array(initial if stacked else initial.amplitudes, dtype=complex)
    n = circuit.n_qubits
    if amps.shape[-1] != 1 << n:
        raise ValueError("qubit-count mismatch")
    for name, qubits, param in circuit.gates:
        if name in SINGLE_QUBIT_GATES:
            amps = apply_1q(amps, _mat_1q(name, param), qubits[0])
        elif name == "FSWAP":
            amps = _permute_pair(amps, _FSWAP, min(qubits), True)
        elif name == "CNOT":
            control, target = qubits
            if abs(control - target) != 1:
                raise ValueError("CNOT on non-adjacent qubits")
            perm = _CNOT_CTRL_LO if control < target else _CNOT_CTRL_HI
            amps = _permute_pair(amps, perm, min(qubits), False)
        else:
            raise ValueError(f"unknown gate {name!r}")
    return amps if stacked else Statevector(amps, n)


def noisy_distribution(probs: np.ndarray, noise: NoiseSpec,
                       n_cnots) -> np.ndarray:
    """Each row of the (rows x 2^n) ideal distributions `probs` after the
    white-noise mixture at its circuit's CNOT count and the readout flips."""
    dim = np.shape(probs)[1]
    q = np.array([noise.effective_q(int(c)) for c in n_cnots])[:, None]
    p = (1.0 - q) * probs + q / dim
    if noise.readout_flip is not None:
        if 1 << noise.readout_flip.shape[0] != dim:
            raise ValueError("readout calibration does not cover all qubits")
        for qq, flip in enumerate(noise.readout_flip):
            p = apply_1q(p, flip, qq)
    return p


def sample(distribution: np.ndarray, shots: int, *, seed: int) -> CountsTable:
    """Seeded draw from a noisy_distribution row, clipped and renormalized."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = np.clip(distribution, 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    draw = rng.multinomial(shots, p)
    outcomes = np.flatnonzero(draw)
    return CountsTable(outcomes, draw[outcomes], shots)


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


def exact_diagonalize(op: FermionOperator, n_electrons: int, sz=None):
    """Lowest eigenvalue and ground vector in the (N, S_z) Fock-space sector
    of interleaved spins."""
    basis = sector_basis(op.n_modes, n_electrons, sz)
    if not basis:
        raise ValueError("empty symmetry sector")
    mat = operator_matrix_in_sector(op, basis)
    herm_err = np.max(np.abs(mat - mat.conj().T))
    if herm_err > 1e-9:
        raise ValueError(f"operator not particle-conserving/Hermitian in sector "
                         f"(residual {herm_err:.2e})")
    vals, vecs = np.linalg.eigh(mat)
    energy, vec = vals[0], vecs[:, 0]
    amps = np.zeros(1 << op.n_modes, dtype=complex)
    for i, mask in enumerate(basis):
        amps[mask] = vec[i]
    return float(energy), Statevector(amps, op.n_modes)
