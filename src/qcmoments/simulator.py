"""Circuit simulation on complex amplitude arrays (bit j of the index is
qubit j): circuits, noise channels, sampling, sector diagonalization.

Two-qubit gates are restricted to adjacent qubits of a linear array; gate
kernels act on the last axis, so :func:`run` evolves one state or a stack
of states alike. Noise is applied at sampling time, to a matrix of
distributions at once: a global white-noise mixture at each row's own rate
(:func:`white_noise_rate` of its circuit's CNOTs), then per-qubit readout
flips (:func:`assignment_matrices`).
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

    def add(self, name, qubits, param):
        """Append gate `name` on the tuple `qubits`, with angle `param`."""
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} out of range")
        if len(qubits) == 2 and abs(qubits[0] - qubits[1]) != 1:
            raise ValueError(f"{name} on non-adjacent qubits {qubits[0]},"
                             f"{qubits[1]}")
        self.gates.append((name, qubits, param))
        return self

    def h(self, q):
        return self.add("H", (q,), None)

    def s(self, q):
        return self.add("S", (q,), None)

    def sdg(self, q):
        return self.add("SDG", (q,), None)

    def x(self, q):
        return self.add("X", (q,), None)

    def ry(self, q, theta):
        return self.add("RY", (q,), float(theta))

    def rz(self, q, theta):
        return self.add("RZ", (q,), float(theta))

    def cnot(self, control, target):
        return self.add("CNOT", (control, target), None)

    def fswap(self, q1, q2):
        return self.add("FSWAP", (min(q1, q2), max(q1, q2)), None)

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


def check_norm(amplitudes: np.ndarray):
    """Raise ValueError unless the amplitudes have norm 1 within 1e-10."""
    norm = np.linalg.norm(amplitudes)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"statevector norm {norm} deviates from 1")


def assignment_matrices(p01, p10) -> np.ndarray:
    """Per-qubit readout assignment matrices (..., n, 2, 2) from the flip
    rates p01 = p(read 1 | true 0) and p10 = p(read 0 | true 1), each of
    shape (..., n); column y holds p(read x | true y)."""
    p01, p10 = np.asarray(p01, dtype=float), np.asarray(p10, dtype=float)
    return np.stack([1 - p01, p10, p01, 1 - p10],
                    axis=-1).reshape(p01.shape + (2, 2))


def white_noise_rate(global_q, cnot_q, n_cnots) -> float:
    """White-noise rate of a circuit of `n_cnots` CNOTs: the global rate
    compounded with a depolarizing rate `cnot_q` per CNOT,
    1 - (1 - global_q)(1 - cnot_q)^n_cnots; `global_q` alone when `cnot_q`
    is None or 0 or the circuit has no CNOT."""
    if cnot_q and n_cnots:
        return 1.0 - (1.0 - global_q) * (1.0 - cnot_q) ** n_cnots
    return global_q


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
    """`mat` (..., 2, 2) applied to qubit q of each row (last axis) of
    `amps`; leading axes of `mat` pair with the leading axes of `amps`."""
    a = amps.reshape(mat.shape[:-2] + (-1, 2, 1 << q))
    m = mat[..., None, None]    # entries broadcast over a's last two axes
    out = np.empty_like(a)
    term = np.empty_like(a[..., 0, :])  # the one temporary, half of `amps`
    for i in (0, 1):
        np.multiply(m[..., i, 0, :, :], a[..., 0, :], out=out[..., i, :])
        out[..., i, :] += np.multiply(m[..., i, 1, :, :], a[..., 1, :],
                                      out=term)
    return out.reshape(amps.shape)


def _permute_pair(amps: np.ndarray, perm, lo: int, negate_11: bool):
    # acts on qubits (lo, lo+1); basis order |b_{lo+1} b_lo>
    out = amps.reshape(-1, 4, 1 << lo)[:, perm]
    if negate_11:
        out[:, 3] = -out[:, 3]
    return out.reshape(amps.shape)


def run(circuit: Circuit, initial) -> np.ndarray:
    """Exact gate-by-gate evolution of the amplitudes `initial`, one state
    (2^n) or a stack (k x 2^n); returns new amplitudes of the same shape."""
    amps = np.array(initial, dtype=complex)
    if amps.shape[-1] != 1 << circuit.n_qubits:
        raise ValueError("qubit-count mismatch")
    for name, qubits, param in circuit.gates:
        if name in SINGLE_QUBIT_GATES:
            amps = apply_1q(amps, _mat_1q(name, param), qubits[0])
        elif name == "FSWAP":
            amps = _permute_pair(amps, _FSWAP, min(qubits), True)
        elif name == "CNOT":
            control, target = qubits
            perm = _CNOT_CTRL_LO if control < target else _CNOT_CTRL_HI
            amps = _permute_pair(amps, perm, min(qubits), False)
        else:
            raise ValueError(f"unknown gate {name!r}")
    return amps


def noisy_distribution(probs, q, readout_flip) -> np.ndarray:
    """Each row of the (rows x 2^n) ideal distributions `probs` mixed with
    white noise at its own rate ``q[row]``, then read through the per-qubit
    assignment matrices `readout_flip` (n x 2 x 2)."""
    dim = np.shape(probs)[1]
    if 1 << len(readout_flip) != dim:
        raise ValueError("readout calibration does not cover all qubits")
    q = np.asarray(q, dtype=float)[:, None]
    p = (1.0 - q) * probs
    p += q / dim
    for qubit, flip in enumerate(readout_flip):
        p = apply_1q(p, flip, qubit)
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

#: parity of the set bits of each byte value
_BYTE_PARITY = np.array([bin(b).count("1") & 1 for b in range(256)], np.int8)
#: most (term, state) pairs that one pass of the matrix builder holds
_MATRIX_CHUNK = 1 << 18


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each non-negative int64, by folding the
    word onto its low byte."""
    x = x ^ (x >> 32)
    x ^= x >> 16
    x ^= x >> 8
    return _BYTE_PARITY[x & 0xFF]


def apply_terms(keys, masks):
    """Each normal-ordered term a†_dags a_anns of `keys`, a list of (dags,
    anns) tuples, applied to the occupation bitmasks `masks`, which broadcast
    against (terms, 1): a row of states for every term, or a column of one
    state per term. The rightmost operator acts first, each with sign
    (-1)^(occupied modes below it). Returns (new_masks, signs, alive); where
    `alive` is False the state is annihilated."""
    width = max((len(d) + len(a) for d, a in keys), default=0)
    # each term's operators in acting order; padding acts on no bit
    bits = np.zeros((len(keys), width), dtype=np.int64)
    creates = np.ones((len(keys), width), dtype=bool)
    for t, (dags, anns) in enumerate(keys):
        acting = tuple(anns)[::-1] + tuple(dags)[::-1]
        bits[t, :len(acting)] = [1 << m for m in acting]
        creates[t, :len(anns)] = False
    # a fresh array of the broadcast shape
    new = np.asarray(masks, dtype=np.int64) | np.zeros((len(keys), 1), int)
    parity = np.zeros(new.shape, dtype=np.int8)
    alive = np.ones(new.shape, dtype=bool)
    for bit, create in zip(bits.T[:, :, None], creates.T[:, :, None]):
        alive &= ((new & bit) != 0) != create
        parity ^= _parity(new & np.maximum(bit - 1, 0))
        new ^= bit
    return new, 1 - 2 * parity, alive


def locate(basis: np.ndarray, masks: np.ndarray):
    """Index in `basis` of each of `masks`, and whether it is there."""
    order = np.argsort(basis)
    pos = np.searchsorted(basis, masks, sorter=order)
    index = order[np.minimum(pos, len(basis) - 1)]
    return index, basis[index] == masks


def sector_basis(n_modes: int, n_electrons: int, sz=None, spins=None) -> list[int]:
    """Occupation bitmasks with fixed particle number and optional S_z."""
    spins = interleaved_spins(n_modes) if spins is None else spins
    return [sum(1 << m for m in occ)
            for occ in combinations(range(n_modes), n_electrons)
            if sz is None or abs(sz_of(occ, spins) - sz) <= 1e-9]


def operator_matrix_in_sector(op: FermionOperator, basis) -> np.ndarray:
    """Matrix of `op` on the occupation bitmasks `basis`: column j is op
    applied to basis[j], with the amplitudes that leave `basis` dropped.
    Entries accumulate term by term in ``op.terms`` order."""
    basis = np.asarray(basis, dtype=np.int64)
    dim = len(basis)
    mat = np.zeros((dim, dim), dtype=complex)
    keys, coeffs = list(op.terms), np.array(list(op.terms.values()),
                                            dtype=complex)
    step = max(1, _MATRIX_CHUNK // max(dim, 1))
    for start in range(0, len(keys) if dim else 0, step):
        new, signs, alive = apply_terms(keys[start:start + step], basis)
        rows, inside = locate(basis, new)
        hit = alive & inside
        cols = np.broadcast_to(np.arange(dim), hit.shape)
        np.add.at(mat, (rows[hit], cols[hit]),
                  (signs * coeffs[start:start + step, None])[hit])
    return mat


def exact_diagonalize(op: FermionOperator, n_electrons: int, sz=None):
    """Lowest eigenvalue and the amplitudes (2^n) of its ground vector in the
    (N, S_z) Fock-space sector of interleaved spins."""
    basis = sector_basis(op.n_modes, n_electrons, sz)
    if not basis:
        raise ValueError("empty symmetry sector")
    mat = operator_matrix_in_sector(op, basis)
    herm_err = np.max(np.abs(mat - mat.conj().T))
    if herm_err > 1e-9:
        raise ValueError(f"operator not particle-conserving/Hermitian in sector "
                         f"(residual {herm_err:.2e})")
    vals, vecs = np.linalg.eigh(mat)
    amps = np.zeros(1 << op.n_modes, dtype=complex)
    amps[basis] = vecs[:, 0]
    return float(vals[0]), amps
