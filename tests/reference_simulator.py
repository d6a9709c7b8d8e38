"""State-vector oracles on amplitude arrays: Pauli expectations, exact
p-RDMs, and fermionic action on one occupation bitmask at a time.

The first two act on the full 2^n amplitude vector with no use of the
measurement plan, so they check the sampled and assembled estimates
independently. ``apply_term_to_mask`` and ``operator_matrix`` are the
per-term, per-state loops that ``simulator.apply_terms`` and
``simulator.operator_matrix_in_sector`` replace, kept as their oracle.
``circuit_depth`` is a circuit's layer count, which the tests read and the
pipeline does not.
"""
from itertools import combinations

import numpy as np

from qcmoments.fermion import PauliOperator
from qcmoments.rdm import RDM


def basis_state(bits: int, n_qubits: int) -> np.ndarray:
    """Amplitudes of the computational basis state |bits> on n qubits."""
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[bits] = 1.0
    return amps


def circuit_depth(circ) -> int:
    """Minimal dependency layering of a Circuit after decomposing FSWAP into
    3 CNOTs."""
    avail = [0] * circ.n_qubits
    for name, qubits, _ in circ.gates:
        slots = 3 if name == "FSWAP" else 1
        start = max(avail[q] for q in qubits)
        for q in qubits:
            avail[q] = start + slots
    return max(avail) if avail else 0


def expectation(amps: np.ndarray, op: PauliOperator) -> float:
    """Exact <psi|op|psi> for a Hermitian Pauli operator."""
    n = op.n_qubits
    if len(amps) != 1 << n:
        raise ValueError("qubit-count mismatch")
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


def rdm_from_statevector(amps: np.ndarray, order: int,
                         n_electrons: int) -> RDM:
    """Exact p-body RDM of a state's amplitudes (descending-annihilation
    convention)."""
    n = len(amps).bit_length() - 1
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


def operator_matrix(op, basis) -> np.ndarray:
    """Matrix of `op` on the occupation bitmasks `basis`, one term and one
    state at a time."""
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
