"""Moment oracles: statevector moments and the variance condition."""
import numpy as np

from qcmoments.fermion import FermionOperator
from qcmoments.qcm import MomentSet
from qcmoments.simulator import Statevector, operator_matrix_in_sector


def moments_from_statevector(h: FermionOperator,
                             state: Statevector) -> MomentSet:
    """Oracle moments via the dense Fock-space matrix of H."""
    if h.n_modes != state.n_qubits:
        raise ValueError("mode-count mismatch")
    basis = list(range(1 << h.n_modes))
    mat = operator_matrix_in_sector(h, basis)
    vec = state.amplitudes
    vals = []
    cur = vec
    for _ in range(4):
        cur = mat @ cur
        vals.append(float(np.real(np.vdot(vec, cur))))
    return MomentSet(*vals)


def validate_moments(m: MomentSet, tol: float = 1e-9) -> MomentSet:
    """Variance nonnegativity; holds for moments of any valid state."""
    if m.m2 < m.m1 ** 2 - tol:
        raise ValueError(
            f"moment set has negative variance: m2 - m1^2 = "
            f"{m.m2 - m.m1 ** 2}")
    return m
