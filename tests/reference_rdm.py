"""Dict-RDM helpers that only the tests use: the exact RDM of a Slater
determinant and the dense matricized form of an RDM."""
from itertools import combinations

import numpy as np

from qcmoments.mitigation import check_representability
from qcmoments.rdm import RDM


def rdm_from_determinant(occupied, n_modes: int, order: int) -> RDM:
    """Exact p-RDM of a single Slater determinant."""
    occ = set(occupied)
    out = RDM(order, n_modes, len(occ))
    for sub in combinations(sorted(occ), order):
        out.data[(sub, sub)] = 1.0 + 0.0j
    return out


def matricize(rdm: RDM) -> np.ndarray:
    """Dense matrix over the sorted index tuples, in combinations order."""
    keys = list(combinations(range(rdm.n_modes), rdm.order))
    return np.array([[rdm.get(sub, sup) for sup in keys] for sub in keys],
                    dtype=complex)


def rdm_representability(rdm: RDM) -> dict:
    """``mitigation.check_representability`` of the matricized RDM."""
    return check_representability(matricize(rdm), rdm.ideal_trace())
