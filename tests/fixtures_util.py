"""Shared molecular fixtures for the integration-level tests.

Loads the committed FCIDUMP files (see scripts/make_fixtures.py), builds
their spin-orbital Hamiltonians and reference ansatz definitions, and
caches classically optimized trial parameters and normal-ordered
Hamiltonian powers.
"""
import functools
import pathlib

import numpy as np
import scipy.optimize

from qcmoments.integrals import load_fcidump, spin_orbital_hamiltonian
from qcmoments.qcm import hamiltonian_powers
from qcmoments.simulator import operator_matrix_in_sector
from qcmoments.trial import Ansatz, Excitation, exact_trial_state

DATA_DIR = pathlib.Path(__file__).parent / "data"

H2_PATH = DATA_DIR / "h2_stretched.fcidump"
H4_PATH = DATA_DIR / "h4_chain.fcidump"


@functools.lru_cache(maxsize=None)
def h2_system():
    """Stretched H2 in a minimal basis: 4 spin-orbitals, 2 electrons."""
    ints = load_fcidump(H2_PATH)
    h = spin_orbital_hamiltonian(ints)
    ansatz = Ansatz(4, 0b0011, [Excitation((2, 3), (0, 1))])
    return ints, h, ansatz


@functools.lru_cache(maxsize=None)
def h4_system():
    """Four-site Hubbard chain in its orbital basis: 8 spin-orbitals,
    4 electrons, four paired double excitations."""
    ints = load_fcidump(H4_PATH)
    h = spin_orbital_hamiltonian(ints)
    excitations = [
        Excitation((4, 5), (2, 3)),
        Excitation((6, 7), (2, 3)),
        Excitation((4, 5), (0, 1)),
        Excitation((6, 7), (0, 1)),
    ]
    ansatz = Ansatz(8, 0b00001111, excitations)
    return ints, h, ansatz


_POWERS: dict = {}


def shared_powers(h) -> list:
    """``qcm.hamiltonian_powers(h)``, built once per session for each
    distinct operator (its mode count and its terms, in order). The H4
    powers take seconds, and several tests read them; none may mutate
    them."""
    key = (h.n_modes, tuple(h.terms.items()))
    if key not in _POWERS:
        _POWERS[key] = hamiltonian_powers(h)
    return _POWERS[key]


@functools.lru_cache(maxsize=None)
def dense_fock_matrix(which: str) -> np.ndarray:
    """Full 2^n-dimensional matrix of the fixture Hamiltonian."""
    _, h, _ = h2_system() if which == "h2" else h4_system()
    return operator_matrix_in_sector(h, list(range(1 << h.n_modes)))


def trial_energy(ansatz: Ansatz, thetas, hmat: np.ndarray) -> float:
    state = exact_trial_state(ansatz.with_thetas(thetas))
    return float(np.real(np.vdot(state, hmat @ state)))


@functools.lru_cache(maxsize=None)
def optimized_thetas(which: str) -> tuple:
    """Deterministically optimized trial amplitudes for a fixture."""
    _, _, ansatz = h2_system() if which == "h2" else h4_system()
    hmat = dense_fock_matrix(which)
    res = scipy.optimize.minimize(
        lambda t: trial_energy(ansatz, t, hmat),
        np.zeros(len(ansatz.excitations)), method="Powell",
        options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 5000})
    return tuple(float(t) for t in res.x)
