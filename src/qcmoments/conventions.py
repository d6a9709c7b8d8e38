"""Shared index and spin conventions.

Spatial orbital p maps to spin-orbitals 2p (spin up) and 2p+1 (spin down).
Qubit j carries spin-orbital j under the Jordan-Wigner encoding; bit j of a
statevector index is the occupation of mode j.
"""
from __future__ import annotations

UP = "u"
DOWN = "d"


def interleaved_spins(n_modes: int) -> tuple[str, ...]:
    """Default spin labels: even modes up, odd modes down."""
    return tuple(UP if m % 2 == 0 else DOWN for m in range(n_modes))


def sz_of(occupied, spins) -> float:
    up = sum(1 for m in occupied if spins[m] == UP)
    down = sum(1 for m in occupied if spins[m] == DOWN)
    return 0.5 * (up - down)
