"""Trial-state construction: Hartree-Fock preparation, fermionic swap
routing, double-excitation blocks, Trotterized double-excitation products,
and SPSA optimization with an exact coordinate polish.

A double excitation G(theta) = exp(theta (a+_j a+_k a_l a_m - h.c.)) is
implemented by routing the four modes with FSWAPs into the window of adjacent
qubits that needs the fewest and applying a local 4-qubit block: one
Pauli-phase gadget on a shared CNOT ladder per X/Y string of the generator's
Jordan-Wigner image. The window and the gadget angles both have closed forms.
When the basis states reachable from the initial determinant allow it, a
cheaper template (a Givens-rotation ladder or a pair-compressed controlled
rotation) replaces the block, chosen from a constant table of the patterns on
which each template is exact; a tier-1 test recomputes it by simulation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conventions import interleaved_spins
from .fermion import FermionOperator, sort_sign
from .simulator import (
    Circuit, apply_terms, check_norm, operator_matrix_in_sector, sector_basis,
)


# ---------------------------------------------------------------------------
# basic state preparation


def hartree_fock_circuit(n_qubits: int, occupation: int) -> Circuit:
    """X gates on the occupied qubits of a determinant bitmask."""
    if occupation < 0 or occupation >= 1 << n_qubits:
        raise ValueError("occupation mask out of range")
    circ = Circuit(n_qubits)
    for q in range(n_qubits):
        if occupation >> q & 1:
            circ.x(q)
    return circ


# ---------------------------------------------------------------------------
# excitations and ansatz


@dataclass
class Excitation:
    """Double excitation a+_{c1} a+_{c2} a_{a1} a_{a2} with amplitude theta."""

    creations: tuple
    annihilations: tuple
    theta: float = 0.0

    def __post_init__(self):
        idx = tuple(self.creations) + tuple(self.annihilations)
        if len(idx) != 4 or len(set(idx)) != 4:
            raise ValueError("excitation requires four distinct mode indices")

    def modes(self) -> tuple:
        return tuple(self.creations) + tuple(self.annihilations)

    def validate_spin(self, spins):
        cs = sorted(spins[m] for m in self.creations)
        as_ = sorted(spins[m] for m in self.annihilations)
        if cs != as_:
            raise ValueError(f"excitation {self} does not conserve spin")

    def generator(self, n_modes: int) -> FermionOperator:
        """Anti-Hermitian generator T - T^dag (unit amplitude), written as
        keys: T normal-ordered is (C, A) with C and A sorted, signed by
        both sorts, and T^dag is (A, C) with the same sign."""
        (c, sc), (a, sa) = (sort_sign(self.creations),
                            sort_sign(self.annihilations))
        s = float(sc * sa)
        return FermionOperator(n_modes, {(c, a): s, (a, c): -s})


@dataclass
class Ansatz:
    """Ordered excitation list applied to an initial determinant.

    The first excitation in the list is applied first (rightmost factor of
    the Trotter product). ``initial_layout[i]`` is the logical mode held by
    physical qubit i at circuit start.
    """

    n_qubits: int
    initial_occupation: int
    excitations: list = field(default_factory=list)
    initial_layout: tuple | None = None
    spins: tuple | None = None

    def __post_init__(self):
        if self.initial_layout is None:
            self.initial_layout = tuple(range(self.n_qubits))
        if sorted(self.initial_layout) != list(range(self.n_qubits)):
            raise ValueError("initial_layout is not a permutation")
        if self.spins is None:
            self.spins = interleaved_spins(self.n_qubits)
        for exc in self.excitations:
            exc.validate_spin(self.spins)

    @property
    def thetas(self) -> np.ndarray:
        return np.array([e.theta for e in self.excitations], dtype=float)

    def with_thetas(self, thetas) -> "Ansatz":
        if len(thetas) != len(self.excitations):
            raise ValueError("parameter count must equal excitation count")
        excs = [Excitation(e.creations, e.annihilations, float(t))
                for e, t in zip(self.excitations, thetas)]
        return Ansatz(self.n_qubits, self.initial_occupation, excs,
                      self.initial_layout, self.spins)


def excitation_exponential(g: np.ndarray, theta: float,
                           x: np.ndarray) -> np.ndarray:
    """exp(theta*G) x for the matrix g of an ``Excitation.generator`` G.

    Every such G satisfies G^3 = -G, so the exponential is
    1 + sin(theta) G + (1 - cos(theta)) G^2.
    """
    gx = g @ x
    return x + np.sin(theta) * gx + (1.0 - np.cos(theta)) * (g @ gx)


def _sector_trial(ansatz: Ansatz):
    """(basis, state): the N-electron occupations of the initial determinant,
    and thetas -> the trial state's amplitudes on them. Excitations conserve
    N, so each generator's matrix is built once, on these occupations."""
    n = ansatz.n_qubits
    basis = sector_basis(n, bin(ansatz.initial_occupation).count("1"))
    gens = [operator_matrix_in_sector(exc.generator(n), basis)
            for exc in ansatz.excitations]
    start = (np.array(basis) == ansatz.initial_occupation).astype(complex)

    def state(thetas):
        if len(thetas) != len(gens):
            raise ValueError("parameter count must equal excitation count")
        x = start
        for g, theta in zip(gens, thetas):
            x = excitation_exponential(g, theta, x)
        check_norm(x)
        return x

    return basis, state


def exact_trial_state(ansatz: Ansatz) -> np.ndarray:
    """Amplitudes (2^n) of the product of the exact excitation exponentials
    applied to the initial determinant (identity layout)."""
    basis, state = _sector_trial(ansatz)
    amps = np.zeros(1 << ansatz.n_qubits, dtype=complex)
    amps[basis] = state(ansatz.thetas)
    return amps


def energy_objective(ansatz: Ansatz, h: FermionOperator):
    """thetas -> <H> in the exact trial state of ``ansatz`` at those
    amplitudes, with H built once on the trial state's occupations."""
    basis, state = _sector_trial(ansatz)
    hmat = operator_matrix_in_sector(h, basis)

    def objective(thetas):
        x = state(thetas)
        return float(np.real(np.vdot(x, hmat @ x)))

    return objective


# ---------------------------------------------------------------------------
# fermionic swap routing


def fswap_network(targets, layout):
    """FSWAP sequence bringing the target logical modes to adjacent qubits.

    Returns (circuit, new_layout, window_start). The targets end up in a
    contiguous window in their current relative order, the other modes keep
    theirs. A window at s makes target r (in layout order) pass |q_r - s|
    other modes, q_r its position minus r, so the swap count, which is
    optimal, is the sum; its first minimizer is the lower median of q.
    """
    targets = set(targets)
    if len(targets) < 1 or not targets <= set(layout):
        raise ValueError("invalid routing targets")
    positions = [i for i, m in enumerate(layout) if m in targets]
    q = [i - r for r, i in enumerate(positions)]
    start = q[(len(q) - 1) // 2]
    others = [m for m in layout if m not in targets]
    final = others[:start] + [layout[i] for i in positions] + others[start:]
    circ, new_layout = _fswap_sort(layout, {m: i for i, m in enumerate(final)})
    return circ, new_layout, start


def _fswap_sort(layout, final_pos) -> tuple:
    """Bubble sort of ``layout`` by ``final_pos[mode]`` with adjacent FSWAPs.

    Returns (circuit, sorted_layout)."""
    n_qubits = len(layout)
    circ = Circuit(n_qubits)
    cur = list(layout)
    changed = True
    while changed:
        changed = False
        for i in range(n_qubits - 1):
            if final_pos[cur[i]] > final_pos[cur[i + 1]]:
                circ.fswap(i, i + 1)
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                changed = True
    return circ, tuple(cur)


# ---------------------------------------------------------------------------
# local double-excitation block (exact Pauli-gadget synthesis)

_LADDER = ((3, 2), (2, 1), (1, 0))  # parity accumulates at qubit 0


def _pauli_gadget_block(exc: Excitation, theta: float) -> Circuit:
    """Exact circuit for exp(theta * G) on 4 qubits, G the generator of the
    local excitation `exc` with creations C and annihilations A.

    Jordan-Wigner maps T to ``sort_sign(C + A)`` times the product over the
    modes of (X_j -+ iY_j) / 2 (minus for a creation), with a Z left on
    qubits 0 and 2 that flips an annihilation's sign there. So G = T - T^dag
    sums, over the odd-size sets Y, i sigma / 8 * (+1 if |Y| = 1, else -1)
    * (-1)^|Y & C| times the X/Y string with Y on Y, where
    sigma = ``sort_sign(C + A)`` * (-1)^|A & {0, 2}|.
    """
    cre, ann = set(exc.creations), set(exc.annihilations)
    sigma = sort_sign(exc.modes())[1] * (-1) ** len(ann & {0, 2}) / 8

    def coeff(yset):  # of the string with Y on yset, divided by i
        return sigma * (1 if len(yset) == 1 else -1) * (-1) ** len(yset & cre)

    # Gray-code order over Y-position sets; transitions costing fewer CNOTs
    # (changes on low qubits) are used most often
    g1, g2, g3 = frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})
    yset = frozenset({0})
    order = [yset]
    for g in (g1, g2, g1, g3, g1, g2, g1):
        yset = yset ^ g
        order.append(yset)

    circ = Circuit(4)

    def basis_open(j, is_y):
        if is_y:
            circ.sdg(j)
        circ.h(j)

    def basis_close(j, is_y):
        circ.h(j)
        if is_y:
            circ.s(j)

    def junction(j, to_y):
        # net basis change on a changing qubit, pushed through the shared
        # CNOT ladders; only the CNOTs below qubit j survive cancellation
        for a, b in reversed(_LADDER[3 - j:]):
            circ.cnot(a, b)
        circ.h(j)
        if to_y:
            circ.sdg(j)
        else:
            circ.s(j)
        circ.h(j)
        for a, b in _LADDER[3 - j:]:
            circ.cnot(a, b)

    first, last = order[0], order[-1]
    for j in range(4):
        basis_open(j, j in first)
    for a, b in _LADDER:
        circ.cnot(a, b)
    circ.rz(0, -2.0 * theta * coeff(first))
    for prev, cur in zip(order, order[1:]):
        for j in sorted(prev ^ cur):
            junction(j, j in cur)
        circ.rz(0, -2.0 * theta * coeff(cur))
    for a, b in reversed(_LADDER):
        circ.cnot(a, b)
    for j in range(4):
        basis_close(j, j in last)
    return circ


# ---------------------------------------------------------------------------
# initial-state-aware simplified blocks


def _template_candidates(theta: float):
    """Local 4-qubit circuit builders in increasing cost order."""

    def givens_ladder(rot_q, sign):
        # single-branch rotation: valid when the only reachable patterns lie
        # on one side of the excitation
        circ = Circuit(4)
        circ.ry(rot_q, sign * 2.0 * theta)
        if rot_q == 3:
            circ.cnot(3, 2).cnot(2, 1).cnot(1, 0).x(0)
        else:
            circ.cnot(0, 1).cnot(1, 2).cnot(2, 3).x(3)
        return circ

    def paired_compress(sign):
        # compress each qubit pair onto a carrier, rotate carriers, uncompress;
        # valid when reachable patterns have both pair qubits equal
        circ = Circuit(4)
        circ.cnot(1, 0).cnot(2, 3)
        alpha = sign * 2.0 * theta
        circ.cnot(2, 1)
        circ.ry(2, 0.5 * alpha).cnot(1, 2).ry(2, -0.5 * alpha).cnot(1, 2)
        circ.cnot(2, 1)
        circ.cnot(2, 3).cnot(1, 0)
        return circ

    yield Circuit(4)  # identity: excitation untouched by reachable states
    for rot_q in (3, 0):
        for sign in (1.0, -1.0):
            yield givens_ladder(rot_q, sign)
    for sign in (1.0, -1.0):
        yield paired_compress(sign)


#: 16-bit masks of the local patterns on which each non-identity template is
#: exact at every theta, per (creation-position bitmask c, sign of
#: ``sort_sign(creations + annihilations)``); (15 - c, -sign) reads (c, sign)
TEMPLATE_MASKS = {
    (3, -1): (0, 0x8, 0x1000, 0, 0xc3c3, 0xd3cb),
    (3, 1): (0x8, 0, 0, 0x1000, 0xd3cb, 0xc3c3),
    (5, -1): (0, 0, 0, 0, 0xc3c3, 0xc7e3),
    (5, 1): (0, 0, 0, 0, 0xc7e3, 0xc3c3),
    (6, -1): (0, 0, 0, 0, 0xc183, 0xc183),
    (6, 1): (0, 0, 0, 0, 0xc183, 0xc183),
}


def simplified_block(exc: Excitation, support) -> Circuit | None:
    """Cheapest of ``_template_candidates`` agreeing with exp(theta*G) of the
    local excitation ``exc`` on the reachable local patterns `support`, or
    None if only the general block works. The identity fits every pattern
    but the two that G connects, the others their ``TEMPLATE_MASKS``."""
    c = sum(1 << m for m in exc.creations)
    sign = sort_sign(exc.modes())[1]
    key = (c, sign) if (c, sign) in TEMPLATE_MASKS else (15 - c, -sign)
    masks = (0xffff & ~(1 << c | 1 << 15 - c),) + TEMPLATE_MASKS[key]
    patterns = sum(1 << p for p in set(support))
    for mask, cand in zip(masks, _template_candidates(exc.theta)):
        if not patterns & ~mask:
            return cand
    return None


# ---------------------------------------------------------------------------
# full trial circuit


@dataclass
class BuiltTrial:
    circuit: Circuit
    layout: tuple           # logical mode held by each physical qubit at end
    block_kinds: list       # per excitation: "identity"/"template"/"general"


def build_uccd(ansatz: Ansatz) -> BuiltTrial:
    """Initial-determinant preparation followed by routed excitation blocks."""
    n = ansatz.n_qubits
    layout = tuple(ansatz.initial_layout)
    # determinant preparation in physical positions; the reordering parity of
    # the occupied modes keeps the state consistent with the mode-order frame
    occ_positions = [pos for pos, mode in enumerate(layout)
                     if ansatz.initial_occupation >> mode & 1]
    circ = hartree_fock_circuit(n, sum(1 << pos for pos in occ_positions))
    occ_modes = [layout[pos] for pos in occ_positions]
    if sort_sign(occ_modes)[1] < 0:
        circ.s(occ_positions[0]).s(occ_positions[0])  # Z on an occupied qubit
    support = {ansatz.initial_occupation}  # masks in logical mode space
    kinds = []
    for exc in ansatz.excitations:
        net, layout, w = fswap_network(exc.modes(), layout)
        circ.extend(net)
        window_modes = layout[w:w + 4]
        local_of = {m: i for i, m in enumerate(window_modes)}
        local = Excitation(tuple(local_of[m] for m in exc.creations),
                           tuple(local_of[m] for m in exc.annihilations),
                           exc.theta)
        # reachable local patterns, then the support that T or T^dag reach
        local_patterns = {sum((mask >> m & 1) << local_of[m]
                              for m in window_modes) for mask in support}
        new, _, alive = apply_terms(list(exc.generator(n).terms),
                                    sorted(support))
        support = support | set(new[alive].tolist())

        block = simplified_block(local, local_patterns)
        if block is None:
            block = _pauli_gadget_block(local, exc.theta)
            kinds.append("general")
        else:
            kinds.append("identity" if not block.gates else "template")
        for name, qubits, param in block.gates:
            circ.add(name, tuple(q + w for q in qubits), param)
    return BuiltTrial(circ, layout, kinds)


# ---------------------------------------------------------------------------
# SPSA optimization


#: SPSA gains a_k = a / (k + 1 + A)^0.602 and c_k = c / (k + 1)^0.101
SPSA_A, SPSA_C, SPSA_BIG_A = 0.1, 0.1, 10.0
#: number of final iterates averaged into each seed's result
SPSA_AVERAGE_LAST = 10
#: a polish sweep that gains less than this ends the polish, and coordinate
#: minima whose model values differ by less than this are ties
SWEEP_TOL = 1e-13


def spsa_minimize(objective, theta0, seeds, max_iter: int):
    """Simultaneous-perturbation minimization from ``theta0`` over several
    seeds, then an exact coordinate polish of the best seed's result.

    Uses the standard gain schedule a_k = a/(k+1+A)^0.602 and
    c_k = c/(k+1)^0.101 (``SPSA_A``, ``SPSA_C``, ``SPSA_BIG_A``) with
    two-sided +/-1 perturbations; each seed's result is the average of its
    last ``SPSA_AVERAGE_LAST`` iterates. The polish (``_sweep``) is exact for
    objectives of degree <= 2 in each coordinate, as every
    ``energy_objective`` is, and it never raises any other objective.

    Returns (best_theta, traces), traces[i] holding seed i's objective values
    at the start and after each iteration. A non-finite value raises
    ValueError.
    """
    theta_init = np.array(theta0, dtype=float)
    if len(theta_init) < 1:
        raise ValueError("theta0 must hold at least one amplitude")

    def check(theta):
        v = objective(theta)
        if not np.isfinite(v):
            raise ValueError("objective returned a non-finite value")
        return float(v)

    results = []
    traces = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        theta = theta_init.copy()
        recent = []
        trace = [check(theta)]
        for k in range(max_iter):
            a_k = SPSA_A / (k + 1 + SPSA_BIG_A) ** 0.602
            c_k = SPSA_C / (k + 1) ** 0.101
            delta = rng.integers(0, 2, size=len(theta)) * 2.0 - 1.0
            f_plus = check(theta + c_k * delta)
            f_minus = check(theta - c_k * delta)
            theta = theta - a_k * (f_plus - f_minus) / (2.0 * c_k) * delta
            recent.append(theta.copy())
            if len(recent) > SPSA_AVERAGE_LAST:
                recent.pop(0)
            trace.append(check(theta))
        theta_avg = np.mean(recent, axis=0) if recent else theta
        results.append((check(theta_avg), theta_avg))
        traces.append(trace)
    best_val, best_theta = min(results, key=lambda r: r[0])
    return _sweep(check, best_theta, best_val), traces


def _sweep(f, theta, value):
    """Coordinate sweeps of f from theta, where f is value, until one gains
    less than ``SWEEP_TOL``; returns the final theta.

    At degree <= 2 in theta_k, f(theta_k + phi) = a0 + Re(c1 e^{i phi}
    + c2 e^{2i phi}), with c_m = a_m - i b_m read off the DFT of five samples
    at phi = 2 pi j / 5. Its stationary points are the roots of
    2 c2 z^4 + c1 z^3 - conj(c1) z - 2 conj(c2) in z = e^{i phi}. Of the
    lowest ones (ties within ``SWEEP_TOL``), the move nearest phi = 0 is
    kept if f is lower there; theta is never reduced modulo pi.
    """
    unit = np.eye(len(theta))
    while True:
        start = value
        for k in range(len(theta)):
            c = 0.4 * np.fft.rfft([value] + [
                f(theta + 0.4 * np.pi * j * unit[k]) for j in range(1, 5)])
            roots = np.roots([2 * c[2], c[1], 0, -np.conj(c[1]),
                              -2 * np.conj(c[2])])
            if not roots.size:      # f is constant along theta_k
                continue
            phis = np.angle(roots)
            model = np.real(c[1] * np.exp(1j * phis)
                            + c[2] * np.exp(2j * phis))
            ties = phis[model <= model.min() + SWEEP_TOL]
            phi = ties[np.argmin(np.abs(ties))]
            if phi != 0.0 and (v := f(theta + phi * unit[k])) < value:
                theta, value = theta + phi * unit[k], v
        if start - value < SWEEP_TOL:
            return theta
