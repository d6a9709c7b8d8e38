"""Trial-state construction: Hartree-Fock preparation, fermionic swap
routing, double-excitation blocks, Trotterized double-excitation products,
and SPSA optimization.

A double excitation G(theta) = exp(theta (a+_j a+_k a_l a_m - h.c.)) is
implemented by routing the four modes to adjacent qubits with FSWAPs and
applying a local 4-qubit block. The local block is synthesized exactly from
the Jordan-Wigner image of the generator (eight mutually commuting weight-4
X/Y strings) as a shared-ladder sequence of Pauli-phase gadgets. When the
set of basis states reachable from the initial determinant allows it, the
block is replaced by a cheaper template (a Givens-rotation ladder or a
pair-compressed controlled rotation) verified numerically on that subspace.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conventions import interleaved_spins
from .fermion import FermionOperator, jordan_wigner
from .simulator import Circuit, Statevector, operator_matrix_in_sector, run


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
        """Anti-Hermitian generator T - T^dag (unit amplitude)."""
        ops = ([(m, True) for m in self.creations]
               + [(m, False) for m in self.annihilations])
        t = FermionOperator.from_ops(n_modes, ops)
        return t - t.dagger()


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


def excitation_exponential(gen: FermionOperator, theta: float,
                           x: np.ndarray | None = None) -> np.ndarray:
    """exp(theta*gen) applied to x (the identity if None), on all 2^n states.

    Every ``Excitation.generator`` G satisfies G^3 = -G, so the exponential
    is 1 + sin(theta) G + (1 - cos(theta)) G^2.
    """
    g = operator_matrix_in_sector(gen, range(1 << gen.n_modes))
    if x is None:
        x = np.eye(len(g), dtype=complex)
    gx = g @ x
    return x + np.sin(theta) * gx + (1.0 - np.cos(theta)) * (g @ gx)


def exact_trial_state(ansatz: Ansatz) -> Statevector:
    """Product of the exact excitation exponentials applied to the initial
    determinant (identity layout)."""
    n = ansatz.n_qubits
    amps = np.zeros(1 << n, dtype=complex)
    amps[ansatz.initial_occupation] = 1.0
    for exc in ansatz.excitations:
        amps = excitation_exponential(exc.generator(n), exc.theta, amps)
    return Statevector(amps, n)


def energy_objective(ansatz: Ansatz, h: FermionOperator):
    """thetas -> <H> in the exact trial state of ``ansatz`` at those
    amplitudes, with H's Fock-space matrix built once."""
    hmat = operator_matrix_in_sector(h, range(1 << h.n_modes))

    def objective(thetas):
        amps = exact_trial_state(ansatz.with_thetas(thetas)).amplitudes
        return float(np.real(np.vdot(amps, hmat @ amps)))

    return objective


# ---------------------------------------------------------------------------
# fermionic swap routing


def fswap_network(targets, n_qubits: int, layout=None):
    """FSWAP sequence bringing the target logical modes to adjacent qubits.

    Returns (circuit, new_layout, window_start). The targets end up occupying
    a contiguous window in their current relative order; all other modes keep
    their relative order. The window is chosen to minimize the swap count
    (adjacent-transposition inversion count, which is optimal).
    """
    if layout is None:
        layout = tuple(range(n_qubits))
    targets = set(targets)
    if len(targets) < 1 or not targets <= set(layout):
        raise ValueError("invalid routing targets")
    k = len(targets)
    pos = {m: i for i, m in enumerate(layout)}
    ordered_targets = [m for m in layout if m in targets]
    others = [m for m in layout if m not in targets]

    best = None
    for start in range(n_qubits - k + 1):
        final = list(others[:start]) + ordered_targets + list(others[start:])
        # inversion count between current and final orders
        final_pos = {m: i for i, m in enumerate(final)}
        seq = [final_pos[m] for m in layout]
        inv = sum(1 for i in range(n_qubits) for j in range(i + 1, n_qubits)
                  if seq[i] > seq[j])
        if best is None or inv < best[0]:
            best = (inv, start, final)
    _, start, final = best
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


def _pauli_gadget_block(gen: FermionOperator, theta: float,
                        offset: int = 0, n_qubits: int = 4) -> Circuit:
    """Exact circuit for exp(theta * gen) on 4 adjacent qubits.

    gen must be an anti-Hermitian two-body excitation generator on 4 modes
    whose Jordan-Wigner image is eight mutually commuting weight-4 X/Y
    strings (one per odd-size Y-position subset).
    """
    pauli = jordan_wigner(gen)
    strings = {}
    for s, c in pauli.terms.items():
        if abs(c.real) > 1e-12 or any(p == "Z" or p == "I" for p in s):
            raise ValueError("generator is not a clean two-body excitation")
        yset = frozenset(j for j, p in enumerate(s) if p == "Y")
        if len(yset) % 2 == 0:
            raise ValueError("unexpected even-Y string in excitation image")
        strings[yset] = c.imag
    if len(strings) != 8:
        raise ValueError("expected eight Pauli strings in excitation image")

    # Gray-code order over Y-position sets; transitions costing fewer CNOTs
    # (changes on low qubits) are used most often
    g1, g2, g3 = frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})
    yset = frozenset({0})
    order = [yset]
    for g in (g1, g2, g1, g3, g1, g2, g1):
        yset = yset ^ g
        order.append(yset)

    circ = Circuit(n_qubits)

    def q(j):
        return offset + j

    def basis_open(j, is_y):
        if is_y:
            circ.sdg(q(j))
        circ.h(q(j))

    def basis_close(j, is_y):
        circ.h(q(j))
        if is_y:
            circ.s(q(j))

    def junction(j, to_y):
        # net basis change on a changing qubit, pushed through the shared
        # CNOT ladders; only the CNOTs below qubit j survive cancellation
        for a, b in reversed(_LADDER[3 - j:]):
            circ.cnot(q(a), q(b))
        circ.h(q(j))
        if to_y:
            circ.sdg(q(j))
        else:
            circ.s(q(j))
        circ.h(q(j))
        for a, b in _LADDER[3 - j:]:
            circ.cnot(q(a), q(b))

    first, last = order[0], order[-1]
    for j in range(4):
        basis_open(j, j in first)
    for a, b in _LADDER:
        circ.cnot(q(a), q(b))
    circ.rz(q(0), -2.0 * theta * strings[first])
    for prev, cur in zip(order, order[1:]):
        for j in sorted(prev ^ cur):
            junction(j, j in cur)
        circ.rz(q(0), -2.0 * theta * strings[cur])
    for a, b in reversed(_LADDER):
        circ.cnot(q(a), q(b))
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


def _verify_on_support(circ: Circuit, target: np.ndarray, support) -> bool:
    support = list(support)
    states = run(circ, np.eye(16)[support])   # row i evolves |support[i]>
    return bool(np.all(np.abs(states - target[:, support].T) <= 1e-9))


#: generic second angle every template must also match at: agreement at the
#: requested angle alone can be accidental
PROBE_THETA = 0.6180339887


def simplified_block(gen: FermionOperator, theta: float,
                     support) -> Circuit | None:
    """Cheapest verified local block agreeing with exp(theta*gen) on the
    reachable local basis states, or None if only the general block works."""
    target = excitation_exponential(gen, theta)
    probe = excitation_exponential(gen, PROBE_THETA)
    for cand, cand_probe in zip(_template_candidates(theta),
                                _template_candidates(PROBE_THETA)):
        if (_verify_on_support(cand, target, support)
                and _verify_on_support(cand_probe, probe, support)):
            return cand
    return None


# ---------------------------------------------------------------------------
# full trial circuit


@dataclass
class BuiltTrial:
    circuit: Circuit
    layout: tuple           # logical mode held by each physical qubit at end
    cnot_count: int
    depth: int
    block_kinds: list       # per excitation: "identity"/"template"/"general"


def build_uccd(ansatz: Ansatz, simplify: bool = True) -> BuiltTrial:
    """Initial-determinant preparation followed by routed excitation blocks."""
    n = ansatz.n_qubits
    layout = tuple(ansatz.initial_layout)
    # determinant preparation in physical positions; the reordering parity of
    # the occupied modes keeps the state consistent with the mode-order frame
    occ_positions = [pos for pos, mode in enumerate(layout)
                     if ansatz.initial_occupation >> mode & 1]
    circ = hartree_fock_circuit(n, sum(1 << pos for pos in occ_positions))
    occ_modes = [layout[pos] for pos in occ_positions]
    inversions = sum(1 for i in range(len(occ_modes))
                     for j in range(i + 1, len(occ_modes))
                     if occ_modes[i] > occ_modes[j])
    if inversions % 2:
        circ.s(occ_positions[0]).s(occ_positions[0])  # Z on an occupied qubit
    support = {ansatz.initial_occupation}  # masks in logical mode space
    kinds = []
    for exc in ansatz.excitations:
        net, layout, w = fswap_network(exc.modes(), n, layout)
        circ.extend(net)
        window_modes = layout[w:w + 4]
        local_of = {m: i for i, m in enumerate(window_modes)}
        gen = Excitation(
            tuple(local_of[m] for m in exc.creations),
            tuple(local_of[m] for m in exc.annihilations)).generator(4)
        # reachable local patterns, and how the excitation grows the support
        a_mask = sum(1 << local_of[m] for m in exc.annihilations)
        b_mask = sum(1 << local_of[m] for m in exc.creations)
        local_patterns = set()
        new_support = set(support)
        for mask in support:
            pat = sum((mask >> m & 1) << local_of[m] for m in window_modes)
            local_patterns.add(pat)
            outside = mask & ~sum(1 << m for m in window_modes)
            if pat == a_mask:
                new_support.add(outside | sum(
                    1 << m for m in exc.creations))
            elif pat == b_mask:
                new_support.add(outside | sum(
                    1 << m for m in exc.annihilations))
        support = new_support

        block = simplified_block(gen, exc.theta, local_patterns) \
            if simplify else None
        if block is None:
            circ.extend(_pauli_gadget_block(gen, exc.theta, offset=w,
                                            n_qubits=n))
            kinds.append("general")
        else:
            shifted = Circuit(n)
            for name, qubits, param in block.gates:
                shifted.gates.append((name, tuple(q + w for q in qubits),
                                      param))
            circ.extend(shifted)
            kinds.append("identity" if not block.gates else "template")
    return BuiltTrial(circ, layout, circ.cnot_count(), circ.depth(), kinds)


# ---------------------------------------------------------------------------
# SPSA optimization


#: SPSA gains a_k = a / (k + 1 + A)^0.602 and c_k = c / (k + 1)^0.101
SPSA_A, SPSA_C, SPSA_BIG_A = 0.1, 0.1, 10.0
#: number of final iterates averaged into each seed's result
SPSA_AVERAGE_LAST = 10


def spsa_minimize(objective, dim: int, seeds, max_iter: int = 200,
                  theta0=None):
    """Simultaneous-perturbation minimization over several seeds.

    Uses the standard gain schedule a_k = a/(k+1+A)^0.602 and
    c_k = c/(k+1)^0.101 (``SPSA_A``, ``SPSA_C``, ``SPSA_BIG_A``) with
    two-sided +/-1 perturbations; the returned iterate of each seed is the
    average of the last ``SPSA_AVERAGE_LAST`` iterates. The best seed's
    result is refined with a deterministic derivative-free (Powell) polish.

    Returns (best_theta, info) where info contains per-seed traces.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    theta_init = np.zeros(dim) if theta0 is None else np.asarray(
        theta0, dtype=float)

    def check(v):
        if not np.isfinite(v):
            raise ValueError("objective returned a non-finite value")
        return float(v)

    results = []
    traces = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        theta = theta_init.copy()
        recent = []
        trace = [check(objective(theta))]
        for k in range(max_iter):
            a_k = SPSA_A / (k + 1 + SPSA_BIG_A) ** 0.602
            c_k = SPSA_C / (k + 1) ** 0.101
            delta = rng.integers(0, 2, size=dim) * 2.0 - 1.0
            f_plus = check(objective(theta + c_k * delta))
            f_minus = check(objective(theta - c_k * delta))
            theta = theta - a_k * (f_plus - f_minus) / (2.0 * c_k) * delta
            recent.append(theta.copy())
            if len(recent) > SPSA_AVERAGE_LAST:
                recent.pop(0)
            trace.append(check(objective(theta)))
        theta_avg = np.mean(recent, axis=0) if recent else theta
        results.append((check(objective(theta_avg)), theta_avg))
        traces.append(trace)
    best_idx = min(range(len(results)), key=lambda i: results[i][0])
    best_val, best_theta = results[best_idx]
    import scipy.optimize
    res = scipy.optimize.minimize(
        lambda t: check(objective(t)), best_theta, method="Powell",
        options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 2000})
    if res.fun <= best_val:
        best_theta, best_val = np.asarray(res.x, dtype=float), float(res.fun)
    info = {
        "traces": traces,
        "per_seed_values": [v for v, _ in results],
        "per_seed_thetas": [t for _, t in results],
        "best_seed_index": best_idx,
        "best_value": best_val,
    }
    return best_theta, info
