"""Trial-circuit oracles: the FSWAP window and the general four-qubit
excitation block by the searches they replaced, the template verifier that
``trial.TEMPLATE_MASKS`` tabulates, and a built circuit's state in logical
mode order."""
import numpy as np

from qcmoments.fermion import jordan_wigner
from qcmoments.simulator import Circuit, operator_matrix_in_sector, run
from qcmoments.trial import BuiltTrial, Excitation, _LADDER, _fswap_sort, \
    _pauli_gadget_block, _template_candidates, excitation_exponential

from reference_simulator import basis_state


def local_double_excitation(theta: float) -> Circuit:
    """Four-qubit block for exp(theta (a+_3 a+_2 a_1 a_0 - h.c.))."""
    exc = Excitation((2, 3), (0, 1), theta)
    return _pauli_gadget_block(exc, theta)


def fswap_window_by_search(targets, layout) -> int:
    """First window start of least inversion count between `layout` and
    the order that moves `targets` there, trying every start."""
    n_qubits = len(layout)
    targets = set(targets)
    ordered_targets = [m for m in layout if m in targets]
    others = [m for m in layout if m not in targets]
    best = None
    for start in range(n_qubits - len(targets) + 1):
        final = others[:start] + ordered_targets + others[start:]
        final_pos = {m: i for i, m in enumerate(final)}
        seq = [final_pos[m] for m in layout]
        inv = sum(1 for i in range(n_qubits) for j in range(i + 1, n_qubits)
                  if seq[i] > seq[j])
        if best is None or inv < best[0]:
            best = (inv, start)
    return best[1]


def jordan_wigner_strings(gen) -> dict:
    """Y-position set -> imaginary coefficient of each Pauli string of the
    Jordan-Wigner image of a local excitation generator `gen`, checked to
    be eight weight-4 X/Y strings with odd Y sets and imaginary
    coefficients."""
    strings = {}
    for s, c in jordan_wigner(gen).terms.items():
        if abs(c.real) > 1e-12 or any(p == "Z" or p == "I" for p in s):
            raise ValueError("generator is not a clean two-body excitation")
        yset = frozenset(j for j, p in enumerate(s) if p == "Y")
        if len(yset) % 2 == 0:
            raise ValueError("unexpected even-Y string in excitation image")
        strings[yset] = c.imag
    if len(strings) != 8:
        raise ValueError("expected eight Pauli strings in excitation image")
    return strings


def block_from_jordan_wigner_image(gen, theta: float) -> Circuit:
    """The general block for exp(theta * gen), with its rotation angles
    read off ``jordan_wigner_strings(gen)``."""
    strings = jordan_wigner_strings(gen)
    g1, g2, g3 = frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})
    yset = frozenset({0})
    order = [yset]
    for g in (g1, g2, g1, g3, g1, g2, g1):
        yset = yset ^ g
        order.append(yset)

    circ = Circuit(4)

    def basis_change(j, is_y, opening):
        if is_y and opening:
            circ.sdg(j)
        circ.h(j)
        if is_y and not opening:
            circ.s(j)

    def junction(j, to_y):
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

    for j in range(4):
        basis_change(j, j in order[0], True)
    for a, b in _LADDER:
        circ.cnot(a, b)
    circ.rz(0, -2.0 * theta * strings[order[0]])
    for prev, cur in zip(order, order[1:]):
        for j in sorted(prev ^ cur):
            junction(j, j in cur)
        circ.rz(0, -2.0 * theta * strings[cur])
    for a, b in reversed(_LADDER):
        circ.cnot(a, b)
    for j in range(4):
        basis_change(j, j in order[-1], False)
    return circ


def trial_state_in_mode_order(built: BuiltTrial,
                              n_qubits: int) -> np.ndarray:
    """Run the built circuit from |0...0> and permute the amplitudes back to
    logical mode order (undoing the final layout) for comparison with
    oracles."""
    state = run(built.circuit, basis_state(0, n_qubits))
    perm = built.layout
    if perm == tuple(range(n_qubits)):
        return state
    # position i holds mode perm[i]; fermionic reordering signs are produced
    # by conjugating with an FSWAP network back to identity layout
    net, _ = _fswap_sort(perm, {m: m for m in range(n_qubits)})
    return run(net, state)


def verify_on_support(circ: Circuit, target: np.ndarray, support) -> bool:
    """Whether `circ` maps each basis state of `support` to its column of
    the 16 x 16 `target` within 1e-9."""
    support = list(support)
    states = run(circ, np.eye(16)[support])   # row i evolves |support[i]>
    return bool(np.all(np.abs(states - target[:, support].T) <= 1e-9))


#: generic second angle every template must also match at: agreement at the
#: requested angle alone can be accidental
PROBE_THETA = 0.6180339887


def simplified_block(gen, theta: float, support) -> Circuit | None:
    """Cheapest template verified by simulation to agree with
    exp(theta*gen) on the local basis states `support`, at theta and at
    ``PROBE_THETA``, or None if only the general block works."""
    g = operator_matrix_in_sector(gen, range(16))
    target = excitation_exponential(g, theta, np.eye(16, dtype=complex))
    probe = excitation_exponential(g, PROBE_THETA, np.eye(16, dtype=complex))
    for cand, cand_probe in zip(_template_candidates(theta),
                                _template_candidates(PROBE_THETA)):
        if (verify_on_support(cand, target, support)
                and verify_on_support(cand_probe, probe, support)):
            return cand
    return None
