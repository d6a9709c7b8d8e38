"""Trial-circuit oracles: the general four-qubit excitation block on its
own, the template verifier that ``trial.TEMPLATE_MASKS`` tabulates, and a
built circuit's state in logical mode order."""
import numpy as np

from qcmoments.simulator import Circuit, operator_matrix_in_sector, run
from qcmoments.trial import BuiltTrial, Excitation, _fswap_sort, \
    _pauli_gadget_block, _template_candidates, excitation_exponential

from reference_simulator import basis_state


def local_double_excitation(theta: float) -> Circuit:
    """Four-qubit block for exp(theta (a+_3 a+_2 a_1 a_0 - h.c.))."""
    exc = Excitation((2, 3), (0, 1), theta)
    return _pauli_gadget_block(exc.generator(4), theta)


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
