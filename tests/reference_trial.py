"""Trial-circuit oracles: the general four-qubit excitation block on its
own, and a built circuit's state in logical mode order."""
import numpy as np

from qcmoments.simulator import Circuit, run
from qcmoments.trial import BuiltTrial, Excitation, _fswap_sort, \
    _pauli_gadget_block

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
