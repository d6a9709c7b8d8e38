"""Fermion-algebra oracles: operator freezing, the number operator and
Hermiticity checks of operators in both encodings; and the operator
builders that only tests use. ``add_string`` normal-orders an arbitrary
ladder-operator string through ``fermion._fold``, the rule that
``fermion.multiply`` folds, so the tests still exercise it;
``from_ops(...)`` minus its ``dagger`` is the oracle for
``trial.Excitation.generator``, which writes its two keys directly."""
import bisect

from qcmoments.fermion import FermionOperator, PauliOperator, _fold, \
    reversal_sign


def add_string(op: FermionOperator, ops, coeff: complex = 1.0):
    """Accumulate one (mode, dagger) string, in any order, into `op`."""
    ops = list(ops)
    for mode, _ in ops:
        if mode < 0 or mode >= op.n_modes:
            raise ValueError(f"mode {mode} out of range for {op.n_modes} "
                             "modes")
    for k, c in _fold({((), ()): coeff}, ops).items():
        op._add_raw(k, c)


def from_ops(n_modes: int, ops, coeff: complex = 1.0) -> FermionOperator:
    """One (mode, dagger) string, normal-ordered."""
    op = FermionOperator(n_modes)
    add_string(op, ops, coeff)
    return op.compress()


def identity(n_modes: int) -> FermionOperator:
    return FermionOperator(n_modes, {((), ()): 1.0})


def plus(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    if a.n_modes != b.n_modes:
        raise ValueError("mode-count mismatch")
    out = FermionOperator(a.n_modes)
    out.terms = dict(a.terms)
    for k, c in b.terms.items():
        out._add_raw(k, c)
    return out.compress()


def scaled(op: FermionOperator, factor: complex) -> FermionOperator:
    out = FermionOperator(op.n_modes)
    out.terms = {k: c * factor for k, c in op.terms.items()}
    return out


def dagger(op: FermionOperator) -> FermionOperator:
    out = FermionOperator(op.n_modes)
    for (dags, anns), c in op.terms.items():
        sign = reversal_sign(len(dags)) * reversal_sign(len(anns))
        out._add_raw((anns, dags), sign * c.conjugate())
    return out.compress()


def number_operator(n_modes: int) -> FermionOperator:
    return FermionOperator(
        n_modes, {(((m,), (m,))): 1.0 for m in range(n_modes)})


def is_hermitian(op: FermionOperator, tol: float = 1e-10) -> bool:
    dag = dagger(op)
    keys = set(op.terms) | set(dag.terms)
    return all(abs(op.terms.get(k, 0) - dag.terms.get(k, 0)) <= tol
               for k in keys)


def pauli_is_hermitian(op: PauliOperator, tol: float = 1e-12) -> bool:
    return all(abs(c.imag) <= tol for c in op.terms.values())


def freeze_operator(op: FermionOperator, frozen_occ: set[int],
                    frozen_virt: set[int]) -> FermionOperator:
    """Project onto frozen_occ occupied / frozen_virt empty and re-index.

    Strings touching a frozen-virtual mode vanish. Frozen-occupied modes must
    appear in the creation and annihilation blocks symmetrically (their number
    substring gives factor 1); anything else changes a frozen occupation and
    vanishes. Surviving strings pick up interleaving parities and are
    re-indexed onto the active modes.
    """
    frozen_occ = set(frozen_occ)
    frozen_virt = set(frozen_virt)
    if frozen_occ & frozen_virt:
        raise ValueError("frozen_occ and frozen_virt overlap")
    frozen = frozen_occ | frozen_virt
    active = [m for m in range(op.n_modes) if m not in frozen]
    remap = {m: i for i, m in enumerate(active)}
    occ_sorted = sorted(frozen_occ)

    def below(m):
        # frozen-occupied modes with index < m
        return bisect.bisect_left(occ_sorted, m)

    out = FermionOperator(len(active))
    for (dags, anns), c in op.terms.items():
        if any(m in frozen_virt for m in dags) or any(m in frozen_virt for m in anns):
            continue
        cd = frozenset(m for m in dags if m in frozen_occ)
        ca = frozenset(m for m in anns if m in frozen_occ)
        if cd != ca:
            # term changes a frozen occupation: non-particle-conserving on the
            # frozen modes, projects to zero
            continue
        common = sorted(cd)
        d_act = tuple(m for m in dags if m not in cd)
        u_act = tuple(m for m in anns if m not in ca)
        sign = 1
        # bring frozen daggers to the front of the dagger block
        for m in d_act:
            if sum(1 for f in common if f > m) % 2:
                sign = -sign
        # bring frozen annihilations to the back of the annihilation block
        for m in u_act:
            if sum(1 for f in common if f < m) % 2:
                sign = -sign
        # reversed frozen annihilation block (C down-sorted)
        if (len(common) * (len(common) - 1) // 2) % 2:
            sign = -sign
        # frozen pair a^dag_C .. a_C moved around the active ops
        if (len(common) * (len(d_act) + len(u_act))) % 2:
            sign = -sign
        # interleaving parity of active ops against frozen-occupied creations
        par = sum(below(m) for m in d_act) + sum(below(m) for m in u_act)
        if par % 2:
            sign = -sign
        key = (tuple(remap[m] for m in d_act), tuple(remap[m] for m in u_act))
        out._add_raw(key, sign * c)
    return out.compress()
