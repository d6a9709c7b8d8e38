"""Planner oracles: direct sign solves, the first-fit scans of both
levels, the element count and the build-filter-sort enumeration.

The closed-form signs of :func:`qcmoments.planner.decompose_element` are
checked against direct solves: each candidate product of Re/Im/number
factors is normal-ordered with ``fermion.multiply``, and a least-squares
solve finds the coefficients that rebuild the Hermitian part (e + e†)/2 of
the element, as the planner did before the sign rule replaced it. The
sign rule's even-Im products are checked against
``decompose_element_by_filter``, which builds all 2^k Re/Im kind tuples
and drops the odd-Im half, as the planner did before it generated only the
even ones.

The bit-set grouping of :func:`qcmoments.planner.group_level1` is checked
against ``group_level1_scan``, which tries every earlier basis in order
against every option of the element. The scan builds each element's
options with fresh memos, so that the options ``group_level1`` builds from
memos it shares across elements are checked against options built from
scratch.

The bit-mask first fit of :func:`qcmoments.planner.group_level2` is checked
against ``group_level2_by_dict``, which holds each concrete basis as a dict
from site to kind, as the planner did before it held two bit masks.

:func:`qcmoments.planner.enumerate_elements` is checked against
``enumerate_elements_by_filter``, which builds every canonical element,
keeps the spin-conserving ones and sorts them, as the planner did before
it built only the elements whose creations and annihilations carry equal
spins.

``factor_entries`` walks the flat coverage records of a plan file's JSON
object (schema 3), for the tests that corrupt a factor.

``element_operator`` is an RDM element as a normal-ordered operator, and
``measured_circuit`` is a concrete basis's measurement circuit as it runs:
S on each position that its parent's circuit phases for its kinds, then
that circuit's ``routed`` gates.

``circuit_with_s_in_place`` builds a concrete basis's measurement circuit,
from its parent and its kinds, with each Im site's S right before its Re
diagonalizer, as the planner did before it moved every S to the front of
the parent's routed circuit.
"""
import itertools
from math import comb, prod

import numpy as np

from qcmoments.fermion import FermionOperator, multiply, sort_sign
from qcmoments.planner import IM, N, RE, ConcreteBasis, PairingBasis, \
    RdmElement, _re_diagonalizer, _requirement_options, _split_element
from qcmoments.simulator import Circuit

from reference_fermion import add_string, dagger, from_ops, identity, plus, \
    scaled


def element_operator(e: RdmElement, n_modes: int) -> FermionOperator:
    """a†_{creations} a_{annihilations}, normal-ordered."""
    return from_ops(n_modes, [(m, True) for m in e.creations]
                    + [(m, False) for m in e.annihilations])


def measured_circuit(mc, kinds) -> Circuit:
    """The whole circuit of the concrete basis with `kinds` whose parent's
    MeasurementCircuit is `mc`: S on each position of ``mc.phased(kinds)``,
    then ``mc.routed``."""
    circ = Circuit(mc.routed.n_qubits)
    for q in mc.phased(kinds):
        circ.s(q)
    return circ.extend(mc.routed)


def factor_operator(factor, n_modes: int) -> FermionOperator:
    """The factor code row (N, i, i), (RE, j, k) or (IM, j, k) with j < k
    as an operator on n_modes modes."""
    kind, j, k = factor
    op = FermionOperator(n_modes)
    if kind == N:
        add_string(op, [(j, True), (j, False)], 1.0)
    elif kind == RE:
        add_string(op, [(j, True), (k, False)], 0.5)
        add_string(op, [(k, True), (j, False)], 0.5)
    elif kind == IM:
        add_string(op, [(j, True), (k, False)], -0.5j)
        add_string(op, [(k, True), (j, False)], 0.5j)
    else:
        raise ValueError(f"unknown factor kind {kind!r}")
    return op


def solve_signs(candidates, target: FermionOperator, n_modes: int):
    """Coefficients (each ±1 or 0) of the candidate products in normal
    order; AssertionError if they do not rebuild the target exactly."""
    prods = []
    keys = set(target.terms)
    for factors in candidates:
        op = identity(n_modes)
        for f in factors:
            op = multiply(op, factor_operator(f, n_modes))
        prods.append(op)
        keys.update(op.terms)
    keys = sorted(keys)
    a = np.zeros((len(keys), len(prods)), dtype=complex)
    b = np.array([target.terms.get(k, 0.0) for k in keys], dtype=complex)
    for m, op in enumerate(prods):
        for i, k in enumerate(keys):
            a[i, m] = op.terms.get(k, 0.0)
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.max(np.abs(a @ coeffs - b)) > 1e-9:
        raise AssertionError("decomposition does not span the element")
    signs = []
    for c in coeffs:
        s = int(round(c.real))
        if abs(c - s) > 1e-9 or s not in (-1, 0, 1):
            raise AssertionError(f"non-unit decomposition coefficient {c}")
        signs.append(s)
    return signs


def solved_products(e, n_modes: int, matching):
    """The even-Im candidates of `matching`, in the planner's order, with
    signs solved on the element's own modes."""
    numbers = sorted(set(e.creations) & set(e.annihilations))
    sites = [tuple(sorted(p)) for p in matching]
    candidates = [
        tuple((N, i, i) for i in numbers)
        + tuple((k, i, j) for k, (i, j) in zip(kinds, sites))
        for kinds in itertools.product((RE, IM), repeat=len(sites))
        if kinds.count(IM) % 2 == 0]
    op = element_operator(e, n_modes)
    target = scaled(plus(op, dagger(op)), 0.5)
    return list(zip(solve_signs(candidates, target, n_modes), candidates))


def _fit_option(have, used, required):
    """Interactions to add, or None if the option conflicts with a basis
    holding the interactions `have` on the busy qubits `used`."""
    additions, add_used = [], set()
    for site in required:
        if site in have:
            continue
        qs = set(site)
        if qs & used or qs & add_used:
            return None
        additions.append(site)
        add_used |= qs
    return additions


def group_level1_scan(elements, spins):
    """Greedy first-fit partition of elements into pairing bases, by a scan
    over the bases in order; same return value as ``group_level1``."""
    haves, useds = [], []
    assignments = []
    for e in elements:
        options = [(matching, required, sorted(required))
                   for matching, required in _requirement_options(
                       e, spins, {}, {})]
        for b_idx, (have, used) in enumerate(zip(haves, useds)):
            best = None
            for matching, required, ordered in options:
                additions = _fit_option(have, used, ordered)
                if additions is not None and (
                        best is None or len(additions) < len(best[2])):
                    best = (matching, required, additions)
            if best is not None:
                matching, required, additions = best
                have.update(additions)
                used.update(q for site in additions for q in site)
                assignments.append((b_idx, matching, required))
                break
        else:
            matching, required, _ = options[0]
            haves.append(set(required))
            useds.append({q for site in required for q in site})
            assignments.append((len(haves) - 1, matching, required))
    return [PairingBasis(sorted(have)) for have in haves], assignments


def group_level2_by_dict(level1, parent: int, element_products):
    """``planner.group_level2`` with each concrete basis held as a dict from
    pair site to kind code, filled as products are placed."""
    sites = level1[parent].pair_sites()
    concrete = []
    placements = []
    for element, products in element_products:
        placed = []
        for sign, factors in products:
            wanted = [((i, j), k) for k, i, j in factors if k != N]
            for idx, chosen in enumerate(concrete):
                for site, k in wanted:
                    if chosen.get(site, k) != k:
                        break
                else:
                    break
            else:
                idx = len(concrete)
                concrete.append({})
            concrete[idx].update(wanted)
            placed.append((idx, sign, factors))
        placements.append(placed)
    if not concrete:
        concrete.append({})
    return [ConcreteBasis(parent, tuple(chosen.get(site, RE)
                                        for site in sites))
            for chosen in concrete], placements


def element_count_formula(n_modes: int, p: int) -> int:
    """Spin-agnostic p-RDM element count up to conjugation: C(C(n, p) + 1, 2)."""
    c = comb(n_modes, p)
    return (c * c + c) // 2


def enumerate_elements_by_filter(n_modes: int, p: int, spins=None):
    """Canonical spin-conserving elements a†_c a_a (c ≥ a) in
    (annihilations, creations) order, by building all and filtering."""
    out = []
    for anns in itertools.combinations(range(n_modes), p):
        for cres in itertools.combinations(range(n_modes), p):
            if anns > cres:
                continue  # conjugate representative
            e = RdmElement(cres, anns)
            if spins is None or sorted(spins[m] for m in cres) == \
                    sorted(spins[m] for m in anns):
                out.append(e)
    out.sort(key=lambda e: (e.annihilations, e.creations))
    return out


def decompose_element_by_filter(e, matching):
    """``planner.decompose_element`` of `e` with `matching`, with every
    Re/Im kind tuple over the matching's sites built in itertools.product
    order and the odd-Im ones dropped."""
    numbers, _, _ = _split_element(e)
    cre_at = {m: i for i, m in enumerate(e.creations)}
    ann_at = {m: i for i, m in enumerate(e.annihilations, e.order)}
    pair_form = [(i, i) for i in numbers] + list(matching)
    sigma = sort_sign([at for c, a in pair_form
                       for at in (cre_at[c], ann_at[a])])[1]
    num_factors = tuple((N, i, i) for i in numbers)
    sites = [tuple(sorted(p)) for p in matching]
    orient = [1 if c < a else -1 for c, a in matching]
    products = []
    for kinds in itertools.product((RE, IM), repeat=len(sites)):
        ims = [s for k, s in zip(kinds, orient) if k == IM]
        if len(ims) % 2:
            continue
        sign = sigma * (-1) ** (len(ims) // 2) * prod(ims)
        products.append((sign, num_factors + tuple(
            (k, i, j) for k, (i, j) in zip(kinds, sites))))
    return products


def factor_entries(plan):
    """(records, index) of the kind entry of every coverage factor of a
    plan file's JSON object: each element's records are basis, sign,
    n_factors and then (kind, i, j) per factor."""
    for _, records in plan["coverage"]:
        pos = 0
        while pos < len(records):
            for f in range(records[pos + 2]):
                yield records, pos + 3 + 3 * f
            pos += 3 + 3 * records[pos + 2]


def drop_last_product(plan):
    """Drop the last product record of the first element in a plan file's
    JSON object that has two: each record is 3 + 3p values."""
    width = 3 + 3 * len(plan["coverage"][0][0][0])
    records = next(r for _, r in plan["coverage"] if len(r) == 2 * width)
    del records[-width:]


def _im_diagonalizer(circ: Circuit, lo: int):
    """Diagonalizer of Im(a†_j a_{j+1}) on qubits (lo, lo + 1): S on the low
    qubit, then the Re diagonalizer."""
    circ.s(lo)
    _re_diagonalizer(circ, lo)


def circuit_with_s_in_place(parent, kinds, layout) -> Circuit:
    """The measurement circuit under `layout` of the concrete basis with
    `kinds` of the level-1 basis `parent`: the parent's FSWAP routing, with
    each pair site diagonalized by its kind's diagonalizer where the site
    interacts."""
    pair_sites = parent.pair_sites()
    circ = Circuit(len(layout))
    occupant = list(layout)
    for step in parent.schedule.steps:
        for (i, j) in step.swaps:
            circ.fswap(i, j)
            occupant[i], occupant[j] = occupant[j], occupant[i]
        for pair_id, (i, j) in step.interactions:
            assert {occupant[i], occupant[j]} == set(pair_sites[pair_id])
            if kinds[pair_id] == RE:
                _re_diagonalizer(circ, i)
            else:
                _im_diagonalizer(circ, i)
            occupant[i] = occupant[j] = None
    return circ
