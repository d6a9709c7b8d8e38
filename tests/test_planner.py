"""Element enumeration, Re/Im decomposition, grouping, and measurement
circuits."""

import hashlib

import numpy as np
import pytest

from qcmoments import planner
from qcmoments.conventions import interleaved_spins
from qcmoments.fermion import jordan_wigner
from qcmoments.planner import (
    ConcreteBasis, MeasurementCircuit, MeasurementPlan, RdmElement,
    _cross_matchings, _re_diagonalizer, _split_element,
    build_measurement_circuit, build_plan, decompose_element,
    enumerate_elements, group_level1, group_level2, product_value,
)
from qcmoments.simulator import Circuit, operator_matrix_in_sector, run

from reference_planner import (
    _im_diagonalizer, circuit_with_s_in_place, decompose_element_by_filter,
    element_count_formula, enumerate_elements_by_filter, factor_operator,
    group_level1_scan, solved_products,
)
from reference_simulator import basis_state

SPINS4 = ("u", "u", "d", "d")

# the twelve spin-conserving 2-RDM excitations on 4 modes (2 up, 2 down),
# in the order used by the grouping walkthrough
TWELVE = [RdmElement(c, a) for c, a in [
    ((0, 1), (0, 1)),
    ((0, 2), (0, 2)), ((0, 2), (1, 2)), ((0, 2), (0, 3)), ((0, 2), (1, 3)),
    ((1, 2), (1, 2)), ((1, 2), (0, 3)), ((1, 2), (1, 3)),
    ((0, 3), (0, 3)), ((0, 3), (1, 3)),
    ((1, 3), (1, 3)),
    ((2, 3), (2, 3)),
]]


# -- enumeration

def test_element_validation_and_canonical_form():
    with pytest.raises(ValueError):
        RdmElement((1, 0), (0, 1))
    with pytest.raises(ValueError):
        RdmElement((0,), (0, 1))
    # of each conjugate pair, enumeration keeps the canonical representative:
    # the one with the lexicographically smaller annihilation list
    elements = enumerate_elements(4, 2)
    assert RdmElement((1, 2), (0, 3)) in elements
    assert RdmElement((0, 3), (1, 2)) not in elements
    assert all(e.annihilations <= e.creations for e in elements)


def test_enumeration_counts():
    assert len(enumerate_elements(8, 4)) == 2485
    assert len(enumerate_elements(8, 4, interleaved_spins(8))) == 940
    assert len(enumerate_elements(4, 2, SPINS4)) == 12
    assert set(enumerate_elements(4, 2, SPINS4)) == {
        e if e.annihilations <= e.creations
        else RdmElement(e.annihilations, e.creations) for e in TWELVE}


def test_enumeration_count_formula_exhaustive():
    for n in range(1, 9):
        for p in range(1, min(n, 4) + 1):
            assert len(enumerate_elements(n, p)) == element_count_formula(n, p)


@pytest.mark.parametrize("pattern", [None, "interleaved", "blocked"])
def test_enumeration_matches_build_filter_sort(pattern):
    for n in range(1, 10):
        spins = {None: None, "interleaved": interleaved_spins(n),
                 "blocked": tuple("u" * ((n + 1) // 2) + "d" * (n // 2))
                 }[pattern]
        for p in range(1, min(n, 4) + 1):
            assert enumerate_elements(n, p, spins) == \
                enumerate_elements_by_filter(n, p, spins), (n, p)


def test_enumeration_rejects_large_order():
    with pytest.raises(ValueError):
        enumerate_elements(3, 4)


# -- decomposition

def dense_factor(factor, n_modes):
    return jordan_wigner(factor_operator(factor, n_modes)).to_matrix()


def dense_hermitian_part(e, n_modes):
    op = (e.operator(n_modes) + e.operator(n_modes).dagger()).scale(0.5)
    return jordan_wigner(op).to_matrix()


def assert_decomposition_exact(e, spins):
    """Independent dense-matrix check of the operator identity."""
    n = len(spins)
    total = np.zeros((1 << n, 1 << n), dtype=complex)
    for sign, factors in decompose_element(e, spins):
        prod = np.eye(1 << n, dtype=complex)
        for f in factors:
            prod = prod @ dense_factor(f, n)
        total += sign * prod
    assert np.max(np.abs(total - dense_hermitian_part(e, n))) < 1e-10


def test_decompose_two_body_cross():
    products = decompose_element(RdmElement((1, 2), (0, 3)), SPINS4)
    assert products == [(-1, (("Re", (0, 1)), ("Re", (2, 3)))),
                        (-1, (("Im", (0, 1)), ("Im", (2, 3))))]
    assert_decomposition_exact(RdmElement((1, 2), (0, 3)), SPINS4)


def test_decompose_pure_number():
    products = decompose_element(RdmElement((0, 1), (0, 1)), SPINS4)
    assert products == [(-1, (("N", (0,)), ("N", (1,))))]


def test_decompose_mixed_number_and_cross():
    products = decompose_element(RdmElement((0, 2), (1, 2)), SPINS4)
    assert len(products) == 1
    sign, factors = products[0]
    assert set(factors) == {("N", (2,)), ("Re", (0, 1))}
    assert_decomposition_exact(RdmElement((0, 2), (1, 2)), SPINS4)


def test_decompose_order_four_all_distinct():
    spins = interleaved_spins(8)
    e = RdmElement((1, 3, 4, 6), (0, 2, 5, 7))
    products = decompose_element(e, spins)
    # four cross pairs: the even-Im half of the 2^4 expansion survives
    assert len(products) == 8
    assert all(sum(1 for k, _ in f if k == "Im") % 2 == 0
               for _, f in products)
    assert_decomposition_exact(e, spins)


def test_decompose_random_elements_against_dense_oracle():
    spins = interleaved_spins(6)
    rng = np.random.default_rng(11)
    elements = enumerate_elements(6, 3, spins)
    for i in rng.choice(len(elements), size=12, replace=False):
        assert_decomposition_exact(elements[i], spins)


def test_decompose_rejects_spin_nonconserving():
    with pytest.raises(ValueError, match="pairing"):
        decompose_element(RdmElement((0, 1), (2, 3)), SPINS4)


# -- closed-form signs against direct solves

def test_plan_signs_match_direct_solves_for_940_elements():
    spins = interleaved_spins(8)
    elements = enumerate_elements(8, 4, spins)
    plan = build_plan(elements, spins)
    _, assignments = group_level1(elements, spins)
    coverage = plan.coverage()
    for e, (_, matching, _) in zip(elements, assignments):
        got = [(sign, factors) for _, sign, factors in coverage[e]]
        assert got == solved_products(e, len(spins), matching)


@pytest.mark.parametrize("n_modes, order", [(6, 3), (9, 4)])
def test_sign_rule_matches_direct_solves_on_every_matching(n_modes, order):
    # every element with every same-spin matching; the direct solve runs
    # once per pattern on the element's modes relabeled to their ranks,
    # which normal ordering cannot tell apart, because it compares modes
    # only with < and ==
    spins = interleaved_spins(n_modes)
    oracle = {}
    checked = 0
    for e in enumerate_elements(n_modes, order, spins):
        _, cres, anns = _split_element(e)
        modes = sorted(set(e.creations) | set(e.annihilations))
        rank = {m: r for r, m in enumerate(modes)}
        ranked = RdmElement(tuple(rank[m] for m in e.creations),
                            tuple(rank[m] for m in e.annihilations))
        for matching in _cross_matchings(cres, anns, spins):
            ranked_matching = tuple((rank[c], rank[a]) for c, a in matching)
            key = (ranked, ranked_matching)
            if key not in oracle:
                oracle[key] = solved_products(ranked, len(modes),
                                              ranked_matching)
            got = [(sign, tuple((k, tuple(rank[m] for m in idx))
                                for k, idx in factors))
                   for sign, factors in decompose_element(e, spins, matching)]
            assert got == oracle[key]
            checked += 1
    assert all(sign for products in oracle.values() for sign, _ in products)
    assert checked > len(oracle)


def test_sign_rule_on_noncontiguous_modes():
    spins = interleaved_spins(8)
    cases = [
        (RdmElement((1, 4), (6, 7)), ((1, 7), (4, 6))),
        (RdmElement((1, 2), (4, 5)), ((1, 5), (2, 4))),
        (RdmElement((4, 7), (1, 6)), ((4, 6), (7, 1))),
        (RdmElement((1, 4, 7), (1, 6, 7)), ((4, 6),)),
        (RdmElement((0, 2), (4, 6)), ((0, 4), (2, 6))),
    ]
    for e, matching in cases:
        assert decompose_element(e, spins, matching=matching) \
            == solved_products(e, len(spins), matching)
    assert_decomposition_exact(cases[0][0], spins)


# -- level-1 grouping

def test_group_level1_walkthrough():
    bases, assignments = group_level1(TWELVE, SPINS4)
    assert [b.interactions for b in bases] == [
        [(0, 1), (2, 2), (3, 3)],
        [(0, 0), (1, 1), (2, 2), (3, 3)],
        [(0, 0), (1, 1), (2, 3)],
        [(0, 1), (2, 3)],
    ]
    assert [a[0] for a in assignments] == [0, 1, 0, 2, 3, 1, 3, 2, 1, 0, 1, 0]


def test_group_level1_single_element():
    bases, assignments = group_level1([RdmElement((0, 2), (1, 3))], SPINS4)
    assert len(bases) == 1
    assert bases[0].interactions == [(0, 1), (2, 3)]
    assert assignments[0][0] == 0


def test_group_level1_partition_invariants():
    spins = interleaved_spins(8)
    elements = enumerate_elements(8, 4, spins)
    bases, assignments = group_level1(elements, spins)
    assert len(assignments) == len(elements)
    for e, (b_idx, matching, required) in zip(elements, assignments):
        basis = bases[b_idx]
        assert required <= set(map(tuple, basis.interactions))
    for basis in bases:
        used = [q for s in basis.interactions for q in s if s[0] != s[1]]
        used += [s[0] for s in basis.interactions if s[0] == s[1]]
        assert len(used) == len(set(used))  # disjoint interactions
        for q1, q2 in basis.pair_sites():
            assert spins[q1] == spins[q2]


# -- level-2 grouping

def test_group_level2_xx_yy_split():
    elements = [RdmElement((1, 2), (0, 3)), RdmElement((0, 2), (1, 3))]
    bases, assignments = group_level1(elements, SPINS4)
    assert len(bases) == 1 and bases[0].interactions == [(0, 1), (2, 3)]
    element_products = [
        (e, decompose_element(e, SPINS4, matching=a[1]))
        for e, a in zip(elements, assignments)]
    concrete, placements = group_level2(bases[0], element_products)
    assert len(concrete) == 2
    assert [c.kinds for c in concrete] == [("Re", "Re"), ("Im", "Im")]
    assert all(c.parent is bases[0] for c in concrete)
    for placed in placements:
        assert {idx for idx, _, _ in placed} == {0, 1}


def test_group_level2_all_number_basis():
    e = RdmElement((0, 1), (0, 1))
    bases, assignments = group_level1([e], ("u", "d"))
    concrete, _ = group_level2(
        bases[0], [(e, decompose_element(e, ("u", "d"),
                                         matching=assignments[0][1]))])
    assert len(concrete) == 1
    assert bases[0].interactions == [(0, 0), (1, 1)]
    assert concrete[0].kinds == ()


def test_group_level2_single_site():
    e = RdmElement((0,), (1,))
    bases, assignments = group_level1([e], ("u", "u"))
    concrete, _ = group_level2(
        bases[0], [(e, decompose_element(e, ("u", "u"),
                                         matching=assignments[0][1]))])
    assert len(concrete) == 1
    assert concrete[0].kinds == ("Re",)


def test_full_plan_basis_count_for_940_elements():
    spins = interleaved_spins(8)
    plan = build_plan(enumerate_elements(8, 4, spins), spins)
    assert 190 <= len(plan.bases) <= 215
    assert len(plan.elements) == 940


# -- measurement circuits

def circuit_unitary(circ):
    dim = 1 << circ.n_qubits
    u = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        u[:, b] = run(circ, basis_state(b, circ.n_qubits))
    return u


def layout_unitary(layout, n):
    """Mode-ordered state -> physical state for a position->mode map."""
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=complex)
    pos = {m: i for i, m in enumerate(layout)}
    for mask in range(dim):
        occ_pos = sorted(pos[m] for m in range(n) if mask >> m & 1)
        modes = [layout[i] for i in occ_pos]
        inv = sum(1 for i in range(len(modes)) for j in range(i + 1, len(modes))
                  if modes[i] > modes[j])
        u[sum(1 << i for i in occ_pos), mask] = -1.0 if inv % 2 else 1.0
    return u


def plan_element_values(plan, layout, mode_state):
    """Estimate every covered element from exact outcome distributions."""
    phys = layout_unitary(layout, plan.n_modes) @ mode_state
    mcircs, probs = [], []
    for b in plan.bases:
        mc = build_measurement_circuit(b, layout)
        mcircs.append(mc)
        probs.append(np.abs(run(mc.circuit, phys)) ** 2)
    values = {}
    for e, prods in plan.coverage().items():
        total = 0.0
        for b_idx, sign, factors in prods:
            p = probs[b_idx]
            exp = sum(p[bits] * product_value(mcircs[b_idx], factors, bits)
                      for bits in np.nonzero(p > 1e-14)[0])
            total += sign * exp
        values[e] = total
    return values


def random_real_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n)
    return (amps / np.linalg.norm(amps)).astype(complex)


def test_measurement_circuits_recover_all_twelve_elements():
    plan = build_plan(TWELVE, SPINS4)
    mode_state = random_real_state(4, seed=7)
    values = plan_element_values(plan, (0, 1, 2, 3), mode_state)
    for e in TWELVE:
        exact = np.real(np.conj(mode_state) @
                        (dense_hermitian_part(e, 4) @ mode_state))
        assert values[e] == pytest.approx(exact, abs=1e-10)


def test_measurement_circuits_with_routing_and_layout():
    spins = interleaved_spins(8)
    rng = np.random.default_rng(3)
    all_elements = enumerate_elements(8, 4, spins)
    elements = [all_elements[i]
                for i in rng.choice(len(all_elements), 25, replace=False)]
    layout = (2, 0, 1, 4, 3, 6, 7, 5)
    plan = build_plan(elements, spins, layout=layout)
    mode_state = random_real_state(8, seed=4)
    values = plan_element_values(plan, layout, mode_state)
    for e in elements:
        exact = np.real(np.conj(mode_state) @
                        (dense_hermitian_part(e, 8) @ mode_state))
        assert values[e] == pytest.approx(exact, abs=1e-10)


def test_pair_expectations_on_bell_like_state():
    e = RdmElement((0,), (1,))
    spins = ("u", "u")
    plan = build_plan([e], spins)
    # (|01> + |10>)/sqrt(2): Re(a+_0 a_1) = 1/2, Im = 0
    amps = np.zeros(4, dtype=complex)
    amps[0b01] = amps[0b10] = 1 / np.sqrt(2)
    values = plan_element_values(plan, (0, 1), amps)
    assert values[e] == pytest.approx(0.5, abs=1e-12)

    im_basis = ConcreteBasis(plan.bases[0].parent, ("Im",))
    mc = build_measurement_circuit(im_basis, (0, 1))
    p = np.abs(run(mc.circuit, amps)) ** 2
    im_val = sum(p[b] * mc.pair_value((0, 1), b) for b in range(4))
    assert im_val == pytest.approx(0.0, abs=1e-12)


#: computational outcome (bit_lo, bit_hi) -> eigenvalue of Re/Im (±1/2)
PAIR_EIGENVALUE = {(0, 0): 0.0, (1, 0): -0.5, (0, 1): 0.5, (1, 1): 0.0}


def test_pair_diagonalizers_give_the_decoded_eigenvalues():
    # each diagonalizer conserves the pair's occupation number and takes
    # Re / Im of a†_0 a_1 to a diagonal whose entries pair_value decodes
    number = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
    hop = operator_matrix_in_sector(RdmElement((0,), (1,)).operator(2),
                                    range(4))
    for build, op in ((_re_diagonalizer, (hop + hop.conj().T) / 2),
                      (_im_diagonalizer, (hop - hop.conj().T) / 2j)):
        circ = Circuit(2)
        build(circ, 0)
        u = run(circ, np.eye(4)).T   # row b of the stack evolves |b>
        assert np.max(np.abs(u @ number - number @ u)) < 1e-10
        d = u @ op @ u.conj().T
        assert np.max(np.abs(d - np.diag(np.diag(d)))) < 1e-10
        mc = MeasurementCircuit(circ, {}, {(0, 1): (0, 1, 0)})
        for (b_lo, b_hi), ev in PAIR_EIGENVALUE.items():
            outcome = b_lo + 2 * b_hi
            assert abs(d[outcome, outcome].real - ev) < 1e-10
            assert 0.5 * (b_hi - b_lo) == ev
            assert mc.pair_value((0, 1), outcome) == ev


def test_measurement_circuits_conserve_number_and_sz():
    plan = build_plan(TWELVE, SPINS4)
    number = np.zeros(16)
    sz = np.zeros(16)
    for mask in range(16):
        occ = [m for m in range(4) if mask >> m & 1]
        number[mask] = len(occ)
        sz[mask] = 0.5 * sum(1 if SPINS4[m] == "u" else -1 for m in occ)
    n_mat, sz_mat = np.diag(number), np.diag(sz)
    for basis in plan.bases:
        u = circuit_unitary(build_measurement_circuit(basis, (0, 1, 2, 3)).circuit)
        assert np.max(np.abs(u @ n_mat - n_mat @ u)) < 1e-10
        # all interactions pair equal spins, so S_z is conserved as well
        assert np.max(np.abs(u @ sz_mat - sz_mat @ u)) < 1e-10


@pytest.mark.parametrize("n_modes, order, reversed_layout", [
    (4, 2, False), (4, 2, True), (8, 4, False), (8, 4, True)])
def test_s_at_the_front_equals_the_s_in_place(n_modes, order,
                                              reversed_layout):
    # each concrete basis's circuit, S at the front and then the parent's
    # all-Re routed circuit, takes random states to the amplitudes that the
    # S-in-place circuit gives, bit for bit, with the same CNOT count (so
    # the same white-noise rate); only its kinds set it apart from its
    # parent's other bases
    spins = interleaved_spins(n_modes)
    layout = range(n_modes)[::-1] if reversed_layout else range(n_modes)
    plan = build_plan(enumerate_elements(n_modes, order, spins), spins,
                      layout=layout)
    rng = np.random.default_rng(n_modes + reversed_layout)
    states = rng.normal(size=(3, 1 << n_modes, 2)) @ [1, 1j]
    im_bases = 0
    for basis in plan.bases:
        mc = build_measurement_circuit(basis, layout)
        oracle = circuit_with_s_in_place(basis, layout)
        assert np.array_equal(run(mc.circuit, states), run(oracle, states))
        assert mc.circuit.cnot_count() == mc.routed.cnot_count() == \
            oracle.cnot_count()
        assert len(mc.phased) == basis.kinds.count("Im")
        im_bases += "Im" in basis.kinds
        re_only = ConcreteBasis(basis.parent, ("Re",) * len(basis.kinds))
        assert build_measurement_circuit(re_only, layout).routed.gates == \
            mc.routed.gates
    assert im_bases > 0


COVERAGE_ARRAYS = ("elements", "product_offsets", "product_basis",
                   "product_sign", "factor_offsets", "factors")


def assert_same_coverage(got, want):
    for name in COVERAGE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name


def test_plan_json_roundtrip():
    plan = build_plan(TWELVE, SPINS4)
    back = MeasurementPlan.loads(plan.dumps())
    assert back.dumps() == plan.dumps()
    assert_same_coverage(back, plan)
    assert back.coverage() == plan.coverage()


# -- the bit-set grouping against the first-fit scan, and pinned plan bytes

@pytest.mark.parametrize("n_modes, order, pattern", [
    (9, 4, "interleaved"), (9, 4, "uuuuudddd"),
    (8, 3, "interleaved"), (8, 3, "uuuudddd"),
])
def test_group_level1_matches_first_fit_scan(n_modes, order, pattern):
    spins = interleaved_spins(n_modes) if pattern == "interleaved" \
        else tuple(pattern)
    elements = enumerate_elements(n_modes, order, spins)
    bases, assignments = group_level1(elements, spins)
    ref_bases, ref_assignments = group_level1_scan(elements, spins)
    assert [b.interactions for b in bases] == \
        [b.interactions for b in ref_bases]
    assert assignments == ref_assignments


# SHA-256 of plan.dumps() in plan schema 3; each plan holds the level-1
# interactions and schedules, the Re/Im per site of each concrete basis and
# the coverage, as flat records, that the schema-2 plans held as nested lists
PLAN_DIGESTS = {
    (8, 4, "interleaved", False):
        "40a9571a26fc57b576fbbbbf0383d6ffa62e7000bcb2c22d73116a8da67bcb72",
    (8, 4, "interleaved", True):
        "1bf7defb703decfd890b6a26f34e783ac43f10e4c99093438671778d5c24d688",
    (9, 4, "interleaved", False):
        "29a0f16ca4279d07a7ae8d42b0d2785e3ae4fdc44e6d5ebf70ece6c2213887d9",
    (9, 4, "uuuuudddd", False):
        "b8f84b87e7c1cfb5076b9b897bff5bc285b39c5c06763d09b8343800d00891e3",
}


@pytest.mark.parametrize("n_modes, order, pattern, reversed_layout",
                         PLAN_DIGESTS)
def test_plan_bytes_are_pinned(n_modes, order, pattern, reversed_layout):
    spins = interleaved_spins(n_modes) if pattern == "interleaved" \
        else tuple(pattern)
    layout = range(n_modes)[::-1] if reversed_layout else range(n_modes)
    plan = build_plan(enumerate_elements(n_modes, order, spins), spins,
                      layout=layout)
    digest = hashlib.sha256(plan.dumps().encode()).hexdigest()
    assert digest == PLAN_DIGESTS[n_modes, order, pattern, reversed_layout]


def _pinned_elements_and_spins(n_modes, order, pattern):
    spins = interleaved_spins(n_modes) if pattern == "interleaved" \
        else tuple(pattern)
    return enumerate_elements(n_modes, order, spins), spins


def expected_coverage(elements, spins):
    """{element: [(basis, sign, factors)]} in build order, from
    decompose_element and group_level2 as build_plan chains them."""
    level1, assignments = group_level1(elements, spins)
    per_basis = [[] for _ in level1]
    for e, (b_idx, matching, _) in zip(elements, assignments):
        per_basis[b_idx].append((e, decompose_element(e, spins, matching)))
    coverage, offset = {}, 0
    for basis, element_products in zip(level1, per_basis):
        concrete, placements = group_level2(basis, element_products)
        for (e, products), placed in zip(element_products, placements):
            assert [(s, f) for _, s, f in placed] == products
            coverage[e] = [(offset + idx, s, f) for idx, s, f in placed]
        offset += len(concrete)
    return coverage


@pytest.mark.parametrize("case", [*PLAN_DIGESTS, "twelve"], ids=lambda c: (
    c if isinstance(c, str) else "-".join(map(str, c))))
def test_plan_roundtrip_keeps_the_arrays_and_decodes_the_products(case):
    # loads(dumps(plan)) holds equal arrays, and decoding each element's
    # products gives the (sign, factors) lists of decompose_element as
    # group_level2 placed them
    if case == "twelve":
        elements, spins, layout = TWELVE, SPINS4, range(4)
    else:
        n_modes, order, pattern, reversed_layout = case
        elements, spins = _pinned_elements_and_spins(n_modes, order, pattern)
        layout = range(n_modes)[::-1] if reversed_layout else range(n_modes)
    plan = build_plan(elements, spins, layout=layout)
    back = MeasurementPlan.loads(plan.dumps())
    assert_same_coverage(back, plan)
    same_text = back.dumps() == plan.dumps()    # no diff of 0.5 MB texts
    assert same_text
    want = expected_coverage(elements, spins)
    for got in (plan.coverage(), back.coverage()):
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("n_modes, order", [(6, 3), (9, 4)])
def test_even_im_products_match_the_filtered_expansion(n_modes, order):
    # every element with every same-spin matching
    spins = interleaved_spins(n_modes)
    for e in enumerate_elements(n_modes, order, spins):
        _, cres, anns = _split_element(e)
        for matching in _cross_matchings(cres, anns, spins):
            assert decompose_element(e, spins, matching) == \
                decompose_element_by_filter(e, matching)


def test_plan_bytes_do_not_depend_on_the_even_im_generation(monkeypatch):
    # digests, so that a failure does not diff two 0.5 MB texts
    elements, spins = _pinned_elements_and_spins(9, 4, "interleaved")
    digests = [hashlib.sha256(build_plan(elements, spins).dumps().encode())
               .hexdigest()]
    monkeypatch.setattr(
        planner, "decompose_element",
        lambda e, spins, matching: decompose_element_by_filter(e, matching))
    digests.append(hashlib.sha256(build_plan(elements, spins).dumps()
                                  .encode()).hexdigest())
    assert digests[0] == digests[1]


def test_layout_mismatch_is_an_error():
    plan = build_plan(TWELVE, SPINS4)
    basis = next(b for b in plan.bases if b.kinds)
    with pytest.raises(ValueError, match="layout"):
        build_measurement_circuit(basis, (3, 2, 1, 0))


def _swap_first_two(interactions):
    (a, at_a), (b, at_b) = interactions[:2]
    interactions[:2] = [(b, at_a), (a, at_b)]


# edits of a routing step that interacts two sites: name -> (edit, message)
SCHEDULE_FAULTS = {
    "site left out": (list.pop, "interacts 1 of the 2 pair sites"),
    "site interacted twice": (lambda inter: inter.append(inter[0]),
                              "does not meet its modes"),
    # each site still interacts once, but at the other's positions, so the
    # decoding would read one site off the other's modes
    "pair ids swapped": (_swap_first_two, "does not meet its modes"),
}


@pytest.mark.parametrize("fault", SCHEDULE_FAULTS)
def test_schedule_faults_do_not_fit_the_layout(fault):
    spins = interleaved_spins(4)
    plan = build_plan(enumerate_elements(4, 2, spins), spins)
    basis = next(b for b in plan.bases
                 if any(len(st.interactions) == 2
                        for st in b.parent.schedule.steps))
    build_measurement_circuit(basis, range(4))
    step = next(st for st in basis.parent.schedule.steps
                if len(st.interactions) == 2)
    edit, message = SCHEDULE_FAULTS[fault]
    edit(step.interactions)
    with pytest.raises(ValueError, match=message):
        build_measurement_circuit(basis, range(4))
