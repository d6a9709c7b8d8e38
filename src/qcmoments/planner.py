"""Measurement planning for p-RDM elements on a linear qubit array.

An RDM element a†_{s1}..a†_{sp} a_{t1}..a_{tp} (both index lists strictly
increasing, written left to right) is measured by decomposing it into signed
products of single-pair components

    Re(a†_j a_k) = (a†_j a_k + a†_k a_j) / 2
    Im(a†_j a_k) = (a†_j a_k - a†_k a_j) / (2i)        (j < k canonical)
    n_i         = a†_i a_i

after factoring repeated indices out as number operators. Mixed products
with an odd number of Im factors are anti-Hermitian and vanish for real
wavefunctions; the surviving even-Im products reconstruct the Hermitian
part (e + e†)/2 exactly. Their signs follow in closed form from the
anticommutation relations: the parity of the permutation that brings the
element into pair form, times (-1)^(m/2) for m Im factors, times the
orientation of each Im pair (see :func:`decompose_element`).

Grouping is greedy and two-level. Level 1 packs elements into pairing
bases: disjoint interactions (q1, q2) between equal-spin modes, with
q1 = q2 denoting a plain number measurement. Level 2 splits each pairing
basis into concrete tensor-product bases by assigning Re or Im to every
pair site so that each product component is measurable; a product needing
only number information is measurable in any concrete basis because all
diagonalization circuits conserve the pair occupation number.

Pair interactions are scheduled on the line by the exact router in
:mod:`qcmoments.routing`.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

import numpy as np

from .fermion import FermionOperator
from .routing import Schedule, route_pairs
from .simulator import Circuit, operator_matrix_in_sector

# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True, order=True)
class RdmElement:
    """Canonical p-RDM excitation a†_{creations} a_{annihilations}."""

    creations: tuple
    annihilations: tuple

    def __post_init__(self):
        c, a = tuple(self.creations), tuple(self.annihilations)
        object.__setattr__(self, "creations", c)
        object.__setattr__(self, "annihilations", a)
        if len(c) != len(a):
            raise ValueError("creation/annihilation lists differ in length")
        for lst in (c, a):
            if any(lst[i] >= lst[i + 1] for i in range(len(lst) - 1)):
                raise ValueError("index lists must be strictly increasing")

    @property
    def order(self) -> int:
        return len(self.creations)

    def is_spin_conserving(self, spins) -> bool:
        return sorted(spins[m] for m in self.creations) == \
            sorted(spins[m] for m in self.annihilations)

    def operator(self, n_modes: int) -> FermionOperator:
        ops = [(m, True) for m in self.creations] + \
            [(m, False) for m in self.annihilations]
        return FermionOperator.from_ops(n_modes, ops)

    def to_json(self):
        return [list(self.creations), list(self.annihilations)]

    @classmethod
    def from_json(cls, obj) -> "RdmElement":
        return cls(tuple(obj[0]), tuple(obj[1]))


def enumerate_elements(n_modes: int, p: int, spins=None):
    """Canonical spin-conserving representatives, lexicographic order."""
    if p > n_modes:
        raise ValueError("p exceeds the number of modes")
    out = []
    for anns in itertools.combinations(range(n_modes), p):
        for cres in itertools.combinations(range(n_modes), p):
            if anns > cres:
                continue  # conjugate representative
            e = RdmElement(cres, anns)
            if spins is None or e.is_spin_conserving(spins):
                out.append(e)
    out.sort(key=lambda e: (e.annihilations, e.creations))
    return out


# ---------------------------------------------------------------------------
# decomposition into Re/Im/number products

# a factor is ("N", (i,)), ("Re", (j, k)) or ("Im", (j, k)) with j < k


def _split_element(e: RdmElement):
    """Repeated indices (number factors) and the residual cross indices."""
    numbers = sorted(set(e.creations) & set(e.annihilations))
    cres = [m for m in e.creations if m not in numbers]
    anns = [m for m in e.annihilations if m not in numbers]
    return numbers, cres, anns


def _cross_matchings(cres, anns, spins):
    """All same-spin pairings of residual creations with annihilations."""
    by_spin_c, by_spin_a = {}, {}
    for m in cres:
        by_spin_c.setdefault(spins[m], []).append(m)
    for m in anns:
        by_spin_a.setdefault(spins[m], []).append(m)
    if {s: len(v) for s, v in by_spin_c.items()} != \
            {s: len(v) for s, v in by_spin_a.items()}:
        return []
    per_spin = []
    for s in sorted(by_spin_c):
        cs, as_ = by_spin_c[s], by_spin_a[s]
        per_spin.append([list(zip(cs, perm))
                         for perm in itertools.permutations(as_)])
    matchings = []
    for combo in itertools.product(*per_spin) if per_spin else [()]:
        matchings.append(tuple(sorted(p for grp in combo for p in grp)))
    return sorted(set(matchings))


def decompose_element(e: RdmElement, spins, matching=None):
    """Signed even-Im products reconstructing (e + e†)/2 exactly.

    Returns a list of (sign, factors) with sign ∈ {+1, -1}; the sum of
    sign · Π(factors) equals the Hermitian part of the element as an
    operator identity. Raises ValueError if no same-spin pairing exists.

    The signs follow in closed form from the anticommutation relations
    (Helgaker, Jørgensen and Olsen, *Molecular Electronic-Structure
    Theory*, ch. 1). Reordering the element into pair form
    σ · Π n_i · Π a†_c a_a, over its number modes i and the matching's
    pairs (c, a), never moves a†_x past a_x, so it only picks up the parity
    σ of the permutation. With a†_c a_a = Re + i·s·Im, where s = +1 if
    c < a and -1 otherwise, the commuting Hermitian factors leave the
    product with m Im factors the sign σ · (-1)^(m/2) · Π s over its Im
    factors in the Hermitian part, and nothing when m is odd.
    """
    numbers, cres, anns = _split_element(e)
    if matching is None:
        options = _cross_matchings(cres, anns, spins)
        if not options:
            raise ValueError(f"no same-spin pairing for {e} "
                             "(spin-nonconserving element reached planning)")
        matching = options[0]
    sigma = _permutation_parity(
        [(True, m) for m in e.creations] + [(False, m) for m in e.annihilations],
        [op for i in numbers for op in ((True, i), (False, i))]
        + [op for c, a in matching for op in ((True, c), (False, a))])
    num_factors = tuple(("N", (i,)) for i in numbers)
    sites = [tuple(sorted(p)) for p in matching]
    orient = [1 if c < a else -1 for c, a in matching]
    products = []
    for kinds in itertools.product(("Re", "Im"), repeat=len(sites)):
        ims = [s for k, s in zip(kinds, orient) if k == "Im"]
        if len(ims) % 2:
            continue
        sign = sigma * (-1) ** (len(ims) // 2) * prod(ims)
        products.append((sign, num_factors + tuple(zip(kinds, sites))))
    return products


def _permutation_parity(before, after):
    """+1 or -1: the parity of the permutation taking the sequence
    `before` to `after` (the same distinct items)."""
    position = {item: i for i, item in enumerate(before)}
    order = [position[item] for item in after]
    inversions = sum(1 for i in range(len(order))
                     for j in range(i + 1, len(order)) if order[i] > order[j])
    return -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# level-1 grouping into pairing bases


@dataclass
class PairingBasis:
    """Disjoint equal-spin interactions; (q, q) is a number measurement."""

    interactions: list
    assignments: dict | None = None   # site -> "Number" | "Re" | "Im"
    schedule: Schedule | None = None
    schedule_pairs: list = field(default_factory=list)  # routed position pairs
    parent: int | None = None         # level-1 index for concrete bases

    def pair_sites(self):
        return [tuple(s) for s in self.interactions if s[0] != s[1]]

    def to_json(self) -> dict:
        return {
            "interactions": [list(s) for s in self.interactions],
            "assignments": None if self.assignments is None else
            {f"[{a}, {b}]": v for (a, b), v in self.assignments.items()},
            "schedule": None if self.schedule is None
            else self.schedule.to_json(),
            "schedule_pairs": [list(p) for p in self.schedule_pairs],
            "parent": self.parent,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PairingBasis":
        assignments = obj["assignments"]
        if assignments is not None:
            assignments = {_site_key(k): v for k, v in assignments.items()}
        schedule = obj["schedule"]
        if schedule is not None:
            schedule = Schedule.from_json(schedule)
        return cls([tuple(s) for s in obj["interactions"]], assignments,
                   schedule, [tuple(p) for p in obj["schedule_pairs"]],
                   obj["parent"])


def _site_key(key: str) -> tuple:
    """(a, b) from an assignment key written as "[a, b]"; ValueError if
    the key is written any other way."""
    a, _, b = key[1:-1].partition(", ")
    try:
        site = (int(a), int(b))
    except ValueError:
        site = None
    if site is None or key != f"[{site[0]}, {site[1]}]":
        raise ValueError(f"malformed assignment key {key!r}")
    return site


def _number_covers(numbers, spins):
    """Ways to cover number factors by self or shared equal-spin sites."""
    numbers = list(numbers)
    if not numbers:
        yield frozenset()
        return
    i, rest = numbers[0], numbers[1:]
    for cov in _number_covers(rest, spins):
        yield cov | {(i, i)}
    for j in rest:
        if spins[i] == spins[j]:
            remaining = [x for x in rest if x != j]
            for cov in _number_covers(remaining, spins):
                yield cov | {(i, j)}


def _requirement_options(e: RdmElement, spins):
    """(matching, interaction set) alternatives, smallest sets first."""
    numbers, cres, anns = _split_element(e)
    matchings = _cross_matchings(cres, anns, spins)
    if not matchings:
        raise ValueError(f"no same-spin pairing for {e}")
    options = []
    for matching in matchings:
        cross = frozenset(tuple(sorted(p)) for p in matching)
        for cover in _number_covers(numbers, spins):
            options.append((matching, cross | cover))
    options.sort(key=lambda mo: (len(mo[1]), sorted(mo[1]), mo[0]))
    return options


def group_level1(elements, spins):
    """Greedy first-fit partition of elements into pairing bases.

    Returns (bases, assignments) with assignments[i] = (basis index,
    matching, required interaction set) for elements[i]. An element goes to
    the first basis that one of its options fits, with the option that adds
    the fewest interactions there (the first on ties), or else opens a basis
    with its smallest option.

    The bases are tracked as bit sets over basis indices: ``holds[site]``
    marks the bases that hold an interaction and ``busy[q]`` those in which
    qubit q is taken. A required site fits a basis that holds it or in
    which both its qubits are free, so the AND over an option's sites of
    ``holds[site] | ~(busy[q1] | busy[q2])`` is every basis the option fits,
    and the lowest set bit over all options is the first-fit basis. The
    sites of one option are pairwise disjoint, so they cannot clash with
    each other.
    """
    holds, busy = {}, [0] * len(spins)
    haves, assignments = [], []
    for e in elements:
        options = _requirement_options(e, spins)
        fits = []
        for _, required in options:
            fit = (1 << len(haves)) - 1
            for site in required:
                fit &= holds.get(site, 0) | ~(busy[site[0]] | busy[site[1]])
            fits.append(fit)
        union = 0
        for fit in fits:
            union |= fit
        if union:
            bit = union & -union
            best = None
            for option, fit in zip(options, fits):
                if fit & bit:
                    additions = [site for site in option[1]
                                 if not holds.get(site, 0) & bit]
                    if best is None or len(additions) < len(added):
                        best, added = option, additions
        else:
            bit = 1 << len(haves)
            best, added = options[0], list(options[0][1])
            haves.append(set())
        b_idx = bit.bit_length() - 1
        haves[b_idx].update(added)
        for site in added:
            holds[site] = holds.get(site, 0) | bit
            busy[site[0]] |= bit
            busy[site[1]] |= bit
        assignments.append((b_idx, best[0], best[1]))
    return [PairingBasis(sorted(have)) for have in haves], assignments


# ---------------------------------------------------------------------------
# level-2 grouping into concrete bases


def component_labels(factors, sites):
    """Site-wise label string: Re -> X, Im -> Y, number/absent -> I."""
    labels = []
    for site in sites:
        kind = "I"
        for k, idx in factors:
            if k in ("Re", "Im") and tuple(idx) == tuple(site):
                kind = "X" if k == "Re" else "Y"
        labels.append(kind)
    return tuple(labels)


def group_level2(basis: PairingBasis, element_products):
    """Split a pairing basis so every product component is measurable.

    element_products: list of (element, products) with products as returned
    by decompose_element. Returns (concrete bases, placements) where
    placements[i] = list of (concrete index, sign, factors) per element.
    """
    sites = basis.pair_sites()
    concrete: list[dict] = []   # site -> "X"/"Y" (partial)
    placements = []
    for element, products in element_products:
        placed = []
        for sign, factors in products:
            labels = component_labels(factors, sites)
            idx = None
            for c_idx, assign in enumerate(concrete):
                if all(lab == "I" or assign.get(site, lab) == lab
                       for site, lab in zip(sites, labels)):
                    idx = c_idx
                    break
            if idx is None:
                concrete.append({})
                idx = len(concrete) - 1
            for site, lab in zip(sites, labels):
                if lab != "I":
                    concrete[idx][site] = lab
            placed.append((idx, sign, factors))
        placements.append(placed)
    if not concrete:
        concrete.append({})
    out = []
    for assign in concrete:
        assignments = {}
        for site in basis.interactions:
            if site[0] == site[1]:
                assignments[tuple(site)] = "Number"
            else:
                assignments[tuple(site)] = \
                    "Re" if assign.get(tuple(site), "X") == "X" else "Im"
        out.append(PairingBasis(list(basis.interactions), assignments,
                                basis.schedule, list(basis.schedule_pairs)))
    return out, placements


# ---------------------------------------------------------------------------
# full plan


@dataclass
class MeasurementPlan:
    n_modes: int
    spins: tuple
    level1: list          # PairingBasis (schedules attached)
    bases: list           # concrete PairingBasis (parent set)
    coverage: dict        # RdmElement -> list of (basis idx, sign, factors)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "n_modes": self.n_modes,
            "spins": "".join(self.spins),
            "level1": [b.to_json() for b in self.level1],
            "bases": [b.to_json() for b in self.bases],
            # json writes each (index, sign, factors) tuple as a list
            "coverage": [
                [e.to_json(), prods] for e, prods in self.coverage.items()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MeasurementPlan":
        coverage = {}
        for e_json, prods in obj["coverage"]:
            coverage[RdmElement.from_json(e_json)] = [
                (idx, sign, tuple((k, tuple(i)) for k, i in factors))
                for idx, sign, factors in prods]
        return cls(obj["n_modes"], tuple(obj["spins"]),
                   [PairingBasis.from_json(b) for b in obj["level1"]],
                   [PairingBasis.from_json(b) for b in obj["bases"]],
                   coverage)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "MeasurementPlan":
        return cls.from_json(json.loads(text))


def build_plan(elements, spins, max_depth: int = 8,
               layout=None) -> MeasurementPlan:
    """Decompose, group (both levels), and route a set of RDM elements."""
    n_modes = len(spins)
    layout = tuple(layout) if layout is not None else tuple(range(n_modes))
    level1, assignments = group_level1(elements, spins)
    position = {m: i for i, m in enumerate(layout)}
    for basis in level1:
        pairs = [tuple(sorted((position[a], position[b])))
                 for a, b in basis.pair_sites()]
        basis.schedule_pairs = pairs
        basis.schedule = route_pairs(pairs, n_modes, max_depth=max_depth)
    per_basis = {i: [] for i in range(len(level1))}
    for e, (b_idx, matching, _req) in zip(elements, assignments):
        products = decompose_element(e, spins, matching=matching)
        per_basis[b_idx].append((e, products))
    bases, coverage = [], {}
    for b_idx, basis in enumerate(level1):
        concrete, placements = group_level2(basis, per_basis[b_idx])
        offset = len(bases)
        for c in concrete:
            c.parent = b_idx
        bases.extend(concrete)
        for (e, _products), placed in zip(per_basis[b_idx], placements):
            coverage[e] = [(offset + idx, sign, factors)
                           for idx, sign, factors in placed]
    return MeasurementPlan(n_modes, tuple(spins), level1, bases, coverage)


# ---------------------------------------------------------------------------
# measurement circuits

# Diagonalizer for Re(a†_j a_{j+1}) on adjacent qubits (lo, lo+1): a Givens
# rotation mapping the ±1/2 eigenvectors (|01⟩ ± |10⟩)/√2 onto the
# computational states; conserves the pair occupation number. The Im
# diagonalizer is the same circuit preceded by S on the low qubit
# (S Im S† = Re on the odd-occupation block).


def _re_diagonalizer(circ: Circuit, lo: int):
    circ.cnot(lo, lo + 1).ry(lo, np.pi / 4).cnot(lo + 1, lo)
    circ.ry(lo, -np.pi / 4).cnot(lo, lo + 1)


def _im_diagonalizer(circ: Circuit, lo: int):
    circ.s(lo)
    _re_diagonalizer(circ, lo)


#: computational outcome (bit_lo, bit_hi) -> eigenvalue of Re/Im (±1/2)
PAIR_EIGENVALUE = {(0, 0): 0.0, (1, 0): -0.5, (0, 1): 0.5, (1, 1): 0.0}


@lru_cache(maxsize=1)
def _verify_diagonalizers():
    """Build-time matrix check: diagonalization + number conservation."""
    from .simulator import run

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
        for (b_lo, b_hi), ev in PAIR_EIGENVALUE.items():
            assert abs(d[b_lo + 2 * b_hi, b_lo + 2 * b_hi].real - ev) < 1e-10
            assert 0.5 * (b_hi - b_lo) == ev     # MeasurementCircuit.pair_value
    return True


@dataclass
class MeasurementCircuit:
    """Routed and diagonalized circuit plus outcome-decoding metadata."""

    circuit: Circuit
    #: mode -> final measured position (modes not absorbed into a pair)
    mode_positions: dict
    #: site (q1, q2) -> (final lo position, final hi position, mode at lo)
    site_positions: dict
    assignments: dict

    # The decoders take an outcome index or an integer array of them.

    def pair_value(self, site, bits):
        """Re/Im eigenvalue of a pair site decoded from an outcome:
        PAIR_EIGENVALUE written as (bit_hi - bit_lo) / 2."""
        lo, hi, _ = self.site_positions[tuple(site)]
        return 0.5 * ((bits >> hi & 1) - (bits >> lo & 1))

    def number_value(self, mode: int, bits):
        return 1.0 * (bits >> self.mode_positions[mode] & 1)

    def pair_occupation(self, site, bits):
        """Product n_i n_j for the two modes absorbed into a pair site."""
        lo, hi, _ = self.site_positions[tuple(site)]
        return 1.0 * (bits >> lo & bits >> hi & 1)


def product_value(mc: MeasurementCircuit, factors, bits):
    """Decode one signed-product component from a computational outcome.

    `bits` is an outcome index, or an integer array of them to decode all at
    once. Number factors absorbed into a shared pair site are decoded once
    as the joint occupation of that site; Im factors flip sign when the
    lower mode of the canonical factor sat on the high qubit at interaction
    time.
    """
    val = 1.0
    handled = set()
    for kind, idx in factors:
        if kind == "N":
            i = idx[0]
            if i in handled:
                continue
            if i in mc.mode_positions:
                val *= mc.number_value(i, bits)
                handled.add(i)
            else:
                site = next(s for s in mc.site_positions if i in s)
                val *= mc.pair_occupation(site, bits)
                handled.update(site)
        elif kind == "Re":
            val *= mc.pair_value(idx, bits)
        else:
            orient = 1.0 if mc.site_positions[tuple(idx)][2] == idx[0] \
                else -1.0
            val *= orient * mc.pair_value(idx, bits)
    return val


def build_measurement_circuit(basis: PairingBasis, layout) -> \
        MeasurementCircuit:
    """Emit fswap routing plus per-pair diagonalization for a concrete basis.

    `layout` is the position -> mode map the routing schedule was computed
    for; a mismatch between the schedule's recorded start positions and the
    pair positions under this layout is an error.
    """
    _verify_diagonalizers()
    if basis.assignments is None:
        raise ValueError("basis has no level-2 assignments")
    layout = tuple(layout)
    n_qubits = len(layout)
    position = {m: i for i, m in enumerate(layout)}
    pair_sites = basis.pair_sites()
    schedule = basis.schedule or Schedule(n_qubits, [])
    expected = [tuple(sorted((position[a], position[b])))
                for a, b in pair_sites]
    if list(basis.schedule_pairs) != expected:
        raise ValueError("routing schedule does not match the layout")
    if pair_sites and not schedule.steps:
        raise ValueError("pair interactions present but schedule is empty")

    circ = Circuit(n_qubits)
    occupant = list(layout)  # position -> mode label or ("site", idx, "lo/hi")
    site_positions = {}
    for step in schedule.steps:
        for (i, j) in step.swaps:
            circ.fswap(i, j)
            occupant[i], occupant[j] = occupant[j], occupant[i]
        for pair_id, (i, j) in step.interactions:
            site = pair_sites[pair_id]
            kind = basis.assignments[tuple(site)]
            mode_lo = occupant[i]
            if kind == "Re":
                _re_diagonalizer(circ, i)
            elif kind == "Im":
                _im_diagonalizer(circ, i)
            else:
                raise ValueError(f"pair site {site} lacks Re/Im assignment")
            occupant[i] = ("site", pair_id, "lo", mode_lo)
            occupant[j] = ("site", pair_id, "hi", mode_lo)
    mode_positions, lo_hi = {}, {}
    for pos, label in enumerate(occupant):
        if isinstance(label, tuple):
            _, pair_id, end, mode_lo = label
            lo_hi.setdefault(pair_id, {})[end] = (pos, mode_lo)
        else:
            mode_positions[label] = pos
    for pair_id, ends in lo_hi.items():
        site = pair_sites[pair_id]
        site_positions[tuple(site)] = (ends["lo"][0], ends["hi"][0],
                                       ends["lo"][1])
    return MeasurementCircuit(circ, mode_positions, site_positions,
                              dict(basis.assignments))
