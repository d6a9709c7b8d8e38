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
:mod:`qcmoments.routing`, once per level-1 basis: a concrete basis is its
level-1 parent plus one Re/Im choice per pair site, and it shares the
parent's schedule, in memory and in the plan file (schema 3, see
:class:`MeasurementPlan`). :func:`build_measurement_circuit` checks that a
schedule brings each site's two modes together under the layout it is
given, which is what the outcome decoding relies on.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .fermion import FermionOperator, sort_sign
from .routing import Schedule, route_pairs
from .simulator import Circuit

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
        if sorted(set(c)) != list(c) or sorted(set(a)) != list(a):
            raise ValueError("index lists must be strictly increasing")

    @property
    def order(self) -> int:
        return len(self.creations)

    def operator(self, n_modes: int) -> FermionOperator:
        ops = [(m, True) for m in self.creations] + \
            [(m, False) for m in self.annihilations]
        return FermionOperator.from_ops(n_modes, ops)


def enumerate_elements(n_modes: int, p: int, spins=None):
    """Canonical spin-conserving representatives a†_c a_a with c ≥ a, in
    (annihilations, creations) lexicographic order.

    An element conserves spin when its creations and annihilations carry
    the same multiset of spins, so each index combination's sorted spin
    tuple is computed once and only matching pairs become elements.
    """
    if p > n_modes:
        raise ValueError("p exceeds the number of modes")
    combos = list(itertools.combinations(range(n_modes), p))
    keys = [None if spins is None else tuple(sorted(spins[m] for m in c))
            for c in combos]
    return [RdmElement(cres, anns)
            for i, anns in enumerate(combos)
            for cres, key in zip(combos[i:], keys[i:]) if key == keys[i]]


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
    pairs (c, a), never moves a†_x past a_x, so it only picks up the sign
    σ of the permutation: ``fermion.sort_sign`` of the element's operator
    positions, listed in pair form. With a†_c a_a = Re + i·s·Im, where
    s = +1 if c < a and -1 otherwise, the commuting Hermitian factors leave
    the product with m Im factors the sign σ · (-1)^(m/2) · Π s over its Im
    factors in the Hermitian part, and nothing when m is odd.
    """
    numbers, cres, anns = _split_element(e)
    if matching is None:
        options = _cross_matchings(cres, anns, spins)
        if not options:
            raise ValueError(f"no same-spin pairing for {e} "
                             "(spin-nonconserving element reached planning)")
        matching = options[0]
    cre_at = {m: i for i, m in enumerate(e.creations)}
    ann_at = {m: i for i, m in enumerate(e.annihilations, e.order)}
    pair_form = [(i, i) for i in numbers] + list(matching)
    sigma = sort_sign([at for c, a in pair_form
                       for at in (cre_at[c], ann_at[a])])[1]
    # the even-Im kind tuples in itertools.product order (Re before Im):
    # every kind at the sites but the last, and there the kind that makes
    # the Im count even. An Im factor of orientation s contributes s, and
    # every second one also -1, which gives (-1)^(m/2)
    partial = [(sigma, tuple(("N", (i,)) for i in numbers), False)]
    for k, (c, a) in enumerate(matching, 1):
        site, s = ((c, a), 1) if c < a else ((a, c), -1)
        re_f, im_f = ("Re", site), ("Im", site)
        if k < len(matching):
            partial = [q for sign, f, odd in partial for q in (
                (sign, f + (re_f,), odd),
                (-sign * s if odd else sign * s, f + (im_f,), not odd))]
        else:
            partial = [(-sign * s, f + (im_f,), False) if odd
                       else (sign, f + (re_f,), False)
                       for sign, f, odd in partial]
    return [(sign, f) for sign, f, _ in partial]


# ---------------------------------------------------------------------------
# level-1 grouping into pairing bases


@dataclass
class PairingBasis:
    """Disjoint equal-spin interactions; (q, q) is a number measurement.
    :func:`build_plan` attaches the schedule that routes its pair sites."""

    interactions: list
    schedule: Schedule | None = None

    def pair_sites(self):
        return [tuple(s) for s in self.interactions if s[0] != s[1]]


@dataclass(frozen=True)
class ConcreteBasis:
    """A pairing basis with "Re" or "Im" measured at each of its pair sites,
    in ``pair_sites()`` order; it shares its parent's schedule."""

    parent: PairingBasis
    kinds: tuple


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
    covers = list(_number_covers(numbers, spins))
    options = []
    for matching in matchings:
        cross = frozenset(tuple(sorted(p)) for p in matching)
        for cover in covers:
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


def group_level2(basis: PairingBasis, element_products):
    """Split a pairing basis so every product component is measurable.

    element_products: list of (element, products) with products as returned
    by decompose_element. Returns (concrete bases, placements) where
    placements[i] = list of (concrete index, sign, factors) per element.
    Each product goes to the first concrete basis whose kinds agree with its
    Re/Im factors, or opens one; a site no product fixes is measured as Re.
    """
    sites = basis.pair_sites()
    concrete: list[dict] = []   # site -> "Re"/"Im" (partial)
    placements = []
    for element, products in element_products:
        placed = []
        for sign, factors in products:
            wanted = [(site, k) for k, site in factors if k != "N"]
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
    return [ConcreteBasis(basis, tuple(chosen.get(site, "Re")
                                       for site in sites))
            for chosen in concrete], placements


# ---------------------------------------------------------------------------
# full plan


#: version of the plan layout that ``dumps`` writes and ``loads`` reads
PLAN_SCHEMA = 3

#: factor kinds by their code in the coverage arrays and records
KINDS = ("N", "Re", "Im")


@dataclass
class MeasurementPlan:
    """The level-1 pairing bases, each routed once, the concrete bases that
    refer to them, and the signed products that measure each element.

    The coverage is held in flat int64 arrays. Row k of ``elements`` holds
    element k's p creations, then its p annihilations, and its products are
    ``product_offsets[k]:product_offsets[k + 1]``. Product q is measured in
    concrete basis ``product_basis[q]`` with sign ``product_sign[q]``, and
    its factors are the rows ``factor_offsets[q]:factor_offsets[q + 1]`` of
    ``factors``: (kind, i, j) with the kind's index in :data:`KINDS`, for N
    of mode i = j, or Re or Im of the site (i, j).

    ``dumps`` writes, on one line, ``{"schema": 3, "n_modes", "spins",
    "level1", "bases", "coverage"}``: ``level1`` holds each pairing basis's
    ``interactions`` and ``schedule``, ``bases`` holds each concrete basis
    as ``[parent, kinds]`` (a level-1 index and one "Re"/"Im" per pair site
    of the parent), and ``coverage`` holds ``[element, products]`` pairs:
    ``[creations, annihilations]`` and one flat list of the element's
    product records, each ``basis, sign, n_factors`` and then ``kind, i, j``
    per factor.
    """

    n_modes: int
    spins: tuple
    level1: list          # PairingBasis, each with its routing schedule
    bases: list           # ConcreteBasis, each sharing its parent's schedule
    elements: np.ndarray          # (E, 2p)
    product_offsets: np.ndarray   # (E + 1,)
    product_basis: np.ndarray     # (P,)
    product_sign: np.ndarray      # (P,)
    factor_offsets: np.ndarray    # (P + 1,)
    factors: np.ndarray           # (F, 3)

    @property
    def order(self) -> int:
        return self.elements.shape[1] // 2

    def coverage(self) -> dict:
        """RdmElement -> its products (basis, sign, factors) in plan order,
        the factors as decompose_element gives them."""
        p, fo, po = self.order, self.factor_offsets, self.product_offsets
        factors = [(KINDS[k], (i,) if k == 0 else (i, j))
                   for k, i, j in self.factors.tolist()]
        products = [(b, s, tuple(factors[fo[q]:fo[q + 1]])) for q, (b, s) in
                    enumerate(zip(self.product_basis.tolist(),
                                  self.product_sign.tolist()))]
        return {RdmElement(tuple(e[:p]), tuple(e[p:])):
                products[po[k]:po[k + 1]]
                for k, e in enumerate(self.elements.tolist())}

    def dumps(self) -> str:
        parent = {id(b): i for i, b in enumerate(self.level1)}
        records = np.insert(  # each product's header before its factors
            self.factors.ravel(), np.repeat(3 * self.factor_offsets[:-1], 3),
            np.stack([self.product_basis, self.product_sign,
                      np.diff(self.factor_offsets)], axis=1).ravel()).tolist()
        # an element's records end where its next product's record starts
        cuts = (3 * (self.product_offsets
                     + self.factor_offsets[self.product_offsets])).tolist()
        elements = self.elements.reshape(len(self.elements), 2, -1).tolist()
        return json.dumps({
            "schema": PLAN_SCHEMA,
            "n_modes": self.n_modes,
            "spins": "".join(self.spins),
            "level1": [{"interactions": [list(s) for s in b.interactions],
                        "schedule": b.schedule.to_json()}
                       for b in self.level1],
            "bases": [[parent[id(c.parent)], list(c.kinds)]
                      for c in self.bases],
            "coverage": [[e, records[lo:hi]] for e, lo, hi in
                         zip(elements, cuts, cuts[1:])],
        })

    @classmethod
    def loads(cls, text: str) -> "MeasurementPlan":
        """The plan `text` holds; ValueError if it is of another schema, or
        if a level-1 schedule, a concrete basis, a coverage element or a
        coverage product does not fit the plan. The elements must be pairs
        of strictly increasing mode lists of one length, each listed once
        and with products, and each element's list whole records."""
        obj = json.loads(text)
        if obj["schema"] != PLAN_SCHEMA:
            raise ValueError(
                f"plan schema {obj['schema']!r}: this version reads schema "
                f"{PLAN_SCHEMA} only; re-run `plan` to rewrite it")
        n_modes = obj["n_modes"]
        level1 = [PairingBasis([tuple(s) for s in b["interactions"]],
                               Schedule.from_json(b["schedule"]))
                  for b in obj["level1"]]
        for i, b in enumerate(level1):
            if b.schedule.n_qubits != n_modes \
                    or not isinstance(b.schedule.certified, bool):
                raise ValueError(
                    f"level-1 schedule {i} has n_qubits "
                    f"{b.schedule.n_qubits!r} and certified "
                    f"{b.schedule.certified!r}; it needs n_qubits equal to "
                    f"n_modes {n_modes} and a boolean certified")
        sites = [b.pair_sites() for b in level1]
        bases = []
        for parent, kinds in obj["bases"]:
            if not (isinstance(parent, int) and 0 <= parent < len(level1)
                    and len(kinds) == len(sites[parent])
                    and set(kinds) <= {"Re", "Im"}):
                raise ValueError(f"concrete basis {[parent, kinds]} is not "
                                 "a level-1 basis with Re or Im at each of "
                                 "its pair sites")
            bases.append(ConcreteBasis(level1[parent], tuple(kinds)))
        coverage = obj["coverage"]
        elements = np.array([e for e, _ in coverage])
        if elements.dtype != np.int64 or elements.ndim != 3 \
                or elements.shape[1] != 2 or (np.diff(elements) <= 0).any() \
                or elements.min() < 0 or elements.max() >= n_modes:
            raise ValueError("coverage elements must be [creations, "
                             "annihilations] of one length, each strictly "
                             f"increasing in 0..{n_modes - 1}")
        elements = elements.reshape(len(coverage), -1)
        ranked = elements[np.lexsort(elements.T)]
        twice = ranked[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]
        if len(twice):
            element = twice[0].reshape(2, -1).tolist()
            raise ValueError(f"coverage element {element} appears twice")
        # walk each element's records: basis, sign, n_factors, then
        # n_factors (kind, i, j)
        records = list(itertools.chain.from_iterable(p for _, p in coverage))
        starts, product_offsets, end = [], [0], 0
        for e, products in coverage:
            pos, end = end, end + len(products)
            while pos < end:
                starts.append(pos)
                n_factors = records[pos + 2] if pos + 3 <= end else 0
                if n_factors < 0:
                    raise ValueError(f"coverage record {records[pos:pos + 3]}"
                                     f" of {e} has a negative factor count")
                pos += 3 + 3 * n_factors
            if pos != end or not products:
                raise ValueError(f"the product records of {e} are empty or "
                                 "run past their list")
            product_offsets.append(len(starts))
        records, starts = np.array(records), np.array(starts)
        if records.dtype != np.int64:
            raise ValueError("coverage records must hold integers only")
        product_basis, product_sign = records[starts], records[starts + 1]
        factor_offsets = np.append(0, np.cumsum(records[starts + 2]))
        factors = np.delete(records, starts[:, None] + np.arange(3)).reshape(
            -1, 3)
        # a product is decoded from its basis's outcomes: each factor must be
        # N of a mode or Re/Im of a site the basis measures so, as
        # measured[basis, i, j] holds
        n_bases = len(bases)
        measured = np.full((n_bases, n_modes, n_modes), -1)
        measured[:, range(n_modes), range(n_modes)] = KINDS.index("N")
        b, i, j, kind = np.array([
            (b, i, j, KINDS.index(kind))
            for b, (parent, kinds) in enumerate(obj["bases"])
            for (i, j), kind in zip(sites[parent], kinds)],
            dtype=np.int64).reshape(-1, 4).T
        measured[b, i, j] = kind
        product = np.repeat(np.arange(len(starts)), np.diff(factor_offsets))
        kind, i, j = factors.T
        fits = (product_basis >= 0) & (product_basis < n_bases) \
            & (np.abs(product_sign) == 1)
        inside = fits[product] & (kind >= 0) & (np.minimum(i, j) >= 0) \
            & (np.maximum(i, j) < n_modes)
        at = np.where(inside, [product_basis[product], i, j], 0)
        fits[product[~inside | (measured[tuple(at)] != kind)]] = False
        if not fits.all():
            q = np.argmin(fits)
            k = np.searchsorted(product_offsets, q, "right") - 1
            record = records[starts[q]:starts[q] + 3 + 3 * (
                factor_offsets[q + 1] - factor_offsets[q])].tolist()
            raise ValueError(
                f"coverage product {record} of {coverage[k][0]} needs a "
                f"basis in 0..{n_bases - 1}, a sign of ±1, and "
                "factors N of a mode (kind 0, i = j) or Re/Im (kind 1/2) of "
                "a site that the basis measures so")
        return cls(n_modes, tuple(obj["spins"]), level1, bases, elements,
                   np.array(product_offsets), product_basis, product_sign,
                   factor_offsets, factors)


def build_plan(elements, spins, max_depth: int = 8,
               layout=None) -> MeasurementPlan:
    """Decompose, group (both levels), and route a set of RDM elements of
    one order."""
    n_modes = len(spins)
    layout = tuple(layout) if layout is not None else tuple(range(n_modes))
    level1, assignments = group_level1(elements, spins)
    position = {m: i for i, m in enumerate(layout)}
    for basis in level1:
        pairs = [tuple(sorted((position[a], position[b])))
                 for a, b in basis.pair_sites()]
        basis.schedule = route_pairs(pairs, n_modes, max_depth=max_depth)
    per_basis = {i: [] for i in range(len(level1))}
    for e, (b_idx, matching, _req) in zip(elements, assignments):
        products = decompose_element(e, spins, matching=matching)
        per_basis[b_idx].append((e, products))
    bases, rows, n_products, headers, factors = [], [], [], [], []
    for b_idx, basis in enumerate(level1):
        concrete, placements = group_level2(basis, per_basis[b_idx])
        offset = len(bases)
        bases.extend(concrete)
        for (e, _products), placed in zip(per_basis[b_idx], placements):
            rows.append(e.creations + e.annihilations)
            n_products.append(len(placed))
            for idx, sign, product in placed:
                headers += (offset + idx, sign, len(product))
                for kind, site in product:
                    factors += (KINDS.index(kind), site[0], site[-1])
    headers = np.array(headers, dtype=np.int64).reshape(-1, 3)
    return MeasurementPlan(
        n_modes, tuple(spins), level1, bases, np.array(rows, dtype=np.int64),
        np.append(0, np.cumsum(n_products)), headers[:, 0], headers[:, 1],
        np.append(0, np.cumsum(headers[:, 2])),
        np.array(factors, dtype=np.int64).reshape(-1, 3))


# ---------------------------------------------------------------------------
# measurement circuits

# Diagonalizer for Re(a†_j a_{j+1}) on adjacent qubits (lo, lo+1): a Givens
# rotation mapping the ±1/2 eigenvectors (|01⟩ ± |10⟩)/√2 onto the
# computational states; conserves the pair occupation number. The Im
# diagonalizer is that circuit preceded by S on the low qubit (S Im S† = Re
# on the odd-occupation block), an S that MeasurementCircuit moves to the
# front. Tests check both against the hopping operator and pair_value.


def _re_diagonalizer(circ: Circuit, lo: int):
    circ.cnot(lo, lo + 1).ry(lo, np.pi / 4).cnot(lo + 1, lo)
    circ.ry(lo, -np.pi / 4).cnot(lo, lo + 1)


@dataclass
class MeasurementCircuit:
    """Routed and diagonalized circuit plus outcome-decoding metadata.

    The circuit is S where each Im site's low-end mode starts, then
    ``routed``: the parent's routing, every site diagonalized as Re. The Im
    diagonalizer's S moves there exactly: S = i^n on its mode's qubit, an
    FSWAP carries n along with the mode, gates on other qubits commute with
    it, and until its site interacts no other gate meets that mode. So one
    parent's concrete bases share all but ``kinds``."""

    routed: Circuit
    #: mode -> final measured position (modes not absorbed into a pair)
    mode_positions: dict
    #: site (q1, q2) -> (final lo position, final hi position, mode at lo)
    site_positions: dict
    #: "Re" or "Im" per pair site of the parent, and the start position of
    #: the mode at each site's low end
    kinds: tuple = ()
    starts: tuple = ()

    @property
    def phased(self) -> list:
        """Positions that S acts on before ``routed``."""
        return [q for q, k in zip(self.starts, self.kinds) if k == "Im"]

    @property
    def circuit(self) -> Circuit:
        circ = Circuit(self.routed.n_qubits)
        for q in self.phased:
            circ.s(q)
        return circ.extend(self.routed)

    # The decoders take an outcome index or an integer array of them.

    def pair_value(self, site, bits):
        """Re/Im eigenvalue (±1/2, or 0 on an even pair occupation) of a
        pair site decoded from an outcome as (bit_hi - bit_lo) / 2."""
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


def build_measurement_circuit(basis: ConcreteBasis, layout) -> \
        MeasurementCircuit:
    """Emit fswap routing plus per-pair diagonalization for a concrete basis.

    `layout` is the position -> mode map the state is measured in. The
    parent's schedule must fit it, as the decoding assumes: each routed
    interaction acts on adjacent positions (i, i + 1) that hold exactly its
    site's two modes, and every pair site interacts once. Otherwise
    ValueError.
    """
    layout = tuple(layout)
    pair_sites = basis.parent.pair_sites()
    circ = Circuit(len(layout))
    occupant = list(layout)  # position -> mode label or ("site", idx, "lo/hi")
    starts = [None] * len(pair_sites)
    interacted = 0
    for step in basis.parent.schedule.steps:
        for (i, j) in step.swaps:
            circ.fswap(i, j)
            occupant[i], occupant[j] = occupant[j], occupant[i]
        for pair_id, (i, j) in step.interactions:
            site = pair_sites[pair_id]
            # an interacted position holds a label, never a mode, so a site
            # cannot pass this check twice
            if j != i + 1 or {occupant[i], occupant[j]} != set(site):
                raise ValueError(
                    f"routed interaction of site {site} at positions "
                    f"({i}, {j}) does not meet its modes under layout "
                    f"{list(layout)}")
            interacted += 1
            mode_lo = occupant[i]
            starts[pair_id] = layout.index(mode_lo)
            _re_diagonalizer(circ, i)
            occupant[i] = ("site", pair_id, "lo", mode_lo)
            occupant[j] = ("site", pair_id, "hi", mode_lo)
    if interacted != len(pair_sites):
        raise ValueError(f"the schedule interacts {interacted} of the "
                         f"{len(pair_sites)} pair sites {pair_sites}")
    mode_positions, lo_hi, site_positions = {}, {}, {}
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
                              tuple(basis.kinds), tuple(starts))
