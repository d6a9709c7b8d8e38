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
orientation of each Im pair (see :func:`decompose_element`). A factor is
the code row (kind, i, j) that the plan file stores, the kind's index in
:data:`KINDS`: N of mode i = j, or Re or Im of the site (i, j).

Grouping is greedy and two-level. Level 1 packs elements into pairing
bases: disjoint interactions (q1, q2) between equal-spin modes, with
q1 = q2 denoting a plain number measurement. Level 2 splits each pairing
basis into concrete tensor-product bases by assigning Re or Im to every
pair site so that each product component is measurable; a product needing
only number information is measurable in any concrete basis because all
diagonalization circuits conserve the pair occupation number. Both levels
find the first fit with int bit masks, and one :func:`build_plan` call
builds the cross matchings of each residual index set and the number
covers of each number set once.

Pair interactions are scheduled on the line by the exact router in
:mod:`qcmoments.routing`, once per level-1 basis. A concrete basis is, in
memory as in the plan file (schema 3, see :class:`MeasurementPlan`), its
parent's level-1 index plus one Re/Im kind per pair site, and the parent's
one :class:`MeasurementCircuit` serves it. :func:`build_measurement_circuit`
checks that a schedule brings each site's two modes together under the
layout it is given, which is what the outcome decoding relies on.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .config import typed, typed_at
from .fermion import sort_sign
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

#: factor kinds by their code in factor rows (kind, i, j) and plan records
KINDS = ("N", "Re", "Im")
N, RE, IM = range(len(KINDS))


def _split_element(e: RdmElement):
    """Number modes and the residual cross indices, as increasing tuples."""
    anns = set(e.annihilations)
    numbers = tuple([m for m in e.creations if m in anns])
    return (numbers, tuple([m for m in e.creations if m not in anns]),
            tuple([m for m in e.annihilations if m not in numbers]))


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


def decompose_element(e: RdmElement, matching):
    """Signed even-Im products reconstructing (e + e†)/2 exactly, with the
    element's residual creations paired to its annihilations by `matching`
    (one of ``_cross_matchings``, as :func:`group_level1` chose it).

    Returns a list of (sign, factors) with sign ∈ {+1, -1} and the factors
    as code rows; the sum of sign · Π(factors) equals the Hermitian part of
    the element as an operator identity.

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
    cre_at = {m: i for i, m in enumerate(e.creations)}
    ann_at = {m: i for i, m in enumerate(e.annihilations, e.order)}
    numbers = [m for m in e.creations if m in ann_at]
    pair_form = [(i, i) for i in numbers] + list(matching)
    sigma = sort_sign([at for c, a in pair_form
                       for at in (cre_at[c], ann_at[a])])[1]
    # the even-Im kind tuples in itertools.product order (Re before Im):
    # every kind at the sites but the last, and there the kind that makes
    # the Im count even. An Im factor of orientation s contributes s, and
    # every second one also -1, which gives (-1)^(m/2)
    partial = [(sigma, tuple((N, i, i) for i in numbers), False)]
    for k, (c, a) in enumerate(matching, 1):
        (i, j), s = ((c, a), 1) if c < a else ((a, c), -1)
        re_f, im_f = (RE, i, j), (IM, i, j)
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
    """The level-1 basis of index `parent` with the kind code RE or IM
    measured at each of its pair sites, in ``pair_sites()`` order; it shares
    its parent's schedule and measurement circuit."""

    parent: int
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


def _requirement_options(e: RdmElement, spins, crosses, covers):
    """(matching, interaction set) alternatives, smallest sets first, from
    the caller's memos: `crosses` maps residual (creations, annihilations)
    to cross matchings with their sites, `covers` number modes to covers."""
    numbers, cres, anns = _split_element(e)
    if (cross := crosses.get((cres, anns))) is None:
        cross = crosses[cres, anns] = [
            (matching, frozenset(tuple(sorted(p)) for p in matching))
            for matching in _cross_matchings(cres, anns, spins)]
    if not cross:
        raise ValueError(f"no same-spin pairing for {e}")
    if (cover := covers.get(numbers)) is None:
        cover = covers[numbers] = list(_number_covers(numbers, spins))
    options = [(matching, sites | c) for matching, sites in cross
               for c in cover]
    if len(options) > 1:
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
    each other. Options are built from two memos that live for this call:
    cross matchings by residual (creations, annihilations), and number
    covers by number modes.
    """
    holds, busy = {}, [0] * len(spins)
    haves, assignments, crosses, covers = [], [], {}, {}
    for e in elements:
        options = _requirement_options(e, spins, crosses, covers)
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


def group_level2(level1, parent: int, element_products):
    """Split the pairing basis ``level1[parent]`` so every product component
    is measurable.

    element_products: list of (element, products) with products as returned
    by decompose_element. Returns (concrete bases, placements) where
    placements[i] = list of (concrete index, sign, factors) per element.
    Each product goes to the first concrete basis whose kinds agree with its
    Re/Im factors, or opens one; a site no product fixes is measured as Re.
    A concrete basis is two bit masks, its pair sites fixed to Re and to
    Im; a product fits unless one of its sites is fixed to the other kind.
    """
    bit = {site: 1 << k for k, site in enumerate(level1[parent].pair_sites())}
    re_sites, im_sites = [], []
    placements = []
    for element, products in element_products:
        placed = []
        for sign, factors in products:
            re = im = 0
            for k, i, j in factors:
                if k == RE:
                    re |= bit[i, j]
                elif k == IM:
                    im |= bit[i, j]
            for idx, (has_re, has_im) in enumerate(zip(re_sites, im_sites)):
                if not (re & has_im or im & has_re):
                    break
            else:
                idx = len(re_sites)
                re_sites.append(0)
                im_sites.append(0)
            re_sites[idx] |= re
            im_sites[idx] |= im
            placed.append((idx, sign, factors))
        placements.append(placed)
    return [ConcreteBasis(parent, tuple(IM if has_im >> k & 1 else RE
                                        for k in range(len(bit))))
            for has_im in im_sites or [0]], placements


# ---------------------------------------------------------------------------
# full plan


#: version of the plan layout that ``dumps`` writes and ``loads`` reads
PLAN_SCHEMA = 3


@dataclass
class MeasurementPlan:
    """The level-1 pairing bases, each routed once, the concrete bases that
    refer to them, and the signed products that measure each element.

    The coverage is held in int64 arrays. Row k of ``elements`` holds
    element k's p creations, then its p annihilations, and its products are
    ``product_offsets[k]:product_offsets[k + 1]``. Product q is measured in
    concrete basis ``product_basis[q]`` with sign ``product_sign[q]``, and
    ``factors[q]`` holds its p factors, the code rows of
    :func:`decompose_element`: N per number mode, Re or Im per cross pair.

    ``dumps`` writes, on one line, ``{"schema": 3, "n_modes", "spins",
    "level1", "bases", "coverage"}``: ``level1`` holds each pairing basis's
    ``interactions`` and ``schedule``, ``bases`` holds each concrete basis
    as ``[parent, kinds]`` (a level-1 index and the name of one kind, Re or
    Im, per pair site of the parent), and ``coverage`` holds ``[element,
    products]`` pairs: ``[creations, annihilations]`` and one flat list of
    the element's product records, each ``basis, sign, p`` and then
    ``kind, i, j`` per factor, so 3 + 3p values. In memory a concrete basis
    holds the same index and its kinds as codes.
    """

    n_modes: int
    spins: tuple
    level1: list          # PairingBasis, each with its routing schedule
    bases: list           # ConcreteBasis, each a level1 index and kinds
    elements: np.ndarray          # (E, 2p)
    product_offsets: np.ndarray   # (E + 1,)
    product_basis: np.ndarray     # (P,)
    product_sign: np.ndarray      # (P,)
    factors: np.ndarray           # (P, p, 3)

    @property
    def order(self) -> int:
        return self.elements.shape[1] // 2

    def coverage(self) -> dict:
        """RdmElement -> its products (basis, sign, factors) in plan order,
        the factors as decompose_element gives them."""
        p, po = self.order, self.product_offsets
        products = [(b, s, tuple(map(tuple, f))) for b, s, f in zip(
            self.product_basis.tolist(), self.product_sign.tolist(),
            self.factors.tolist())]
        return {RdmElement(tuple(e[:p]), tuple(e[p:])):
                products[po[k]:po[k + 1]]
                for k, e in enumerate(self.elements.tolist())}

    def dumps(self) -> str:
        records = np.column_stack([
            self.product_basis, self.product_sign,
            np.full_like(self.product_sign, self.order),
            self.factors.reshape(len(self.factors), -1)]).ravel().tolist()
        cuts = ((3 + 3 * self.order) * self.product_offsets).tolist()
        elements = self.elements.reshape(len(self.elements), 2, -1).tolist()
        return json.dumps({
            "schema": PLAN_SCHEMA,
            "n_modes": self.n_modes,
            "spins": "".join(self.spins),
            "level1": [{"interactions": [list(s) for s in b.interactions],
                        "schedule": b.schedule.to_json()}
                       for b in self.level1],
            "bases": [[c.parent, [KINDS[k] for k in c.kinds]]
                      for c in self.bases],
            "coverage": [[e, records[lo:hi]] for e, lo, hi in
                         zip(elements, cuts, cuts[1:])],
        })

    @classmethod
    def loads(cls, text: str) -> "MeasurementPlan":
        """The plan `text` holds. ConfigError names an integer that breaks
        the config's rule (:func:`config.typed`), such as a bool or a mode
        outside 0..n_modes - 1; ValueError if the schema, the spins, a
        concrete basis, the (E, 2, p) int64 elements or a product record do
        not fit. :func:`analysis.measurement_circuits` checks the elements."""
        obj = json.loads(text)
        if obj["schema"] != PLAN_SCHEMA:
            raise ValueError(
                f"plan schema {obj['schema']!r}: this version reads schema "
                f"{PLAN_SCHEMA} only; re-run `plan` to rewrite it")
        n_modes = typed(obj["n_modes"], "integer", "n_modes", 1)
        spins = obj["spins"]
        if not (isinstance(spins, str) and len(spins) == n_modes
                and set(spins) <= {"u", "d"}):
            raise ValueError(f"plan spins {spins!r} must be a string of one "
                             f"'u' or 'd' per mode of its {n_modes}")
        modes = 0, n_modes - 1
        typed_at(obj, "level1[*].interactions[*][*]", *modes)
        typed_at(obj, "level1[*].schedule.n_qubits", n_modes, n_modes)
        typed_at(obj, "level1[*].schedule.certified", kind="boolean")
        typed_at(obj, "level1[*].schedule.steps[*].swaps[*][*]", *modes)
        typed_at(obj, "level1[*].schedule.steps[*].interactions[*][0]", 0)
        typed_at(obj, "level1[*].schedule.steps[*].interactions[*][1][*]",
                 *modes)
        typed_at(obj, "bases[*][0]", 0, len(obj["level1"]) - 1)
        typed_at(obj, "coverage[*][0][*][*]")
        records = typed_at(obj, "coverage[*][1][*]")
        level1 = [PairingBasis([tuple(s) for s in b["interactions"]],
                               Schedule.from_json(b["schedule"]))
                  for b in obj["level1"]]
        sites = [b.pair_sites() for b in level1]
        bases = []
        for parent, kinds in obj["bases"]:
            if len(kinds) != len(sites[parent]) or set(kinds) - {"Re", "Im"}:
                raise ValueError(f"concrete basis {[parent, kinds]} is not "
                                 "a level-1 basis with Re or Im at each of "
                                 "its pair sites")
            bases.append(ConcreteBasis(parent, tuple(map(KINDS.index,
                                                         kinds))))
        coverage = obj["coverage"]
        elements = np.array([e for e, _ in coverage])
        if elements.dtype != np.int64 or elements.ndim != 3 \
                or elements.shape[1] != 2:
            raise ValueError("coverage elements must be [creations, "
                             "annihilations] of one length in int64")
        elements = elements.reshape(len(coverage), -1)
        # each element's list is 2^max(m - 1, 0) records for its m cross
        # pairs, each basis, sign, p and then p factor rows (kind, i, j)
        p = elements.shape[1] // 2
        n_products, rest = np.divmod([len(r) for _, r in coverage], 3 + 3 * p)
        broken = (n_products == 0) | (rest != 0)
        if broken.any():
            raise ValueError(f"the product records of "
                             f"{coverage[np.argmax(broken)][0]} are empty or "
                             "run past their list")
        records = np.array(records)
        if records.dtype != np.int64:
            raise ValueError("coverage records must hold int64 integers")
        records = records.reshape(-1, 3 + 3 * p)
        owner = np.repeat(np.arange(len(coverage)), n_products)
        if (wrong := records[:, 2] != p).any():
            q = np.argmax(wrong)
            raise ValueError(
                f"coverage record {records[q, :3].tolist()} of "
                f"{coverage[owner[q]][0]} has {records[q, 2]} factors, not "
                f"the plan's order {p}")
        m = p - (elements[:, :p, None] == elements[:, None, p:]).sum((1, 2))
        want = 1 << np.maximum(m - 1, 0)
        if (short := n_products != want).any():
            k = np.argmax(short)
            raise ValueError(
                f"coverage element {coverage[k][0]} needs 2^max(m - 1, 0) = "
                f"{want[k]} products for its m = {m[k]} cross pairs, not "
                f"{n_products[k]}")
        product_basis, product_sign = records[:, 0], records[:, 1]
        factors = records[:, 3:].reshape(-1, p, 3)
        # a product is decoded from its basis's outcomes: each factor must be
        # N of a mode or Re/Im of a site the basis measures so, as
        # measured[basis, i, j] holds; an index outside the plan is clipped
        # to the last slot of its axis, where nothing is measured. A mode
        # that the basis routes into a pair site is read as the site's
        # joint occupation, so its N needs its partner's N in the product
        # too, as ``_number_covers`` shares sites; partner[basis, i] is that
        # partner, or i for a mode the basis leaves alone
        n_bases = len(bases)
        measured = np.full((n_bases + 1, n_modes + 1, n_modes + 1), -1)
        measured[:-1, range(n_modes), range(n_modes)] = N
        partner = np.tile(np.arange(n_modes + 1), (n_bases + 1, 1))
        b, i, j, kind = np.array([
            (b, i, j, kind) for b, c in enumerate(bases)
            for (i, j), kind in zip(sites[c.parent], c.kinds)],
            dtype=np.int64).reshape(-1, 4).T
        measured[b, i, j] = kind
        partner[b, i], partner[b, j] = j, i
        kind, i, j = factors.transpose(2, 0, 1)
        at = np.clip([np.broadcast_to(product_basis[:, None], kind.shape), i,
                      j], -1, np.array(measured.shape)[:, None, None] - 1)
        mate = partner[tuple(at[:2])]
        number = kind == N
        paired = (mate == at[1]) | (number[:, None, :] & (
            at[1][:, None, :] == mate[:, :, None])).any(axis=2)
        fits = (np.abs(product_sign) == 1) & ((kind >= 0) & (
            measured[tuple(at)] == kind) & (paired | ~number)).all(axis=1)
        if not fits.all():
            q = np.argmin(fits)
            raise ValueError(
                f"coverage product {records[q].tolist()} of "
                f"{coverage[owner[q]][0]} needs a basis in 0..{n_bases - 1}, "
                "a sign of ±1, and factors N of a mode (kind 0, i = j) or "
                "Re/Im (kind 1/2) of a site that the basis measures so, and "
                "N of a mode that the basis pairs only together with its "
                "partner's N")
        return cls(n_modes, tuple(spins), level1, bases, elements,
                   np.append(0, np.cumsum(n_products)), product_basis,
                   product_sign, factors)


def build_plan(elements, spins, layout=None) -> MeasurementPlan:
    """Decompose, group (both levels), and route a set of RDM elements of
    one order."""
    n_modes = len(spins)
    layout = tuple(layout) if layout is not None else tuple(range(n_modes))
    level1, assignments = group_level1(elements, spins)
    position = {m: i for i, m in enumerate(layout)}
    for basis in level1:
        pairs = [tuple(sorted((position[a], position[b])))
                 for a, b in basis.pair_sites()]
        basis.schedule = route_pairs(pairs, n_modes)
    per_basis = {i: [] for i in range(len(level1))}
    for e, (b_idx, matching, _req) in zip(elements, assignments):
        products = decompose_element(e, matching)
        per_basis[b_idx].append((e, products))
    bases, rows, n_products, headers, factors = [], [], [], [], []
    for b_idx in range(len(level1)):
        concrete, placements = group_level2(level1, b_idx, per_basis[b_idx])
        offset = len(bases)
        bases.extend(concrete)
        for (e, _products), placed in zip(per_basis[b_idx], placements):
            rows.append(e.creations + e.annihilations)
            n_products.append(len(placed))
            for idx, sign, product in placed:
                headers.append((offset + idx, sign))
                factors.extend(itertools.chain.from_iterable(product))
    headers = np.array(headers, dtype=np.int64)
    return MeasurementPlan(
        n_modes, tuple(spins), level1, bases, np.array(rows, dtype=np.int64),
        np.append(0, np.cumsum(n_products)), headers[:, 0], headers[:, 1],
        np.array(factors, dtype=np.int64).reshape(-1, elements[0].order, 3))


# ---------------------------------------------------------------------------
# measurement circuits

# Diagonalizer for Re(a†_j a_{j+1}) on adjacent qubits (lo, lo+1): a Givens
# rotation mapping the ±1/2 eigenvectors (|01⟩ ± |10⟩)/√2 onto the
# computational states; conserves the pair occupation number. The Im
# diagonalizer is that circuit preceded by S on the low qubit (S Im S† = Re
# on the odd-occupation block), an S that MeasurementCircuit.phased moves to
# the front. Tests check both against the hopping operator and pair_value.


def _re_diagonalizer(circ: Circuit, lo: int):
    circ.cnot(lo, lo + 1).ry(lo, np.pi / 4).cnot(lo + 1, lo)
    circ.ry(lo, -np.pi / 4).cnot(lo, lo + 1)


@dataclass
class MeasurementCircuit:
    """A level-1 basis's routed and diagonalized circuit plus
    outcome-decoding metadata, shared by all its concrete bases.

    A concrete basis with `kinds` is measured by S on each position of
    ``phased(kinds)`` (where an Im site's low-end mode starts), then
    ``routed``: the parent's routing, every site diagonalized as Re. The Im
    diagonalizer's S moves there exactly: S = i^n on its mode's qubit, an
    FSWAP carries n along with the mode, gates on other qubits commute with
    it, and until its site interacts no other gate meets that mode."""

    routed: Circuit
    #: mode -> final measured position (modes not absorbed into a pair)
    mode_positions: dict
    #: site (q1, q2) -> (final lo position, final hi position, mode at lo)
    site_positions: dict
    #: the start position of the mode at each pair site's low end
    starts: tuple

    def phased(self, kinds) -> list:
        """Positions that S acts on before ``routed`` for the kind codes
        `kinds`, one per pair site."""
        return [q for q, k in zip(self.starts, kinds) if k == IM]

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
    for kind, i, j in factors:
        if kind == N:
            if i in handled:
                continue
            if i in mc.mode_positions:
                val *= mc.number_value(i, bits)
                handled.add(i)
            else:
                site = next(s for s in mc.site_positions if i in s)
                val *= mc.pair_occupation(site, bits)
                handled.update(site)
        elif kind == RE:
            val *= mc.pair_value((i, j), bits)
        else:
            orient = 1.0 if mc.site_positions[i, j][2] == i else -1.0
            val *= orient * mc.pair_value((i, j), bits)
    return val


def build_measurement_circuit(parent: PairingBasis, layout) -> \
        MeasurementCircuit:
    """Emit fswap routing plus per-pair Re diagonalization for a level-1
    basis.

    `layout` is the position -> mode map the state is measured in. The
    parent's schedule must fit it, as the decoding assumes: each routed
    interaction acts on adjacent positions (i, i + 1) that hold exactly its
    site's two modes, and every pair site interacts once. Otherwise
    ValueError.
    """
    layout = tuple(layout)
    pair_sites = parent.pair_sites()
    circ = Circuit(len(layout))
    occupant = list(layout)  # position -> mode label or ("site", idx, "lo/hi")
    starts = [None] * len(pair_sites)
    interacted = 0
    for step in parent.schedule.steps:
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
                              tuple(starts))
