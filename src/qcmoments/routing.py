"""Qubit-pair routing on a line.

Each measurement basis interacts disjoint pairs of physical qubits; every
pair must be brought adjacent with nearest-neighbour swaps and interacted
exactly once. A schedule is a sequence of timesteps, each holding disjoint
adjacent swaps and interactions; in a timestep a qubit either moves, or
interacts with its adjacent partner, or stays.

The minimum-depth schedule is found by iterative deepening over the depth
with a depth-first search and constraint pruning — an exact solution of the
underlying binary program (movement variables x, interaction variables y,
flow/capacity/swap-consistency/once constraints). One failure memo serves
every depth of a call: it maps the sorted positions of the pairs still to
interact, without their labels, to the most remaining steps known not to
suffice. A pair is tight when its lower bound equals the steps left; the
timestep candidates hold only moves that close every tight pair's gap, so
they lose only children that fail the pair check and the first schedule
found stays the same. Each child state is built in one pass from the
timestep's position permutation and dropped at its first pair whose lower
bound exceeds the steps left, so no call is spent on a child that cannot
finish. Bases above a size threshold take an odd-even transposition
network of at most n_qubits + 1 steps instead, flagged as non-certified.
The check of a schedule against the binary program's constraints, and a
brute-force optimal depth, are test oracles in ``tests/reference_routing.py``.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Step:
    swaps: list = field(default_factory=list)         # (i, i+1) position swaps
    interactions: list = field(default_factory=list)  # (pair_id, (i, i+1))


@dataclass
class Schedule:
    n_qubits: int
    steps: list
    certified: bool = True

    @property
    def depth(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "certified": self.certified,
            "steps": [{"swaps": [list(s) for s in st.swaps],
                       "interactions": [[c, list(p)] for c, p in
                                        st.interactions]}
                      for st in self.steps],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Schedule":
        steps = [Step([tuple(s) for s in st["swaps"]],
                      [(c, tuple(p)) for c, p in st["interactions"]])
                 for st in obj["steps"]]
        return cls(obj["n_qubits"], steps, obj["certified"])


def _validate_pairs(pairs, n_qubits):
    used = set()
    for a, b in pairs:
        if not (0 <= a < n_qubits and 0 <= b < n_qubits) or a == b:
            raise ValueError(f"invalid pair ({a}, {b})")
        if a in used or b in used:
            raise ValueError("pairs must be disjoint over start positions")
        used.update((a, b))


def _pair_lower_bound(a, b):
    # both qubits can move toward each other, closing the gap by 2 per step,
    # plus one step for the interaction itself
    return abs(a - b) // 2 + 1


#: largest pair count routed by the exact search; more take the network
EXHAUSTIVE_LIMIT = 4


def route_pairs(pairs, n_qubits: int) -> Schedule:
    """Minimum-depth swap/interaction schedule for disjoint position pairs.

    The search deepens from the pairs' lower bound with no upper limit. It
    stops by depth n_qubits + 1 at the latest: ``_network_route`` gives a
    schedule of at most that many steps for every set of disjoint pairs,
    and dropping its swaps that move no live pair, and the steps this
    empties, leaves a schedule in the search's space. Instances with more
    than ``EXHAUSTIVE_LIMIT`` pairs take the network's own schedule
    (``certified=False``).
    """
    pairs = [tuple(p) for p in pairs]
    _validate_pairs(pairs, n_qubits)
    if not pairs:
        return Schedule(n_qubits, [])
    if len(pairs) > EXHAUSTIVE_LIMIT:
        return _network_route(pairs, n_qubits)

    depth = max(_pair_lower_bound(a, b) for a, b in pairs)
    failed = {}
    while (steps := _search(pairs, n_qubits, depth, failed)) is None:
        depth += 1
    return Schedule(n_qubits, steps)


def _search(pairs, n_qubits, depth, failed):
    """Depth-first search for a schedule of at most `depth` steps.

    A state is the tuple of each pair's sorted positions, or None once the
    pair has interacted. `failed` maps the sorted live positions of a state,
    without pair labels, to the largest number of remaining steps known not
    to suffice. Whether a state can finish depends only on where its live
    pairs sit, and more remaining steps never hurt, so one memo serves
    every depth of the iterative deepening and every labelling. It only
    cuts subtrees that hold no schedule, so the first schedule found is the
    one the search without it finds.

    A live pair (a, b) is tight when its lower bound equals the remaining
    steps, so the step must close its gap: it may not swap (a - 1, a) or
    (b, b + 1), and it needs both inward swaps of an odd gap of 3 or more
    and the interaction of an adjacent pair. The candidates leave out the
    former and take the latter in every set. Each set cut is one whose
    child fails the pair check, and the rest keep their order, so the
    search descends the same children and finds the same schedule.

    ``dfs`` calls itself through its closure cell; the cell is cleared on
    return, so the closure is freed by reference counting and leaves no
    cycle for the garbage collector.
    """
    start = tuple(tuple(sorted(p)) for p in pairs)
    identity = list(range(n_qubits))

    def candidates(state, remaining):
        """Disjoint action sets for one timestep: every act may be left out
        or taken, leaving out first, the earlier acts deciding first; but a
        tight pair's outward swaps are never taken, its needed acts always."""
        tracked = banned = forced = 0
        acts = []
        for c, pos in enumerate(state):
            if pos is not None:
                a, b = pos
                tracked |= 1 << a | 1 << b
                if b - a == 1:
                    acts.append((remaining == 1, ("y", c, pos)))
                elif _pair_lower_bound(a, b) == remaining:
                    banned |= 1 << b | (a and 1 << a - 1)
                    if (b - a) & 1:
                        forced |= 1 << a | 1 << b - 1
        if forced & banned:
            return []
        for i in range(n_qubits - 1):
            if tracked >> i & 3 and not banned >> i & 1:
                acts.append((forced >> i & 1, ("x", None, (i, i + 1))))
        sets = [((), 0)]
        for needed, act in reversed(acts):
            mask = 3 << act[2][0]
            taken = [((act,) + chosen, used | mask) for chosen, used in sets
                     if not used & mask]
            sets = taken if needed else sets + taken
        return sets

    def dfs(state, remaining):
        live = sorted(pos for pos in state if pos is not None)
        if not live:
            return []
        key = tuple(live)
        if failed.get(key, 0) >= remaining:
            return None
        for chosen, _ in candidates(state, remaining):
            if not chosen:  # a step must do something
                continue
            # the child in one pass over a position permutation, dropped at
            # the first live pair that cannot interact in the steps left
            moved = identity[:]
            done = 0
            for kind, c, (i, j) in chosen:
                if kind == "y":
                    done |= 1 << c
                else:
                    moved[i], moved[j] = j, i
            nxt = []
            for c, pos in enumerate(state):
                if pos is None or done >> c & 1:
                    nxt.append(None)
                    continue
                a, b = moved[pos[0]], moved[pos[1]]
                if a > b:
                    a, b = b, a
                if _pair_lower_bound(a, b) > remaining - 1:
                    break
                nxt.append((a, b))
            else:
                rest = dfs(tuple(nxt), remaining - 1)
                if rest is not None:
                    step = Step(
                        swaps=[pq for kind, _, pq in chosen if kind == "x"],
                        interactions=[(c, pq) for kind, c, pq in chosen
                                      if kind == "y"])
                    return [step] + rest
        failed[key] = remaining
        return None

    try:
        return dfs(start, depth)
    finally:
        del dfs


def _network_route(pairs, n_qubits) -> Schedule:
    """Odd-even transposition schedule: a qubit of pair (a, b) is keyed by
    (a + b, pair id) and any other at position p by (2p, -1). Step t swaps
    the out-of-order neighbours (i, i + 1) with i of t's parity, and each
    live pair that is adjacent and not moved interacts. n such layers sort
    the keys (Knuth, TAOCP vol. 3, 5.3.4) and leave every pair adjacent; one
    more step interacts the rest. Empty steps are dropped: depth <= n + 1."""
    key = [(2 * p, -1) for p in range(n_qubits)]
    for c, (a, b) in enumerate(pairs):
        key[a] = key[b] = (a + b, c)
    live = set(range(len(pairs)))
    steps, parity = [], 0
    while live:
        swaps = [(i, i + 1) for i in range(parity, n_qubits - 1, 2)
                 if key[i] > key[i + 1]]
        moving = {q for swap in swaps for q in swap}
        step = Step(swaps, [(key[i][1], (i, i + 1))
                            for i in range(n_qubits - 1)
                            if key[i] == key[i + 1] and key[i][1] in live
                            and not moving & {i, i + 1}])
        live.difference_update(c for c, _ in step.interactions)
        for i, j in swaps:
            key[i], key[j] = key[j], key[i]
        if swaps or step.interactions:
            steps.append(step)
        parity ^= 1
    return Schedule(n_qubits, steps, certified=False)
