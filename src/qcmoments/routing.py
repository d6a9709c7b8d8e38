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
suffice. Each child state is built in one pass from the timestep's position
permutation and dropped at its first pair whose lower bound exceeds the
steps left, so no call is spent on a child that cannot finish. A greedy
sequential router is used above a size threshold and flagged as
non-certified. The check of a schedule against the binary program's
constraints, and a brute-force optimal depth, are test oracles in
``tests/reference_routing.py``.
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


#: largest pair count routed by the exact search; more pairs go greedy
EXHAUSTIVE_LIMIT = 4


def route_pairs(pairs, n_qubits: int) -> Schedule:
    """Minimum-depth swap/interaction schedule for disjoint position pairs.

    The search deepens from the pairs' lower bound with no upper limit. It
    stops, at or below the depth of ``_greedy_route``'s schedule, because
    that schedule exists for every set of disjoint pairs. Instances with
    more than ``EXHAUSTIVE_LIMIT`` pairs take the greedy schedule itself
    (``certified=False``).
    """
    pairs = [tuple(p) for p in pairs]
    _validate_pairs(pairs, n_qubits)
    if not pairs:
        return Schedule(n_qubits, [])
    if len(pairs) > EXHAUSTIVE_LIMIT:
        return _greedy_route(pairs, n_qubits)

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
    """
    start = tuple(tuple(sorted(p)) for p in pairs)
    identity = list(range(n_qubits))

    def candidates(state):
        """Disjoint action sets for one timestep: every act may be left out
        or taken, leaving out first, the earlier acts deciding first."""
        tracked = 0
        acts = []
        for c, pos in enumerate(state):
            if pos is not None:
                tracked |= 1 << pos[0] | 1 << pos[1]
                if pos[1] - pos[0] == 1:
                    acts.append(("y", c, pos))
        for i in range(n_qubits - 1):
            if tracked >> i & 3:
                acts.append(("x", None, (i, i + 1)))
        sets = [((), 0)]
        for act in reversed(acts):
            mask = 3 << act[2][0]
            sets += [((act,) + chosen, used | mask) for chosen, used in sets
                     if not used & mask]
        return sets

    def dfs(state, remaining):
        live = sorted(pos for pos in state if pos is not None)
        if not live:
            return []
        key = tuple(live)
        if failed.get(key, 0) >= remaining:
            return None
        # the first set is the empty one, and a step must do something
        for chosen, _ in candidates(state)[1:]:
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

    return dfs(start, depth)


def _greedy_route(pairs, n_qubits) -> Schedule:
    steps = []
    pos = [list(sorted(p)) for p in pairs]

    def swap_all(i, j):
        for p in pos:
            for t in (0, 1):
                if p[t] == i:
                    p[t] = j
                elif p[t] == j:
                    p[t] = i

    for c in range(len(pairs)):
        while pos[c][1] - pos[c][0] > 1:
            a, b = pos[c]
            step = Step()
            if b - a > 2:
                step.swaps = [(a, a + 1), (b - 1, b)]
                swap_all(a, a + 1)
                swap_all(b - 1, b)
            else:
                step.swaps = [(a, a + 1)]
                swap_all(a, a + 1)
            steps.append(step)
        steps.append(Step(interactions=[(c, tuple(pos[c]))]))
    return Schedule(n_qubits, steps, certified=False)
