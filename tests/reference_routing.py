"""Memo-free routing search and brute-force routing checks.

``route_pairs_without_memo`` is the iterative-deepening search of
:func:`qcmoments.routing.route_pairs` as it was before the shared failure
memo, the bit-mask candidates and the tight-pair rules: a fresh visited set
per depth, candidates from recursive generators and a scan of every pair
per swap. The routed schedules are checked to be the same.
``greedy_route`` is the sequential router that wide bases took before the
odd-even transposition network. ``exhaustive_min_depth`` finds the optimal
depth by plain breadth-first search, and ``check_constraints`` verifies a
schedule against the constraint families of the binary program that the
search solves exactly.
"""
from qcmoments.routing import (
    Schedule, Step, _pair_lower_bound, _validate_pairs,
)


def route_pairs_without_memo(pairs, n_qubits: int):
    """Minimum-depth schedule for at most four disjoint position pairs."""
    pairs = [tuple(p) for p in pairs]
    _validate_pairs(pairs, n_qubits)
    if not pairs:
        return Schedule(n_qubits, [])
    depth = max(_pair_lower_bound(a, b) for a, b in pairs)
    while (steps := _search(pairs, n_qubits, depth)) is None:
        depth += 1
    return Schedule(n_qubits, steps)


def _search(pairs, n_qubits, depth):
    # state: tuple of sorted position pairs (or None once interacted)
    start = tuple(tuple(sorted(p)) for p in pairs)
    seen = set()

    def candidates(state):
        """Disjoint action sets for one timestep, lazily enumerated."""
        tracked = {}
        for c, pos in enumerate(state):
            if pos is not None:
                tracked[pos[0]] = c
                tracked[pos[1]] = c
        acts = []
        for c, pos in enumerate(state):
            if pos is not None and pos[1] - pos[0] == 1:
                acts.append(("y", c, (pos[0], pos[1])))
        for i in range(n_qubits - 1):
            if i in tracked or i + 1 in tracked:
                acts.append(("x", None, (i, i + 1)))

        def rec(idx, used, chosen):
            if idx == len(acts):
                yield chosen
                return
            kind, c, (i, j) = acts[idx]
            yield from rec(idx + 1, used, chosen)
            if i not in used and j not in used:
                yield from rec(idx + 1, used | {i, j}, chosen + [acts[idx]])

        yield from rec(0, frozenset(), [])

    def apply(state, chosen):
        positions = {}
        for c, pos in enumerate(state):
            if pos is not None:
                positions[pos[0]] = c
                positions[pos[1]] = c
        new = [list(p) if p is not None else None for p in state]
        for kind, c, (i, j) in chosen:
            if kind == "y":
                new[c] = None
            else:
                for cc, pos in enumerate(new):
                    if pos is not None:
                        for t in (0, 1):
                            if pos[t] == i:
                                pos[t] = j
                            elif pos[t] == j:
                                pos[t] = i
        return tuple(tuple(sorted(p)) if p is not None else None for p in new)

    def dfs(state, remaining):
        if all(p is None for p in state):
            return []
        if remaining == 0:
            return None
        for c, pos in enumerate(state):
            if pos is not None and _pair_lower_bound(*pos) > remaining:
                return None
        if (state, remaining) in seen:
            return None
        seen.add((state, remaining))
        for chosen in candidates(state):
            if not chosen:
                continue
            nxt = apply(state, chosen)
            rest = dfs(nxt, remaining - 1)
            if rest is not None:
                step = Step(
                    swaps=[pq for kind, _, pq in chosen if kind == "x"],
                    interactions=[(c, pq) for kind, c, pq in chosen
                                  if kind == "y"])
                return [step] + rest
        return None

    return dfs(start, depth)


def greedy_route(pairs, n_qubits) -> Schedule:
    """One pair at a time: close its gap from both ends, then interact it,
    so the depth is the sum over the pairs. Wide bases took this schedule
    before the odd-even transposition network; kept as a comparison."""
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


def exhaustive_min_depth(pairs, n_qubits: int, max_depth: int) -> int:
    """Brute-force optimal depth by plain breadth-first search over full
    timestep action sets (independent of the solver's pruning); test oracle."""
    pairs = [tuple(sorted(p)) for p in pairs]
    _validate_pairs(pairs, n_qubits)
    frontier = {tuple(pairs)}
    if not pairs:
        return 0
    for depth in range(1, max_depth + 1):
        nxt = set()
        for state in frontier:
            for new_state in _all_transitions(state, n_qubits):
                if all(p is None for p in new_state):
                    return depth
                nxt.add(new_state)
        frontier = nxt
    raise ValueError("no schedule within max_depth")


def _all_transitions(state, n_qubits):
    acts = []
    for c, pos in enumerate(state):
        if pos is not None and pos[1] - pos[0] == 1:
            acts.append(("y", c, pos))
    for i in range(n_qubits - 1):
        acts.append(("x", None, (i, i + 1)))

    def rec(idx, used, chosen):
        if idx == len(acts):
            yield chosen
            return
        kind, c, (i, j) = acts[idx]
        yield from rec(idx + 1, used, chosen)
        if i not in used and j not in used:
            yield from rec(idx + 1, used | {i, j}, chosen + [acts[idx]])

    out = set()
    for chosen in rec(0, frozenset(), []):
        new = [list(p) if p is not None else None for p in state]
        for kind, c, (i, j) in chosen:
            if kind == "y":
                new[c] = None
            else:
                for pos in new:
                    if pos is not None:
                        for t in (0, 1):
                            if pos[t] == i:
                                pos[t] = j
                            elif pos[t] == j:
                                pos[t] = i
        out.add(tuple(tuple(sorted(p)) if p is not None else None
                      for p in new))
    return out


def schedule_variables(schedule: Schedule, pairs):
    """Express a schedule as binary-program variables x[(c,j,k,t)], y[(c,j,k,t)]
    (k adjacent to or equal to j), for constraint checking."""
    pairs = [tuple(sorted(p)) for p in pairs]
    x, y = {}, {}
    pos = {c: list(p) for c, p in enumerate(pairs)}
    done = set()
    for t, step in enumerate(schedule.steps):
        moved = {}
        for (i, j) in step.swaps:
            moved[i], moved[j] = j, i
        for c, (i, j) in step.interactions:
            y[(c, i, j, t)] = 1
            y[(c, j, i, t)] = 1
            done.add(c)
        for c, p in pos.items():
            if c in done and (c, p[0], p[1], t) not in y \
                    and (c, p[1], p[0], t) not in y:
                continue
            for s in (0, 1):
                j = p[s]
                if (c, p[0], p[1], t) in y:
                    continue
                k = moved.get(j, j)
                x[(c, j, k, t)] = 1
                p[s] = k
    return x, y


def check_constraints(schedule: Schedule, pairs, n_qubits: int) -> bool:
    """Verify the five binary-program constraint families on a schedule."""
    pairs = [tuple(sorted(p)) for p in pairs]
    x, y = schedule_variables(schedule, pairs)
    T = schedule.depth
    C = len(pairs)

    def xs(c, j, k, t):
        return x.get((c, j, k, t), 0)

    def ys(c, j, k, t):
        return y.get((c, j, k, t), 0)

    qubits = range(n_qubits)
    # y symmetry / no self-interaction
    for (c, j, k, t) in y:
        if ys(c, k, j, t) != 1 or j == k:
            return False
    # 1: starting positions
    for c in range(C):
        for j in qubits:
            s = 1 if j in pairs[c] else 0
            if sum(xs(c, j, k, 0) + ys(c, j, k, 0) for k in qubits) != s:
                return False
    # 2: flow conservation (interaction terminates a logical qubit's flow)
    for c in range(C):
        for j in qubits:
            for t in range(T - 1):
                inflow = sum(xs(c, k, j, t) for k in qubits)
                outflow = sum(xs(c, j, k, t + 1) + ys(c, j, k, t + 1)
                              for k in qubits)
                interacted = any(ys(c, j2, k2, tt) for (c2, j2, k2, tt) in y
                                 if c2 == c and tt <= t)
                if not interacted and inflow != outflow:
                    return False
    # 3: capacity
    for j in qubits:
        for t in range(T):
            if sum(xs(c, k, j, t) + ys(c, j, k, t)
                   for c in range(C) for k in qubits) > 1:
                return False
    # 4: swapping behaviour
    for j in qubits:
        for k in qubits:
            if abs(j - k) != 1:
                continue
            for t in range(T):
                total = sum(
                    xs(c, j, k, t)
                    + sum(xs(c, k, j2, t) for j2 in qubits if j2 != j)
                    for c in range(C))
                if total > 1:
                    return False
    # 5: each pair interacts exactly once
    for c in range(C):
        if sum(v for (c2, j, k, t), v in y.items() if c2 == c) != 2:
            return False
    return True
