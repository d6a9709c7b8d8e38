"""Exact pair routing on a line and its binary-program constraints."""
import gc
import itertools
import random

import pytest

from qcmoments.conventions import interleaved_spins
from qcmoments.planner import enumerate_elements, group_level1
from qcmoments.routing import EXHAUSTIVE_LIMIT, Schedule, route_pairs

from reference_routing import (
    check_constraints, exhaustive_min_depth, greedy_route,
    route_pairs_without_memo,
)


def assert_valid(schedule, pairs, n_qubits):
    assert check_constraints(schedule, pairs, n_qubits)
    # every pair interacts exactly once, at adjacent positions, tracked
    # through the swap schedule
    pos = {c: sorted(p) for c, p in enumerate(pairs)}
    interacted = set()
    for step in schedule.steps:
        for (i, j) in step.swaps:
            assert j == i + 1
        for c, (i, j) in step.interactions:
            assert j == i + 1
            assert sorted(pos[c]) == [i, j]
            assert c not in interacted
            interacted.add(c)
        for c, p in pos.items():
            if c in interacted:
                continue
            for (i, j) in step.swaps:
                for t in (0, 1):
                    if p[t] == i:
                        p[t] = j
                    elif p[t] == j:
                        p[t] = i
    assert interacted == set(range(len(pairs)))


def test_adjacent_pairs_need_one_step():
    sched = route_pairs([(0, 1), (4, 5)], 6)
    assert sched.depth == 1 and not sched.steps[0].swaps
    assert len(sched.steps[0].interactions) == 2
    assert_valid(sched, [(0, 1), (4, 5)], 6)


def test_crossed_pairs_on_four_qubits():
    pairs = [(0, 3), (1, 2)]
    sched = route_pairs(pairs, 4)
    # the inner pair blocks the outer one; brute force certifies depth 3
    assert exhaustive_min_depth(pairs, 4, 4) == 3
    assert sched.depth == 3
    assert_valid(sched, pairs, 4)


def test_nested_pairs_on_six_qubits():
    pairs = [(0, 5), (1, 4), (2, 3)]
    sched = route_pairs(pairs, 6)
    assert sched.depth == exhaustive_min_depth(pairs, 6, 6) == 4
    assert_valid(sched, pairs, 6)


@pytest.mark.parametrize("pairs,n", [
    ([(0, 7)], 8),
    ([(0, 2), (5, 7)], 8),
    ([(1, 6), (2, 5)], 8),
    ([(0, 4), (1, 5)], 6),
    ([(2, 3)], 4),
])
def test_solver_matches_exhaustive_optimum(pairs, n):
    optimum = exhaustive_min_depth(pairs, n, 8)
    sched = route_pairs(pairs, n)
    assert sched.certified
    assert sched.depth == optimum
    assert_valid(sched, pairs, n)


def test_distant_pair_is_routed_at_its_lower_bound():
    # the two ends close the gap of 17 in 8 steps of two swaps each and
    # interact in the ninth
    sched = route_pairs([(0, 17)], 18)
    assert sched.certified and sched.depth == 9
    assert_valid(sched, [(0, 17)], 18)


def random_pairs(rng, n_qubits, n_pairs):
    qubits = rng.sample(range(n_qubits), 2 * n_pairs)
    return list(zip(qubits[::2], qubits[1::2]))


def test_search_stops_at_or_below_the_greedy_depth():
    # the deepening has no upper limit; it stops by depth n + 1 because the
    # transposition network's schedule, which exists for every set of
    # disjoint pairs, is one the search can find at its own depth
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(4, 16)
        pairs = random_pairs(rng, n, rng.randint(1, min(EXHAUSTIVE_LIMIT,
                                                        n // 2)))
        greedy = greedy_route(pairs, n)
        assert check_constraints(greedy, pairs, n), pairs
        sched = route_pairs(pairs, n)
        assert sched.certified and sched.depth <= min(greedy.depth, n + 1)


def test_wide_bases_take_the_transposition_network():
    # odd-even transposition sorts n keys in n steps, and one more step
    # interacts the pairs it has left adjacent
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(10, 24)
        pairs = random_pairs(rng, n, rng.randint(EXHAUSTIVE_LIMIT + 1,
                                                 min(12, n // 2)))
        sched = route_pairs(pairs, n)
        assert not sched.certified
        assert_valid(sched, pairs, n)
        assert sched.depth <= min(n + 1, greedy_route(pairs, n).depth), pairs


def test_validation():
    with pytest.raises(ValueError):
        route_pairs([(0, 0)], 4)
    with pytest.raises(ValueError):
        route_pairs([(0, 4)], 4)
    with pytest.raises(ValueError):
        route_pairs([(0, 1), (1, 2)], 4)


def test_empty_input():
    sched = route_pairs([], 4)
    assert sched.depth == 0 and sched.certified


def test_greedy_fallback_above_threshold():
    pairs = [(0, 9), (1, 8), (2, 7), (3, 6), (4, 5)]
    sched = route_pairs(pairs, 10)
    assert not sched.certified
    assert_valid(sched, pairs, 10)


def test_schedule_json_roundtrip():
    sched = route_pairs([(0, 3), (1, 2)], 4)
    back = Schedule.from_json(sched.to_json())
    assert back.depth == sched.depth and back.certified == sched.certified
    assert [s.swaps for s in back.steps] == [s.swaps for s in sched.steps]
    assert [s.interactions for s in back.steps] == \
        [s.interactions for s in sched.steps]


def _disjoint_pair_sets(n_qubits, max_pairs):
    """Every set of 1..max_pairs disjoint position pairs, pairs sorted."""
    pairs = list(itertools.combinations(range(n_qubits), 2))
    for k in range(1, max_pairs + 1):
        for chosen in itertools.combinations(pairs, k):
            if len({q for p in chosen for q in p}) == 2 * k:
                yield list(chosen)


def test_memo_search_matches_memo_free_search():
    sets = list(_disjoint_pair_sets(8, 4))
    assert len(sets) == 763
    for pairs in sets:
        assert route_pairs(pairs, 8).to_json() == \
            route_pairs_without_memo(pairs, 8).to_json(), pairs


def test_pruned_search_matches_memo_free_search_on_longer_lines():
    rng = random.Random(7)
    for _ in range(250):
        n = rng.randint(10, 14)
        pairs = random_pairs(rng, n, rng.randint(1, EXHAUSTIVE_LIMIT))
        assert route_pairs(pairs, n).to_json() == \
            route_pairs_without_memo(pairs, n).to_json(), pairs


@pytest.mark.parametrize("pattern", ["interleaved", "uuuuudddd"])
def test_memo_search_matches_memo_free_search_on_9_mode_plans(pattern):
    spins = interleaved_spins(9) if pattern == "interleaved" \
        else tuple(pattern)
    bases, _ = group_level1(enumerate_elements(9, 4, spins), spins)
    assert len(bases) == {"interleaved": 141, "uuuuudddd": 163}[pattern]
    for basis in bases:
        pairs = basis.pair_sites()
        assert route_pairs(pairs, 9).to_json() == \
            route_pairs_without_memo(pairs, 9).to_json(), pairs


def test_search_leaves_no_reference_cycle():
    # the search's recursive closure is released by reference counting, so
    # with the collector off nothing of a call is left for it to find
    gc.collect()
    gc.disable()
    try:
        sched = route_pairs([(0, 7), (1, 6), (2, 5), (3, 4)], 8)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert sched.certified
