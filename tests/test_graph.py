"""The graph kernel on graphs deeper than the recursion limit."""

import sys

from procpyramid.graph import (
    adjacency,
    bfs_layers,
    reachable,
    strongly_connected,
    topological_order,
)

DEPTH = 5000


def chain(length, closed=False):
    ids = [f"n{i:05d}" for i in range(length)]
    pairs = list(zip(ids, ids[1:]))
    if closed:
        pairs.append((ids[-1], ids[0]))
    succ, _ = adjacency(ids, pairs)
    return ids, succ


def test_chain_deeper_than_the_recursion_limit():
    assert DEPTH > sys.getrecursionlimit()
    ids, succ = chain(DEPTH)
    assert reachable(succ, [ids[0]]) == set(ids)
    assert reachable(succ, [ids[0]], allowed=set(ids[:10])) == set(ids[:10])
    assert topological_order(succ) == ids
    assert bfs_layers(succ, [ids[0]]) == ids[1:]
    assert strongly_connected(succ) == [[n] for n in reversed(ids)]


def test_cycle_deeper_than_the_recursion_limit():
    ids, succ = chain(DEPTH, closed=True)
    assert topological_order(succ) is None
    (component,) = strongly_connected(succ)
    assert sorted(component) == ids


def test_adjacency_keeps_pair_order_and_duplicates():
    succ, pred = adjacency(["a", "b", "c"], [("a", "c"), ("a", "b"), ("a", "c"), ("b", "c")])
    assert succ == {"a": ["c", "b", "c"], "b": ["c"], "c": []}
    assert pred == {"a": [], "b": ["a"], "c": ["a", "a", "b"]}


def test_topological_order_takes_the_least_key_first():
    succ, _ = adjacency(["a", "b", "c", "d"], [("b", "a"), ("c", "d")])
    assert topological_order(succ) == ["b", "a", "c", "d"]
    # a caller picks the tie order by its labels: integer ranks compare as
    # numbers (c=2, d=9, b=10, a=11), not as their decimal strings
    ranked, _ = adjacency([11, 10, 2, 9], [(10, 11), (2, 9)])
    assert topological_order(ranked) == [2, 9, 10, 11]
