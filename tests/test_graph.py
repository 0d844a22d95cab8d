"""The graph kernel, also on graphs deeper than the recursion limit."""

import sys

from hypothesis import given
from hypothesis import strategies as st

import oracles
from procpyramid.graph import (
    adjacency,
    bfs_layers,
    depth_first,
    longest_paths,
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


def test_depth_first_on_a_chain_deeper_than_the_recursion_limit():
    ids, succ = chain(DEPTH)
    events = list(depth_first(succ, [ids[0]]))
    assert [n for n, entering in events if entering] == ids
    assert [n for n, entering in events if not entering] == ids[::-1]


def test_depth_first_enters_each_node_once_in_list_order():
    succ, _ = adjacency(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "b"), ("b", "d"), ("c", "d"), ("d", "d")]
    )
    assert list(depth_first(succ, ["a", "c", "a"])) == [
        ("a", True), ("b", True), ("d", True), ("d", False), ("b", False),
        ("c", True), ("c", False), ("a", False),
    ]
    assert list(depth_first(succ, ["c", "a"])) == [
        ("c", True), ("d", True), ("d", False), ("c", False),
        ("a", True), ("b", True), ("b", False), ("a", False),
    ]
    assert list(depth_first(succ, [])) == []


NODES = [f"v{i}" for i in range(7)]


@given(st.data())
def test_strongly_connected_matches_mutual_reachability(data):
    nodes = NODES[: data.draw(st.integers(min_value=1, max_value=7), label="size")]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges = data.draw(st.lists(pairs, max_size=14), label="edges")
    succ, _ = adjacency(nodes, edges)
    components = strongly_connected(succ)

    closure = oracles.closure_floyd_warshall(nodes, edges)
    mutual = {
        frozenset(b for b in nodes if a == b or {(a, b), (b, a)} <= closure) for a in nodes
    }
    assert {frozenset(c) for c in components} == mutual
    assert sorted(n for c in components for n in c) == nodes
    assert all(c == sorted(c) for c in components)
    place = {n: i for i, c in enumerate(components) for n in c}
    assert all(place[dst] <= place[src] for src, dst in edges)


@given(st.data())
def test_reachable_matches_the_recursive_walk(data):
    nodes = NODES[: data.draw(st.integers(min_value=1, max_value=7), label="size")]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges = data.draw(st.lists(pairs, max_size=14), label="edges")
    starts = data.draw(st.lists(st.sampled_from(nodes), max_size=3), label="starts")
    allowed = data.draw(st.none() | st.sets(st.sampled_from(nodes)), label="allowed")
    succ, _ = adjacency(nodes, edges)

    # a start outside allowed is kept, and the walk leaves it all the same
    entered = {n: [v for v in vs if allowed is None or v in allowed] for n, vs in succ.items()}
    expected = set().union(*(oracles.reachable_from(s, entered) for s in starts))
    assert reachable(succ, starts, allowed) == expected


@given(st.data())
def test_longest_paths_match_the_exhaustive_search(data):
    nodes = NODES[: data.draw(st.integers(min_value=1, max_value=7), label="size")]
    # edges forward in node order, plus up to two of any kind (cycles,
    # repeats), so that most draws place some members and some do not
    edges = [
        (a, b)
        for i, a in enumerate(nodes[:-1])
        for b in sorted(data.draw(st.sets(st.sampled_from(nodes[i + 1 :])), label=f"after {a}"))
    ]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges += data.draw(st.lists(pairs, max_size=2), label="any")
    weight = {n: data.draw(st.integers(min_value=-2, max_value=5), label=f"weight {n}") for n in nodes}
    seeds = data.draw(
        st.dictionaries(st.sampled_from(nodes), st.integers(0, 9), min_size=1, max_size=2), label="seeds"
    )
    outside = data.draw(st.sets(st.sampled_from(nodes), max_size=2), label="outside")
    within = set(nodes) - (outside - seeds.keys())
    succ, _ = adjacency(nodes, edges)

    # every member is a seed or reachable inside the members from one
    inside = {n: [v for v in succ[n] if v in within] for n in within}
    members = set().union(*(oracles.reachable_from(s, inside) for s in seeds))
    inner = {n: [v for v in succ[n] if v in members] for n in members}
    inner_edges = [(a, b) for a, b in edges if a in members and b in members]
    dist = dict(seeds)
    stuck = longest_paths(succ, weight, members, dist)

    closure = oracles.closure_floyd_warshall(members, inner_edges)
    on_cycle = {a for a, b in inner_edges if a == b} | {a for a, b in closure if (b, a) in closure}
    assert stuck == on_cycle | {b for a, b in closure if a in on_cycle}
    for v in members - stuck:
        paths = [
            (d, oracles.longest_path_exhaustive(inner, weight, s, v)) for s, d in seeds.items()
        ]
        assert dist[v] == max(d + p for d, p in paths if p is not None)
