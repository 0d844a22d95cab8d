"""Generic walks over directed graphs given as adjacency lists.

A graph is a dict from every node to the list of its successors; each
successor is itself a key. Every walk is iterative, so chains deeper than
the recursion limit work.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, TypeVar

T = TypeVar("T")


def adjacency(
    nodes: Iterable[T], pairs: Iterable[tuple[T, T]]
) -> tuple[dict[T, list[T]], dict[T, list[T]]]:
    """Successor and predecessor lists of every node, in pair order."""
    succ: dict[T, list[T]] = {n: [] for n in nodes}
    pred: dict[T, list[T]] = {n: [] for n in succ}
    for src, dst in pairs:
        succ[src].append(dst)
        pred[dst].append(src)
    return succ, pred


def depth_first(adj: dict[T, list[T]], roots: Iterable[T]) -> Iterator[tuple[T, bool]]:
    """Each node reachable from the roots, once: (node, True) on entering it
    and (node, False) on leaving it, successors entered in list order."""
    seen: set[T] = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        yield root, True
        work = [(root, iter(adj[root]))]
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if nxt not in seen:
                    seen.add(nxt)
                    yield nxt, True
                    work.append((nxt, iter(adj[nxt])))
                    break
            else:
                work.pop()
                yield node, False


def reachable(
    adj: dict[str, list[str]], starts: Iterable[str], allowed: set[str] | None = None
) -> set[str]:
    """The start nodes plus every node reachable from them, never entering
    a node outside allowed (when given)."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen and (allowed is None or v in allowed):
                seen.add(v)
                stack.append(v)
    return seen


def topological_order(adj: dict[T, list[T]]) -> list[T] | None:
    """Kahn's order: of the nodes whose predecessors are all placed, the
    least comes next, so a caller orders ties by its choice of node
    labels (such as integer ranks). None when a cycle stops the order."""
    indeg = dict.fromkeys(adj, 0)
    for vs in adj.values():
        for v in vs:
            indeg[v] += 1
    heap = [n for n, d in indeg.items() if d == 0]
    heapify(heap)
    order: list[T] = []
    while heap:
        cur = heappop(heap)
        order.append(cur)
        for v in adj[cur]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heappush(heap, v)
    return order if len(order) == len(indeg) else None


def longest_paths(
    adj: dict[T, list[T]], weight: dict[T, int], members: set[T], dist: dict[T, int]
) -> set[T]:
    """Longest weighted paths over the edges inside members, in place.

    One Kahn pass with a plain ready-stack. Each member starts with a
    distance or is reachable inside members from one that does. Each edge
    from a placed node offers its distance plus the weight of the node it
    enters. Returns the members the order never placed: those on a cycle
    inside members or downstream of one.
    """
    indeg = dict.fromkeys(members, 0)
    for k in members:
        for v in adj[k]:
            if v in indeg:
                indeg[v] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    while ready:
        cur = ready.pop()
        base = dist[cur]
        for v in adj[cur]:
            if v not in indeg:
                continue
            cand = base + weight[v]
            if cand > dist.get(v, cand - 1):
                dist[v] = cand
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return {n for n, d in indeg.items() if d}


def bfs_layers(adj: dict[str, list[str]], seeds: Iterable[str]) -> list[str]:
    """Nodes reachable from the seeds but not among them, ordered by BFS
    layer, then by node within a layer."""
    seen = set(seeds)
    frontier = sorted(seen)
    ordered: list[str] = []
    while frontier:
        nxt: set[str] = set()
        for node in frontier:
            for v in adj[node]:
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = sorted(nxt)
        ordered.extend(frontier)
    return ordered


def strongly_connected(adj: dict[str, list[str]]) -> list[list[str]]:
    """Strongly connected components by Kosaraju's algorithm, members
    sorted, sinks first: no edge leads from a component to a later one."""
    finish = [node for node, entering in depth_first(adj, adj) if not entering]
    pred = adjacency(adj, ((u, v) for u, vs in adj.items() for v in vs))[1]
    left = set(adj)
    components: list[list[str]] = []
    # in falling finish order over the reversed edges, each unplaced node
    # reaches exactly its component, sources of the original graph first
    for node in reversed(finish):
        if node in left:
            component = reachable(pred, [node], left)
            left -= component
            components.append(sorted(component))
    return components[::-1]
