"""Brute-force reference implementations the real code is checked against.

Everything here favors obviousness over speed: exhaustive enumeration,
Floyd-Warshall, linear scans. Keep these independent of the package
internals so a bug cannot hide in both places at once.
"""

from itertools import combinations


def reachable_from(start, adjacency):
    """Recursive DFS reachability; returns the set including start."""
    seen = set()

    def walk(node):
        if node in seen:
            return
        seen.add(node)
        for nxt in adjacency.get(node, ()):
            walk(nxt)

    walk(start)
    return seen


def longest_path_exhaustive(adjacency, weights, src, dst):
    """Max node-weight sum over all simple src->dst paths, src excluded.

    Returns None if dst is unreachable. Only usable on small graphs.
    """
    best = None
    stack = [(src, {src}, 0)]
    while stack:
        node, on_path, total = stack.pop()
        if node == dst:
            if best is None or total > best:
                best = total
            continue
        for nxt in adjacency.get(node, ()):
            if nxt not in on_path:
                stack.append((nxt, on_path | {nxt}, total + weights.get(nxt, 0)))
    return best


def closure_floyd_warshall(nodes, edges):
    """Boolean transitive closure as a set of (a, b) pairs, a != b."""
    nodes = list(nodes)
    reach = {(a, b) for a, b in edges}
    for k in nodes:
        for a in nodes:
            if (a, k) not in reach:
                continue
            for b in nodes:
                if (k, b) in reach:
                    reach.add((a, b))
    return {(a, b) for a, b in reach if a != b}


def lcs_exhaustive(a, b):
    """Longest common subsequence by trying subsequences of a, longest first."""

    def is_subsequence(sub, seq):
        it = iter(seq)
        return all(any(x == y for y in it) for x in sub)

    for size in range(len(a), 0, -1):
        for candidate in combinations(a, size):
            if is_subsequence(candidate, b):
                return list(candidate)
    return []


def slot_scan(offset, boundaries):
    """Index of the slot containing offset, by scanning every interval.

    Slots are [b[i], b[i+1]) except the last, which also contains the
    final boundary. Returns None when the offset is outside the grid.
    """
    last = len(boundaries) - 2
    for i in range(len(boundaries) - 1):
        lo, hi = boundaries[i], boundaries[i + 1]
        if lo <= offset < hi or (i == last and offset == hi):
            return i
    return None


def edges_brute_force(producers, consumers, declared):
    """Expected dependency edges from per-milestone name sets.

    producers/consumers map milestone id -> set of canonical data names,
    declared maps producer id -> set of declared consumer ids. Returns
    {(producer, consumer): (via frozenset, status)}.
    """
    expected = {}
    ids = set(producers) | set(consumers) | set(declared)
    for targets in declared.values():
        ids |= targets
    ids = sorted(ids)
    for p in ids:
        targets = declared.get(p, set())
        for c in ids:
            if c == p:
                continue
            via = frozenset(producers.get(p, set()) & consumers.get(c, set()))
            if via and c in targets:
                expected[(p, c)] = (via, "declared-and-matched")
            elif via:
                expected[(p, c)] = (via, "inferred-undeclared")
            elif c in targets:
                expected[(p, c)] = (frozenset(), "declared-unmatched")
    return expected


def alias_walk(name, aliases):
    """Canonical name by walking the raw alias table from one name.

    Names compare case-folded with whitespace collapsed. The walk follows
    the table until the name is no key, or until the next name was already
    seen, so a cycle stops at the last distinct name seen from the start.
    """

    def norm(text):
        return " ".join(text.split()).casefold()

    table = {norm(k): norm(v) for k, v in aliases.items()}
    key = norm(name)
    seen = {key}
    while key in table and table[key] not in seen:
        key = table[key]
        seen.add(key)
    return key


def unreachable_by_bfs(root, children):
    """Models not reached from root over parent->child links."""
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for model in frontier:
            for child in children.get(model, ()):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return set(children) - seen
