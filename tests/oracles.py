"""Brute-force reference implementations the real code is checked against.

Everything here favors obviousness over speed: exhaustive enumeration,
Floyd-Warshall, linear scans. Keep these independent of the package
internals so a bug cannot hide in both places at once.
"""

from collections import deque
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


def priority_topological_order(nodes, edges):
    """Topological order that always places, of the unplaced nodes with no
    edge from an unplaced node, the one listed first in nodes. Rescans every
    edge for every node placed. None when a cycle leaves nodes unplaced."""
    pending = list(nodes)
    order = []
    while pending:
        ready = [n for n in pending if not any(b == n and a in pending for a, b in edges)]
        if not ready:
            return None
        order.append(ready[0])
        pending.remove(ready[0])
    return order


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


# Offsets as they were computed per event: every call rebuilds the node map
# and the successor and predecessor lists of the whole model, and each
# anchor's cone filters the whole model's successor lists. Nodes are
# duck-typed (node_id, kind, duration.days, timer.mode, timer.amount.days).

_CYCLIC = object()


def _node_map(model):
    return {n.node_id: n for n in model.nodes}


def _successors(model):
    adj = {n.node_id: [] for n in model.nodes}
    for src, dst in model.flows:
        adj[src].append(dst)
    return adj


def _predecessors(model):
    pred = {n.node_id: [] for n in model.nodes}
    for src, dst in model.flows:
        pred[dst].append(src)
    return pred


def _reachable(adj, starts):
    seen = set()
    stack = [s for s in starts if s in adj]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(adj[cur])
    return seen


def _node_weight(node):
    if node.kind == "task" and node.duration is not None:
        return node.duration.days
    if node.timer is not None and node.timer.mode == "elapsed":
        return node.timer.amount.days
    return 0


def _is_anchor(node):
    return node.timer is not None and node.timer.mode == "anchor-before-sop"


def _cone_longest_path(model, src, dst, allowed):
    nodes = _node_map(model)
    adj = {k: [v for v in vs if v in allowed] for k, vs in _successors(model).items() if k in allowed}
    fwd = _reachable(adj, [src])
    back_adj = {k: [] for k in adj}
    for k, vs in adj.items():
        for v in vs:
            back_adj[v].append(k)
    cone = fwd & _reachable(back_adj, [dst])
    if src not in cone or dst not in cone:
        return None

    indeg = {n: 0 for n in cone}
    for k in cone:
        for v in adj[k]:
            if v in cone:
                indeg[v] += 1
    queue = deque(sorted(n for n, d in indeg.items() if d == 0))
    order = []
    while queue:
        cur = queue.popleft()
        order.append(cur)
        for v in adj[cur]:
            if v in cone:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
    if len(order) != len(cone):
        return _CYCLIC

    dist = {src: 0}
    for cur in order:
        if cur not in dist:
            continue
        for v in adj[cur]:
            if v in cone:
                cand = dist[cur] + _node_weight(nodes[v])
                if cand > dist.get(v, cand - 1):
                    dist[v] = cand
    return dist.get(dst)


def anchor_candidates_by_cones(model, event_id):
    """(candidates, cyclic) for one event: each nearest upstream anchor with
    the offset its longest path implies, sorted by anchor id."""
    nodes = _node_map(model)
    target = nodes[event_id]
    if _is_anchor(target):
        return [(event_id, -target.timer.amount.days)], False

    pred = _predecessors(model)
    region = {event_id}
    anchors = []
    queue = deque([event_id])
    while queue:
        cur = queue.popleft()
        for p in pred.get(cur, ()):
            if p in region:
                continue
            region.add(p)
            if _is_anchor(nodes[p]):
                anchors.append(p)
                continue
            queue.append(p)

    cyclic = False
    out = []
    for anchor in sorted(anchors):
        allowed = region - {a for a in anchors if a != anchor}
        dist = _cone_longest_path(model, anchor, event_id, allowed)
        if dist is _CYCLIC:
            cyclic = True
            continue
        if dist is None:
            continue
        amount = nodes[anchor].timer.amount.days
        out.append((anchor, -amount + dist))
    return out, cyclic


def _segment_nodes(model, event_id):
    nodes = _node_map(model)
    pred = _predecessors(model)
    seg = {event_id}
    stack = [event_id]
    while stack:
        cur = stack.pop()
        for p in pred.get(cur, ()):
            if p in seg or nodes[p].kind in ("start-event", "intermediate-event", "end-event"):
                continue
            seg.add(p)
            stack.append(p)
    return seg


def segment_duration_by_scan(model, event_id):
    """Longest task-time path through the event's segment, None when the
    segment has no task or holds a cycle."""
    seg = _segment_nodes(model, event_id)
    nodes = _node_map(model)
    if not any(nodes[n].kind == "task" for n in seg):
        return None

    adj = {k: [v for v in vs if v in seg] for k, vs in _successors(model).items() if k in seg}
    indeg = {n: 0 for n in seg}
    for k, vs in adj.items():
        for v in vs:
            indeg[v] += 1
    queue = deque(sorted(n for n, d in indeg.items() if d == 0))
    order = []
    dist = {}
    while queue:
        cur = queue.popleft()
        order.append(cur)
        dist.setdefault(cur, _node_weight(nodes[cur]))
        for v in adj[cur]:
            cand = dist[cur] + _node_weight(nodes[v])
            if cand > dist.get(v, cand - 1):
                dist[v] = cand
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != len(seg):
        return None
    return dist.get(event_id, 0)
