"""Flow-graph analysis shared by model linting and offset resolution.

Stages that walk one model's flows build its `FlowIndex` (node map,
successor and predecessor lists) once and pass it to every walk; the
index is dropped when the stage returns. Each walk builds adjacency over
the nodes it may visit (an anchor's cone, an event's segment), never over
the whole model. Generic reachability and ordering come from `graph`; this
module adds the node weights, anchors and segments of process flows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import adjacency, reachable, topological_order
from .model import ANCHOR_BEFORE_SOP, ELAPSED, FlowNode, ProcessModel


@dataclass(frozen=True, slots=True)
class FlowIndex:
    """One model's node map and successor and predecessor lists."""

    nodes: dict[str, FlowNode]
    succ: dict[str, list[str]]
    pred: dict[str, list[str]]

    @classmethod
    def of(cls, model: ProcessModel) -> FlowIndex:
        nodes = model.node_map()
        return cls(nodes, *adjacency(nodes, model.flows))


def node_weight(node: FlowNode) -> int:
    """Days a path spends passing through this node."""
    if node.kind == "task" and node.duration is not None:
        return node.duration.days
    if node.timer is not None and node.timer.mode == ELAPSED:
        return node.timer.amount.days
    return 0


def is_anchor(node: FlowNode) -> bool:
    return node.timer is not None and node.timer.mode == ANCHOR_BEFORE_SOP


def timer_covered_events(index: FlowIndex) -> set[str]:
    """Events that carry a timer or sit downstream of a timer-carrying node."""
    nodes = index.nodes
    timered = [nid for nid, n in nodes.items() if n.timer is not None]
    downstream = reachable(index.succ, timered)
    return {
        nid for nid, n in nodes.items()
        if n.is_event and (n.timer is not None or nid in downstream)
    }


def _longest_paths(index: FlowIndex, members: set[str], dist: dict[str, int]) -> bool:
    """Longest weighted paths over the flows inside members, in place.

    Walks the members in topological order; each flow from a node with a
    distance offers that distance plus the weight of the node it enters.
    False when a cycle inside members stops the order.
    """
    nodes = index.nodes
    adj = {k: [v for v in index.succ[k] if v in members] for k in members}
    order = topological_order(adj)
    if order is None:
        return False
    for cur in order:
        base = dist.get(cur)
        if base is not None:
            for v in adj[cur]:
                cand = base + node_weight(nodes[v])
                if cand > dist.get(v, cand - 1):
                    dist[v] = cand
    return True


def _cone_longest_path(index: FlowIndex, src: str, dst: str, allowed: set[str]) -> int | None:
    """Longest weighted path src -> dst restricted to allowed nodes.

    Every allowed node reaches dst inside allowed, as in an event's
    upstream region, so the nodes src reaches are the src-to-dst cone.
    The source contributes no weight; every later node on the path does.
    None when a cycle lies inside the cone.
    """
    cone = reachable(index.succ, [src], allowed)
    dist = {src: 0}
    if not _longest_paths(index, cone, dist):
        return None
    return dist[dst]


def anchor_candidates(index: FlowIndex, event_id: str) -> tuple[list[tuple[str, int]], bool]:
    """Nearest upstream anchor timers and the SOP offset each one implies.

    Returns (candidates, cyclic): candidates as (anchor node id, offset days)
    sorted by anchor id, cyclic True when a flow cycle prevented at least one
    path computation. An event carrying its own anchor timer is its sole
    candidate with a zero-length path.
    """
    nodes, pred = index.nodes, index.pred
    target = nodes[event_id]
    if is_anchor(target):
        return [(event_id, -target.timer.amount.days)], False

    region = {event_id}
    anchors: list[str] = []
    queue = deque([event_id])
    while queue:
        cur = queue.popleft()
        for p in pred[cur]:
            if p in region:
                continue
            region.add(p)
            if is_anchor(nodes[p]):
                anchors.append(p)
                continue
            queue.append(p)

    cyclic = False
    out: list[tuple[str, int]] = []
    for anchor in sorted(anchors):
        allowed = region.difference(a for a in anchors if a != anchor)
        dist = _cone_longest_path(index, anchor, event_id, allowed)
        if dist is None:
            cyclic = True
            continue
        amount = nodes[anchor].timer.amount.days
        out.append((anchor, -amount + dist))
    return out, cyclic


def segment_nodes(index: FlowIndex, event_id: str) -> set[str]:
    """The process segment owned by an event: upstream nodes reachable
    backwards without crossing another event. Includes the event itself."""
    nodes, pred = index.nodes, index.pred
    seg = {event_id}
    stack = [event_id]
    while stack:
        cur = stack.pop()
        for p in pred[cur]:
            if p in seg or nodes[p].is_event:
                continue
            seg.add(p)
            stack.append(p)
    return seg


def segment_duration(index: FlowIndex, event_id: str, seg: set[str]) -> int | None:
    """Longest task-time path through the event's segment (as given by
    segment_nodes), in days.

    None when the segment contains no task or a cycle makes the sum
    ill-defined.
    """
    nodes = index.nodes
    if not any(nodes[n].kind == "task" for n in seg):
        return None
    # Weights are non-negative, so starting every node at its own weight
    # leaves the longest path into it unchanged.
    dist = {n: node_weight(nodes[n]) for n in seg}
    if not _longest_paths(index, seg, dist):
        return None
    return dist[event_id]
