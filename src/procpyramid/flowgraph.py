"""Flow-graph analysis shared by model linting and offset resolution.

Stages that walk one model's flows build its `FlowIndex` (node map,
successor and predecessor lists) once and pass it to every walk; the
index is dropped when the stage returns. Longest paths come from one Kahn
pass over the nodes a walk may visit: per model, one pass per anchor over
the nodes it reaches gives every event's anchor candidates; per event, one
pass over its segment gives its duration. Generic reachability comes from
`graph`; this module adds the node weights, anchors and segments of
process flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import adjacency, reachable
from .model import ANCHOR_BEFORE_SOP, ELAPSED, EVENT_KINDS, FlowNode, ProcessModel


@dataclass(frozen=True)
class FlowIndex:
    """One model's node map and successor and predecessor lists."""

    nodes: dict[str, FlowNode]
    succ: dict[str, list[str]]
    pred: dict[str, list[str]]

    @classmethod
    def of(cls, model: ProcessModel) -> FlowIndex:
        nodes = model.node_map()
        return cls(nodes, *adjacency(nodes, model.flows))

    @cached_property
    def inner(self) -> set[str]:
        """The ids of the nodes that are not events. Built on first use:
        only segment walks read it."""
        return {nid for nid, n in self.nodes.items() if n.kind not in EVENT_KINDS}

    @cached_property
    def weight(self) -> dict[str, int]:
        """Days a path spends passing through each node: a task's duration,
        an elapsed timer's amount, else 0. Built on first use: only
        longest-path walks read it."""
        return {
            nid: n.duration.days if n.kind == "task" and n.duration is not None
            else n.timer.amount.days if n.timer is not None and n.timer.mode == ELAPSED
            else 0
            for nid, n in self.nodes.items()
        }


def timer_covered_events(index: FlowIndex) -> set[str]:
    """Events that carry a timer or sit downstream of a timer-carrying node."""
    nodes = index.nodes
    timered = [nid for nid, n in nodes.items() if n.timer is not None]
    downstream = reachable(index.succ, timered)
    return {
        nid for nid, n in nodes.items()
        if n.is_event and (n.timer is not None or nid in downstream)
    }


def _longest_paths(index: FlowIndex, members: set[str], dist: dict[str, int]) -> set[str]:
    """Longest weighted paths over the flows inside members, in place.

    One Kahn pass with a plain ready-stack. Each member starts with a
    distance or is reachable inside members from one that does. Each flow
    from a placed node offers its distance plus the weight of the node it
    enters. Returns the members the order never placed: those on a cycle
    inside members or downstream of one.
    """
    succ, weight = index.succ, index.weight
    indeg = dict.fromkeys(members, 0)
    for k in members:
        for v in succ[k]:
            if v in indeg:
                indeg[v] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    while ready:
        cur = ready.pop()
        base = dist[cur]
        for v in succ[cur]:
            if v not in indeg:
                continue
            cand = base + weight[v]
            if cand > dist.get(v, cand - 1):
                dist[v] = cand
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return {n for n, d in indeg.items() if d}


def anchor_candidates(index: FlowIndex) -> dict[str, tuple[list[tuple[str, int]], bool]]:
    """Nearest upstream anchor timers of every event and the SOP offset each
    one implies.

    Maps each event to (candidates, cyclic): candidates as (anchor node id,
    offset days) sorted by anchor id, cyclic True when a flow cycle
    prevented at least one path computation. An event carrying its own
    anchor timer is its sole candidate with a zero-length path.

    A path from anchor a to event e whose inner nodes are no anchors is
    what makes a a candidate of e, so each anchor takes one forward pass
    over the non-anchor nodes it reaches (its members): one longest-path
    Kahn pass from a, whose unplaced members sit behind a cycle, plus the
    members downstream of a flow back into a. Those events are cyclic for
    a; every other member event gets a's offset plus its longest path.
    """
    nodes, succ, weight = index.nodes, index.succ, index.weight
    plain = {
        nid for nid, n in nodes.items() if n.timer is None or n.timer.mode != ANCHOR_BEFORE_SOP
    }
    found: dict[str, list[tuple[str, int]]] = {nid: [] for nid, n in nodes.items() if n.is_event}
    cyclic: set[str] = set()
    for anchor in sorted(nodes.keys() - plain):
        amount = nodes[anchor].timer.amount.days
        members = reachable(succ, [anchor], plain) - {anchor}
        dist = {v: weight[v] for v in succ[anchor] if v in members}
        stuck = _longest_paths(index, members, dist)
        back = [p for p in index.pred[anchor] if p == anchor or p in members]
        stuck |= reachable(succ, back, members)
        for e in members.intersection(found):
            if e in stuck:
                cyclic.add(e)
            else:
                found[e].append((anchor, -amount + dist[e]))
        found[anchor] = [(anchor, -amount)]
    return {e: (out, e in cyclic) for e, out in found.items()}


def segment_nodes(index: FlowIndex, event_id: str) -> set[str]:
    """The process segment owned by an event: upstream nodes reachable
    backwards without crossing another event. Includes the event itself."""
    return reachable(index.pred, [event_id], index.inner)


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
    weight = index.weight
    dist = {n: weight[n] for n in seg}
    if _longest_paths(index, seg, dist):
        return None
    return dist[event_id]
