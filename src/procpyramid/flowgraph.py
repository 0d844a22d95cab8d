"""Flow-graph analysis shared by model linting and offset resolution.

Stages that walk one model's flows build its `FlowIndex` (node map,
successor and predecessor lists) once and pass it to every walk; the
index is dropped when the stage returns. For an acyclic model, one pass
along the index's topological order gives every event's anchor
candidates and segment duration. With a cycle, each anchor takes a Kahn
pass over the nodes it reaches, and each event one over its segment.
Generic walks come from `graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import adjacency, longest_paths, reachable, topological_order
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

    @cached_property
    def acyclic_facts(
        self,
    ) -> tuple[dict[str, tuple[list[tuple[str, int]], bool]], dict[str, int | None]] | None:
        """What `anchor_candidates` and `segment_duration` give, from one
        pass along the topological order; None on a cycle. Per node the
        pass keeps the longest paths (days) to it from the anchors that
        reach it without entering another anchor (a dict shared along a
        chain, plus the days since) and the longest path into it through
        non-events, -1 when none holds a task."""
        order = topological_order(self.succ)
        if order is None:
            return None
        nodes, pred, weight = self.nodes, self.pred, self.weight
        state: dict[str, tuple[dict[str, int], int, int]] = {}
        candidates: dict[str, tuple[list[tuple[str, int]], bool]] = {}
        durations: dict[str, int | None] = {}
        for v in order:
            node, preds, w = nodes[v], pred[v], weight[v]
            if len(preds) == 1:
                reach, shift, up = state[preds[0]]
                shift += w
            else:
                reach, shift, up = {}, w, -1
                for p in preds:
                    dists, added, inner = state[p]
                    up = max(up, inner)
                    for a, d in dists.items():
                        if d + added > reach.get(a, -1):
                            reach[a] = d + added
            if node.timer is not None and node.timer.mode == ANCHOR_BEFORE_SOP:
                reach, shift = {v: 0}, 0
            if node.kind not in EVENT_KINDS:
                state[v] = (reach, shift, max(up, 0) + w if node.kind == "task" else up)
                continue
            state[v] = (reach, shift, -1)
            offsets = [(a, d + shift - nodes[a].timer.amount.days) for a, d in sorted(reach.items())]
            candidates[v] = (offsets, False)
            durations[v] = up + w if up >= 0 else None
        return candidates, durations


def timer_covered_events(nodes: dict[str, FlowNode], succ: dict[str, list[str]]) -> set[str]:
    """Events that carry a timer or sit downstream of a timer-carrying node,
    given a node map and its successor lists."""
    downstream = reachable(succ, [nid for nid, n in nodes.items() if n.timer is not None])
    return {nid for nid in downstream if nodes[nid].kind in EVENT_KINDS}


def anchor_candidates(index: FlowIndex) -> dict[str, tuple[list[tuple[str, int]], bool]]:
    """Nearest upstream anchor timers of every event and the SOP offset each
    one implies.

    Maps each event to (candidates, cyclic): candidates as (anchor node id,
    offset days) sorted by anchor id, cyclic True when a flow cycle
    prevented at least one path computation. An event carrying its own
    anchor timer is its sole candidate with a zero-length path.

    A path from anchor a to event e whose inner nodes are no anchors is
    what makes a a candidate of e. With a cycle, each anchor takes one pass
    over the non-anchor nodes it reaches (its members): one longest-path
    Kahn pass from a, whose unplaced members sit behind a cycle, plus the
    members downstream of a flow back into a. Those events are cyclic for
    a; every other member event gets a's offset plus its longest path.
    """
    if index.acyclic_facts is not None:
        return index.acyclic_facts[0]
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
        stuck = longest_paths(succ, weight, members, dist)
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
    if index.acyclic_facts is not None:
        return index.acyclic_facts[1][event_id]
    nodes = index.nodes
    if not any(nodes[n].kind == "task" for n in seg):
        return None
    # Weights are non-negative, so starting every node at its own weight
    # leaves the longest path into it unchanged.
    weight = index.weight
    dist = {n: weight[n] for n in seg}
    if longest_paths(index.succ, weight, seg, dist):
        return None
    return dist[event_id]
