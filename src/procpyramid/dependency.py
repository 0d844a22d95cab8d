"""Milestone dependency graph: inferred from data flow, checked against
declared consumers, ordered in time, and traversed for impact."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .errors import UnknownSeedError
from .findings import Finding, finding, sort_findings
from .naming import canonical_key, compile_aliases
from .timeline import Milestone, OffsetTable

if TYPE_CHECKING:
    from .pyramid import Pyramid

DECLARED_AND_MATCHED = "declared-and-matched"
INFERRED_UNDECLARED = "inferred-undeclared"
DECLARED_UNMATCHED = "declared-unmatched"


@dataclass(frozen=True)
class DependencyEdge:
    """producer feeds consumer through the data objects in via."""

    producer: str
    consumer: str
    via: frozenset[str]
    status: str


@dataclass
class DependencyGraph:
    nodes: list[str] = field(default_factory=list)
    edges: list[DependencyEdge] = field(default_factory=list)
    # milestone id -> model id; model ids may themselves contain ":"
    model_of: dict[str, str] = field(default_factory=dict)

    def model_id(self, node: str) -> str:
        """The model a node belongs to. Nodes that are no milestone (dangling
        gq7 references) are read as model:node."""
        return self.model_of.get(node, node.split(":", 1)[0])

    def consumers_of(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.edges:
            adj[e.producer].append(e.consumer)
        return adj

    def producers_of(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.edges:
            adj[e.consumer].append(e.producer)
        return adj


@dataclass
class ImpactSet:
    seed: str
    downstream: list[str]
    upstream: list[str]
    crossed_levels: set[int]


def infer_edges(
    milestones: Iterable[Milestone], aliases: dict[str, str] | None = None
) -> DependencyGraph:
    """Build the milestone dependency graph.

    An edge exists where a producer's outputs intersect a consumer's inputs
    after alias normalization, or where a consumer is declared in gq7. The
    edge status records whether data flow and declaration agree. Consumers
    are found through an index from canonical input name to milestone, so
    only pairs that share a name or a declaration are examined.
    """
    table = compile_aliases(aliases)
    milestones = sorted(milestones, key=lambda ms: ms.milestone_id)
    keyed: list[tuple[Milestone, frozenset[str], frozenset[str]]] = []
    positions: dict[str, list[int]] = {}
    readers: dict[str, list[int]] = {}
    for i, ms in enumerate(milestones):
        outs = frozenset(canonical_key(n, table) for n in ms.gq.gq6_outputs)
        ins = frozenset(canonical_key(n, table) for n in ms.gq.gq5_inputs)
        keyed.append((ms, outs, ins))
        positions.setdefault(ms.milestone_id, []).append(i)
        for name in ins:
            readers.setdefault(name, []).append(i)

    known = set(positions)
    nodes = set(known)
    edges: list[DependencyEdge] = []
    for producer, outs, _ in keyed:
        declared = producer.gq.gq7_consumers
        reached: set[int] = set()
        for name in outs:
            reached.update(readers.get(name, ()))
        for ref in declared & known:
            reached.update(positions[ref])
        for j in sorted(reached):
            consumer, _, ins = keyed[j]
            if producer.milestone_id == consumer.milestone_id:
                continue
            via = outs & ins
            is_declared = consumer.milestone_id in declared
            if via:
                status = DECLARED_AND_MATCHED if is_declared else INFERRED_UNDECLARED
                edges.append(
                    DependencyEdge(producer.milestone_id, consumer.milestone_id, via, status)
                )
            else:
                edges.append(
                    DependencyEdge(
                        producer.milestone_id, consumer.milestone_id, frozenset(), DECLARED_UNMATCHED
                    )
                )
        # declared consumers that are no known milestone still yield an edge,
        # so the broken promise stays visible in the graph
        for ref in sorted(declared - known):
            if ref != producer.milestone_id:
                nodes.add(ref)
                edges.append(DependencyEdge(producer.milestone_id, ref, frozenset(), DECLARED_UNMATCHED))

    edges.sort(key=lambda e: (e.producer, e.consumer))
    return DependencyGraph(
        nodes=sorted(nodes), edges=edges, model_of={ms.milestone_id: ms.model_id for ms in milestones}
    )


def cross_check_declared(graph: DependencyGraph) -> list[Finding]:
    """Flag disagreements between data flow and gq7 declarations."""
    out: list[Finding] = []
    for edge in graph.edges:
        subject = f"{edge.producer}->{edge.consumer}"
        if edge.status == INFERRED_UNDECLARED:
            out.append(
                finding(
                    "UNDECLARED-DEPENDENCY",
                    subject,
                    "data flows via " + ", ".join(sorted(edge.via)) + " but gq7 does not declare it",
                )
            )
        elif edge.status == DECLARED_UNMATCHED:
            out.append(
                finding(
                    "DECLARED-UNMATCHED",
                    subject,
                    "gq7 declares this consumer but no produced data object reaches it",
                )
            )
    return sort_findings(out)


def _strongly_connected(graph: DependencyGraph) -> list[list[str]]:
    """Tarjan's algorithm, iterative to survive deep graphs."""
    adj = graph.consumers_of()
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in graph.nodes:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
    return sccs


def check_temporal(graph: DependencyGraph, table: OffsetTable) -> list[Finding]:
    """Producers must not occur after their consumers, and the graph must
    admit a time ordering at all (no cycles)."""
    out: list[Finding] = []
    for node in graph.nodes:
        if node not in table.offsets:
            out.append(finding("NOT-TIMED", node, "milestone has no resolved offset"))
    for edge in graph.edges:
        p, c = table.offsets.get(edge.producer), table.offsets.get(edge.consumer)
        if p is not None and c is not None and p > c:
            out.append(
                finding(
                    "TEMPORAL-VIOLATION",
                    f"{edge.producer}->{edge.consumer}",
                    f"producer at {p}d occurs after consumer at {c}d",
                )
            )
    for component in _strongly_connected(graph):
        if len(component) > 1:
            out.append(
                finding("CYCLE", component[0], "dependency cycle: " + " -> ".join(component))
            )
    return sort_findings(out)


def _expand_seed(graph: DependencyGraph, pyramid: Pyramid | None, seed: str) -> set[str]:
    node_set = set(graph.nodes)
    if pyramid is not None and seed in pyramid.model_map():
        members = {n for n in node_set if graph.model_id(n) == seed}
        if members:
            return members
        raise UnknownSeedError(f"model {seed!r} has no milestones in the dependency graph")
    if seed in node_set:
        return {seed}
    raise UnknownSeedError(f"seed {seed!r} matches no milestone and no model")


def _bfs_layers(adj: dict[str, list[str]], seeds: set[str]) -> list[str]:
    """Nodes reachable from the seed set, ordered by BFS layer then id."""
    seen = set(seeds)
    frontier = sorted(seeds)
    ordered: list[str] = []
    while frontier:
        nxt: set[str] = set()
        for node in frontier:
            for neighbor in adj.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.add(neighbor)
        frontier = sorted(nxt)
        ordered.extend(frontier)
    return ordered


def impact(graph: DependencyGraph, pyramid: Pyramid | None, seed: str) -> ImpactSet:
    """Everything a change at the seed can touch, in both directions.

    The seed may be a milestone id or a model id (which expands to all of
    the model's milestones). crossed_levels collects the pyramid levels of
    every touched milestone.
    """
    seeds = _expand_seed(graph, pyramid, seed)
    downstream = [n for n in _bfs_layers(graph.consumers_of(), seeds) if n not in seeds]
    upstream = [n for n in _bfs_layers(graph.producers_of(), seeds) if n not in seeds]

    crossed: set[int] = set()
    if pyramid is not None:
        level_of = pyramid.level_map()
        for node in seeds | set(downstream) | set(upstream):
            model_id = graph.model_id(node)
            if model_id in level_of:
                crossed.add(level_of[model_id])
    return ImpactSet(seed=seed, downstream=downstream, upstream=upstream, crossed_levels=crossed)


def find_redundant(
    milestones: Iterable[Milestone], aliases: dict[str, str] | None = None
) -> list[Finding]:
    """Flag data objects produced by milestones in more than one model.

    Producing the same object twice inside one model is taken as refinement
    and left alone.
    """
    table = compile_aliases(aliases)
    producers: dict[str, list[Milestone]] = {}
    for ms in sorted(milestones, key=lambda ms: ms.milestone_id):
        for name in ms.gq.gq6_outputs:
            producers.setdefault(canonical_key(name, table), []).append(ms)

    out: list[Finding] = []
    for key in sorted(producers):
        group = producers[key]
        models = {ms.model_id for ms in group}
        if len(models) > 1:
            who = ", ".join(ms.milestone_id for ms in group)
            out.append(
                finding(
                    "REDUNDANT-OUTPUT",
                    key,
                    f"produced in {len(models)} different models by: {who}",
                )
            )
    return sort_findings(out)


def graph_to_dot(graph: DependencyGraph, table: OffsetTable | None = None,
                 names: dict[str, str] | None = None) -> str:
    """Render the dependency graph as Graphviz DOT.

    Node labels read name@offset; edge style encodes the match status
    (solid declared-and-matched, dashed inferred, dotted declared-unmatched).
    """
    styles = {
        DECLARED_AND_MATCHED: "solid",
        INFERRED_UNDECLARED: "dashed",
        DECLARED_UNMATCHED: "dotted",
    }

    def quote(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph dependencies {", "  rankdir=LR;"]
    for node in graph.nodes:
        label = (names or {}).get(node, node)
        if table is not None and node in table.offsets:
            label = f"{label}@{table.offsets[node]}d"
        else:
            label = f"{label}@?"
        lines.append(f"  {quote(node)} [label={quote(label)}];")
    for edge in graph.edges:
        label = ", ".join(sorted(edge.via))
        lines.append(
            f"  {quote(edge.producer)} -> {quote(edge.consumer)} "
            f"[label={quote(label)}, style={styles[edge.status]}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(
    graph: DependencyGraph,
    table: OffsetTable | None = None,
    pyramid: Pyramid | None = None,
    names: dict[str, str] | None = None,
) -> dict:
    """JSON-ready edge list with level metadata on every edge."""
    level_of = pyramid.level_map() if pyramid is not None else {}

    def level(node: str) -> int | None:
        return level_of.get(graph.model_id(node))

    nodes = [
        {
            "id": node,
            "name": (names or {}).get(node, node),
            "level": level(node),
            "offset": table.offsets.get(node) if table is not None else None,
        }
        for node in graph.nodes
    ]
    edges = [
        {
            "producer": e.producer,
            "consumer": e.consumer,
            "via": sorted(e.via),
            "status": e.status,
            "producerLevel": level(e.producer),
            "consumerLevel": level(e.consumer),
        }
        for e in graph.edges
    ]
    return {"nodes": nodes, "edges": edges}
