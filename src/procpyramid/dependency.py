"""Milestone dependency graph: inferred from data flow, checked against
declared consumers, ordered in time, and traversed for impact."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .errors import UnknownSeedError
from .findings import Finding, finding, sort_findings
from .graph import adjacency, bfs_layers, strongly_connected
from .naming import canonical_key, compile_aliases
from .timeline import Milestone, OffsetTable

if TYPE_CHECKING:
    from .pyramid import Pyramid

DECLARED_AND_MATCHED = "declared-and-matched"
INFERRED_UNDECLARED = "inferred-undeclared"
DECLARED_UNMATCHED = "declared-unmatched"


@dataclass(frozen=True, slots=True)
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
        model = self.model_of.get(node)
        return model if model is not None else node.split(":", 1)[0]

    def adjacency(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """The consumers and the producers of every node, over every edge."""
        return adjacency(self.nodes, ((e.producer, e.consumer) for e in self.edges))


@dataclass
class ImpactSet:
    seed: str
    downstream: list[str]
    upstream: list[str]
    crossed_levels: set[int]


class _NameKeys(dict):
    """Raw name -> canonical key under one alias table.

    One table serves every stage that compares names in a run, so each
    distinct name is keyed once. A name that is its own key maps to itself:
    the table holds no second copy of the string.
    """

    def __init__(self, aliases: dict[str, str] | None):
        super().__init__()
        self.aliases = dict(aliases or {})
        self.table = compile_aliases(aliases)

    @classmethod
    def of(cls, aliases: dict[str, str] | None, name_keys: _NameKeys | None) -> _NameKeys:
        """The table a call keys through: `name_keys` when given, which must
        have been built from these aliases, or else a fresh one."""
        if name_keys is None:
            return cls(aliases)
        if name_keys.aliases != (aliases or {}):
            raise ValueError("name_keys was built from a different alias table")
        return name_keys

    def __missing__(self, name: str) -> str:
        key = canonical_key(name, self.table)
        if key == name:
            key = name
        self[name] = key
        return key


def infer_edges(
    milestones: Iterable[Milestone],
    aliases: dict[str, str] | None = None,
    *,
    name_keys: _NameKeys | None = None,
) -> DependencyGraph:
    """Build the milestone dependency graph.

    An edge exists where a producer's outputs intersect a consumer's inputs
    after alias normalization, or where a consumer is declared in gq7. The
    edge status records whether data flow and declaration agree. Consumers
    are found through an index from canonical input name to milestone, so
    only pairs that share a name or a declaration are examined. `name_keys`,
    when given, is a table built from the same aliases and shared with other
    stages (ValueError if its aliases differ); otherwise the call builds its
    own.
    """
    keys = _NameKeys.of(aliases, name_keys)
    milestones = sorted(milestones, key=lambda ms: ms.milestone_id)
    positions: dict[str, list[int]] = {}
    # canonical input key -> the index of its one reader, or a list of the
    # indexes once a second milestone reads it; each milestone once per key.
    # Most keys have one reader, and a bare int for those keeps the index
    # smaller than a list per key would.
    readers: dict[str, int | list[int]] = {}
    for i, ms in enumerate(milestones):
        positions.setdefault(ms.milestone_id, []).append(i)
        for name in ms.gq.gq5_inputs:
            key = keys[name]
            seen = readers.setdefault(key, i)
            if seen == i:
                continue
            if type(seen) is int:
                readers[key] = [seen, i]
            elif seen[-1] != i:
                seen.append(i)

    known = set(positions)
    nodes = set(known)
    edges: list[DependencyEdge] = []
    for producer in milestones:
        pid = producer.milestone_id
        declared = producer.gq.gq7_consumers
        # reached consumer index -> the keys it reads from this producer
        via_of: dict[int, set[str]] = {}
        for name in producer.gq.gq6_outputs:
            key = keys[name]
            found = readers.get(key, ())
            for j in (found,) if type(found) is int else found:
                via_of.setdefault(j, set()).add(key)
        for ref in declared & known:
            for j in positions[ref]:
                via_of.setdefault(j, set())
        for j in sorted(via_of):
            cid = milestones[j].milestone_id
            if cid == pid:
                continue
            via = via_of[j]
            if via:
                status = DECLARED_AND_MATCHED if cid in declared else INFERRED_UNDECLARED
                edges.append(DependencyEdge(pid, cid, frozenset(via), status))
            else:
                edges.append(DependencyEdge(pid, cid, frozenset(), DECLARED_UNMATCHED))
        # declared consumers that are no known milestone still yield an edge,
        # so the broken promise stays visible in the graph
        for ref in sorted(declared - known):
            if ref != pid:
                nodes.add(ref)
                edges.append(DependencyEdge(pid, ref, frozenset(), DECLARED_UNMATCHED))

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
    for component in strongly_connected(graph.adjacency()[0]):
        if len(component) > 1:
            component.sort()
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


def impact(graph: DependencyGraph, pyramid: Pyramid | None, seed: str) -> ImpactSet:
    """Everything a change at the seed can touch, in both directions.

    The seed may be a milestone id or a model id (which expands to all of
    the model's milestones). crossed_levels collects the pyramid levels of
    every touched milestone.
    """
    seeds = _expand_seed(graph, pyramid, seed)
    consumers, producers = graph.adjacency()
    downstream = bfs_layers(consumers, seeds)
    upstream = bfs_layers(producers, seeds)

    crossed: set[int] = set()
    if pyramid is not None:
        level_of = pyramid.level_map()
        for node in seeds | set(downstream) | set(upstream):
            model_id = graph.model_id(node)
            if model_id in level_of:
                crossed.add(level_of[model_id])
    return ImpactSet(seed=seed, downstream=downstream, upstream=upstream, crossed_levels=crossed)


def find_redundant(
    milestones: Iterable[Milestone],
    aliases: dict[str, str] | None = None,
    *,
    name_keys: _NameKeys | None = None,
) -> list[Finding]:
    """Flag data objects produced by milestones in more than one model.

    Producing the same object twice inside one model is taken as refinement
    and left alone. `name_keys` is shared as in `infer_edges`.
    """
    keys = _NameKeys.of(aliases, name_keys)
    first: dict[str, Milestone] = {}
    # only keys with a second producer get a list; a milestone with two
    # spellings of one key is listed once
    shared: dict[str, list[Milestone]] = {}
    for ms in sorted(milestones, key=lambda ms: ms.milestone_id):
        for name in ms.gq.gq6_outputs:
            key = keys[name]
            producer = first.setdefault(key, ms)
            if producer is ms:
                continue
            group = shared.get(key)
            if group is None:
                shared[key] = [producer, ms]
            elif group[-1] is not ms:
                group.append(ms)

    out: list[Finding] = []
    for key in sorted(shared):
        group = shared[key]
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
