"""Brute-force reference implementations the real code is checked against.

Everything here favors obviousness over speed: exhaustive enumeration,
Floyd-Warshall, linear scans. Keep these independent of the package
internals so a bug cannot hide in both places at once.
"""

import re
import xml.etree.ElementTree as ET
from collections import deque
from itertools import combinations

from procpyramid.durations import parse_duration
from procpyramid.errors import ModelParseError
from procpyramid.findings import Finding, finding, sort_findings
from procpyramid.model import (
    ANCHOR_BEFORE_SOP,
    EVENT_KINDS,
    DataObject,
    FlowNode,
    Lane,
    ProcessModel,
    TimerDef,
)


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


def lcs_pairs_by_table(reference, actual):
    """Index pairs of one longest common subsequence (deterministic backtrack)."""
    n, m = len(reference), len(actual)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if reference[i] == actual[j]:
                dp[i][j] = dp[i + 1][j + 1] + 1
            else:
                dp[i][j] = max(dp[i + 1][j], dp[i][j + 1])
    pairs = []
    i = j = 0
    while i < n and j < m:
        if reference[i] == actual[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


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


_WS = re.compile(r"\s+")


def normalize_name_by_regex(name):
    """Name normalization as first written, with a regex: case-fold, trim,
    and collapse internal whitespace."""
    return _WS.sub(" ", name.strip()).casefold()


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


# The tree-walk BPMN parser as it stood before ingest moved to bytes and one
# memoized tag lookup: `_local`, `_ns_prefix` and `_is_ignorable` run per
# element. Kept verbatim as the reference for `ingest.parse_model`.

_NODE_TAGS = {
    "startEvent": "start-event",
    "intermediateCatchEvent": "intermediate-event",
    "endEvent": "end-event",
    "task": "task",
    "callActivity": "call-activity",
    "exclusiveGateway": "exclusive-gateway",
    "parallelGateway": "parallel-gateway",
}

# Harmless structural noise present in real exports; skipped without comment.
_IGNORED_TAGS = {"documentation", "incoming", "outgoing", "text"}
_IGNORED_NS = ("bpmndi", "di", "dc", "omgdi", "omgdc")

def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _ns_prefix(tag: str) -> str:
    if tag.startswith("{"):
        ns = tag[1:].split("}", 1)[0]
        return ns.rsplit("/", 1)[-1].lower()
    return ""


def _is_ignorable(elem: ET.Element) -> bool:
    if _local(elem.tag) in _IGNORED_TAGS:
        return True
    prefix = _ns_prefix(elem.tag)
    return any(part in prefix for part in _IGNORED_NS)


def _fail(model_id: str, message: str) -> None:
    raise ModelParseError(f"model {model_id!r}: {message}")


def _parse_extensions(elem: ET.Element) -> dict[str, str]:
    entries: dict[str, str] = {}
    for child in elem:
        key = child.get("key")
        if key is None:
            continue
        value = child.get("value")
        if value is None:
            value = (child.text or "").strip()
        entries[key] = value
    return entries


def _parse_timer(elem: ET.Element, model_id: str, node_id: str) -> TimerDef:
    mode = elem.get("mode", ANCHOR_BEFORE_SOP)
    text = None
    for child in elem:
        if _local(child.tag) == "timeDuration":
            text = (child.text or "").strip()
    if not text:
        _fail(model_id, f"timer on node {node_id!r} has no timeDuration")
    try:
        amount = parse_duration(text)
        return TimerDef(amount=amount, mode=mode)
    except ValueError as exc:
        _fail(model_id, f"timer on node {node_id!r}: {exc}")


def _assoc_ref(elem: ET.Element, ref_tag: str) -> str | None:
    for child in elem:
        if _local(child.tag) == ref_tag:
            text = (child.text or "").strip()
            if text:
                return text
    attr = elem.get(ref_tag)
    return attr.strip() if attr else None


def parse_model_by_tree(xml_text: str, model_id: str) -> ProcessModel:
    """Parse one process diagram from BPMN XML.

    Structural defects (malformed XML, duplicate ids, dangling flows,
    missing start or end events) raise ModelParseError; everything else
    degrades to findings attached to the model.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        _fail(model_id, f"not well-formed XML ({exc})")

    processes = [root] if _local(root.tag) == "process" else [
        el for el in root.iter() if _local(el.tag) == "process"
    ]
    if not processes:
        _fail(model_id, "no process element found")
    info: list[Finding] = []
    if len(processes) > 1:
        extra = ", ".join(p.get("id", "?") for p in processes[1:])
        info.append(finding("EXTRA-PROCESS", model_id, f"additional process elements ignored: {extra}"))
    process = processes[0]

    nodes: list[FlowNode] = []
    flows: list[tuple[str, str, str]] = []
    lanes: list[Lane] = []
    data_objects: list[DataObject] = []
    object_refs: dict[str, str] = {}
    call_targets: dict[str, str] = {}
    process_ext: dict[str, str] = {}
    raw_io: dict[str, tuple[set[str], set[str]]] = {}

    def parse_node(elem: ET.Element, kind: str) -> None:
        node_id = elem.get("id")
        if not node_id:
            _fail(model_id, f"{_local(elem.tag)} element without id")
        timer = None
        extensions: dict[str, str] = {}
        ins: set[str] = set()
        outs: set[str] = set()
        for child in elem:
            tag = _local(child.tag)
            if tag == "extensionElements":
                extensions.update(_parse_extensions(child))
            elif tag == "timerEventDefinition":
                if kind not in EVENT_KINDS:
                    _fail(model_id, f"timer on non-event node {node_id!r}")
                timer = _parse_timer(child, model_id, node_id)
            elif tag == "dataInputAssociation":
                ref = _assoc_ref(child, "sourceRef")
                if ref:
                    ins.add(ref)
            elif tag == "dataOutputAssociation":
                ref = _assoc_ref(child, "targetRef")
                if ref:
                    outs.add(ref)
            elif _is_ignorable(child):
                continue
            else:
                info.append(
                    finding("UNSUPPORTED-ELEMENT", f"{model_id}:{node_id}", f"ignored element {tag!r}")
                )
        duration = None
        if "duration" in extensions:
            try:
                duration = parse_duration(extensions.pop("duration"))
            except ValueError as exc:
                _fail(model_id, f"node {node_id!r}: {exc}")
        if kind == "call-activity":
            call_targets[node_id] = (elem.get("calledElement") or "").strip()
        nodes.append(
            FlowNode(
                node_id=node_id,
                kind=kind,
                name=elem.get("name", ""),
                duration=duration,
                timer=timer,
                extensions=extensions,
            )
        )
        raw_io[node_id] = (ins, outs)

    for elem in process:
        tag = _local(elem.tag)
        if tag in _NODE_TAGS:
            parse_node(elem, _NODE_TAGS[tag])
        elif tag == "sequenceFlow":
            flow_id = elem.get("id", f"flow{len(flows)}")
            src, dst = elem.get("sourceRef", ""), elem.get("targetRef", "")
            flows.append((flow_id, src, dst))
        elif tag == "laneSet":
            for lane_el in elem:
                if _local(lane_el.tag) != "lane":
                    continue
                members = frozenset(
                    (ref.text or "").strip()
                    for ref in lane_el
                    if _local(ref.tag) == "flowNodeRef" and (ref.text or "").strip()
                )
                lanes.append(
                    Lane(
                        lane_id=lane_el.get("id", f"lane{len(lanes)}"),
                        role_name=lane_el.get("name", ""),
                        member_nodes=members,
                    )
                )
        elif tag == "dataObject":
            data_objects.append(
                DataObject(
                    object_id=elem.get("id", ""),
                    name=elem.get("name", ""),
                    storage_ref=elem.get("storageRef"),
                )
            )
        elif tag == "dataObjectReference":
            ref_id, target = elem.get("id"), elem.get("dataObjectRef")
            if ref_id and target:
                object_refs[ref_id] = target
        elif tag == "extensionElements":
            process_ext.update(_parse_extensions(elem))
        elif _is_ignorable(elem):
            continue
        else:
            info.append(finding("UNSUPPORTED-ELEMENT", model_id, f"ignored element {tag!r}"))

    seen_ids: set[str] = set()
    for node in nodes:
        if node.node_id in seen_ids:
            _fail(model_id, f"duplicate node id {node.node_id!r}")
        seen_ids.add(node.node_id)
    for flow_id, src, dst in flows:
        for end in (src, dst):
            if end not in seen_ids:
                _fail(model_id, f"flow {flow_id!r} references unknown node {end!r}")

    starts = [n for n in nodes if n.kind == "start-event"]
    if len(starts) != 1:
        _fail(model_id, f"expected exactly one start event, found {len(starts)}")
    if not any(n.kind == "end-event" for n in nodes):
        _fail(model_id, "no end event")

    known_objects: set[str] = set()
    for obj in data_objects:
        if obj.object_id in known_objects:
            _fail(model_id, f"duplicate data object id {obj.object_id!r}")
        known_objects.add(obj.object_id)

    def resolve_object(ref: str, node_id: str) -> str | None:
        target = object_refs.get(ref, ref)
        if target in known_objects:
            return target
        info.append(
            finding(
                "UNRESOLVED-DATA-REF",
                f"{model_id}:{node_id}",
                f"data association references unknown object {ref!r}",
            )
        )
        return None

    for node in nodes:
        ins, outs = raw_io[node.node_id]
        node.inputs = tuple(sorted(
            {r for r in (resolve_object(ref, node.node_id) for ref in sorted(ins)) if r}
        ))
        node.outputs = tuple(sorted(
            {r for r in (resolve_object(ref, node.node_id) for ref in sorted(outs)) if r}
        ))

    return ProcessModel(
        model_id=model_id,
        name=process.get("name", ""),
        nodes=nodes,
        flows=[(src, dst) for _, src, dst in flows],
        lanes=lanes,
        data_objects=data_objects,
        call_targets=call_targets,
        extensions=process_ext,
        parse_findings=sort_findings(info),
    )


def wellformed_by_scan(model):
    """The four modeling requirements, checked rule by rule: R1 by BFS from
    the start event, R2 per task, R3 by a scan of the lanes in order (the
    first lane holding the node decides), R4 by reverse reachability from
    each event to a node that carries a timer."""
    start = [n.node_id for n in model.nodes if n.kind == "start-event"][0]
    succ = _successors(model)
    reached = {start}
    queue = deque([start])
    while queue:
        for nxt in succ[queue.popleft()]:
            if nxt not in reached:
                reached.add(nxt)
                queue.append(nxt)

    nodes = _node_map(model)
    pred = _predecessors(model)
    out = []
    for node in model.nodes:
        subject = f"{model.model_id}:{node.node_id}"
        if node.node_id not in reached:
            out.append(finding("R1-UNREACHABLE", subject, "node is not reachable from the start event"))
        if node.kind == "task":
            if node.duration is None:
                out.append(finding("R2-NO-DURATION", subject, "task has no execution time"))
            if not node.inputs:
                out.append(finding("R2-NO-INPUT", subject, "task consumes no data object"))
            if not node.outputs:
                out.append(finding("R2-NO-OUTPUT", subject, "task produces no data object"))
        lane = None
        for candidate in model.lanes:
            if node.node_id in candidate.member_nodes:
                lane = candidate
                break
        if lane is None or not lane.role_name.strip():
            out.append(finding("R3-NO-ROLE", subject, "node is not assigned to a lane with a role"))
        if node.kind in EVENT_KINDS:
            upstream = _reachable(pred, [node.node_id])
            if not any(nodes[n].timer is not None for n in upstream):
                out.append(finding("R4-NO-TIMER", subject, "event has no time symbol on its incoming chain"))
    return sort_findings(out)
