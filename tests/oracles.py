"""Brute-force reference implementations the real code is checked against.

Everything here favors obviousness over speed: exhaustive enumeration,
Floyd-Warshall, linear scans. Keep these independent of the package
internals so a bug cannot hide in both places at once.
"""

import json
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter, deque
from itertools import combinations

from procpyramid.conformance import SIDES, ReferenceProcess
from procpyramid.durations import Duration, parse_duration
from procpyramid.errors import ManifestError, ModelParseError, TemplateError
from procpyramid.findings import Finding, sort_findings
from procpyramid.model import (
    ANCHOR_BEFORE_SOP,
    EVENT_KINDS,
    DataObject,
    FlowNode,
    Lane,
    ProcessModel,
    TimerDef,
)
from procpyramid.pyramid import LevelEntry, Manifest


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


def grid_by_float_division(offsets, step):
    """(boundaries, assignments) of the slot grid by floor and ceiling of
    offset / step in floats. Exact only while that quotient cannot round
    onto the wrong side of an integer, e.g. below 2**40 days at a step
    below 2**10; far beyond 2**53 a boundary can miss its offset."""
    lo = math.floor(min(offsets.values()) / step) * step
    hi = math.ceil(max(offsets.values()) / step) * step
    if hi == lo:
        hi = lo + step
    boundaries = list(range(lo, hi + 1, step))
    slots = len(boundaries) - 1
    return boundaries, {mid: min((off - lo) // step, slots - 1) for mid, off in offsets.items()}


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


def coordinates_by_stack(pyramid):
    """`pyramid.assign_coordinates` as a stack walk of its own that pushes
    children in reverse id order: the reference for the positions the
    graph kernel's depth-first order gives."""
    models, level_of, children = pyramid.models, pyramid.level_of, pyramid.children

    order: list[str] = []
    seen: set[str] = set()
    # a stack, not recursion, so chains deeper than the recursion limit work;
    # children are pushed in reverse so that they pop in id order
    stack = [pyramid.root_model] if pyramid.root_model in models else []
    while stack:
        model_id = stack.pop()
        if model_id in seen:
            continue
        seen.add(model_id)
        order.append(model_id)
        stack.extend(sorted(set(children[model_id]), reverse=True))
    for model_id in sorted(models, key=lambda m: (level_of[m], m)):
        if model_id not in seen:
            seen.add(model_id)
            order.append(model_id)

    return {
        model_id: (level_of[model_id], position, len(models[model_id].nodes))
        for position, model_id in enumerate(order)
    }


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


def timer_covered_by_reachability(model):
    """Events with a timer-carrying node among the nodes that reach them
    (themselves included), by one backward walk per event."""
    nodes = _node_map(model)
    pred = _predecessors(model)
    return {
        e.node_id
        for e in model.nodes
        if e.kind in EVENT_KINDS
        and any(nodes[n].timer is not None for n in _reachable(pred, [e.node_id]))
    }


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
    return _ns_prefix(elem.tag) in _IGNORED_NS


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
        info.append(Finding("EXTRA-PROCESS", model_id, f"additional process elements ignored: {extra}"))
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
                    Finding("UNSUPPORTED-ELEMENT", f"{model_id}:{node_id}", f"ignored element {tag!r}")
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
            info.append(Finding("UNSUPPORTED-ELEMENT", model_id, f"ignored element {tag!r}"))

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
            Finding(
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
    the first start event (with none, nothing is reached), R2 per task, R3
    by a scan of the lanes in order (the first lane holding the node
    decides), R4 by reverse reachability from each event to a node that
    carries a timer."""
    starts = [n.node_id for n in model.nodes if n.kind == "start-event"][:1]
    succ = _successors(model)
    reached = set(starts)
    queue = deque(starts)
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
            out.append(Finding("R1-UNREACHABLE", subject, "node is not reachable from the start event"))
        if node.kind == "task":
            if node.duration is None:
                out.append(Finding("R2-NO-DURATION", subject, "task has no execution time"))
            if not node.inputs:
                out.append(Finding("R2-NO-INPUT", subject, "task consumes no data object"))
            if not node.outputs:
                out.append(Finding("R2-NO-OUTPUT", subject, "task produces no data object"))
        lane = None
        for candidate in model.lanes:
            if node.node_id in candidate.member_nodes:
                lane = candidate
                break
        if lane is None or not lane.role_name.strip():
            out.append(Finding("R3-NO-ROLE", subject, "node is not assigned to a lane with a role"))
        if node.kind in EVENT_KINDS:
            upstream = _reachable(pred, [node.node_id])
            if not any(nodes[n].timer is not None for n in upstream):
                out.append(Finding("R4-NO-TIMER", subject, "event has no time symbol on its incoming chain"))
    return sort_findings(out)


def _field_error(name: str, detail: str, code: str = "BAD-FIELD") -> ManifestError:
    return ManifestError(f"manifest field {name!r}: {detail}", code=code)


def load_manifest_by_ladder(text: str) -> Manifest:
    """`pyramid.load_manifest` as one `isinstance` ladder per field: the
    reference for its messages, codes and check order."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # beyond JSONDecodeError: nesting past the recursion limit, and
        # integers longer than sys.get_int_max_str_digits()
        raise ManifestError(f"manifest is not valid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ManifestError("manifest must be a JSON object")

    root = raw.get("root")
    if not isinstance(root, str) or not root.strip():
        raise _field_error("root", "required and must name a model", "MISSING-ROOT")
    models = raw.get("models")
    if not isinstance(models, list) or not models:
        raise _field_error("models", "required non-empty list")

    entries: list[LevelEntry] = []
    # parent hints are checked below and then dropped: the call activities
    # alone link the levels
    parent_of: dict[str, str] = {}
    for i, item in enumerate(models):
        if not isinstance(item, dict):
            raise _field_error(f"models[{i}]", "must be an object")
        model_id, file_, level = item.get("id"), item.get("file"), item.get("level")
        if not isinstance(model_id, str) or not model_id.strip():
            raise _field_error(f"models[{i}].id", "required string")
        # the OS refuses a path that holds a NUL character
        if not isinstance(file_, str) or not file_ or "\0" in file_:
            raise _field_error(f"models[{i}].file", "required string")
        if not isinstance(level, int) or isinstance(level, bool) or level < 0:
            raise _field_error(f"models[{i}].level", "required non-negative integer")
        if "parent" in item and item["parent"] is not None:
            parent = item["parent"]
            if (
                not isinstance(parent, dict)
                or not isinstance(parent.get("model"), str)
                or not isinstance(parent.get("node"), str)
            ):
                raise _field_error(f"models[{i}].parent", "must hold model and node ids")
            parent_of[model_id] = parent["model"]
        # documents are checked for shape and then dropped: no stage reads them
        documents = item.get("documents", [])
        if not isinstance(documents, list):
            raise _field_error(f"models[{i}].documents", "must be a list")
        for j, doc in enumerate(documents):
            if not isinstance(doc, dict) or not isinstance(doc.get("path"), str):
                raise _field_error(f"models[{i}].documents[{j}]", "must hold a path")
        entries.append(LevelEntry(model_id=model_id, file=file_, level=level))

    dupes = sorted(i for i, n in Counter(e.model_id for e in entries).items() if n > 1)
    if dupes:
        raise _field_error("models", f"duplicate model ids: {', '.join(dupes)}", "DUPLICATE-MODEL")

    levels = sorted({e.level for e in entries})
    if levels != list(range(len(levels))):
        raise _field_error(
            "models",
            f"levels must be contiguous from 0, got {levels}",
            "NON-CONTIGUOUS-LEVELS",
        )
    top = [e for e in entries if e.level == 0]
    if len(top) != 1 or top[0].model_id != root:
        raise _field_error(
            "root", "exactly one model must sit at level 0 and it must be the root", "MISSING-ROOT"
        )

    entry_map = {e.model_id: e for e in entries}
    for model_id, parent_id in parent_of.items():
        level = entry_map[model_id].level
        if level == 0:
            raise _field_error(f"models[{model_id}].parent", "the root has no parent")
        parent = entry_map.get(parent_id)
        if parent is None:
            raise _field_error(f"models[{model_id}].parent", f"unknown model {parent_id!r}", "BAD-PARENT")
        if parent.level != level - 1:
            raise _field_error(
                f"models[{model_id}].parent",
                f"parent must sit one level up, found level {parent.level}",
                "BAD-PARENT",
            )

    step = raw.get("referenceStepDays", 30)
    if not isinstance(step, int) or isinstance(step, bool) or step <= 0:
        raise _field_error("referenceStepDays", "must be a positive integer")
    tolerance = raw.get("alignmentToleranceDays", 0)
    if not isinstance(tolerance, int) or isinstance(tolerance, bool) or tolerance < 0:
        raise _field_error("alignmentToleranceDays", "must be a non-negative integer")
    aliases = raw.get("aliases", {})
    if not isinstance(aliases, dict) or not all(
        isinstance(k, str) and isinstance(v, str) and k.strip() and v.strip()
        for k, v in aliases.items()
    ):
        raise _field_error("aliases", "must map names to names")
    templates = raw.get("referenceTemplates", [])
    if not isinstance(templates, list) or not all(
        isinstance(t, str) and t.strip() and "\0" not in t for t in templates
    ):
        raise _field_error("referenceTemplates", "must be a list of paths")

    sop_label = raw.get("sopLabel", "SOP")
    if not isinstance(sop_label, str) or not sop_label.strip():
        raise _field_error("sopLabel", "must be a non-empty string")

    return Manifest(
        entries=entries,
        root_model=root,
        sop_label=sop_label,
        reference_step=Duration(step),
        alignment_tolerance=tolerance,
        aliases=aliases,
        reference_templates=templates,
    )


def _template_error(path_hint: str, message: str) -> TemplateError:
    return TemplateError(f"reference template {path_hint}: {message}")


def load_reference_by_ladder(*texts: str) -> list[ReferenceProcess]:
    """`conformance.load_reference` as one `isinstance` ladder per field: the
    reference for its messages and check order.

    Each text is a single template object or a list of them, checked item
    by item in file order. Across the collection, ids must be unique and
    every counterpart must name a left-side template, in any of the files.
    """
    templates: list[ReferenceProcess] = []
    for text in texts:
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # as in pyramid.load_manifest: deep nesting and over-long integers too
            raise TemplateError(f"reference template is not valid JSON ({exc})")
        for i, item in enumerate(raw if isinstance(raw, list) else [raw]):
            templates.append(_load_item(item, f"[{i}]"))
    dupes = sorted(x for x, n in Counter(t.ref_id for t in templates).items() if n > 1)
    if dupes:
        raise TemplateError(f"duplicate template ids: {', '.join(dupes)}")
    by_id = {t.ref_id: t for t in templates}
    for t in templates:
        if t.counterpart is None:
            continue
        other = by_id.get(t.counterpart)
        if other is None:
            raise _template_error(t.ref_id, f"DANGLING-COUNTERPART {t.counterpart!r}")
        if other.side != "left":
            raise _template_error(t.ref_id, f"counterpart {t.counterpart!r} is not left-side")
    return templates


def _load_item(item: object, hint: str) -> ReferenceProcess:
    """Check one template object; `hint` names it in errors until its id is read."""
    if not isinstance(item, dict):
        raise _template_error(hint, "must be an object")
    ref_id = item.get("id")
    if not isinstance(ref_id, str) or not ref_id.strip():
        raise _template_error(hint, "missing id")
    hint = ref_id
    side = item.get("side", "none")
    if side not in SIDES:
        raise _template_error(hint, f"side must be one of {SIDES}, got {side!r}")
    steps = item.get("steps", [])
    # a blank name is a requirement no model meets: models drop their blank names
    if not isinstance(steps, list) or not all(isinstance(s, str) and s.strip() for s in steps):
        raise _template_error(hint, "steps must be a list of names")
    if not steps:
        raise _template_error(hint, "EMPTY-STEPS: a reference process needs at least one step")
    counterpart = item.get("counterpart")
    if counterpart is not None and not isinstance(counterpart, str):
        raise _template_error(hint, "counterpart must be a template id")
    if counterpart is not None and side != "right":
        raise _template_error(hint, "counterpart is only for right-side templates")
    if side == "right" and not counterpart:
        raise _template_error(hint, "right-side template must name its left counterpart")
    binding = item.get("binding", {})
    if not isinstance(binding, dict):
        raise _template_error(hint, "binding must be an object")
    named = {key: binding[key] for key in ("modelId", "namePattern") if binding.get(key) is not None}
    for key, value in named.items():
        if not isinstance(value, str):
            raise _template_error(hint, f"binding.{key} must be a string")
    if len(named) > 1 or not all(value.strip() for value in named.values()):
        raise _template_error(hint, "binding must name one non-blank modelId or namePattern")

    def str_set(key: str) -> frozenset[str]:
        names = item.get(key, [])
        if not isinstance(names, list) or not all(isinstance(v, str) and v.strip() for v in names):
            raise _template_error(hint, f"{key} must be a list of names")
        return frozenset(names)

    return ReferenceProcess(
        ref_id=ref_id,
        side=side,
        counterpart=counterpart,
        steps=steps,
        roles=str_set("roles"),
        methods=str_set("methods"),
        tools=str_set("tools"),
        binding_model=binding.get("modelId"),
        binding_pattern=binding.get("namePattern"),
    )
