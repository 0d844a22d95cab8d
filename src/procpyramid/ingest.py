"""Parse, lint, and serialize the supported BPMN subset.

The parser is namespace-agnostic: elements are matched on their local name
so vendor exports with arbitrary namespace prefixes load unchanged. Diagram
interchange and other unsupported elements never abort a parse; they are
recorded as info findings on the resulting model.
"""

from __future__ import annotations

import re
import sys
import xml.etree.ElementTree as ET
from functools import lru_cache
from itertools import compress
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping

from . import flowgraph
from .durations import Duration, parse_duration, parse_offset_days
from .errors import ModelParseError
from .findings import Finding, finding, sort_findings
from .graph import reachable
from .model import (
    ANCHOR_BEFORE_SOP,
    EVENT_KINDS,
    DataObject,
    FlowNode,
    Lane,
    ProcessModel,
    TimerDef,
)
from .timeline import GqRecord, Milestone, ambiguous_anchor

_NODE_TAGS = {
    "startEvent": "start-event",
    "intermediateCatchEvent": "intermediate-event",
    "endEvent": "end-event",
    "task": "task",
    "callActivity": "call-activity",
    "exclusiveGateway": "exclusive-gateway",
    "parallelGateway": "parallel-gateway",
}
_TAG_FOR_KIND = {v: k for k, v in _NODE_TAGS.items()}

# Harmless structural noise present in real exports; skipped without comment.
_IGNORED_TAGS = {"documentation", "incoming", "outgoing", "text"}
_IGNORED_NS = ("bpmndi", "di", "dc", "omgdi", "omgdc")

# The name sets that are tested for membership or combined (gq3, gq7,
# alignsWith) are mostly empty; they share this one instead of 216 bytes
# each. Node inputs and outputs and gq5/gq6 are sorted tuples instead, as
# nothing tests them for membership: a 1-tuple costs 48 bytes, and an empty
# one is the shared `()`.
_NO_ITEMS: frozenset[str] = frozenset()
# Most nodes have no extension entry once `duration` is parsed out; they
# share this one, read-only so that no caller's write reaches every node.
_NO_EXTENSIONS: Mapping[str, str] = MappingProxyType({})


@lru_cache(maxsize=1024)
def _tag(tag: str) -> tuple[str, str | None, bool]:
    """The local name of an element tag, the flow node kind it names (None
    for any other element), and whether the element is harmless noise: an
    ignored tag, or one in a diagram-interchange namespace."""
    local = tag.rsplit("}", 1)[-1]
    prefix = tag[1:].split("}", 1)[0].rsplit("/", 1)[-1].lower() if tag.startswith("{") else ""
    return (
        local,
        _NODE_TAGS.get(local),
        local in _IGNORED_TAGS or any(part in prefix for part in _IGNORED_NS),
    )


# the child or attribute that names a data association's object
_ASSOC_REF = {"dataInputAssociation": "sourceRef", "dataOutputAssociation": "targetRef"}

# A bundle repeats a handful of duration strings across thousands of nodes
# and timers; `Duration` is frozen, so each string is parsed once and shared.
_duration = lru_cache(maxsize=1024)(parse_duration)


def _fail(model_id: str, message: str) -> None:
    raise ModelParseError(f"model {model_id!r}: {message}")


def _read_extensions(elem: ET.Element, into: dict[str, str]) -> None:
    """Add an extension block's key/value entries to `into`; both are
    interned, as a bundle repeats a few keys (and values such as task
    durations) on thousands of nodes."""
    intern = sys.intern
    for entry in elem:
        key = entry.get("key")
        if key is not None:
            value = entry.get("value")
            if value is None:
                value = (entry.text or "").strip()
            into[intern(key)] = intern(value)


def _parse_timer(elem: ET.Element, model_id: str, node_id: str, tags: dict[str, tuple]) -> TimerDef:
    mode = elem.get("mode", ANCHOR_BEFORE_SOP)
    text = None
    for child in elem:
        if tags[child.tag][0] == "timeDuration":
            text = (child.text or "").strip()
    if not text:
        _fail(model_id, f"timer on node {node_id!r} has no timeDuration")
    try:
        return TimerDef(amount=_duration(text), mode=mode)
    except ValueError as exc:
        _fail(model_id, f"timer on node {node_id!r}: {exc}")


def _processes(root: ET.Element) -> tuple[list[ET.Element], dict[str, tuple[str, str | None, bool]]]:
    """The root if it is a `process`, else every `process` element below it
    in document order; and the `_tag` entry of each distinct tag in the
    tree, so that the parse walk looks every element up in a plain dict.
    One walk lists the elements, and the rest runs in C."""
    elems = list(root.iter())
    tags = list(map(attrgetter("tag"), elems))
    table = {tag: _tag(tag) for tag in set(tags)}
    if table[root.tag][0] == "process":
        return [root], table
    process_tags = {tag for tag, entry in table.items() if entry[0] == "process"}
    return list(compress(elems, map(process_tags.__contains__, tags))), table


def parse_model(source: str | bytes, model_id: str) -> ProcessModel:
    """Parse one process diagram from BPMN XML, given as text or as the
    file's bytes; bytes are decoded as their XML declaration says.

    One loop visits each child of the process, of each flow node, lane set
    and extension block once. A node's data-association refs are resolved
    once the whole process is read: each distinct ref per node and
    direction once, in sorted order, an unknown one becoming an
    UNRESOLVED-DATA-REF finding.

    Structural defects (malformed or undecodable XML, duplicate ids,
    dangling flows, missing start or end events) raise ModelParseError;
    everything else degrades to findings attached to the model.

    The model keeps one object per repeated value: each flow end and lane
    member naming a node is that node's `node_id`, each resolved data ref
    is its object's `object_id`, and equal non-empty input and output sets
    are one set.
    """
    try:
        root = ET.fromstring(source)
    except ET.ParseError as exc:
        _fail(model_id, f"not well-formed XML ({exc})")
    except (LookupError, ValueError) as exc:
        # An encoding the declaration names but expat cannot use: unknown,
        # multi-byte, or failing to decode.
        _fail(model_id, f"cannot decode XML ({type(exc).__name__}: {exc})")

    processes, tags = _processes(root)
    if not processes:
        _fail(model_id, "no process element found")
    info: list[Finding] = []
    if len(processes) > 1:
        extra = ", ".join(p.get("id", "?") for p in processes[1:])
        info.append(finding("EXTRA-PROCESS", model_id, f"additional process elements ignored: {extra}"))
    process = processes[0]

    nodes: list[FlowNode] = []
    # node id -> the node's own id object, which every reference shares
    node_ids: dict[str, str] = {}
    starts = ends = 0
    flow_elems: list[ET.Element] = []
    # lane id, role name and raw member texts, until the node ids are known
    raw_lanes: list[tuple[str, str, list[str]]] = []
    data_objects: list[DataObject] = []
    # object id -> the object's own id object, which every resolved ref shares
    known_objects: dict[str, str] = {}
    object_refs: dict[str, str] = {}
    call_targets: dict[str, str] = {}
    process_ext: dict[str, str] = {}
    # (node, whether inputs, raw refs) per node and direction with data
    # associations, in document order
    raw_io: list[tuple[FlowNode, bool, list[str]]] = []
    # the first repeated node and data object id, reported after the loop
    repeated_node = repeated_object = None

    for elem in process:
        tag, kind, ignorable = tags[elem.tag]
        if kind is not None:
            node_id = elem.get("id")
            if not node_id:
                _fail(model_id, f"{tag} element without id")
            timer = duration = None
            extensions: dict[str, str] = {}
            ins: list[str] = []
            outs: list[str] = []
            for child in elem:
                child_tag, _, child_ignorable = tags[child.tag]
                if child_tag == "extensionElements":
                    _read_extensions(child, extensions)
                elif child_tag == "timerEventDefinition":
                    if kind not in EVENT_KINDS:
                        _fail(model_id, f"timer on non-event node {node_id!r}")
                    timer = _parse_timer(child, model_id, node_id, tags)
                elif child_tag in _ASSOC_REF:
                    # the first non-blank ref child, else the ref attribute
                    ref_tag = _ASSOC_REF[child_tag]
                    for ref_el in child:
                        if tags[ref_el.tag][0] == ref_tag and (ref := (ref_el.text or "").strip()):
                            break
                    else:
                        ref = (child.get(ref_tag) or "").strip()
                    if ref:
                        (ins if ref_tag == "sourceRef" else outs).append(ref)
                elif not child_ignorable:
                    info.append(
                        finding("UNSUPPORTED-ELEMENT", f"{model_id}:{node_id}", f"ignored element {child_tag!r}")
                    )
            if "duration" in extensions:
                try:
                    duration = _duration(extensions.pop("duration"))
                except ValueError as exc:
                    _fail(model_id, f"node {node_id!r}: {exc}")
            if kind == "call-activity":
                call_targets[node_id] = (elem.get("calledElement") or "").strip()
            elif kind == "start-event":
                starts += 1
            elif kind == "end-event":
                ends += 1
            node = FlowNode(
                node_id, kind, elem.get("name", ""), duration, timer, (), (), extensions or _NO_EXTENSIONS,
            )
            nodes.append(node)
            if ins:
                raw_io.append((node, True, ins))
            if outs:
                raw_io.append((node, False, outs))
            if node_id in node_ids and repeated_node is None:
                repeated_node = node_id
            node_ids[node_id] = node_id
        elif tag == "sequenceFlow":
            flow_elems.append(elem)
        elif tag == "laneSet":
            for lane_el in elem:
                if tags[lane_el.tag][0] == "lane":
                    members = [
                        text
                        for ref in lane_el
                        if tags[ref.tag][0] == "flowNodeRef" and (text := (ref.text or "").strip())
                    ]
                    raw_lanes.append(
                        (lane_el.get("id", f"lane{len(raw_lanes)}"), lane_el.get("name", ""), members)
                    )
        elif tag == "dataObject":
            object_id = elem.get("id", "")
            data_objects.append(DataObject(object_id, elem.get("name", ""), elem.get("storageRef")))
            if object_id in known_objects and repeated_object is None:
                repeated_object = object_id
            known_objects[object_id] = object_id
        elif tag == "dataObjectReference":
            ref_id, target = elem.get("id"), elem.get("dataObjectRef")
            if ref_id and target:
                object_refs[ref_id] = target
        elif tag == "extensionElements":
            _read_extensions(elem, process_ext)
        elif not ignorable:
            info.append(finding("UNSUPPORTED-ELEMENT", model_id, f"ignored element {tag!r}"))

    if repeated_node is not None:
        _fail(model_id, f"duplicate node id {repeated_node!r}")
    flows: list[tuple[str, str]] = []
    for elem in flow_elems:
        src, dst = elem.get("sourceRef", ""), elem.get("targetRef", "")
        shared_src, shared_dst = node_ids.get(src), node_ids.get(dst)
        if shared_src is None or shared_dst is None:
            flow_id = elem.get("id", f"flow{len(flows)}")
            end = src if shared_src is None else dst
            _fail(model_id, f"flow {flow_id!r} references unknown node {end!r}")
        flows.append((shared_src, shared_dst))
    if starts != 1:
        _fail(model_id, f"expected exactly one start event, found {starts}")
    if not ends:
        _fail(model_id, "no end event")

    lanes = [
        Lane(lane_id, role_name, frozenset([node_ids.get(m, m) for m in members]))
        for lane_id, role_name, members in raw_lanes
    ]

    if repeated_object is not None:
        _fail(model_id, f"duplicate data object id {repeated_object!r}")
    # One object per distinct non-empty input or output tuple. Each node
    # direction takes the sorted distinct ids of the objects its refs name,
    # and each unknown distinct ref is a finding.
    io_sets: dict[tuple[str, ...], tuple[str, ...]] = {}
    for node, is_input, refs in raw_io:
        found = []
        for ref in sorted(set(refs)) if len(refs) > 1 else refs:
            shared = known_objects.get(object_refs.get(ref, ref))
            if shared is not None:
                found.append(shared)
            else:
                info.append(
                    finding(
                        "UNRESOLVED-DATA-REF",
                        f"{model_id}:{node.node_id}",
                        f"data association references unknown object {ref!r}",
                    )
                )
        if not found:
            continue
        # two refs may name one object, through a dataObjectReference
        items = tuple(sorted(set(found))) if len(found) > 1 else tuple(found)
        items = io_sets.setdefault(items, items)
        if is_input:
            node.inputs = items
        else:
            node.outputs = items

    return ProcessModel(
        model_id=model_id,
        name=process.get("name", ""),
        nodes=nodes,
        flows=flows,
        lanes=lanes,
        data_objects=data_objects,
        call_targets=call_targets,
        extensions=process_ext,
        parse_findings=sort_findings(info),
    )


def serialize_model(model: ProcessModel) -> str:
    """Emit the model back as BPMN XML covering exactly the supported subset."""
    # imported here: at module level it loads urllib, http, email and ssl
    from xml.sax.saxutils import escape, quoteattr

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">')
    name_attr = f" name={quoteattr(model.name)}" if model.name else ""
    out.append(f"  <process id={quoteattr(model.model_id)}{name_attr}>")

    def emit_extensions(pad: str, entries: Mapping[str, str]) -> None:
        if not entries:
            return
        out.append(f"{pad}<extensionElements>")
        for key, value in entries.items():
            out.append(f"{pad}  <entry key={quoteattr(key)} value={quoteattr(value)}/>")
        out.append(f"{pad}</extensionElements>")

    emit_extensions("    ", model.extensions)
    if model.lanes:
        out.append('    <laneSet id="lanes">')
        for lane in model.lanes:
            out.append(f"      <lane id={quoteattr(lane.lane_id)} name={quoteattr(lane.role_name)}>")
            for member in sorted(lane.member_nodes):
                out.append(f"        <flowNodeRef>{escape(member)}</flowNodeRef>")
            out.append("      </lane>")
        out.append("    </laneSet>")

    for obj in model.data_objects:
        storage = f" storageRef={quoteattr(obj.storage_ref)}" if obj.storage_ref else ""
        out.append(
            f"    <dataObject id={quoteattr(obj.object_id)} name={quoteattr(obj.name)}{storage}/>"
        )

    for node in model.nodes:
        tag = _TAG_FOR_KIND[node.kind]
        attrs = f" id={quoteattr(node.node_id)}"
        if node.name:
            attrs += f" name={quoteattr(node.name)}"
        if node.kind == "call-activity":
            attrs += f" calledElement={quoteattr(model.call_targets.get(node.node_id, ''))}"
        entries = dict(node.extensions)
        if node.duration is not None and "duration" not in entries:
            entries["duration"] = str(node.duration)
        body = not (entries or node.timer or node.inputs or node.outputs)
        if body:
            out.append(f"    <{tag}{attrs}/>")
            continue
        out.append(f"    <{tag}{attrs}>")
        emit_extensions("      ", entries)
        if node.timer is not None:
            out.append(f"      <timerEventDefinition mode={quoteattr(node.timer.mode)}>")
            out.append(f"        <timeDuration>{node.timer.amount}</timeDuration>")
            out.append("      </timerEventDefinition>")
        for ref in sorted(node.inputs):
            out.append("      <dataInputAssociation>")
            out.append(f"        <sourceRef>{escape(ref)}</sourceRef>")
            out.append("      </dataInputAssociation>")
        for ref in sorted(node.outputs):
            out.append("      <dataOutputAssociation>")
            out.append(f"        <targetRef>{escape(ref)}</targetRef>")
            out.append("      </dataOutputAssociation>")
        out.append(f"    </{tag}>")

    for i, (src, dst) in enumerate(model.flows):
        out.append(
            f'    <sequenceFlow id="f{i}" sourceRef={quoteattr(src)} targetRef={quoteattr(dst)}/>'
        )
    out.append("  </process>")
    out.append("</definitions>")
    return "\n".join(out) + "\n"


def check_wellformed(model: ProcessModel) -> list[Finding]:
    """Lint one model against the four modeling requirements.

    R1 every node reachable from the start event; R2 every task has a
    duration, an input, and an output; R3 every node sits in a lane with a
    role; R4 every event has a time symbol on its incoming chain.
    """
    # (node id, code, message) per failed rule: a subject is built only
    # for a node with a finding
    failed: list[tuple[str, str, str]] = []
    flow = flowgraph.FlowIndex.of(model)
    start = next(n.node_id for n in model.nodes if n.kind == "start-event")
    reached = reachable(flow.succ, [start])
    for node in model.nodes:
        node_id = node.node_id
        if node_id not in reached:
            failed.append((node_id, "R1-UNREACHABLE", "node is not reachable from the start event"))
        if node.kind == "task":
            if node.duration is None:
                failed.append((node_id, "R2-NO-DURATION", "task has no execution time"))
            if not node.inputs:
                failed.append((node_id, "R2-NO-INPUT", "task consumes no data object"))
            if not node.outputs:
                failed.append((node_id, "R2-NO-OUTPUT", "task produces no data object"))
        lane = model.lane_of(node_id)
        if lane is None or not lane.role_name.strip():
            failed.append((node_id, "R3-NO-ROLE", "node is not assigned to a lane with a role"))
    covered = flowgraph.timer_covered_events(flow)
    for node in model.events():
        if node.node_id not in covered:
            failed.append((node.node_id, "R4-NO-TIMER", "event has no time symbol on its incoming chain"))
    model_id = model.model_id
    return sort_findings(
        [finding(code, f"{model_id}:{node_id}", message) for node_id, code, message in failed]
    )


_KIND_FOR_EVENT = {
    "start-event": "start",
    "intermediate-event": "intermediate",
    "end-event": "end",
}


def _split_list(value: str) -> frozenset[str]:
    return frozenset(item.strip() for item in value.split(",") if item.strip()) or _NO_ITEMS


def _parse_storage(value: str) -> dict[str, str]:
    """gq8 entries `name=location`, separated by `,` or `;`. An entry with
    an empty name or an empty location is skipped."""
    entries: dict[str, str] = {}
    for pair in re.split(r"[,;]", value):
        if "=" in pair:
            key, loc = pair.split("=", 1)
            if key.strip() and loc.strip():
                entries[key.strip()] = loc.strip()
    return entries


def _annotation(ext: dict[str, str], key: str, parse, subject: str, findings: list[Finding]):
    """The parsed extension entry, or None when it is absent or does not
    parse; the latter is reported as BAD-ANNOTATION."""
    if key not in ext:
        return None
    try:
        return parse(ext[key])
    except ValueError as exc:
        findings.append(finding("BAD-ANNOTATION", subject, f"{key}={ext[key]!r} ignored: {exc}"))
        return None


def extract_milestones(model: ProcessModel) -> tuple[list[Milestone], list[Finding]]:
    """Extract one milestone per event with a resolvable time symbol.

    GQ answers are derived from the model where possible (owning process,
    lane role, segment durations, data associations) and overridden by
    explicit gq1..gq8 extension entries on the event. A gq4 or
    declaredOffset entry that does not parse is reported as BAD-ANNOTATION
    and treated as absent. Each milestone keeps its event's anchor
    candidates for offset resolution.
    """
    out: list[Milestone] = []
    findings: list[Finding] = []
    flow = flowgraph.FlowIndex.of(model)
    covered = flowgraph.timer_covered_events(flow)
    anchors = flowgraph.anchor_candidates(flow)
    # each data object's gq5/gq6 label (its stripped name, or model:id when
    # that is blank) and gq8 location (its stripped storageRef; "" is none)
    objects = {
        obj.object_id: (
            obj.name.strip() or f"{model.model_id}:{obj.object_id}",
            (obj.storage_ref or "").strip(),
        )
        for obj in model.data_objects
    }
    node_map = flow.nodes

    for node in model.events():
        if node.node_id not in covered:
            continue
        subject = f"{model.model_id}:{node.node_id}"
        candidates, cyclic = anchors[node.node_id]
        ambiguous = ambiguous_anchor(subject, candidates)
        if ambiguous is not None:
            findings.append(ambiguous)

        ext = node.extensions
        seg = flowgraph.segment_nodes(flow, node.node_id)
        seg_inputs: set[str] = set()
        seg_outputs: set[str] = set()
        for nid in seg:
            seg_inputs.update(node_map[nid].inputs)
            seg_outputs.update(node_map[nid].outputs)

        gq4 = _annotation(ext, "gq4", _duration, subject, findings)
        if gq4 is None:
            days = flowgraph.segment_duration(flow, node.node_id, seg)
            gq4 = Duration(days) if days is not None else None

        # a ref to no declared object (a hand-built model) has no location
        derived = {
            oid: objects.get(oid) or (f"{model.model_id}:{oid}", "")
            for oid in sorted(seg_inputs | seg_outputs)
        }
        gq5 = _split_list(ext["gq5"]) if "gq5" in ext else {derived[oid][0] for oid in seg_inputs}
        gq6 = _split_list(ext["gq6"]) if "gq6" in ext else {derived[oid][0] for oid in seg_outputs}

        storage = {label: location for label, location in derived.values() if location}
        storage.update(_parse_storage(ext.get("gq8", "")))

        lane = model.lane_of(node.node_id)
        gq = GqRecord(
            gq1_process=ext.get("gq1", model.model_id),
            gq2_role=ext.get("gq2", lane.role_name.strip() if lane else ""),
            gq3_tools=_split_list(ext.get("gq3", "")),
            gq4_duration=gq4,
            gq5_inputs=tuple(sorted(gq5)),
            gq6_outputs=tuple(sorted(gq6)),
            gq7_consumers=_split_list(ext.get("gq7", "")),
            gq8_storage=storage,
        )
        out.append(
            Milestone(
                milestone_id=subject,
                model_id=model.model_id,
                event_node_id=node.node_id,
                name=node.name or node.node_id,
                kind=_KIND_FOR_EVENT[node.kind],
                gq=gq,
                declared_offset=_annotation(ext, "declaredOffset", parse_offset_days, subject, findings),
                terminal=ext.get("terminal", "").strip().lower() in ("true", "1", "yes"),
                aligns_with=_split_list(ext.get("alignsWith", "")),
                anchors=(tuple(candidates), cyclic),
            )
        )
    return out, sort_findings(findings)
