"""Parse, lint, and serialize the supported BPMN subset.

The parser is namespace-agnostic: elements are matched on their local name
so vendor exports with arbitrary namespace prefixes load unchanged. Diagram
interchange and other unsupported elements never abort a parse; they are
recorded as info findings on the resulting model.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

from . import flowgraph
from .durations import Duration, parse_duration, parse_offset_days
from .errors import ModelParseError
from .findings import Finding, finding, sort_findings
from .model import (
    ANCHOR_BEFORE_SOP,
    EVENT_KINDS,
    DataObject,
    FlowNode,
    Lane,
    ProcessModel,
    TimerDef,
)
from .timeline import GqRecord, Milestone

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

_LIST_KEYS = {"gq3", "gq5", "gq6", "gq7", "alignsWith"}


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


def parse_model(xml_text: str, model_id: str) -> ProcessModel:
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
                duration = parse_duration(extensions["duration"])
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

    known_objects = {d.object_id for d in data_objects}

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
        node.inputs = frozenset(
            r for r in (resolve_object(ref, node.node_id) for ref in sorted(ins)) if r
        )
        node.outputs = frozenset(
            r for r in (resolve_object(ref, node.node_id) for ref in sorted(outs)) if r
        )

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


def serialize_model(model: ProcessModel) -> str:
    """Emit the model back as BPMN XML covering exactly the supported subset."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append('<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">')
    name_attr = f" name={quoteattr(model.name)}" if model.name else ""
    out.append(f"  <process id={quoteattr(model.model_id)}{name_attr}>")

    def emit_extensions(pad: str, entries: dict[str, str]) -> None:
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
    out: list[Finding] = []
    start = next(n.node_id for n in model.nodes if n.kind == "start-event")
    reached = flowgraph.reachable(flowgraph.successors(model), [start])
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
        lane = model.lane_of(node.node_id)
        if lane is None or not lane.role_name.strip():
            out.append(finding("R3-NO-ROLE", subject, "node is not assigned to a lane with a role"))
    covered = flowgraph.timer_covered_events(model)
    for node in model.events():
        if node.node_id not in covered:
            out.append(
                finding(
                    "R4-NO-TIMER",
                    f"{model.model_id}:{node.node_id}",
                    "event has no time symbol on its incoming chain",
                )
            )
    return sort_findings(out)


_KIND_FOR_EVENT = {
    "start-event": "start",
    "intermediate-event": "intermediate",
    "end-event": "end",
}


def _split_list(value: str) -> frozenset[str]:
    return frozenset(item.strip() for item in value.split(",") if item.strip())


def _parse_storage(value: str) -> dict[str, str]:
    """gq8 entries `name=location`, separated by `,` or `;`."""
    entries: dict[str, str] = {}
    for pair in re.split(r"[,;]", value):
        if "=" in pair:
            key, loc = pair.split("=", 1)
            if key.strip():
                entries[key.strip()] = loc.strip()
    return entries


def _object_names(model: ProcessModel, object_ids: frozenset[str]) -> frozenset[str]:
    objects = model.object_map()
    names = set()
    for oid in object_ids:
        obj = objects.get(oid)
        if obj is not None and obj.name.strip():
            names.add(obj.name.strip())
        else:
            names.add(f"{model.model_id}:{oid}")
    return frozenset(names)


def extract_milestones(model: ProcessModel) -> tuple[list[Milestone], list[Finding]]:
    """Extract one milestone per event with a resolvable time symbol.

    GQ answers are derived from the model where possible (owning process,
    lane role, segment durations, data associations) and overridden by
    explicit gq1..gq8 extension entries on the event.
    """
    out: list[Milestone] = []
    findings: list[Finding] = []
    covered = flowgraph.timer_covered_events(model)
    objects = model.object_map()

    for node in model.events():
        if node.node_id not in covered:
            continue
        subject = f"{model.model_id}:{node.node_id}"
        candidates, _ = flowgraph.anchor_candidates(model, node.node_id)
        if len({offset for _, offset in candidates}) > 1:
            detail = ", ".join(f"{aid} -> {off}d" for aid, off in candidates)
            findings.append(
                finding("AMBIGUOUS-ANCHOR", subject, f"conflicting anchors on converging paths: {detail}")
            )

        ext = node.extensions
        seg = flowgraph.segment_nodes(model, node.node_id)
        node_map = model.node_map()
        seg_inputs: set[str] = set()
        seg_outputs: set[str] = set()
        for nid in seg:
            seg_inputs.update(node_map[nid].inputs)
            seg_outputs.update(node_map[nid].outputs)

        if "gq4" in ext:
            gq4 = parse_duration(ext["gq4"])
        else:
            days = flowgraph.segment_duration(model, node.node_id)
            gq4 = Duration(days) if days is not None else None

        gq5 = _split_list(ext["gq5"]) if "gq5" in ext else _object_names(model, frozenset(seg_inputs))
        gq6 = _split_list(ext["gq6"]) if "gq6" in ext else _object_names(model, frozenset(seg_outputs))

        storage: dict[str, str] = {}
        for oid in sorted(seg_inputs | seg_outputs):
            obj = objects.get(oid)
            if obj is not None and obj.storage_ref:
                key = obj.name.strip() or f"{model.model_id}:{oid}"
                storage[key] = obj.storage_ref
        storage.update(_parse_storage(ext.get("gq8", "")))

        lane = model.lane_of(node.node_id)
        gq = GqRecord(
            gq1_process=ext.get("gq1", model.model_id),
            gq2_role=ext.get("gq2", lane.role_name.strip() if lane else ""),
            gq3_tools=_split_list(ext.get("gq3", "")),
            gq4_duration=gq4,
            gq5_inputs=gq5,
            gq6_outputs=gq6,
            gq7_consumers=_split_list(ext.get("gq7", "")),
            gq8_storage=storage,
        )
        declared = parse_offset_days(ext["declaredOffset"]) if "declaredOffset" in ext else None
        out.append(
            Milestone(
                milestone_id=subject,
                model_id=model.model_id,
                event_node_id=node.node_id,
                name=node.name or node.node_id,
                kind=_KIND_FOR_EVENT[node.kind],
                gq=gq,
                declared_offset=declared,
                terminal=ext.get("terminal", "").strip().lower() in ("true", "1", "yes"),
                aligns_with=_split_list(ext.get("alignsWith", "")),
            )
        )
    return out, sort_findings(findings)
