"""Core process-model types for the supported BPMN subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .durations import Duration
from .findings import Finding

ANCHOR_BEFORE_SOP = "anchor-before-sop"
ELAPSED = "elapsed"
TIMER_MODES = (ANCHOR_BEFORE_SOP, ELAPSED)

EVENT_KINDS = ("start-event", "intermediate-event", "end-event")
NODE_KINDS = EVENT_KINDS + ("task", "call-activity", "exclusive-gateway", "parallel-gateway")


@dataclass(frozen=True)
class TimerDef:
    """A time symbol attached to an event.

    Anchor timers place the event a fixed span before SOP; elapsed timers
    add in-flow waiting on the way to later events.
    """

    amount: Duration
    mode: str = ANCHOR_BEFORE_SOP

    def __post_init__(self):
        if self.mode not in TIMER_MODES:
            raise ValueError(f"unknown timer mode {self.mode!r}")


# Most parsed nodes have no extension entry once `duration` is parsed out;
# they share this one, read-only so that no caller's write reaches every node.
_NO_EXTENSIONS: Mapping[str, str] = MappingProxyType({})


@dataclass(slots=True)
class FlowNode:
    node_id: str
    kind: str
    name: str = ""
    duration: Duration | None = None
    timer: TimerDef | None = None
    # sorted distinct data object ids
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    extensions: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.timer is not None and self.kind not in EVENT_KINDS:
            raise ValueError(f"node {self.node_id}: only events may carry timers")

    @property
    def is_event(self) -> bool:
        return self.kind in EVENT_KINDS

    @property
    def display_name(self) -> str:
        """The name trimmed, or the node id when the name is blank."""
        return self.name.strip() or self.node_id


@dataclass(slots=True)
class Lane:
    lane_id: str
    role_name: str
    member_nodes: frozenset[str] = frozenset()


@dataclass(slots=True)
class DataObject:
    object_id: str
    name: str = ""
    storage_ref: str | None = None


@dataclass
class ProcessModel:
    """One parsed process diagram."""

    model_id: str
    name: str = ""
    nodes: list[FlowNode] = field(default_factory=list)
    flows: list[tuple[str, str]] = field(default_factory=list)
    lanes: list[Lane] = field(default_factory=list)
    data_objects: list[DataObject] = field(default_factory=list)
    call_targets: dict[str, str] = field(default_factory=dict)
    extensions: dict[str, str] = field(default_factory=dict)
    parse_findings: list[Finding] = field(default_factory=list, compare=False)

    def node_map(self) -> dict[str, FlowNode]:
        return {n.node_id: n for n in self.nodes}

    def lane_of(self, node_id: str) -> Lane | None:
        for lane in self.lanes:
            if node_id in lane.member_nodes:
                return lane
        return None

    def events(self) -> list[FlowNode]:
        return [n for n in self.nodes if n.is_event]
