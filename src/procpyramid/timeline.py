"""Milestones, SOP-relative offsets, and the reference timeline grid."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import compress
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import flowgraph
from .durations import Duration
from .errors import EmptyTimelineError
from .findings import Finding, sort_findings
from .naming import normalize_name

if TYPE_CHECKING:
    from .pyramid import Pyramid


# gq3, gq7 and alignsWith are tested for membership and mostly empty; they
# share this set instead of 216 bytes each. Node inputs and outputs and
# gq5/gq6 are sorted tuples, whose empty one is the shared `()`.
_NO_ITEMS: frozenset[str] = frozenset()


def split_list(value: str) -> frozenset[str]:
    """The trimmed, non-empty names of a comma-separated list entry."""
    return frozenset(item.strip() for item in value.split(",") if item.strip()) or _NO_ITEMS


@dataclass(slots=True)
class GqRecord:
    """Answers to the eight golden questions for one milestone.

    gq1 owning process, gq2 responsible role, gq3 tools, gq4 process
    duration, gq5 inputs, gq6 outputs, gq7 consumers, gq8 storage location
    per data object. Empty values mean unanswered. gq5 and gq6 are sorted
    distinct names.
    """

    gq1_process: str = ""
    gq2_role: str = ""
    gq3_tools: frozenset[str] = _NO_ITEMS
    gq4_duration: Duration | None = None
    gq5_inputs: tuple[str, ...] = ()
    gq6_outputs: tuple[str, ...] = ()
    gq7_consumers: frozenset[str] = _NO_ITEMS
    gq8_storage: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class Milestone:
    """An event paired with a time symbol, plus its golden-question record."""

    milestone_id: str
    model_id: str
    event_node_id: str
    name: str
    kind: str
    gq: GqRecord = field(default_factory=GqRecord)
    declared_offset: int | None = None
    terminal: bool = False
    aligns_with: frozenset[str] = _NO_ITEMS
    # The event's (anchor candidates, cyclic) as found at extraction;
    # None for a milestone built by hand.
    anchors: tuple[tuple[tuple[str, int], ...], bool] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.kind not in ("start", "intermediate", "end"):
            raise ValueError(f"unknown milestone kind {self.kind!r}")


def unique_names(milestones: Iterable[Milestone]) -> dict[str, str]:
    """Each non-blank normalized display name that exactly one milestone
    carries, mapped to that milestone's id."""
    keys = [(normalize_name(ms.name), ms.milestone_id) for ms in milestones]
    counts = Counter(key for key, _ in keys)
    return {key: mid for key, mid in keys if key and counts[key] == 1}


def milestone_resolver(milestones: Sequence[Milestone]) -> Callable[[str], str | None]:
    """The reference rule: a reference names the milestone whose id it is,
    else the one its normalized form names in `unique_names`, else the one
    whose event node id it is when no other milestone has that node id. The
    function returned maps a reference to that milestone's id, or to None."""
    ids = {ms.milestone_id for ms in milestones}
    names = unique_names(milestones)
    counts = Counter(ms.event_node_id for ms in milestones)
    nodes = {ms.event_node_id: ms.milestone_id for ms in milestones if counts[ms.event_node_id] == 1}
    return lambda ref: ref if ref in ids else names.get(normalize_name(ref), nodes.get(ref))


@dataclass
class OffsetTable:
    """Resolved SOP-relative offsets in days, with a provenance note each."""

    offsets: dict[str, int] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)


@dataclass
class ReferenceTimeline:
    """A fixed-step grid of slots covering every resolved offset.

    Boundaries are signed days; slot i spans [boundaries[i], boundaries[i+1])
    and the final boundary is closed.
    """

    step: int
    boundaries: list[int]
    assignments: dict[str, int]


def ambiguous_anchor(subject: str, candidates: Sequence[tuple[str, int]]) -> Finding | None:
    """The AMBIGUOUS-ANCHOR finding for an event whose anchor candidates
    give more than one distinct offset, or None when they agree."""
    if len({offset for _, offset in candidates}) <= 1:
        return None
    detail = ", ".join(f"{aid} -> {off}d" for aid, off in candidates)
    return Finding("AMBIGUOUS-ANCHOR", subject, f"conflicting anchors on converging paths: {detail}")


def resolve_offsets(
    pyramid: Pyramid, milestones: Iterable[Milestone], sop_label: str = "SOP"
) -> tuple[OffsetTable, list[Finding]]:
    """Compute each milestone's offset from its anchor timer.

    offset = -(anchor amount) + longest path of task durations and elapsed
    waits from the anchor to the event. Diverging branches take the latest
    completion. A milestone named like the SOP label is pinned to day zero.
    The anchor candidates are those stored at extraction; for milestones
    built by hand, each model's anchor walk runs here once per call.
    """
    table = OffsetTable()
    out: list[Finding] = []
    models = pyramid.models
    node_maps = cache(lambda model_id: models[model_id].node_map() if model_id in models else {})
    walks = cache(lambda model_id: flowgraph.anchor_candidates(flowgraph.FlowIndex.of(models[model_id])))
    sop_key = normalize_name(sop_label)

    for ms in milestones:
        if normalize_name(ms.name) == sop_key:
            table.offsets[ms.milestone_id] = 0
            table.provenance[ms.milestone_id] = "designated SOP milestone"
            continue
        nodes = node_maps(ms.model_id)
        event = nodes.get(ms.event_node_id)
        if event is None or not event.is_event:
            out.append(
                Finding("NO-ANCHOR", ms.milestone_id, "owning model or event not present in the pyramid")
            )
            continue
        candidates, cyclic = ms.anchors or walks(ms.model_id)[ms.event_node_id]
        if cyclic:
            out.append(
                Finding("FLOW-CYCLE", ms.milestone_id, "flow cycle on the path from the anchor timer")
            )
            continue
        if not candidates:
            out.append(Finding("NO-ANCHOR", ms.milestone_id, "no anchor timer on any incoming path"))
            continue
        ambiguous = ambiguous_anchor(ms.milestone_id, candidates)
        if ambiguous is not None:
            out.append(ambiguous)
            continue
        anchor_id, offset = candidates[0]
        amount = nodes[anchor_id].timer.amount.days
        path = offset + amount
        table.offsets[ms.milestone_id] = offset
        table.provenance[ms.milestone_id] = (
            f"anchor {anchor_id} at {amount}d before SOP plus {path}d longest path"
        )
    return table, sort_findings(out)


def reconcile_declared(table: OffsetTable, milestones: Iterable[Milestone]) -> list[Finding]:
    """Compare computed offsets against declared milestone annotations."""
    out: list[Finding] = []
    for ms in milestones:
        if ms.declared_offset is None or ms.milestone_id not in table.offsets:
            continue
        computed = table.offsets[ms.milestone_id]
        if computed != ms.declared_offset:
            out.append(
                Finding(
                    "OFFSET-MISMATCH",
                    ms.milestone_id,
                    f"declared {ms.declared_offset}d but flow arithmetic gives {computed}d",
                )
            )
    return sort_findings(out)


# The code and message of each golden question left unanswered, gq1 to gq8.
_GQ_UNANSWERED = (
    ("GQ1-UNANSWERED", "no owning process recorded"),
    ("GQ2-UNANSWERED", "no responsible role recorded"),
    ("GQ3-UNANSWERED", "no tools recorded"),
    ("GQ4-UNANSWERED", "no process duration recorded"),
    ("GQ5-UNANSWERED", "no inputs recorded"),
    ("GQ6-UNANSWERED", "no outputs recorded"),
    ("GQ7-UNANSWERED", "no consumers recorded and milestone is not terminal"),
    ("GQ8-UNANSWERED", "no storage locations recorded"),
)


def check_gq(milestone: Milestone) -> list[Finding]:
    """Flag unanswered golden questions on one milestone.

    Terminal milestones are exempt from gq7. gq8 must name a storage
    location for every input and output.
    """
    gq = milestone.gq
    subject = milestone.milestone_id
    unanswered = (
        not gq.gq1_process.strip(),
        not gq.gq2_role.strip(),
        not gq.gq3_tools,
        gq.gq4_duration is None,
        not gq.gq5_inputs,
        not gq.gq6_outputs,
        not gq.gq7_consumers and not milestone.terminal,
        not gq.gq8_storage,
    )
    out = [Finding(code, subject, msg) for code, msg in compress(_GQ_UNANSWERED, unanswered)]
    if gq.gq8_storage:
        # a set: a name that is both an input and an output is listed once
        uncovered = sorted(
            {name for name in (*gq.gq5_inputs, *gq.gq6_outputs) if name not in gq.gq8_storage}
        )
        if uncovered:
            out.append(
                Finding(
                    "GQ8-INCOMPLETE",
                    subject,
                    "no storage location for: " + ", ".join(uncovered),
                )
            )
    return sort_findings(out)


# Durations are bounded, but a chain of them at a one-day step is not: a
# grid wider than this is refused instead of built.
MAX_GRID_SLOTS = 100_000


def build_reference_timeline(table: OffsetTable, step: int = 30) -> ReferenceTimeline:
    """Lay every resolved offset onto a fixed-step slot grid of at most
    `MAX_GRID_SLOTS` slots."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if not table.offsets:
        raise EmptyTimelineError("no resolved offsets to place on a timeline")
    lo = min(table.offsets.values()) // step * step
    hi = max(lo + step, -(-max(table.offsets.values()) // step) * step)
    slots = (hi - lo) // step
    if slots > MAX_GRID_SLOTS:
        raise ValueError(f"{slots} slots of {step}d from {lo}d to {hi}d exceed the cap of {MAX_GRID_SLOTS}")
    boundaries = list(range(lo, hi + 1, step))
    assignments = {
        mid: min((off - lo) // step, slots - 1) for mid, off in table.offsets.items()
    }
    return ReferenceTimeline(step=step, boundaries=boundaries, assignments=assignments)


def check_alignment(
    pyramid: Pyramid,
    table: OffsetTable,
    milestones: Iterable[Milestone],
    tolerance: int = 0,
) -> list[Finding]:
    """Verify that milestones linked across levels carry matching offsets.

    Links come from explicit alignsWith metadata and from gq7 consumer
    declarations that point at a milestone on another level.
    """
    milestones = list(milestones)
    by_id = {ms.milestone_id: ms for ms in milestones}
    out: list[Finding] = []
    pairs: set[tuple[str, str]] = set()

    for ms in milestones:
        for ref in sorted(ms.aligns_with):
            if ref not in by_id:
                out.append(
                    Finding("DANGLING-ALIGNMENT", ms.milestone_id, f"alignsWith unknown milestone {ref!r}")
                )
                continue
            pairs.add((min(ms.milestone_id, ref), max(ms.milestone_id, ref)))
        for ref in sorted(ms.gq.gq7_consumers):
            other = by_id.get(ref)
            if other is None:
                continue
            if pyramid.level_of.get(other.model_id) != pyramid.level_of.get(ms.model_id):
                pairs.add((min(ms.milestone_id, ref), max(ms.milestone_id, ref)))

    for a, b in sorted(pairs):
        if a not in table.offsets or b not in table.offsets:
            continue
        delta = abs(table.offsets[a] - table.offsets[b])
        if delta > tolerance:
            out.append(
                Finding(
                    "MISALIGNED",
                    f"{a}~{b}",
                    f"linked milestones are {delta}d apart "
                    f"({table.offsets[a]}d vs {table.offsets[b]}d, tolerance {tolerance}d)",
                )
            )
    return sort_findings(out)
