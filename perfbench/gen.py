"""Seeded synthetic bundles for the benchmark, with the facts each must produce.

Every model is one sequence-flow chain:

    start(anchor timer) -> tasks -> gate 1 -> tasks -> ... -> gate G -> tasks, calls -> end

Each task reads the object the previous step wrote and writes the next one,
so consecutive events are linked by exactly one data object, and a parent's
end event hands its final artifact to the start event of every child. Child
anchors are chosen so that a child starts on the day its parent ends, which
keeps every cross-level gq7 pair aligned.

Because the generator builds that structure itself, it knows the answers
(offsets, dependency edges with statuses, conformance verdicts, impact sets
and the findings it planted) without calling any analysis code of the
program. The program is used only to write BPMN (`serialize_model`).

Run as a script to write one workload's bundles:

    python3 perfbench/gen.py --workload dense-report --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from procpyramid import DataObject, Duration, FlowNode, Lane, ProcessModel, TimerDef, serialize_model
from procpyramid.model import ELAPSED

ERROR, WARNING, INFO = "error", "warning", "info"
SEVERITY = {
    "OFFSET-MISMATCH": ERROR,
    "MISALIGNED": ERROR,
    "GQ3-UNANSWERED": WARNING,
    "UNDECLARED-DEPENDENCY": WARNING,
    "DECLARED-UNMATCHED": ERROR,
    "REDUNDANT-OUTPUT": WARNING,
    "MAJOR-DEVIATION": WARNING,
    "MINOR-DEVIATION": INFO,
    "VV-UNLINKED": ERROR,
    "MILESTONE-DROPPED": ERROR,
    "ADDED-INTERMEDIATE": INFO,
}
# Which analysis family raises a finding, and which command reports which family.
FAMILY = {
    "OFFSET-MISMATCH": "timing",
    "MISALIGNED": "timing",
    "GQ3-UNANSWERED": "gq",
    "UNDECLARED-DEPENDENCY": "deps",
    "DECLARED-UNMATCHED": "deps",
    "REDUNDANT-OUTPUT": "deps",
    "MAJOR-DEVIATION": "conform",
    "MINOR-DEVIATION": "conform",
    "VV-UNLINKED": "conform",
}
COMMAND_FAMILIES = {
    "validate": {"timing", "gq"},
    "timeline": {"timing"},
    "deps": {"deps"},
    "impact": set(),
    "conform": {"conform"},
    "export": set(),
    "report": {"timing", "gq", "deps", "conform"},
}

DECLARED_AND_MATCHED = "declared-and-matched"
INFERRED_UNDECLARED = "inferred-undeclared"
DECLARED_UNMATCHED = "declared-unmatched"


@dataclass(frozen=True)
class Shape:
    """The knobs one bundle shape is built from."""

    widths: tuple[int, ...]  # models per pyramid level
    gates: int  # intermediate events per model
    tasks: int = 0  # tasks per segment; 0 pads every model to `nodes` flow nodes
    nodes: int = 50
    max_days: int = 5  # task durations are drawn from 1..max_days
    elapsed_gates: int = 0  # gates per model that also carry an elapsed timer
    alias_links: int = 0  # hand-offs whose producer writes an aliased object name
    step_aliases: int = 0  # template steps that models may spell with a synonym
    template_steps: int = 0  # 0: no reference templates
    bound_left: int = 0  # level-1 models bound to the left template; 0 binds all
    planted: bool = False
    retention: bool = False  # also write an edited "after" snapshot


SHAPES: dict[str, dict[str, Shape]] = {
    "wide-report": {
        "full": Shape(widths=(1, 15, 135, 349), gates=0),
        "half": Shape(widths=(1, 8, 67, 174), gates=0),
        "warm": Shape(widths=(1, 2, 4, 8), gates=0),
    },
    "dense-report": {
        "full": Shape(widths=(1, 5, 10), gates=10, tasks=15, max_days=3, elapsed_gates=2,
                      alias_links=30, step_aliases=4, template_steps=40, planted=True),
        "half": Shape(widths=(1, 2, 5), gates=10, tasks=15, max_days=3, elapsed_gates=2,
                      alias_links=15, step_aliases=4, template_steps=40, planted=True),
        "warm": Shape(widths=(1, 2, 2), gates=4, tasks=5, max_days=3, elapsed_gates=1,
                      alias_links=2, step_aliases=1, template_steps=8, planted=True),
    },
    "command-mix": {
        "full": Shape(widths=(1, 5, 30, 64), gates=1, alias_links=4, step_aliases=1,
                      template_steps=12, bound_left=3, planted=True, retention=True),
        "half": Shape(widths=(1, 3, 15, 31), gates=1, alias_links=2, step_aliases=1,
                      template_steps=12, bound_left=3, planted=True),
        "warm": Shape(widths=(1, 2, 4), gates=1, alias_links=1, step_aliases=1,
                      template_steps=6, bound_left=1, planted=True),
    },
}

DEEP_CHAIN_MODELS = 1100  # deeper than Python's default recursion limit of 1000


@dataclass
class _Model:
    mid: str
    level: int
    parent: str | None
    kids: list[str]
    name: str
    role: str
    tools: str
    methods: str
    template: str | None  # "left", "right" or None
    segments: list[list[int]]  # task durations per segment; segment i ends at event i+1
    elapsed: dict[int, int]  # gate index -> elapsed days
    anchor: int = 0


def _event_ids(gates: int) -> list[str]:
    return ["start"] + [f"g{i}" for i in range(1, gates + 1)] + ["end"]


def _event_name(mid: str, eid: str) -> str:
    return {"start": f"{mid} start", "end": f"{mid} end"}.get(eid, f"{mid} gate {eid[1:]}")


def _layout(shape: Shape, rng: random.Random) -> list[_Model]:
    ids = [[f"m{lvl}x{i}" for i in range(w)] for lvl, w in enumerate(shape.widths)]
    parent_of: dict[str, str] = {}
    for lvl in range(1, len(ids)):
        ups = ids[lvl - 1]
        for i, mid in enumerate(ids[lvl]):
            # every model above gets a child before the rest are scattered
            parent_of[mid] = ups[i] if i < len(ups) else rng.choice(ups)
    kids: dict[str, list[str]] = {mid: [] for level in ids for mid in level}
    for level in ids[1:]:
        for mid in level:
            kids[parent_of[mid]].append(mid)

    left: list[str] = []
    right: list[str] = []
    if shape.template_steps:
        left = ids[1] if not shape.bound_left else ids[1][: shape.bound_left]
        if shape.bound_left:
            right = [kids[mid][0] for mid in left]
        else:
            right = list(ids[2])

    models: list[_Model] = []
    for lvl, level in enumerate(ids):
        for mid in level:
            template = "left" if mid in left else "right" if mid in right else None
            n_kids = len(kids[mid])
            if shape.tasks:
                per_seg = [shape.tasks] * (shape.gates + 1)
            else:
                total = shape.nodes - 2 - shape.gates - n_kids
                if total < shape.gates + 1:
                    raise ValueError(f"{mid}: {n_kids} children leave no room for tasks")
                base, extra = divmod(total, shape.gates + 1)
                per_seg = [base + (1 if i < extra else 0) for i in range(shape.gates + 1)]
            segments = [[rng.randint(1, shape.max_days) for _ in range(n)] for n in per_seg]
            elapsed = {
                g: rng.randint(1, 10)
                for g in sorted(rng.sample(range(1, shape.gates + 1), min(shape.elapsed_gates, shape.gates)))
            }
            models.append(
                _Model(
                    mid=mid,
                    level=lvl,
                    parent=parent_of.get(mid),
                    kids=kids[mid],
                    name={"left": f"design {mid}", "right": f"verify {mid}"}.get(template or "", mid),
                    role={"left": "designer", "right": "tester"}.get(template or "", "engineer"),
                    tools={"left": "cad", "right": "hil rig"}.get(template or "", "board"),
                    methods={"left": "design review", "right": "hil test"}.get(template or "", ""),
                    template=template,
                    segments=segments,
                    elapsed=elapsed,
                )
            )
    return models


def _path_length(m: _Model) -> int:
    return sum(sum(seg) for seg in m.segments) + sum(m.elapsed.values())


def _assign_anchors(models: list[_Model]) -> None:
    """Root anchor is large enough that every deeper anchor stays positive;
    a child's anchor equals its parent's anchor minus the parent's path."""
    by_id = {m.mid: m for m in models}
    depth = max(m.level for m in models) + 1
    longest = max(_path_length(m) for m in models)
    for m in models:
        if m.parent is None:
            m.anchor = depth * longest + 30
        else:
            parent = by_id[m.parent]
            m.anchor = parent.anchor - _path_length(parent)


def _offsets(m: _Model, gates: int) -> dict[str, int]:
    """SOP offset of every event, walking the chain from the anchor."""
    out = {"start": -m.anchor}
    day = -m.anchor
    for i, seg in enumerate(m.segments):
        day += sum(seg)
        eid = _event_ids(gates)[i + 1]
        if eid.startswith("g"):
            day += m.elapsed.get(int(eid[1:]), 0)
        out[eid] = day
    return out


def _template_docs(shape: Shape, rng: random.Random) -> tuple[list[dict], dict[str, dict[int, str]]]:
    """The two counterpart templates and, per side, the synonym of each aliased step."""
    docs = []
    synonyms: dict[str, dict[int, str]] = {}
    for side, ref_id, noun, role, method, tool, pattern in (
        ("left", "design-ref", "design", "designer", "design review", "cad", "design *"),
        ("right", "verify-ref", "verify", "tester", "hil test", "hil rig", "verify *"),
    ):
        steps = [f"{noun} activity {s:02d}" for s in range(shape.template_steps)]
        picked = sorted(rng.sample(range(shape.template_steps), min(shape.step_aliases, shape.template_steps)))
        synonyms[side] = {s: f"{noun} task {s:02d}" for s in picked}
        doc = {
            "id": ref_id,
            "name": f"{noun} reference",
            "side": side,
            "steps": steps,
            "roles": [role],
            "methods": [method],
            "tools": [tool],
            "binding": {"namePattern": pattern},
        }
        if side == "right":
            doc["counterpart"] = "design-ref"
        docs.append(doc)
    return docs, synonyms


class _Bundle:
    """Builds every model of one shape and records the facts by construction."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.rng = random.Random(seed)
        self.models = _layout(shape, self.rng)
        self.by_id = {m.mid: m for m in self.models}
        _assign_anchors(self.models)
        self.events = _event_ids(shape.gates)
        self.offsets: dict[str, int] = {}
        for m in self.models:
            for eid, day in _offsets(m, shape.gates).items():
                self.offsets[f"{m.mid}:{eid}"] = day
        self.aliases: dict[str, str] = {}
        self.templates: list[dict] = []
        self.step_synonyms: dict[str, dict[int, str]] = {}
        if shape.template_steps:
            self.templates, self.step_synonyms = _template_docs(shape, self.rng)
            for side in ("left", "right"):
                noun = "design" if side == "left" else "verify"
                for s, syn in self.step_synonyms[side].items():
                    self.aliases[syn] = f"{noun} activity {s:02d}"
        # (mid, boundary) pairs whose producer writes an aliased object name;
        # boundary b is the object the first task of segment b reads
        slots = [(m.mid, b) for m in self.models for b in range(len(m.segments))]
        self.aliased = set(self.rng.sample(slots, min(shape.alias_links, len(slots))))
        for mid, b in sorted(self.aliased):
            self.aliases[f"{mid} handoff {b}"] = f"{mid} step {self._first_task(self.by_id[mid], b)}"
        self.declared: dict[str, list[str]] = {}  # extra gq7 entries
        self.aligns: dict[str, list[str]] = {}
        self.declared_offset: dict[str, int] = {}
        self.skip_inputs: dict[tuple[str, int], str] = {}  # (mid, task) -> extra input object id
        self.extra_outputs: dict[tuple[str, int], str] = {}  # (mid, task) -> extra output name
        self.no_tools: set[str] = set()
        self.dropped_steps: dict[str, list[int]] = {}
        self.synonym_used: set[tuple[str, int]] = set()
        self.findings: list[tuple[str, str]] = []
        self._choose_declared_offsets()
        self._choose_step_usage()
        if shape.planted:
            self._plant()

    # ---- structure helpers -------------------------------------------------

    def _first_task(self, m: _Model, seg: int) -> int:
        return sum(len(s) for s in m.segments[:seg])

    def _task_count(self, m: _Model) -> int:
        return sum(len(s) for s in m.segments)

    def _written_by(self, m: _Model, task: int) -> str:
        """Object id task `task` writes on the chain (-1: the start event)."""
        j = task + 1
        aliased = any(mid == m.mid and self._first_task(m, b) == j for mid, b in self.aliased)
        return f"h{j}" if aliased else f"o{j}"

    def _milestone_ids(self, m: _Model) -> list[str]:
        return [f"{m.mid}:{eid}" for eid in self.events]

    # ---- planting ----------------------------------------------------------

    def _choose_declared_offsets(self) -> None:
        for mid_event in sorted(self.offsets):
            if self.rng.random() < 0.25:
                self.declared_offset[mid_event] = self.offsets[mid_event]

    def _choose_step_usage(self) -> None:
        if not self.shape.template_steps:
            return
        steps = self.shape.template_steps
        bound = [m for m in self.models if m.template]
        for m in bound:
            self.dropped_steps[m.mid] = []
            for s in sorted(self.step_synonyms[m.template]):
                if self.rng.random() < 0.5:
                    self.synonym_used.add((m.mid, s))
        if not self.shape.planted:
            return
        lefts = [m.mid for m in bound if m.template == "left"]
        rights = [m.mid for m in bound if m.template == "right"]
        minor = math.ceil(steps * 0.2)
        major = steps - math.floor(steps * 0.3)
        plan = []
        if lefts:
            plan.append((lefts[-1], minor))
        if len(lefts) > 2:
            plan.append((lefts[-2], major))
        if rights:
            plan.append((rights[-1], minor))
        for mid, count in plan:
            self.dropped_steps[mid] = sorted(self.rng.sample(range(steps), count))

    def _plant(self) -> None:
        rng = self.rng
        models = self.models
        levels: dict[int, list[_Model]] = {}
        for m in models:
            levels.setdefault(m.level, []).append(m)
        deep = max(levels)

        # two declared offsets that disagree with the flow arithmetic
        candidates = [f"{m.mid}:{e}" for m in levels[deep] for e in self.events]
        for ms in rng.sample(candidates, 2):
            self.declared_offset[ms] = self.offsets[ms] + 7
            self.findings.append(("OFFSET-MISMATCH", ms))

        # one cross-level alignment that does not hold
        upper = [f"{m.mid}:{e}" for m in levels[1] for e in self.events]
        lower = [f"{m.mid}:{e}" for m in levels[2] for e in self.events]
        while True:
            a, b = rng.choice(upper), rng.choice(lower)
            if self.offsets[a] != self.offsets[b]:
                break
        self.aligns.setdefault(a, []).append(b)
        self.findings.append(("MISALIGNED", f"{min(a, b)}~{max(a, b)}"))

        # tools left unanswered on two milestones of the unbound root
        root = levels[0][0]
        for ms in rng.sample(self._milestone_ids(root), 2):
            self.no_tools.add(ms)
            self.findings.append(("GQ3-UNANSWERED", ms))

        # data flowing past the next event without a gq7 declaration
        for m in rng.sample(levels[deep], 2):
            i = rng.randrange(len(m.segments) - 1)  # producer event i, consumer event i + 2
            writer = self._first_task(m, i - 1) if i else -1  # -1: the start event
            self.skip_inputs[(m.mid, self._first_task(m, i + 1))] = self._written_by(m, writer)

        # gq7 promises to a later milestone of a same-level model, with no data behind them
        for m in rng.sample(levels[deep], 2):
            src = f"{m.mid}:{rng.choice(self.events)}"
            later = [
                f"{o.mid}:{e}"
                for o in levels[deep]
                if o.mid != m.mid
                for e in self.events
                if self.offsets[f"{o.mid}:{e}"] > self.offsets[src]
            ]
            if not later:
                continue
            self.declared.setdefault(src, []).append(rng.choice(later))

        # the same object produced in two models, once under an alias
        self.aliases["release memo"] = "release note"
        first, second = rng.sample(levels[deep], 2)
        for m, name in ((first, "release note"), (second, "release memo")):
            self.extra_outputs[(m.mid, rng.randrange(self._task_count(m)))] = name
        self.findings.append(("REDUNDANT-OUTPUT", "release note"))

    # ---- model building ----------------------------------------------------

    def _object_names(self, m: _Model) -> dict[str, str]:
        """Object id -> name, in the order the model lists its data objects."""
        total = self._task_count(m)
        names = {"oin": f"{m.parent} artifact" if m.parent else "market demand"}
        for j in range(total + 1):
            names[f"o{j}"] = f"{m.mid} artifact" if j == total else f"{m.mid} step {j}"
        for b in range(len(m.segments)):
            if (m.mid, b) in self.aliased:
                names[f"h{self._first_task(m, b)}"] = f"{m.mid} handoff {b}"
        for (owner, _), name in sorted(self.extra_outputs.items()):
            if owner == m.mid:
                names["rel"] = name
        return names

    def _task_io(self, m: _Model, j: int) -> tuple[set[str], set[str]]:
        """Object ids task `j` reads and writes."""
        ins = {f"o{j}"}
        if (m.mid, j) in self.skip_inputs:
            ins.add(self.skip_inputs[(m.mid, j)])
        outs = {self._written_by(m, j)}
        if (m.mid, j) in self.extra_outputs:
            outs.add("rel")
        return ins, outs

    def build(self, m: _Model, *, drop_gate: int | None = None, add_gate_after: int | None = None) -> ProcessModel:
        """The model as BPMN objects; the retention snapshot drops or adds one event."""
        mid = m.mid
        objects = [
            DataObject(oid, name=name, storage_ref=f"store://{mid}/{oid}")
            for oid, name in self._object_names(m).items()
        ]
        step_at = self._step_names(m)
        nodes: list[FlowNode] = []

        def event(eid: str, kind: str, timer=None, inputs=(), outputs=()) -> FlowNode:
            ms = f"{mid}:{eid}"
            ext = {}
            if ms not in self.no_tools:
                ext["gq3"] = m.tools
            if eid == "start":
                ext["gq4"] = "P0D"
            consumers = self._consumers(m, eid)
            if consumers:
                ext["gq7"] = ", ".join(consumers)
            else:
                ext["terminal"] = "true"
            if ms in self.declared_offset:
                ext["declaredOffset"] = str(self.declared_offset[ms])
            if ms in self.aligns:
                ext["alignsWith"] = ", ".join(self.aligns[ms])
            return FlowNode(eid, kind, name=_event_name(mid, eid), timer=timer,
                            inputs=frozenset(inputs), outputs=frozenset(outputs), extensions=ext)

        start_out = self._written_by(m, -1)
        nodes.append(event("start", "start-event", TimerDef(Duration(m.anchor)), {"oin"}, {start_out}))
        j = 0
        for seg_index, seg in enumerate(m.segments):
            for days in seg:
                ins, outs = self._task_io(m, j)
                nodes.append(FlowNode(f"t{j}", "task", name=step_at.get(j, f"{mid} work {j}"),
                                      duration=Duration(days), inputs=frozenset(ins), outputs=frozenset(outs)))
                if add_gate_after == j:
                    nodes.append(FlowNode("x1", "intermediate-event", name=f"{mid} checkpoint",
                                          extensions={"gq3": m.tools, "terminal": "true"}))
                j += 1
            eid = self.events[seg_index + 1]
            if eid == "end":
                for k, kid in enumerate(m.kids):
                    nodes.append(FlowNode(f"c{k}", "call-activity", name=f"call {kid}"))
                nodes.append(event("end", "end-event"))
            elif drop_gate != int(eid[1:]):
                days = m.elapsed.get(int(eid[1:]))
                timer = TimerDef(Duration(days), mode=ELAPSED) if days else None
                nodes.append(event(eid, "intermediate-event", timer))
        extensions = {"methods": m.methods} if m.methods else {}
        return ProcessModel(
            model_id=mid,
            name=m.name,
            nodes=nodes,
            flows=[(a.node_id, b.node_id) for a, b in zip(nodes, nodes[1:])],
            lanes=[Lane("l0", m.role, frozenset(n.node_id for n in nodes))],
            data_objects=objects,
            call_targets={f"c{k}": kid for k, kid in enumerate(m.kids)},
            extensions=extensions,
        )

    def _consumers(self, m: _Model, eid: str) -> list[str]:
        i = self.events.index(eid)
        out = [f"{m.mid}:{self.events[i + 1]}"] if eid != "end" else [f"{kid}:start" for kid in m.kids]
        return out + self.declared.get(f"{m.mid}:{eid}", [])

    def _step_names(self, m: _Model) -> dict[int, str]:
        """Task index -> template step name (or its synonym) for bound models."""
        if not m.template:
            return {}
        steps = self.shape.template_steps
        total = self._task_count(m)
        noun = "design" if m.template == "left" else "verify"
        out = {}
        for s in range(steps):
            if s in self.dropped_steps[m.mid]:
                continue
            name = f"{noun} activity {s:02d}"
            if (m.mid, s) in self.synonym_used:
                name = self.step_synonyms[m.template][s]
            out[(s * total) // steps] = name
        return out

    # ---- expected facts ----------------------------------------------------

    def _segment_io(self, m: _Model) -> dict[str, tuple[set[str], set[str]]]:
        """Canonical input and output names of each event's segment."""
        names = self._object_names(m)

        def canon(oids: set[str]) -> set[str]:
            return {self.aliases.get(names[oid], names[oid]) for oid in oids}

        io = {"start": (canon({"oin"}), canon({self._written_by(m, -1)}))}
        j = 0
        for seg_index, seg in enumerate(m.segments):
            ins: set[str] = set()
            outs: set[str] = set()
            for _ in seg:
                task_ins, task_outs = self._task_io(m, j)
                ins |= canon(task_ins)
                outs |= canon(task_outs)
                j += 1
            io[self.events[seg_index + 1]] = (ins, outs)
        return io

    def edges(self) -> list[list]:
        ins_of: dict[str, set[str]] = {}
        outs_of: dict[str, set[str]] = {}
        for m in self.models:
            for eid, (ins, outs) in self._segment_io(m).items():
                ins_of[f"{m.mid}:{eid}"] = ins
                outs_of[f"{m.mid}:{eid}"] = outs
        readers: dict[str, list[str]] = {}
        for ms in sorted(ins_of):
            for name in sorted(ins_of[ms]):
                readers.setdefault(name, []).append(ms)
        via: dict[tuple[str, str], set[str]] = {}
        for ms in sorted(outs_of):
            for name in sorted(outs_of[ms]):
                for reader in readers.get(name, ()):
                    if reader != ms:
                        via.setdefault((ms, reader), set()).add(name)
        declared = {
            (f"{m.mid}:{eid}", c) for m in self.models for eid in self.events for c in self._consumers(m, eid)
        }
        out = []
        for pair in sorted(set(via) | declared):
            if pair in via:
                status = DECLARED_AND_MATCHED if pair in declared else INFERRED_UNDECLARED
            else:
                status = DECLARED_UNMATCHED
            out.append([pair[0], pair[1], status, sorted(via.get(pair, ()))])
        return out

    def facts(self) -> dict:
        edges = self.edges()
        findings = list(self.findings)
        for p, c, status, _ in edges:
            if status == INFERRED_UNDECLARED:
                findings.append(("UNDECLARED-DEPENDENCY", f"{p}->{c}"))
            elif status == DECLARED_UNMATCHED:
                findings.append(("DECLARED-UNMATCHED", f"{p}->{c}"))
        conformance, vv_links = self._conformance(edges, findings)
        levels = {m.mid: m.level for m in self.models}
        names = {f"{m.mid}:{e}": _event_name(m.mid, e) for m in self.models for e in self.events}
        return {
            "models": len(self.models),
            "milestones": len(self.offsets),
            "depth": max(levels.values()),
            "stepDays": 30,
            "levels": levels,
            "names": names,
            "offsets": dict(sorted(self.offsets.items())),
            "edges": edges,
            "findings": sorted([code, subject, SEVERITY[code], FAMILY[code]] for code, subject in findings),
            "conformance": conformance,
            "vvLinks": vv_links,
        }

    def _ancestors(self, mid: str) -> set[str]:
        out = set()
        m = self.by_id[mid]
        while m.parent:
            out.add(m.parent)
            m = self.by_id[m.parent]
        return out

    def _conformance(self, edges: list[list], findings: list[tuple[str, str]]) -> tuple[list, list]:
        if not self.templates:
            return [], []
        steps = self.shape.template_steps
        entries = []
        for ref_id, side in (("design-ref", "left"), ("verify-ref", "right")):
            for m in sorted((m for m in self.models if m.template == side), key=lambda m: m.mid):
                ratio = (steps - len(self.dropped_steps[m.mid])) / steps
                verdict = "conforming" if ratio == 1 else "major-deviation" if ratio < 0.5 else "minor-deviation"
                entries.append([m.mid, ref_id, verdict, ratio])
                if verdict == "major-deviation":
                    findings.append(("MAJOR-DEVIATION", f"{m.mid}/{ref_id}"))
                elif verdict == "minor-deviation":
                    findings.append(("MINOR-DEVIATION", f"{m.mid}/{ref_id}"))
        lefts = sorted(m.mid for m in self.models if m.template == "left")
        rights = sorted(m.mid for m in self.models if m.template == "right")
        per_model = len(self.events)
        links = []
        for rm in rights:
            ancestors = self._ancestors(rm)
            for lm in lefts:
                linked = lm in ancestors
                links.append([rm, lm, per_model * per_model if linked else 0])
                if not linked:
                    findings.append(("VV-UNLINKED", f"{rm}/{lm}"))
        return entries, links

    # ---- writing -----------------------------------------------------------

    def manifest(self, files: dict[str, str] | None = None) -> dict:
        entries = []
        for m in self.models:
            entry = {"id": m.mid, "file": (files or {}).get(m.mid, f"{m.mid}.bpmn"), "level": m.level}
            if m.parent:
                entry["parent"] = {"model": m.parent, "node": f"c{self.by_id[m.parent].kids.index(m.mid)}"}
            entries.append(entry)
        doc = {"root": self.models[0].mid, "models": entries, "alignmentToleranceDays": 0, "referenceStepDays": 30}
        if self.aliases:
            doc["aliases"] = dict(sorted(self.aliases.items()))
        if self.templates:
            doc["referenceTemplates"] = ["templates.json"]
        return doc


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _bfs(adj: dict[str, list[str]], seeds: set[str]) -> list[str]:
    seen = set(seeds)
    order = []
    queue = deque(sorted(seeds))
    while queue:
        cur = queue.popleft()
        for nxt in adj.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


def _impact(facts: dict, seeds: set[str], seed_label: str, resolved: str) -> dict:
    down: dict[str, list[str]] = {}
    up: dict[str, list[str]] = {}
    for p, c, _, _ in facts["edges"]:
        down.setdefault(p, []).append(c)
        up.setdefault(c, []).append(p)
    downstream = sorted(n for n in _bfs(down, seeds) if n not in seeds)
    upstream = sorted(n for n in _bfs(up, seeds) if n not in seeds)
    touched = seeds | set(downstream) | set(upstream)
    levels = sorted({facts["levels"][n.split(":", 1)[0]] for n in touched})
    return {"seed": seed_label, "resolved": resolved, "downstream": downstream, "upstream": upstream,
            "crossedLevels": levels}


def generate(shape: Shape, seed: int, out: Path) -> dict:
    """Write one bundle under `out` and return (and write) its expected facts."""
    out.mkdir(parents=True, exist_ok=True)
    bundle = _Bundle(shape, seed)
    for m in bundle.models:
        (out / f"{m.mid}.bpmn").write_text(serialize_model(bundle.build(m)), encoding="utf-8")
    _write_json(out / "manifest.json", bundle.manifest())
    if bundle.templates:
        _write_json(out / "templates.json", bundle.templates)
    facts = bundle.facts()

    if shape.retention:
        facts["impact"] = _impact_seeds(bundle, facts)
        facts["retention"] = _write_after(bundle, out)
    _write_json(out / "facts.json", facts)
    return facts


def _impact_seeds(bundle: _Bundle, facts: dict) -> dict:
    rng = bundle.rng
    level1 = [m for m in bundle.models if m.level == 1]
    level2 = [m for m in bundle.models if m.level == 2]
    ms_model = rng.choice(level1)
    ms_id = f"{ms_model.mid}:end"
    model = rng.choice(level2)
    return {
        "milestone": _impact(facts, {ms_id}, facts["names"][ms_id], ms_id),
        "model": _impact(facts, {f"{model.mid}:{e}" for e in bundle.events}, model.mid, model.mid),
    }


def _write_after(bundle: _Bundle, out: Path) -> dict:
    """An edited snapshot: one gate removed, checkpoints added to three models."""
    rng = bundle.rng
    deepest = max(m.level for m in bundle.models)
    dropped, *grown = rng.sample([m for m in bundle.models if m.level == deepest], 4)
    after = out / "after"
    after.mkdir(exist_ok=True)
    files = {}
    model = bundle.build(dropped, drop_gate=1)
    (after / f"{dropped.mid}.bpmn").write_text(serialize_model(model), encoding="utf-8")
    files[dropped.mid] = f"after/{dropped.mid}.bpmn"
    for m in grown:
        at = rng.randrange(bundle._task_count(m))
        (after / f"{m.mid}.bpmn").write_text(serialize_model(bundle.build(m, add_gate_after=at)), encoding="utf-8")
        files[m.mid] = f"after/{m.mid}.bpmn"
    _write_json(out / "manifest-after.json", bundle.manifest(files))
    before = len(bundle.offsets)
    findings = [["MILESTONE-DROPPED", f"{dropped.mid}:g1", SEVERITY["MILESTONE-DROPPED"]]]
    findings += [["ADDED-INTERMEDIATE", f"{m.mid}:x1", SEVERITY["ADDED-INTERMEDIATE"]] for m in grown]
    return {
        "before": before,
        "after": before - 1 + len(grown),
        "dropped": 1,
        "addedIntermediate": len(grown),
        "findings": sorted(findings),
    }


def probe_annotations(out: Path) -> dict:
    """One model using every documented annotation form.

    `declaredOffset` appears as `-60` and as `P2M` (both 60 days before SOP),
    and gq8 uses the documented `name=location, ...` list.
    """
    out.mkdir(parents=True, exist_ok=True)
    objects = [
        DataObject("oin", name="request", storage_ref="store://probe/request"),
        DataObject("o0", name="brief", storage_ref="store://probe/brief"),
        DataObject("o1", name="draft"),
        DataObject("o2", name="release", storage_ref="store://probe/release"),
    ]
    common = {"gq3": "board"}
    nodes = [
        FlowNode("start", "start-event", name="probe start", timer=TimerDef(Duration(90)),
                 inputs=frozenset({"oin"}), outputs=frozenset({"o0"}),
                 extensions={**common, "gq4": "P0D", "gq7": "probe:g1"}),
        FlowNode("t0", "task", name="write draft", duration=Duration(30),
                 inputs=frozenset({"o0"}), outputs=frozenset({"o1"})),
        FlowNode("g1", "intermediate-event", name="probe draft",
                 extensions={**common, "gq7": "probe:end", "declaredOffset": "-60",
                             "gq8": "brief=vault, draft=share"}),
        FlowNode("t1", "task", name="release draft", duration=Duration(0),
                 inputs=frozenset({"o1"}), outputs=frozenset({"o2"})),
        FlowNode("end", "end-event", name="probe end",
                 extensions={**common, "terminal": "true", "declaredOffset": "P2M", "gq8": "draft=share"}),
    ]
    model = ProcessModel("probe", name="probe", nodes=nodes,
                         flows=[(a.node_id, b.node_id) for a, b in zip(nodes, nodes[1:])],
                         lanes=[Lane("l0", "engineer", frozenset(n.node_id for n in nodes))],
                         data_objects=objects)
    (out / "probe.bpmn").write_text(serialize_model(model), encoding="utf-8")
    _write_json(out / "manifest.json", {"root": "probe", "models": [{"id": "probe", "file": "probe.bpmn", "level": 0}]})
    facts = {"models": 1, "milestones": 3, "depth": 0, "findings": [],
             "offsets": {"probe:start": -90, "probe:g1": -60, "probe:end": -60}}
    _write_json(out / "facts.json", facts)
    return facts


def probe_deep_chain(out: Path, length: int = DEEP_CHAIN_MODELS) -> dict:
    """A one-model-per-level chain, deeper than the default recursion limit."""
    shape = Shape(widths=(1,) * length, gates=0, nodes=4, max_days=1)
    out.mkdir(parents=True, exist_ok=True)
    bundle = _Bundle(shape, 0)
    for m in bundle.models:
        (out / f"{m.mid}.bpmn").write_text(serialize_model(bundle.build(m)), encoding="utf-8")
    _write_json(out / "manifest.json", bundle.manifest())
    facts = bundle.facts()
    _write_json(out / "facts.json", facts)
    return facts


def generate_workload(workload: str, seed: int, out: Path) -> None:
    """Every bundle one workload needs: full size, half size, warm-up, probes."""
    for size, shape in SHAPES[workload].items():
        generate(shape, seed, out / size)
    if workload == "command-mix":
        probe_annotations(out / "probe-annotations")
        probe_deep_chain(out / "probe-deep-chain")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    generate_workload(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
