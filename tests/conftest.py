"""Shared fixture paths and small builders for hand-made models."""

from __future__ import annotations

from pathlib import Path

from hypothesis import settings

from procpyramid import (
    DataObject,
    Duration,
    FlowNode,
    GqRecord,
    Lane,
    Milestone,
    ProcessModel,
    Pyramid,
    TimerDef,
)
from procpyramid.model import ELAPSED

FIXTURES = Path(__file__).parent / "fixtures"
FIG7_MANIFEST = FIXTURES / "fig7" / "manifest.json"
PARKPILOT_MANIFEST = FIXTURES / "parkpilot" / "manifest.json"
PARKPILOT_SEVERED = FIXTURES / "parkpilot" / "manifest-severed.json"
ANCHORS_MANIFEST = FIXTURES / "anchors" / "manifest.json"
# One bound model deviates majorly from its template, the other minorly.
DEVIATION_MANIFEST = FIXTURES / "deviation" / "manifest.json"
# `deviation` with its models renamed `p` and `p:b`: in the clash bundle
# node `b:x` of `p` and node `x` of `p:b` both spell milestone id `p:b:x`;
# in the seed bundle node `b` of `p`, named `Program start`, is milestone
# `p:b`, whose id is also a model id.
IDCLASH_DUPLICATE = FIXTURES / "idclash" / "manifest-clash.json"
IDCLASH_SEED = FIXTURES / "idclash" / "manifest-seed.json"

# Property tests build whole bundles per example; the default deadline is
# too twitchy for that.
settings.register_profile("bundle-heavy", deadline=None)
settings.load_profile("bundle-heavy")


def anchor(days: int) -> TimerDef:
    return TimerDef(amount=Duration(days))


def elapsed(days: int) -> TimerDef:
    return TimerDef(amount=Duration(days), mode=ELAPSED)


def node(
    node_id: str,
    kind: str,
    *,
    name: str | None = None,
    days: int | None = None,
    timer: TimerDef | None = None,
    inputs=(),
    outputs=(),
    ext: dict[str, str] | None = None,
) -> FlowNode:
    return FlowNode(
        node_id=node_id,
        kind=kind,
        name=node_id if name is None else name,
        duration=Duration(days) if days is not None else None,
        timer=timer,
        inputs=tuple(sorted(set(inputs))),
        outputs=tuple(sorted(set(outputs))),
        extensions=dict(ext or {}),
    )


def chain_model(
    model_id: str,
    nodes: list[FlowNode],
    *,
    name: str = "",
    flows: list[tuple[str, str]] | None = None,
    lanes: list[Lane] | None = None,
    data_objects: list[DataObject] | None = None,
    call_targets: dict[str, str] | None = None,
    extensions: dict[str, str] | None = None,
) -> ProcessModel:
    """A model whose nodes connect in the given order unless flows are given."""
    if flows is None:
        flows = [(a.node_id, b.node_id) for a, b in zip(nodes, nodes[1:])]
    if lanes is None:
        lanes = [
            Lane(
                lane_id="lane0",
                role_name="crew",
                member_nodes=frozenset(n.node_id for n in nodes),
            )
        ]
    return ProcessModel(
        model_id=model_id,
        name=name or model_id,
        nodes=list(nodes),
        flows=list(flows),
        lanes=lanes,
        data_objects=list(data_objects or []),
        call_targets=dict(call_targets or {}),
        extensions=dict(extensions or {}),
    )


def milestone(
    milestone_id: str,
    *,
    name: str | None = None,
    kind: str = "intermediate",
    inputs=(),
    outputs=(),
    consumers=(),
    tools=("board",),
    role: str = "crew",
    duration_days: int | None = 0,
    storage: dict[str, str] | None = None,
    declared: int | None = None,
    terminal: bool = False,
    aligns=(),
) -> Milestone:
    """A standalone milestone whose golden questions are all answered unless
    overridden. The id must look like model:node."""
    model_id, _, node_id = milestone_id.partition(":")
    names = frozenset(inputs) | frozenset(outputs)
    gq = GqRecord(
        gq1_process=model_id,
        gq2_role=role,
        gq3_tools=frozenset(tools),
        gq4_duration=Duration(duration_days) if duration_days is not None else None,
        gq5_inputs=tuple(sorted(set(inputs))),
        gq6_outputs=tuple(sorted(set(outputs))),
        gq7_consumers=frozenset(consumers),
        gq8_storage=dict(storage) if storage is not None else {n: f"store://{n}" for n in names},
    )
    return Milestone(
        milestone_id=milestone_id,
        model_id=model_id,
        event_node_id=node_id,
        name=name if name is not None else milestone_id,
        kind=kind,
        gq=gq,
        declared_offset=declared,
        terminal=terminal,
        aligns_with=frozenset(aligns),
    )


def stub_model(model_id: str, node_count: int = 3) -> ProcessModel:
    """Minimal placeholder model for pyramid-shape tests."""
    nodes = [node(f"{model_id}_n{i}", "task", days=1) for i in range(node_count)]
    return ProcessModel(model_id=model_id, name=model_id, nodes=nodes)


def stub_pyramid(
    levels: dict[int, list[str]], links: list[tuple[str, str]], root: str | None = None
) -> Pyramid:
    """A pyramid built directly from model ids and parent->child pairs."""
    if root is None:
        root = levels[0][0]
    level_of = dict(sorted((mid, lvl) for lvl, ids in levels.items() for mid in ids))
    children: dict[str, list[str]] = {mid: [] for mid in level_of}
    for parent, child in links:
        children[parent].append(child)
    return Pyramid(
        root_model=root,
        models={mid: stub_model(mid) for mid in level_of},
        level_of=level_of,
        children=children,
    )
