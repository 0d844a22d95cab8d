"""procpyramid: build, time, and cross-check multi-level process model
bundles around their milestones."""

from .bundle import Bundle, load_bundle
from .conformance import (
    AspectDiff,
    DeviationReport,
    ReferenceProcess,
    VvLinkStat,
    check_milestone_retention,
    check_vv_links,
    diff,
    load_reference,
    vv_iterations,
)
from .dependency import (
    DependencyEdge,
    DependencyGraph,
    ImpactSet,
    check_temporal,
    cross_check_declared,
    find_redundant,
    impact,
    infer_edges,
)
from .durations import Duration, parse_duration, render_offset
from .errors import (
    EmptyTimelineError,
    ManifestError,
    ModelParseError,
    PyramidError,
    TemplateError,
    UnknownSeedError,
)
from .findings import Finding
from .ingest import check_wellformed, extract_milestones, parse_model, serialize_model
from .model import DataObject, FlowNode, Lane, ProcessModel, TimerDef
from .pyramid import (
    LevelEntry,
    Manifest,
    Pyramid,
    assign_coordinates,
    build_pyramid,
    check_connectivity,
    link_levels,
    load_manifest,
)
from .timeline import (
    GqRecord,
    Milestone,
    OffsetTable,
    ReferenceTimeline,
    build_reference_timeline,
    check_alignment,
    check_gq,
    reconcile_declared,
    resolve_offsets,
)

__version__ = "0.1.0"

__all__ = [
    "AspectDiff",
    "Bundle",
    "DataObject",
    "DependencyEdge",
    "DependencyGraph",
    "DeviationReport",
    "Duration",
    "EmptyTimelineError",
    "Finding",
    "FlowNode",
    "GqRecord",
    "ImpactSet",
    "Lane",
    "LevelEntry",
    "Manifest",
    "ManifestError",
    "Milestone",
    "ModelParseError",
    "OffsetTable",
    "ProcessModel",
    "Pyramid",
    "PyramidError",
    "ReferenceProcess",
    "ReferenceTimeline",
    "TemplateError",
    "TimerDef",
    "UnknownSeedError",
    "VvLinkStat",
    "assign_coordinates",
    "build_pyramid",
    "build_reference_timeline",
    "check_alignment",
    "check_connectivity",
    "check_gq",
    "check_milestone_retention",
    "check_temporal",
    "check_vv_links",
    "check_wellformed",
    "cross_check_declared",
    "diff",
    "extract_milestones",
    "find_redundant",
    "impact",
    "infer_edges",
    "link_levels",
    "load_bundle",
    "load_manifest",
    "load_reference",
    "parse_duration",
    "parse_model",
    "reconcile_declared",
    "render_offset",
    "resolve_offsets",
    "serialize_model",
    "vv_iterations",
]
