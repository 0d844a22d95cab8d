"""The public API is exactly the names below; growing it is a reviewed change.
The module attributes the benchmark tracer wraps must keep resolving too."""

import importlib
from pathlib import Path

import procpyramid
from procpyramid.model import ProcessModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = [
    "AspectDiff", "Bundle", "DataObject", "DependencyEdge", "DependencyGraph",
    "DeviationReport", "DocumentRef", "Duration", "EmptyTimelineError", "Finding",
    "FlowNode", "GqRecord", "ImpactSet", "Lane", "LevelEntry", "Manifest",
    "ManifestError", "Milestone", "ModelParseError", "OffsetTable", "ProcessModel",
    "Pyramid", "PyramidError", "ReferenceProcess", "ReferenceTimeline", "TemplateError",
    "TimerDef", "UnknownSeedError", "VerticalLink", "VvLinkStat", "assign_coordinates",
    "build_pyramid", "build_reference_timeline", "check_alignment", "check_connectivity",
    "check_gq", "check_milestone_retention", "check_temporal", "check_vv_links",
    "check_wellformed", "cross_check_declared", "diff", "extract_milestones",
    "find_redundant", "finding", "impact", "infer_edges", "link_levels", "load_bundle",
    "load_manifest", "load_reference", "parse_duration", "parse_model",
    "reconcile_declared", "render_offset", "resolve_offsets", "serialize_model",
    "vv_iterations",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 58
    assert procpyramid.__all__ == PUBLIC


def test_every_attribute_the_tracer_wraps_resolves(monkeypatch):
    """`perfbench/tracing.py` replaces these attributes where the program
    calls them; a refactor that renames or drops one fails here instead of
    crashing a traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert Path(tracing.__file__).resolve().parent == PERFBENCH
    missing = [
        f"{module}.{attr}"
        for module, attr in tracing.SPANS
        if not callable(getattr(importlib.import_module(f"procpyramid.{module}"), attr, None))
    ]
    assert missing == []
    assert callable(ProcessModel.node_map)
