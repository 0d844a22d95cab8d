"""The public API is exactly the names below; growing it is a reviewed change.
The module attributes the benchmark tracer wraps must keep resolving, and
keep being called, too."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import procpyramid
from conftest import PARKPILOT_MANIFEST, PARKPILOT_SEVERED
from procpyramid import cli
from procpyramid.model import ProcessModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = [
    "AspectDiff", "Bundle", "DataObject", "DependencyEdge", "DependencyGraph",
    "DeviationReport", "Duration", "EmptyTimelineError", "Finding",
    "FlowNode", "GqRecord", "ImpactSet", "Lane", "LevelEntry", "Manifest",
    "ManifestError", "Milestone", "ModelParseError", "OffsetTable", "ProcessModel",
    "Pyramid", "PyramidError", "ReferenceProcess", "ReferenceTimeline", "TemplateError",
    "TimerDef", "UnknownSeedError", "VvLinkStat", "assign_coordinates",
    "build_pyramid", "build_reference_timeline", "check_alignment", "check_connectivity",
    "check_gq", "check_milestone_retention", "check_temporal", "check_vv_links",
    "check_wellformed", "cross_check_declared", "diff", "extract_milestones",
    "find_redundant", "impact", "infer_edges", "link_levels", "load_bundle",
    "load_manifest", "load_reference", "parse_duration", "parse_model",
    "reconcile_declared", "render_offset", "resolve_offsets", "serialize_model",
    "vv_iterations",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 55
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


def test_every_attribute_the_tracer_wraps_is_called(monkeypatch, capsys, tmp_path):
    """A parkpilot report, impact and retention call every attribute the
    tracer wraps but `conformance.canonical_key`, which nothing calls: a
    refactor that routes a stage around its attribute fails here instead of
    reading 0 in a per-layer metric of a traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    calls: Counter = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, attr in tracing.SPANS:
        owner = importlib.import_module(f"procpyramid.{module}")
        monkeypatch.setattr(owner, attr, counted((module, attr), getattr(owner, attr)))
    manifest = str(PARKPILOT_MANIFEST)
    assert cli.run(["report", manifest, "--json", "--dot", str(tmp_path / "deps.gv")]) == 0
    assert cli.run(["impact", manifest, "--seed", "test-plan"]) == 0
    assert cli.run(["retention", manifest, "--after", str(PARKPILOT_SEVERED)]) == 0
    capsys.readouterr()
    assert set(tracing.SPANS) - set(calls) == {("conformance", "canonical_key")}


def test_no_new_private_name_crosses_a_module():
    """A `_`-prefixed name belongs to its module. These few are shared on
    purpose; any other import of one from a sibling module fails here."""
    crossings = set()
    for path in Path(procpyramid.__file__).parent.glob("*.py"):
        for stmt in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module:
                crossings.update(
                    (alias.name, stmt.module, path.stem)
                    for alias in stmt.names
                    if alias.name.startswith("_")
                )
    assert crossings == {
        ("_NO_EXTENSIONS", "model", "bundle"),
        ("_NO_EXTENSIONS", "model", "ingest"),
        ("_NO_ITEMS", "timeline", "bundle"),
        ("_NameKeys", "dependency", "cli"),
        ("_NameKeys", "dependency", "conformance"),
    }
