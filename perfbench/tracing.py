"""Outside-in tracing: wrap the layers' public functions where the program calls them.

The program imports stage functions by name into `procpyramid.cli` and
`procpyramid.bundle`, calls `flowgraph` through the module, and binds
`canonical_key` into `dependency` and `conformance`, so those module
attributes are the ones replaced. Each wrapped call records one span
(name, parent, start, end, time spent in child spans) and updates the work
counters of its layer. Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) -> span name
SPANS = {
    ("cli", "load_bundle"): "bundle.load_bundle",
    ("cli", "render_report"): "cli.render_report",
    ("cli", "check_wellformed"): "ingest.check_wellformed",
    ("cli", "check_connectivity"): "pyramid.check_connectivity",
    ("cli", "assign_coordinates"): "pyramid.assign_coordinates",
    ("cli", "resolve_offsets"): "timeline.resolve_offsets",
    ("cli", "reconcile_declared"): "timeline.reconcile_declared",
    ("cli", "check_alignment"): "timeline.check_alignment",
    ("cli", "check_gq"): "timeline.check_gq",
    ("cli", "build_reference_timeline"): "timeline.build_reference_timeline",
    ("cli", "infer_edges"): "dependency.infer_edges",
    ("cli", "cross_check_declared"): "dependency.cross_check_declared",
    ("cli", "check_temporal"): "dependency.check_temporal",
    ("cli", "find_redundant"): "dependency.find_redundant",
    ("cli", "graph_to_json"): "dependency.graph_to_json",
    ("cli", "graph_to_dot"): "dependency.graph_to_dot",
    ("cli", "impact"): "dependency.impact",
    ("cli", "load_reference"): "conformance.load_reference",
    ("cli", "diff"): "conformance.diff",
    ("cli", "check_vv_links"): "conformance.check_vv_links",
    ("cli", "vv_iterations"): "conformance.vv_iterations",
    ("cli", "check_milestone_retention"): "conformance.check_milestone_retention",
    ("bundle", "load_manifest"): "pyramid.load_manifest",
    ("bundle", "parse_model"): "ingest.parse_model",
    ("bundle", "build_pyramid"): "pyramid.build_pyramid",
    ("bundle", "link_levels"): "pyramid.link_levels",
    ("bundle", "extract_milestones"): "ingest.extract_milestones",
    ("bundle", "resolve_references"): "bundle.resolve_references",
    ("flowgraph", "timer_covered_events"): "flowgraph.timer_covered_events",
    ("flowgraph", "anchor_candidates"): "flowgraph.anchor_candidates",
    ("flowgraph", "segment_nodes"): "flowgraph.segment_nodes",
    ("flowgraph", "segment_duration"): "flowgraph.segment_duration",
    ("dependency", "canonical_key"): "naming.canonical_key",
    ("conformance", "canonical_key"): "naming.canonical_key",
}
ROOT = "cli.run"


def _count_parse(counters: Counter, args, kwargs, result) -> None:
    counters["ingest.nodes"] += len(result.nodes)


def _count_infer(counters: Counter, args, kwargs, result) -> None:
    n = len(args[0])
    counters["dependency.pairs_examined"] += n * (n - 1)
    counters["dependency.edges"] += len(result.edges)


def _count_alias(counters: Counter, args, kwargs, result) -> None:
    aliases = args[1] if len(args) > 1 else kwargs.get("aliases")
    counters["naming.alias_entries_scanned"] += len(aliases or ())


def _count_diff(counters: Counter, args, kwargs, result) -> None:
    model, reference = args[0], args[2]
    tasks = sum(1 for n in model.nodes if n.kind == "task")
    counters["conformance.lcs_cells"] += len(reference.steps) * tasks


def _count_render(counters: Counter, args, kwargs, result) -> None:
    counters["cli.report_bytes"] += len(result.encode("utf-8"))


def _count_load(counters: Counter, args, kwargs, result) -> None:
    counters["bundle.milestones_loaded"] += len(result.milestones)


COUNTERS = {
    "ingest.parse_model": _count_parse,
    "dependency.infer_edges": _count_infer,
    "naming.canonical_key": _count_alias,
    "conformance.diff": _count_diff,
    "cli.render_report": _count_render,
    "bundle.load_bundle": _count_load,
}


class Tracer:
    """Spans as [name, parent index, start ns, end ns, child ns], plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        count = COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, parent, 0, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = record[3] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - record[2]
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        import procpyramid.bundle
        import procpyramid.cli
        import procpyramid.conformance
        import procpyramid.dependency
        import procpyramid.flowgraph
        from procpyramid.model import ProcessModel

        modules = {
            "cli": procpyramid.cli,
            "bundle": procpyramid.bundle,
            "flowgraph": procpyramid.flowgraph,
            "dependency": procpyramid.dependency,
            "conformance": procpyramid.conformance,
        }
        saved = []
        for (mod, attr), name in SPANS.items():
            module = modules[mod]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        saved.append((ProcessModel, "node_map", ProcessModel.node_map))
        ProcessModel.node_map = self.count_calls("model.node_map.calls", ProcessModel.node_map)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (summed duration) and self_s per span name."""
        out: dict[str, dict[str, float]] = {}
        for name, _, start, end, child in self.spans:
            entry = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["busy_ns"] += end - start
            entry["self_ns"] += end - start - child
        return {
            name: {"calls": e["calls"], "busy_s": e["busy_ns"] / 1e9, "self_s": e["self_ns"] / 1e9}
            for name, e in out.items()
        }

    def covered_ns(self) -> int:
        """Time inside top-level spans; wall time minus this is uncovered."""
        return sum(end - start for _, parent, start, end, _ in self.spans if parent < 0)

    def self_ns(self) -> int:
        return sum(end - start - child for _, _, start, end, child in self.spans)

    def write(self, path: Path) -> None:
        """One JSON line per span: name, parent index, start, end, self (ns)."""
        with path.open("w", encoding="utf-8") as out:
            for i, (name, parent, start, end, child) in enumerate(self.spans):
                out.write(json.dumps([i, name, parent, start, end, end - start - child]) + "\n")
