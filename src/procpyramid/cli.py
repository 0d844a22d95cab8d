"""Command-line front end.

Every command loads the bundle named by the manifest into one analysis
session, which computes each shared stage (labels, offsets with their
timing findings, the dependency graph, the reference templates) at most
once. A command is a view over that session, and its report also carries
the findings of loading the bundle; `report` merges the views of
`validate`, `timeline`, `deps` and `conform`, so it too runs each stage
once. Exit codes: 0 clean, 1 at least one error finding (warnings too
under --strict), 2 usage or fatal input failure; any other exception
is reported as `fatal [FATAL]` with exit 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .bundle import Bundle, load_bundle, read_utf8
from .conformance import (
    ReferenceProcess,
    check_milestone_retention,
    check_vv_links,
    diff,
    load_reference,
    vv_iterations,
)
from .dependency import (
    DependencyGraph,
    _NameKeys,
    check_temporal,
    cross_check_declared,
    find_redundant,
    graph_to_dot,
    graph_to_json,
    impact,
    infer_edges,
)
from .durations import quoted, read_days, render_offset
from .errors import PyramidError, TemplateError, UnknownSeedError
from .findings import Finding, error_count, merge_findings, summarize
from .ingest import check_wellformed
from .pyramid import assign_coordinates, check_connectivity
from .timeline import (
    Milestone,
    OffsetTable,
    build_reference_timeline,
    check_alignment,
    check_gq,
    milestone_resolver,
    reconcile_declared,
    resolve_offsets,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_FATAL = 2


@dataclass(frozen=True)
class CommandSpec:
    name: str
    help: str
    flags: tuple[str, ...] = ()


COMMANDS = (
    CommandSpec("validate", "check structure, completeness, and timing consistency"),
    CommandSpec("timeline", "resolve SOP offsets and lay out the reference grid", ("--step",)),
    CommandSpec("deps", "infer and check the milestone dependency graph", ("--dot",)),
    CommandSpec("impact", "trace everything a change at one point can touch", ("--seed",)),
    CommandSpec("conform", "diff bound models against their reference processes"),
    CommandSpec("retention", "compare milestone sets of two bundle snapshots", ("--after",)),
    CommandSpec("export", "emit the dependency graph as DOT and JSON", ("--dot",)),
    CommandSpec("report", "run every analysis and merge the findings", ("--step", "--dot")),
)


@dataclass
class ReportBundle:
    """Everything one command run produced."""

    command: str
    findings: list[Finding]
    payload: dict = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)


def exit_status(findings: list[Finding], strict: bool = False) -> int:
    return EXIT_FINDINGS if error_count(findings, strict) else EXIT_OK


def _finding_obj(f: Finding) -> dict:
    return {"code": f.code, "severity": f.severity, "subject": f.subject, "message": f.message}


def _write_json(value: object, pad: str, out: list[str]) -> None:
    """Append the pieces of `json.dumps(value, indent=2, sort_keys=True)`,
    indented by `pad`, to `out`. An indent keeps `json.dumps` on its Python
    encoder, so containers are written here and the rest by the C encoder;
    one flat list, joined once, holds no nested copy of the text."""
    if not value or not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))
        return
    inner = pad + "  "
    if isinstance(value, dict):
        keys = sorted(value)
        heads = [encode_basestring_ascii(key) + ": " for key in keys]
        items, brackets = map(value.__getitem__, keys), "{}"
    else:
        heads, items, brackets = repeat(""), value, "[]"
    sep, comma = brackets[0] + "\n" + inner, ",\n" + inner
    for head, item in zip(heads, items):
        if type(item) is str:
            out.append(sep + head + encode_basestring_ascii(item))
        elif type(item) is int:
            out.append(sep + head + int.__repr__(item))
        else:
            out.append(sep + head)
            _write_json(item, inner, out)
        sep = comma
    out.append("\n" + pad + brackets[1])


def render_report(report: ReportBundle, fmt: str = "text") -> str:
    """Render a report deterministically: same inputs, same bytes."""
    if fmt == "json":
        doc = {
            "command": report.command,
            "findings": [_finding_obj(f) for f in report.findings],
            "summary": summarize(report.findings),
            "artifacts": report.artifacts,
        }
        doc.update(report.payload)
        out: list[str] = []
        _write_json(doc, "", out)
        out.append("\n")
        return "".join(out)

    lines = [f"procpyramid {report.command}"]
    for severity in ("error", "warning", "info"):
        group = [f for f in report.findings if f.severity == severity]
        lines.append(f"== {severity}s ({len(group)})")
        for f in group:
            lines.append(f"  {f.code}  {f.subject}")
            lines.append(f"      {f.message}")
    counts = summarize(report.findings)["bySeverity"]
    lines.append(
        f"summary: {counts['error']} errors, {counts['warning']} warnings, {counts['info']} info"
    )
    lines.extend(_render_payload_text(report.payload))
    for name, path in sorted(report.artifacts.items()):
        lines.append(f"wrote {name}: {path}")
    return "\n".join(lines) + "\n"


def _render_payload_text(payload: dict) -> list[str]:
    lines: list[str] = []
    if "timeline" in payload and payload["timeline"] is not None:
        section = payload["timeline"]
        offsets, renderings = section["offsets"], section["renderings"]
        if offsets:
            lines.append("")
            lines.append("milestone offsets:")
            width = max(len(label) for label in offsets)
            for label in sorted(offsets, key=lambda k: (offsets[k], k)):
                lines.append(f"  {label.ljust(width)}  {offsets[label]:>6}d  {renderings[label]}")
        grid = section.get("grid")
        if grid:
            lines.append(
                f"grid: {len(grid['boundaries']) - 1} slots of {grid['stepDays']}d "
                f"from {grid['boundaries'][0]}d to {grid['boundaries'][-1]}d"
            )
    if "impact" in payload:
        section = payload["impact"]
        lines.append("")
        lines.append(f"impact of {section['seed']}:")
        lines.append(f"  downstream: {', '.join(section['downstream']) or '(none)'}")
        lines.append(f"  upstream:   {', '.join(section['upstream']) or '(none)'}")
        lines.append(f"  levels crossed: {', '.join(str(l) for l in section['crossedLevels'])}")
    if "conformance" in payload:
        lines.append("")
        for entry in payload["conformance"]:
            ratios = ", ".join(
                f"{name} {entry['aspects'][name]['matchRatio']:.2f}" for name in sorted(entry["aspects"])
            )
            lines.append(f"{entry['model']} vs {entry['reference']}: {entry['verdict']} ({ratios})")
        for link in payload.get("vvLinks", ()):
            lines.append(
                f"vv iterations {link['right']}/{link['left']}: {link['iterations']}"
            )
    if "retention" in payload:
        section = payload["retention"]
        lines.append("")
        lines.append(
            f"retention: {section['before']} before, {section['after']} after, "
            f"{section['dropped']} dropped, {section['addedIntermediate']} added intermediate"
        )
    if "bundle" in payload:
        section = payload["bundle"]
        lines.append("")
        lines.append(
            f"bundle: {section['models']} models, {section['milestones']} milestones, "
            f"connected depth {section['maxConnectedDepth']}"
        )
    return lines


class _Session:
    """One loaded bundle and the stages computed from it, each at most once.

    The stages are memoized properties; the command views below read them,
    so `report`, which shows every view, still runs each stage once.
    """

    def __init__(self, bundle: Bundle) -> None:
        self.bundle = bundle

    @cached_property
    def labels(self) -> dict[str, str]:
        return self.bundle.labels()

    @cached_property
    def timing(self) -> tuple[OffsetTable, list[Finding]]:
        """The offset table and the findings of resolving and checking it."""
        bundle = self.bundle
        table, f1 = resolve_offsets(bundle.pyramid, bundle.milestones, bundle.manifest.sop_label)
        f2 = reconcile_declared(table, bundle.milestones)
        f3 = check_alignment(
            bundle.pyramid, table, bundle.milestones, bundle.manifest.alignment_tolerance
        )
        return table, f1 + f2 + f3

    @cached_property
    def name_keys(self) -> _NameKeys:
        """The run's one name table: every stage that compares names keys
        them through it, so each distinct name is keyed once per run."""
        return _NameKeys(self.bundle.manifest.aliases)

    @cached_property
    def graph(self) -> DependencyGraph:
        return infer_edges(self.bundle.milestones, self.name_keys)

    @cached_property
    def templates(self) -> list[ReferenceProcess]:
        root = self.bundle.root_dir
        paths = self.bundle.manifest.reference_templates
        return load_reference(*(read_utf8(root / rel, TemplateError) for rel in paths))

    # Command views: each takes the parsed arguments and returns the
    # command's own findings, as one plain list, and its payload. `_execute`
    # adds the load findings and then de-duplicates and sorts, once.

    def validate(self, args: argparse.Namespace) -> tuple[list[Finding], dict]:
        bundle = self.bundle
        findings = [f for model in bundle.pyramid.models.values() for f in check_wellformed(model)]
        connectivity, depth = check_connectivity(bundle.pyramid)
        findings += connectivity + self.timing[1]
        findings += [f for ms in bundle.milestones for f in check_gq(ms)]
        payload = {
            "bundle": {
                "models": len(bundle.pyramid.models),
                "milestones": len(bundle.milestones),
                "maxConnectedDepth": depth,
            }
        }
        return findings, payload

    def timeline(self, args: argparse.Namespace) -> tuple[list[Finding], dict]:
        table, timing = self.timing
        labels = self.labels
        section: dict = {
            "offsets": {labels[m]: d for m, d in table.offsets.items()},
            "renderings": {labels[m]: render_offset(d) for m, d in table.offsets.items()},
            "provenance": {labels[m]: p for m, p in table.provenance.items()},
            "grid": None,
        }
        if table.offsets:
            step = args.step or self.bundle.manifest.reference_step.days
            try:
                grid = build_reference_timeline(table, step)
            except ValueError as exc:  # the step is positive, so the grid is too wide
                return timing + [Finding("GRID-TOO-WIDE", "grid", str(exc))], {"timeline": section}
            section["grid"] = {
                "stepDays": grid.step,
                "boundaries": grid.boundaries,
                "slots": {labels[m]: slot for m, slot in sorted(grid.assignments.items())},
            }
        return timing, {"timeline": section}

    def export(self, args: argparse.Namespace) -> tuple[list[Finding], dict]:
        payload = graph_to_json(self.graph, self.timing[0], self.bundle.pyramid, self.labels)
        return [], {"dependencies": payload}

    def deps(self, args: argparse.Namespace) -> tuple[list[Finding], dict]:
        findings, payload = self.export(args)
        findings += cross_check_declared(self.graph)
        findings += check_temporal(self.graph, self.timing[0])
        findings += find_redundant(self.bundle.milestones, self.name_keys)
        return findings, payload

    def impact(self, args: argparse.Namespace) -> tuple[list[Finding], dict]:
        """What `--seed` names: a model id stands for that model's milestones,
        any other text for the milestone the reference rule names."""
        seed = args.seed
        if seed in self.bundle.pyramid.models:
            seeds = {n for n, model in self.graph.model_of.items() if model == seed}
        else:
            seed = milestone_resolver(self.bundle.milestones)(seed)
            seeds = {seed} if seed else set()
        if not seeds:
            raise UnknownSeedError(
                f"seed {quoted(args.seed)} names no milestone and no model with milestones"
            )
        result = impact(self.graph, self.bundle.pyramid, seeds)
        payload = {
            "impact": {
                "seed": seed,
                "downstream": result.downstream,
                "upstream": result.upstream,
                "crossedLevels": sorted(result.crossed_levels),
            }
        }
        return [], payload

    def conform(self, args: argparse.Namespace) -> tuple[list[Finding], dict]:
        bundle, templates = self.bundle, self.templates
        milestones_of: dict[str, list[Milestone]] = {}
        for ms in bundle.milestones:
            milestones_of.setdefault(ms.model_id, []).append(ms)
        extra: list[Finding] = []
        entries = []
        for ref in sorted(templates, key=lambda t: t.ref_id):
            for model_id, model in bundle.pyramid.models.items():
                if not ref.binds(model):
                    continue
                report = diff(model, milestones_of.get(model_id, []), ref, self.name_keys)
                entries.append(
                    {
                        "model": model_id,
                        "reference": ref.ref_id,
                        "verdict": report.verdict,
                        "aspects": {
                            name: {
                                "matched": aspect.matched,
                                "missing": aspect.missing,
                                "extra": aspect.extra,
                                "reordered": aspect.reordered,
                                "matchRatio": aspect.match_ratio,
                            }
                            for name, aspect in sorted(report.aspects.items())
                        },
                    }
                )
                subject = f"{model_id}/{ref.ref_id}"
                if report.verdict == "major-deviation":
                    extra.append(Finding("MAJOR-DEVIATION", subject, "half or more of one aspect is unmet"))
                elif report.verdict == "minor-deviation":
                    extra.append(Finding("MINOR-DEVIATION", subject, "some reference items are unmet"))
        links = vv_iterations(bundle.pyramid, self.graph, templates)
        vv = check_vv_links(bundle.pyramid, templates, links)
        payload = {
            "conformance": entries,
            "vvLinks": [
                {"right": s.right_model, "left": s.left_model, "iterations": s.iterations}
                for s in links
            ],
        }
        return extra + vv, payload

    def retention(self, args: argparse.Namespace) -> tuple[list[Finding], dict]:
        """The session's bundle is the earlier snapshot, `args.after` the later;
        the later one's load findings name it, as both can share model ids."""
        before, after = self.bundle, load_bundle(args.after)
        findings = check_milestone_retention(before.milestones, after.milestones)
        payload = {
            "retention": {
                "before": len(before.milestones),
                "after": len(after.milestones),
                "dropped": sum(1 for f in findings if f.code == "MILESTONE-DROPPED"),
                "addedIntermediate": sum(1 for f in findings if f.code == "ADDED-INTERMEDIATE"),
            }
        }
        named = [replace(f, message=f"after snapshot: {f.message}") for f in after.findings]
        return findings + named, payload

    def report(self, args: argparse.Namespace) -> tuple[list[Finding], dict]:
        views = [self.validate, self.timeline, self.deps]
        if self.bundle.manifest.reference_templates:
            views.append(self.conform)
        findings, payload = [], {}
        for view in views:
            view_findings, section = view(args)
            findings += view_findings
            payload.update(section)
        payload["coordinates"] = {
            model_id: {"depth": depth, "position": position, "complexity": complexity}
            for model_id, (depth, position, complexity) in sorted(
                assign_coordinates(self.bundle.pyramid).items()
            )
        }
        return findings, payload


def _execute(args: argparse.Namespace) -> ReportBundle:
    session = _Session(load_bundle(args.manifest))
    findings, payload = getattr(session, args.command)(args)
    findings = merge_findings(session.bundle.findings, findings)
    artifacts: dict[str, str] = {}
    if getattr(args, "dot", None):
        dot = graph_to_dot(session.graph, session.timing[0], session.labels)
        Path(args.dot).write_text(dot, encoding="utf-8")
        artifacts["dot"] = args.dot
    return ReportBundle(args.command, findings, payload, artifacts)


def _positive_days(text: str) -> int:
    try:
        if (days := read_days(text, quoted(text))) > 0:
            return days
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError("must be a positive number of days")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it takes
    milliseconds and leaves cyclic garbage, and parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="procpyramid",
        description="Analyze a multi-level process model bundle around its milestones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for spec in COMMANDS:
        p = sub.add_parser(spec.name, help=spec.help)
        p.add_argument("manifest", help="path to the bundle manifest (JSON)")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        p.add_argument("--out", metavar="PATH", help="write the report to a file instead of stdout")
        p.add_argument("--strict", action="store_true", help="treat warnings as errors for the exit code")
        if "--step" in spec.flags:
            p.add_argument("--step", type=_positive_days, metavar="DAYS", help="grid step in days")
        if "--dot" in spec.flags:
            p.add_argument("--dot", metavar="PATH", help="also write the dependency graph as DOT")
        if "--seed" in spec.flags:
            p.add_argument("--seed", required=True, metavar="ID", help="milestone or model to start from")
        if "--after" in spec.flags:
            p.add_argument("--after", required=True, metavar="MANIFEST", help="later snapshot (MANIFEST: earlier)")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, run one command, print its report, return the exit code.

    The cyclic garbage collector is paused during the command (loading,
    analysis, rendering and writing) and then restored to its prior state.
    A run allocates many long-lived objects and almost no reference cycles,
    so collector passes cost time and reclaim next to nothing; memory is
    still freed by reference counting.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_FATAL
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_command(args)
    finally:
        if gc_enabled:
            gc.enable()


def _run_command(args: argparse.Namespace) -> int:
    try:
        report = _execute(args)
        text = render_report(report, "json" if args.json else "text")
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except PyramidError as exc:
        print(f"fatal [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except OSError as exc:
        print(f"fatal [IO]: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except Exception as exc:
        # A defect: one line for the user, the traceback only for a debug
        # handler on the `procpyramid` logger. Imported here because the
        # logging module adds about 0.3 MB to every run's resident memory.
        import logging

        logging.getLogger(__name__).debug("unhandled exception", exc_info=True)
        print(f"fatal [FATAL]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FATAL
    return exit_status(report.findings, args.strict)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
