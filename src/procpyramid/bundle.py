"""Load a whole bundle: manifest, model files, pyramid, milestones."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ManifestError, ModelParseError, PyramidError
from .findings import Finding, finding, merge_findings
from .ingest import extract_milestones, parse_model
from .model import ProcessModel
from .naming import normalize_name
from .pyramid import Manifest, Pyramid, build_pyramid, link_levels, load_manifest
from .timeline import Milestone


@dataclass
class Bundle:
    manifest: Manifest
    pyramid: Pyramid
    milestones: list[Milestone]
    findings: list[Finding] = field(default_factory=list)
    root_dir: Path = Path(".")

    def labels(self) -> dict[str, str]:
        """Reporting label per milestone: the display name when it is unique
        across the bundle and is no milestone's id, the full id otherwise, so
        no two milestones share a label."""
        counts = Counter(ms.name for ms in self.milestones)
        ids = {ms.milestone_id for ms in self.milestones}
        return {
            ms.milestone_id: ms.name if counts[ms.name] == 1 and ms.name not in ids else ms.milestone_id
            for ms in self.milestones
        }


def read_utf8(path: Path, error: type[PyramidError]) -> str:
    """The text of a UTF-8 JSON input file; any other bytes raise `error`."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path.name} is not UTF-8 text ({exc})") from None


def resolve_references(milestones: list[Milestone]) -> list[Milestone]:
    """Rewrite gq7 and alignsWith entries to milestone ids where possible.

    A reference may be a milestone id, a unique display name, or a unique
    event node id. Anything unresolvable stays verbatim so later checks can
    flag it.
    """
    ids = {ms.milestone_id for ms in milestones}
    by_name: dict[str, list[str]] = {}
    by_node: dict[str, list[str]] = {}
    for ms in milestones:
        by_name.setdefault(normalize_name(ms.name), []).append(ms.milestone_id)
        by_node.setdefault(ms.event_node_id, []).append(ms.milestone_id)

    def resolve(ref: str) -> str:
        if ref in ids:
            return ref
        named = by_name.get(normalize_name(ref), [])
        if len(named) == 1:
            return named[0]
        noded = by_node.get(ref, [])
        if len(noded) == 1:
            return noded[0]
        return ref

    for ms in milestones:
        # Empty sets are kept as they are: they are shared, not copied.
        if ms.gq.gq7_consumers:
            ms.gq.gq7_consumers = frozenset(resolve(r) for r in ms.gq.gq7_consumers)
        if ms.aligns_with:
            ms.aligns_with = frozenset(resolve(r) for r in ms.aligns_with)
    return milestones


def collect_milestones(models: dict[str, ProcessModel]) -> tuple[list[Milestone], list[Finding]]:
    """Extract and cross-link milestones from every model in the bundle."""
    milestones: list[Milestone] = []
    out: list[Finding] = []
    for model_id in sorted(models):
        extracted, fs = extract_milestones(models[model_id])
        milestones.extend(extracted)
        out.extend(fs)
    return resolve_references(milestones), out


def load_bundle(manifest_path: str | Path) -> Bundle:
    """Read the manifest, parse every listed model, and assemble the pyramid.

    Model files are read as bytes, so each one's XML encoding declaration is
    honoured. Individual model files that fail to parse degrade to findings;
    a missing or unreadable root model stays fatal.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(read_utf8(manifest_path, ManifestError))
    base = manifest_path.parent

    models: dict[str, ProcessModel] = {}
    load_findings: list[Finding] = []
    for entry in manifest.entries:
        path = base / entry.file
        try:
            models[entry.model_id] = parse_model(path.read_bytes(), entry.model_id)
        except OSError as exc:
            load_findings.append(
                finding("MODEL-PARSE-ERROR", entry.model_id, f"cannot read {entry.file!r}: {exc}")
            )
        except ModelParseError as exc:
            load_findings.append(finding("MODEL-PARSE-ERROR", entry.model_id, str(exc)))

    pyramid, build_findings = build_pyramid(manifest, models)
    pyramid, link_findings = link_levels(pyramid)
    milestones, extract_findings = collect_milestones(pyramid.models)

    return Bundle(
        manifest=manifest,
        pyramid=pyramid,
        milestones=milestones,
        findings=merge_findings(load_findings, build_findings, link_findings, extract_findings),
        root_dir=base,
    )
