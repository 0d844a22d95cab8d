"""Load a whole bundle: manifest, model files, pyramid, milestones."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ManifestError, ModelParseError, PyramidError
from .findings import Finding, merge_findings
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
    """Rewrite gq7 and alignsWith entries to milestone ids, in new records.

    A reference may be a milestone id, a unique display name, or a unique
    event node id. Anything unresolvable stays verbatim so later checks can
    flag it. The records given are left unchanged.
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

    def resolve_all(refs: frozenset[str]) -> frozenset[str]:
        # Empty sets are kept as they are: they are shared, not copied.
        return frozenset(map(resolve, refs)) if refs else refs

    resolved = []
    for ms in milestones:
        if ms.gq.gq7_consumers or ms.aligns_with:
            gq = replace(ms.gq, gq7_consumers=resolve_all(ms.gq.gq7_consumers))
            ms = replace(ms, gq=gq, aligns_with=resolve_all(ms.aligns_with))
        resolved.append(ms)
    return resolved


def load_bundle(manifest_path: str | Path) -> Bundle:
    """Read the manifest, parse every listed model, and assemble the pyramid.

    Model files are read as bytes, so each one's XML encoding declaration is
    honoured. Individual model files that fail to parse degrade to findings;
    a missing or unreadable root model stays fatal. Each model's parse
    findings join the bundle's `findings`.
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
                Finding("MODEL-PARSE-ERROR", entry.model_id, f"cannot read {entry.file!r}: {exc}")
            )
        except ModelParseError as exc:
            load_findings.append(Finding("MODEL-PARSE-ERROR", entry.model_id, str(exc)))

    pyramid, build_findings = build_pyramid(manifest, models)
    pyramid, link_findings = link_levels(pyramid)
    groups = [load_findings, build_findings, link_findings]
    extracted: list[Milestone] = []
    for model in pyramid.models.values():
        milestones, extract_findings = extract_milestones(model)
        extracted.extend(milestones)
        groups += [model.parse_findings, extract_findings]

    return Bundle(
        manifest=manifest,
        pyramid=pyramid,
        milestones=resolve_references(extracted),
        findings=merge_findings(*groups),
        root_dir=base,
    )
