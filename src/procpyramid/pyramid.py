"""The process pyramid: a leveled forest of models joined by call activities."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from .durations import Duration
from .errors import ManifestError, is_int, is_name, is_names, is_text, read_json
from .findings import Finding, sort_findings
from .graph import depth_first, reachable
from .model import ProcessModel


@dataclass
class LevelEntry:
    model_id: str
    file: str
    level: int


@dataclass
class Manifest:
    """Single source of truth for levels, files, and bundle-wide settings."""

    entries: list[LevelEntry]
    root_model: str
    sop_label: str = "SOP"
    reference_step: Duration = Duration(30)
    alignment_tolerance: int = 0
    aliases: dict[str, str] = field(default_factory=dict)
    reference_templates: list[str] = field(default_factory=list)

    def entry_map(self) -> dict[str, LevelEntry]:
        return {e.model_id: e for e in self.entries}


@dataclass
class Pyramid:
    """Models placed at their levels, and the call links that join them.

    `build_pyramid` fills `models` (in id order) and `level_of`; `children`
    holds every placed model's linked child ids, in link order: empty
    lists until `link_levels` returns a copy with them filled.
    """

    root_model: str
    models: dict[str, ProcessModel] = field(default_factory=dict)
    level_of: dict[str, int] = field(default_factory=dict)
    children: dict[str, list[str]] = field(default_factory=dict)


def _field_error(name: str, detail: str, code: str = "BAD-FIELD") -> ManifestError:
    return ManifestError(f"manifest field {name!r}: {detail}", code=code)


def _read(
    obj: dict, name: str, test: Callable, detail: str, default: Any = None, code: str = "BAD-FIELD"
) -> Any:
    """The value at the last part of `name` (`default` when absent) if it passes `test`."""
    value = obj.get(name.rpartition(".")[2], default)
    if not test(value):
        raise _field_error(name, detail, code)
    return value


def load_manifest(text: str) -> Manifest:
    """Parse and validate a bundle manifest from JSON text."""
    raw = read_json(text, ManifestError, "manifest")
    if not isinstance(raw, dict):
        raise ManifestError("manifest must be a JSON object")

    root = _read(raw, "root", is_name, "required and must name a model", code="MISSING-ROOT")
    models = _read(raw, "models", lambda v: isinstance(v, list) and v, "required non-empty list")
    entries: list[LevelEntry] = []
    # parent hints are checked below and then dropped: the call activities
    # alone link the levels
    parent_of: dict[str, str] = {}
    for i, item in enumerate(models):
        at = f"models[{i}]"
        if not isinstance(item, dict):
            raise _field_error(at, "must be an object")
        model_id = _read(item, f"{at}.id", is_name, "required string")
        # the OS refuses a path that holds a NUL character
        file_ = _read(item, f"{at}.file", lambda v: is_text(v) and "\0" not in v, "required string")
        level = _read(item, f"{at}.level", is_int, "required non-negative integer")
        hint = item.get("parent")
        if hint is not None:
            if not isinstance(hint, dict) or not all(isinstance(hint.get(k), str) for k in ("model", "node")):
                raise _field_error(f"{at}.parent", "must hold model and node ids")
            parent_of[model_id] = hint["model"]
        # documents are checked for shape and then dropped: no stage reads them
        documents = _read(item, f"{at}.documents", lambda v: isinstance(v, list), "must be a list", [])
        for j, doc in enumerate(documents):
            if not isinstance(doc, dict) or not isinstance(doc.get("path"), str):
                raise _field_error(f"{at}.documents[{j}]", "must hold a path")
        entries.append(LevelEntry(model_id=model_id, file=file_, level=level))

    dupes = sorted(i for i, n in Counter(e.model_id for e in entries).items() if n > 1)
    if dupes:
        raise _field_error("models", f"duplicate model ids: {', '.join(dupes)}", "DUPLICATE-MODEL")

    levels = sorted({e.level for e in entries})
    if levels != list(range(len(levels))):
        raise _field_error(
            "models",
            f"levels must be contiguous from 0, got {levels}",
            "NON-CONTIGUOUS-LEVELS",
        )
    top = [e for e in entries if e.level == 0]
    if len(top) != 1 or top[0].model_id != root:
        raise _field_error(
            "root", "exactly one model must sit at level 0 and it must be the root", "MISSING-ROOT"
        )

    entry_map = {e.model_id: e for e in entries}
    for model_id, parent_id in parent_of.items():
        level = entry_map[model_id].level
        if level == 0:
            raise _field_error(f"models[{model_id}].parent", "the root has no parent")
        parent = entry_map.get(parent_id)
        if parent is None:
            raise _field_error(f"models[{model_id}].parent", f"unknown model {parent_id!r}", "BAD-PARENT")
        if parent.level != level - 1:
            raise _field_error(
                f"models[{model_id}].parent",
                f"parent must sit one level up, found level {parent.level}",
                "BAD-PARENT",
            )

    step = _read(raw, "referenceStepDays", lambda v: is_int(v, 1), "must be a positive integer", 30)
    tolerance = _read(raw, "alignmentToleranceDays", is_int, "must be a non-negative integer", 0)
    aliases = _read(
        raw, "aliases", lambda v: isinstance(v, dict) and is_names([*v, *v.values()]),
        "must map names to names", {},
    )
    templates = _read(
        raw, "referenceTemplates", lambda v: is_names(v) and not any("\0" in t for t in v),
        "must be a list of paths", [],
    )
    sop_label = _read(raw, "sopLabel", is_name, "must be a non-empty string", "SOP")

    return Manifest(
        entries=entries,
        root_model=root,
        sop_label=sop_label,
        reference_step=Duration(step),
        alignment_tolerance=tolerance,
        aliases=aliases,
        reference_templates=templates,
    )


def build_pyramid(
    manifest: Manifest, models: Mapping[str, ProcessModel]
) -> tuple[Pyramid, list[Finding]]:
    """Place parsed models at their declared levels.

    Parsed models missing from the manifest are flagged as orphans; manifest
    entries without a parsed model are flagged missing. A missing root is
    fatal because nothing can hang together without it. `models` maps each
    model id to its parsed model.
    """
    out: list[Finding] = []
    entry_map = manifest.entry_map()
    for model_id in sorted(models):
        if model_id not in entry_map:
            out.append(Finding("ORPHAN-MODEL", model_id, "parsed model is not listed in the manifest"))
    if manifest.root_model not in models:
        raise ManifestError(f"root model {manifest.root_model!r} is missing from the bundle")

    level_of: dict[str, int] = {}
    for entry in manifest.entries:
        model = models.get(entry.model_id)
        if model is None:
            out.append(
                Finding(
                    "MISSING-MODEL",
                    entry.model_id,
                    f"no parsed model for manifest entry at level {entry.level}",
                )
            )
            continue
        level_of[entry.model_id] = entry.level

    placed = sorted(level_of)
    pyramid = Pyramid(
        root_model=manifest.root_model,
        models={m: models[m] for m in placed},
        level_of={m: level_of[m] for m in placed},
        children={m: [] for m in placed},
    )
    return pyramid, sort_findings(out)


def link_levels(pyramid: Pyramid) -> tuple[Pyramid, list[Finding]]:
    """A copy of `pyramid` whose `children` are its call activities resolved
    into vertical parent-child links; the argument is left unchanged.

    A valid link spans exactly one level downward. Children reached by more
    than one parent are reported for information only.
    """
    out: list[Finding] = []
    models, level_of = pyramid.models, pyramid.level_of
    children: dict[str, list[str]] = {model_id: [] for model_id in models}
    parents_of: dict[str, set[str]] = {}

    for model_id, model in models.items():
        for call_node in sorted(model.call_targets):
            target = model.call_targets[call_node]
            subject = f"{model_id}:{call_node}"
            if not target or target not in models:
                out.append(
                    Finding("UNRESOLVED-CALL", subject, f"call activity targets unknown model {target!r}")
                )
                continue
            if level_of[target] != level_of[model_id] + 1:
                out.append(
                    Finding(
                        "LEVEL-SKIP",
                        subject,
                        f"call to {target!r} spans level {level_of[model_id]} to "
                        f"{level_of[target]}, expected one level down",
                    )
                )
                continue
            children[model_id].append(target)
            parents_of.setdefault(target, set()).add(model_id)

    for child in sorted(parents_of):
        if len(parents_of[child]) > 1:
            out.append(
                Finding(
                    "MULTI-PARENT",
                    child,
                    "called from several parents: " + ", ".join(sorted(parents_of[child])),
                )
            )
    for model_id in models:
        if level_of[model_id] > 0 and model_id not in parents_of:
            out.append(Finding("UNLINKED-CHILD", model_id, "no parent call activity reaches this model"))

    return replace(pyramid, children=children), sort_findings(out)


def check_connectivity(pyramid: Pyramid) -> tuple[list[Finding], int]:
    """Verify every model hangs off the root through vertical links.

    Returns the findings and the maximum connected depth (deepest level
    reachable from the root).
    """
    level_of = pyramid.level_of
    roots = [pyramid.root_model] if pyramid.root_model in level_of else []
    seen = reachable(pyramid.children, roots)
    out = [
        Finding("DISCONNECTED", model_id, f"model at level {level_of[model_id]} is not reachable from the root")
        for model_id in sorted(level_of)
        if model_id not in seen
    ]
    depth = max((level_of[m] for m in seen), default=0)
    return sort_findings(out), depth


def assign_coordinates(pyramid: Pyramid) -> dict[str, tuple[int, int, int]]:
    """Give every model a (depth, position, complexity) coordinate.

    Depth is the declared level; position numbers a depth-first walk of the
    vertical links from the root (ties by model id), with unreachable models
    appended in (level, id) order; complexity counts flow nodes.
    """
    models, level_of, children = pyramid.models, pyramid.level_of, pyramid.children

    roots = [pyramid.root_model] if pyramid.root_model in models else []
    tree = {model_id: sorted(set(kids)) for model_id, kids in children.items()}
    order = [model_id for model_id, entering in depth_first(tree, roots) if entering]
    seen = set(order)
    order += [m for m in sorted(models, key=lambda m: (level_of[m], m)) if m not in seen]

    return {
        model_id: (level_of[model_id], position, len(models[model_id].nodes))
        for position, model_id in enumerate(order)
    }
