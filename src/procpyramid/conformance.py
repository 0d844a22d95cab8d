"""Compare executed process models against neutral reference processes."""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Iterable

from . import flowgraph
from .dependency import DECLARED_UNMATCHED, DependencyGraph
from .errors import TemplateError
from .findings import Finding, finding, sort_findings
from .model import ProcessModel
from .naming import canonical_key, compile_aliases, normalize_name
from .timeline import Milestone

if TYPE_CHECKING:
    from .pyramid import Pyramid

SIDES = ("left", "right", "none")


@dataclass
class ReferenceProcess:
    """A neutral template one side of the V: ordered steps plus role,
    method, and tool expectations, bound to models by id or name pattern."""

    ref_id: str
    name: str
    side: str = "none"
    counterpart: str | None = None
    steps: list[str] = field(default_factory=list)
    roles: frozenset[str] = frozenset()
    methods: frozenset[str] = frozenset()
    tools: frozenset[str] = frozenset()
    binding_model: str | None = None
    binding_pattern: str | None = None

    def binds(self, model: ProcessModel) -> bool:
        if self.binding_model is not None:
            return model.model_id == self.binding_model
        if self.binding_pattern is not None:
            pattern = normalize_name(self.binding_pattern)
            return fnmatchcase(normalize_name(model.name), pattern) or fnmatchcase(
                normalize_name(model.model_id), pattern
            )
        return False


@dataclass
class AspectDiff:
    aspect: str
    matched: list[str]
    missing: list[str]
    extra: list[str]
    reordered: list[tuple[str, str]]
    match_ratio: float


@dataclass
class DeviationReport:
    model_id: str
    ref_id: str
    aspects: dict[str, AspectDiff]
    verdict: str


def _template_error(path_hint: str, message: str) -> TemplateError:
    return TemplateError(f"reference template {path_hint}: {message}")


def load_reference(text: str) -> list[ReferenceProcess]:
    """Load one template file: a single template object or a list of them.

    Counterparts are resolved within the file; use validate_counterparts
    after loading several files to check across the whole collection.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TemplateError(f"reference template is not valid JSON ({exc})")
    items = raw if isinstance(raw, list) else [raw]
    templates: list[ReferenceProcess] = []
    for i, item in enumerate(items):
        hint = f"[{i}]"
        if not isinstance(item, dict):
            raise _template_error(hint, "must be an object")
        ref_id = item.get("id")
        if not isinstance(ref_id, str) or not ref_id:
            raise _template_error(hint, "missing id")
        hint = ref_id
        side = item.get("side", "none")
        if side not in SIDES:
            raise _template_error(hint, f"side must be one of {SIDES}, got {side!r}")
        steps = item.get("steps", [])
        if not isinstance(steps, list) or not all(isinstance(s, str) for s in steps):
            raise _template_error(hint, "steps must be a list of names")
        if not steps:
            raise _template_error(hint, "EMPTY-STEPS: a reference process needs at least one step")
        counterpart = item.get("counterpart")
        if side == "right" and not counterpart:
            raise _template_error(hint, "right-side template must name its left counterpart")
        binding = item.get("binding", {})
        if not isinstance(binding, dict):
            raise _template_error(hint, "binding must be an object")

        def str_set(key: str) -> frozenset[str]:
            values = item.get(key, [])
            if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                raise _template_error(hint, f"{key} must be a list of names")
            return frozenset(values)

        templates.append(
            ReferenceProcess(
                ref_id=ref_id,
                name=item.get("name", ref_id),
                side=side,
                counterpart=counterpart,
                steps=steps,
                roles=str_set("roles"),
                methods=str_set("methods"),
                tools=str_set("tools"),
                binding_model=binding.get("modelId"),
                binding_pattern=binding.get("namePattern"),
            )
        )
    ids = [t.ref_id for t in templates]
    dupes = sorted({x for x in ids if ids.count(x) > 1})
    if dupes:
        raise TemplateError(f"duplicate template ids: {', '.join(dupes)}")
    validate_counterparts(templates, partial=True)
    return templates


def validate_counterparts(templates: Iterable[ReferenceProcess], partial: bool = False) -> None:
    """Every named counterpart must exist and sit on the left side.

    With partial=True (single file of a larger collection) unknown ids are
    tolerated; the full-collection pass runs without it.
    """
    by_id = {t.ref_id: t for t in templates}
    for t in by_id.values():
        if t.counterpart is None:
            continue
        other = by_id.get(t.counterpart)
        if other is None:
            if not partial:
                raise TemplateError(
                    f"reference template {t.ref_id}: DANGLING-COUNTERPART {t.counterpart!r}"
                )
            continue
        if other.side != "left":
            raise TemplateError(
                f"reference template {t.ref_id}: counterpart {t.counterpart!r} is not left-side"
            )


def _lcs_matched(reference: list[str], actual: list[str]) -> list[tuple[int, int]]:
    """Index pairs of one longest common subsequence (deterministic backtrack)."""
    n, m = len(reference), len(actual)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if reference[i] == actual[j]:
                dp[i][j] = dp[i + 1][j + 1] + 1
            else:
                dp[i][j] = max(dp[i + 1][j], dp[i][j + 1])
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        if reference[i] == actual[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def _step_diff(reference: list[str], actual: list[str]) -> AspectDiff:
    pairs = _lcs_matched(reference, actual)
    matched_ref = {i for i, _ in pairs}
    matched_act = {j for _, j in pairs}
    matched = [reference[i] for i, _ in pairs]
    missing = [s for i, s in enumerate(reference) if i not in matched_ref]
    extra = [s for j, s in enumerate(actual) if j not in matched_act]

    # Pairs present in both sequences but in opposite relative order,
    # judged on first occurrences.
    ref_pos = {}
    for i, s in enumerate(reference):
        ref_pos.setdefault(s, i)
    act_pos = {}
    for j, s in enumerate(actual):
        act_pos.setdefault(s, j)
    common = sorted(set(ref_pos) & set(act_pos), key=lambda s: ref_pos[s])
    reordered = [
        (a, b)
        for idx, a in enumerate(common)
        for b in common[idx + 1 :]
        if act_pos[a] > act_pos[b]
    ]
    ratio = len(matched) / len(reference) if reference else 1.0
    return AspectDiff(
        aspect="steps",
        matched=matched,
        missing=missing,
        extra=extra,
        reordered=reordered,
        match_ratio=ratio,
    )


def _set_diff(aspect: str, reference: frozenset[str], actual: frozenset[str]) -> AspectDiff:
    matched = sorted(reference & actual)
    missing = sorted(reference - actual)
    extra = sorted(actual - reference)
    ratio = len(matched) / len(reference) if reference else 1.0
    return AspectDiff(
        aspect=aspect, matched=matched, missing=missing, extra=extra, reordered=[], match_ratio=ratio
    )


def _model_steps(model: ProcessModel, table: dict[str, str]) -> list[str]:
    """Task names in flow order: topological where possible, document order
    to break ties and on cycles."""
    doc_rank = {n.node_id: i for i, n in enumerate(model.nodes)}
    adj = flowgraph.successors(model)
    indeg = {n.node_id: 0 for n in model.nodes}
    for src, dst in model.flows:
        indeg[dst] += 1
    heap = [(doc_rank[n], n) for n, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order: list[str] = []
    while heap:
        _, cur = heapq.heappop(heap)
        order.append(cur)
        for nxt in adj[cur]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(heap, (doc_rank[nxt], nxt))
    if len(order) != len(model.nodes):
        order = [n.node_id for n in model.nodes]
    node_map = model.node_map()
    return [
        canonical_key(node_map[nid].name or nid, table)
        for nid in order
        if node_map[nid].kind == "task"
    ]


def _model_aspects(
    model: ProcessModel, milestones: Iterable[Milestone], table: dict[str, str]
) -> tuple[list[str], frozenset[str], frozenset[str], frozenset[str]]:
    roles = {
        canonical_key(lane.role_name, table) for lane in model.lanes if lane.role_name.strip()
    }
    tools: set[str] = set()
    for ms in milestones:
        if ms.model_id == model.model_id:
            tools.update(canonical_key(t, table) for t in ms.gq.gq3_tools)
    methods: set[str] = set()
    sources = [model.extensions] + [n.extensions for n in model.nodes]
    for ext in sources:
        for raw in ext.get("methods", "").split(","):
            if raw.strip():
                methods.add(canonical_key(raw, table))
        for raw in ext.get("tools", "").split(","):
            if raw.strip():
                tools.add(canonical_key(raw, table))
    return _model_steps(model, table), frozenset(roles), frozenset(methods), frozenset(tools)


def diff(
    model: ProcessModel,
    milestones: Iterable[Milestone],
    reference: ReferenceProcess,
    aliases: dict[str, str] | None = None,
    major_threshold: float = 0.5,
) -> DeviationReport:
    """Diff one model against one reference process over four aspects.

    Steps are aligned by longest common subsequence over normalized names;
    roles, methods, and tools compare as sets. Fully matched everywhere is
    conforming; any aspect below the threshold is a major deviation.
    """
    table = compile_aliases(aliases)
    steps, roles, methods, tools = _model_aspects(model, milestones, table)
    ref_steps = [canonical_key(s, table) for s in reference.steps]
    aspects = {
        "steps": _step_diff(ref_steps, steps),
        "roles": _set_diff("roles", frozenset(canonical_key(r, table) for r in reference.roles), roles),
        "methods": _set_diff(
            "methods", frozenset(canonical_key(x, table) for x in reference.methods), methods
        ),
        "tools": _set_diff("tools", frozenset(canonical_key(t, table) for t in reference.tools), tools),
    }
    ratios = [a.match_ratio for a in aspects.values()]
    if all(r == 1.0 for r in ratios):
        verdict = "conforming"
    elif any(r < major_threshold for r in ratios):
        verdict = "major-deviation"
    else:
        verdict = "minor-deviation"
    return DeviationReport(
        model_id=model.model_id, ref_id=reference.ref_id, aspects=aspects, verdict=verdict
    )


def check_vv_links(
    pyramid: Pyramid, graph: DependencyGraph, references: Iterable[ReferenceProcess]
) -> list[Finding]:
    """Every right-side (verification) model must trace back to data produced
    by a model bound to its left-side counterpart."""
    references = list(references)
    by_id = {r.ref_id: r for r in references}
    model_map = pyramid.model_map()

    def bound_models(ref: ReferenceProcess) -> list[str]:
        return sorted(mid for mid, m in model_map.items() if ref.binds(m))

    # reverse adjacency over edges that carry real data
    producers: dict[str, list[str]] = {n: [] for n in graph.nodes}
    for e in graph.edges:
        if e.status != DECLARED_UNMATCHED:
            producers[e.consumer].append(e.producer)

    def upstream_of(model_id: str) -> set[str]:
        seeds = [n for n in graph.nodes if graph.model_id(n) == model_id]
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            cur = stack.pop()
            for p in producers.get(cur, ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    out: list[Finding] = []
    for ref in references:
        if ref.side != "right":
            continue
        counterpart = by_id.get(ref.counterpart or "")
        if counterpart is None:
            continue
        right_models = bound_models(ref)
        left_models = bound_models(counterpart)
        if not right_models:
            out.append(finding("UNBOUND-REFERENCE", ref.ref_id, "binds no model in the bundle"))
            continue
        if not left_models:
            out.append(
                finding("UNBOUND-REFERENCE", counterpart.ref_id, "binds no model in the bundle")
            )
            continue
        for rm in right_models:
            reach = upstream_of(rm)
            for lm in left_models:
                if not any(graph.model_id(n) == lm for n in reach):
                    out.append(
                        finding(
                            "VV-UNLINKED",
                            f"{rm}/{lm}",
                            f"verification model {rm!r} consumes nothing produced by {lm!r}",
                        )
                    )
    return sort_findings(out)


@dataclass(frozen=True)
class VvLinkStat:
    """How often a verification model picks up output of its design model."""

    right_model: str
    left_model: str
    iterations: int


def vv_iterations(
    pyramid: Pyramid, graph: DependencyGraph, references: Iterable[ReferenceProcess]
) -> list[VvLinkStat]:
    """Count linked milestone pairs for every right/left model pairing.

    Each (producing milestone of the left model, downstream milestone of the
    right model) pair counts as one iteration. Reported as a metric only; no
    threshold is applied.
    """
    references = list(references)
    by_id = {r.ref_id: r for r in references}
    model_map = pyramid.model_map()

    producers: dict[str, list[str]] = {n: [] for n in graph.nodes}
    for e in graph.edges:
        if e.status != DECLARED_UNMATCHED:
            producers[e.consumer].append(e.producer)

    def upstream_of_node(node: str) -> set[str]:
        seen = {node}
        stack = [node]
        while stack:
            cur = stack.pop()
            for p in producers.get(cur, ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        seen.discard(node)
        return seen

    out: list[VvLinkStat] = []
    for ref in sorted(references, key=lambda r: r.ref_id):
        if ref.side != "right":
            continue
        counterpart = by_id.get(ref.counterpart or "")
        if counterpart is None:
            continue
        right_models = sorted(mid for mid, m in model_map.items() if ref.binds(m))
        left_models = sorted(mid for mid, m in model_map.items() if counterpart.binds(m))
        for rm in right_models:
            reach = {
                node: upstream_of_node(node)
                for node in graph.nodes
                if graph.model_id(node) == rm
            }
            for lm in left_models:
                count = sum(
                    1 for up in reach.values() for n in up if graph.model_id(n) == lm
                )
                out.append(VvLinkStat(rm, lm, count))
    return out


def check_milestone_retention(
    before: Iterable[Milestone], after: Iterable[Milestone]
) -> list[Finding]:
    """Milestones may be added between snapshots but never silently dropped.

    Identity holds on milestone id or, failing that, on normalized name, so
    a re-ids survive as long as the name does.
    """
    before = list(before)
    after = list(after)
    after_ids = {ms.milestone_id for ms in after}
    after_names = {normalize_name(ms.name) for ms in after}
    before_ids = {ms.milestone_id for ms in before}
    before_names = {normalize_name(ms.name) for ms in before}

    out: list[Finding] = []
    for ms in sorted(before, key=lambda m: m.milestone_id):
        if ms.milestone_id not in after_ids and normalize_name(ms.name) not in after_names:
            out.append(
                finding(
                    "MILESTONE-DROPPED",
                    ms.milestone_id,
                    f"milestone {ms.name!r} is gone from the later snapshot",
                )
            )
    for ms in sorted(after, key=lambda m: m.milestone_id):
        new = ms.milestone_id not in before_ids and normalize_name(ms.name) not in before_names
        if new and ms.kind == "intermediate":
            out.append(
                finding(
                    "ADDED-INTERMEDIATE",
                    ms.milestone_id,
                    f"intermediate milestone {ms.name!r} added since the earlier snapshot",
                )
            )
    return sort_findings(out)
