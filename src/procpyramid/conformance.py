"""Compare executed process models against neutral reference processes."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from .dependency import DECLARED_UNMATCHED, DependencyGraph, _NameKeys
from .errors import TemplateError, is_name, is_names, read_json
from .findings import Finding, sort_findings
from .graph import adjacency, reachable, topological_order
from .model import ProcessModel
# canonical_key stays bound here: perfbench/tracing.py wraps this attribute
from .naming import canonical_key, normalize_name  # noqa: F401
from .timeline import Milestone, split_list, unique_names

if TYPE_CHECKING:
    from .pyramid import Pyramid

SIDES = ("left", "right", "none")
# an aspect whose match ratio falls below this is a major deviation
MAJOR_THRESHOLD = 0.5


@dataclass
class ReferenceProcess:
    """A neutral template one side of the V: ordered steps plus role,
    method, and tool expectations, bound to models by id or name pattern."""

    ref_id: str
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
    matched: list[str]
    missing: list[str]
    extra: list[str]
    reordered: list[tuple[str, str]]
    match_ratio: float


@dataclass
class DeviationReport:
    aspects: dict[str, AspectDiff]
    verdict: str


def _template_error(path_hint: str, message: str) -> TemplateError:
    return TemplateError(f"reference template {path_hint}: {message}")


def load_reference(*texts: str) -> list[ReferenceProcess]:
    """Load the template files of one run as one collection.

    Each text is a single template object or a list of them, checked item
    by item in file order. Across the collection, ids must be unique and
    every counterpart must name a left-side template, in any of the files.
    """
    templates: list[ReferenceProcess] = []
    for text in texts:
        raw = read_json(text, TemplateError, "reference template")
        for i, item in enumerate(raw if isinstance(raw, list) else [raw]):
            templates.append(_load_item(item, f"[{i}]"))
    dupes = sorted(x for x, n in Counter(t.ref_id for t in templates).items() if n > 1)
    if dupes:
        raise TemplateError(f"duplicate template ids: {', '.join(dupes)}")
    by_id = {t.ref_id: t for t in templates}
    for t in templates:
        if t.counterpart is None:
            continue
        other = by_id.get(t.counterpart)
        if other is None:
            raise _template_error(t.ref_id, f"DANGLING-COUNTERPART {t.counterpart!r}")
        if other.side != "left":
            raise _template_error(t.ref_id, f"counterpart {t.counterpart!r} is not left-side")
    return templates


def _load_item(item: object, hint: str) -> ReferenceProcess:
    """Check one template object; `hint` names it in errors until its id is read."""
    if not isinstance(item, dict):
        raise _template_error(hint, "must be an object")

    def read(key: str, test: Callable, detail: str, default: Any = None) -> Any:
        value = item.get(key, default)
        if not test(value):
            raise _template_error(hint, detail)
        return value

    ref_id = hint = read("id", is_name, "missing id")
    side = item.get("side", "none")
    if side not in SIDES:
        raise _template_error(hint, f"side must be one of {SIDES}, got {side!r}")
    # a blank name is a requirement no model meets: models drop their blank names
    steps = read("steps", is_names, "steps must be a list of names", [])
    if not steps:
        raise _template_error(hint, "EMPTY-STEPS: a reference process needs at least one step")
    counterpart = read(
        "counterpart", lambda v: v is None or isinstance(v, str), "counterpart must be a template id"
    )
    if counterpart is not None and side != "right":
        raise _template_error(hint, "counterpart is only for right-side templates")
    if side == "right" and not counterpart:
        raise _template_error(hint, "right-side template must name its left counterpart")
    binding = read("binding", lambda v: isinstance(v, dict), "binding must be an object", {})
    named = {key: binding[key] for key in ("modelId", "namePattern") if binding.get(key) is not None}
    for key, value in named.items():
        if not isinstance(value, str):
            raise _template_error(hint, f"binding.{key} must be a string")
    if len(named) > 1 or not all(map(is_name, named.values())):
        raise _template_error(hint, "binding must name one non-blank modelId or namePattern")
    roles, methods, tools = (
        frozenset(read(key, is_names, f"{key} must be a list of names", []))
        for key in ("roles", "methods", "tools")
    )
    return ReferenceProcess(
        ref_id=ref_id,
        side=side,
        counterpart=counterpart,
        steps=steps,
        roles=roles,
        methods=methods,
        tools=tools,
        binding_model=binding.get("modelId"),
        binding_pattern=binding.get("namePattern"),
    )


def _lcs_matched(reference: list[str], actual: list[str]) -> list[tuple[int, int]]:
    """Index pairs of one longest common subsequence (deterministic backtrack).

    Bit-parallel LCS (Allison & Dix 1986, Hyyrö 2004) over both sequences
    reversed: bit k of a row stands for reversed actual step k, and each
    reversed reference step turns one row into the next. The LCS of
    reference[i:] and actual[j:] is then the number of zero bits below
    bit m - j in row n - i, so the forward walk reads the same table cells
    as a full n x m table and picks the same pairs.
    """
    n, m = len(reference), len(actual)
    masks: dict[str, int] = {}
    for k, step in enumerate(reversed(actual)):
        masks[step] = masks.get(step, 0) | 1 << k
    full = v = (1 << m) - 1
    rows = [v]
    for step in reversed(reference):
        u = v & masks.get(step, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)

    def lcs(i: int, j: int) -> int:
        low = m - j
        return low - (rows[n - i] & ((1 << low) - 1)).bit_count()

    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        if reference[i] == actual[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif lcs(i + 1, j) >= lcs(i, j + 1):
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
        matched=matched,
        missing=missing,
        extra=extra,
        reordered=reordered,
        match_ratio=ratio,
    )


def _set_diff(reference: frozenset[str], actual: frozenset[str]) -> AspectDiff:
    matched = sorted(reference & actual)
    missing = sorted(reference - actual)
    extra = sorted(actual - reference)
    ratio = len(matched) / len(reference) if reference else 1.0
    return AspectDiff(
        matched=matched, missing=missing, extra=extra, reordered=[], match_ratio=ratio
    )


def _model_steps(model: ProcessModel, keys: _NameKeys) -> list[str]:
    """Task display names in flow order: topological where possible,
    document order to break ties and on cycles. Nodes are ordered by
    document rank; a repeated node id stands for its last node."""
    nodes = model.nodes
    rank = {n.node_id: i for i, n in enumerate(nodes)}
    succ: dict[int, list[int]] = {i: [] for i in rank.values()}
    for src, dst in model.flows:
        succ[rank[src]].append(rank[dst])
    order = topological_order(succ) or [rank[n.node_id] for n in nodes]
    return [keys[nodes[i].display_name] for i in order if nodes[i].kind == "task"]


def _model_aspects(
    model: ProcessModel, milestones: Iterable[Milestone], keys: _NameKeys
) -> tuple[list[str], frozenset[str], frozenset[str], frozenset[str]]:
    roles = {keys[lane.role_name] for lane in model.lanes if lane.role_name.strip()}
    tools: set[str] = set()
    for ms in milestones:
        if ms.model_id == model.model_id:
            tools.update(keys[t] for t in ms.gq.gq3_tools)
    methods: set[str] = set()
    for ext in [model.extensions, *(n.extensions for n in model.nodes if n.extensions)]:
        methods.update(keys[name] for name in split_list(ext.get("methods", "")))
        tools.update(keys[name] for name in split_list(ext.get("tools", "")))
    return _model_steps(model, keys), frozenset(roles), frozenset(methods), frozenset(tools)


def diff(
    model: ProcessModel,
    milestones: Iterable[Milestone],
    reference: ReferenceProcess,
    aliases: dict[str, str] | _NameKeys | None = None,
) -> DeviationReport:
    """Diff one model against one reference process over four aspects.

    Steps are aligned by longest common subsequence over normalized names;
    roles, methods, and tools compare as sets. Fully matched everywhere is
    conforming; any aspect below `MAJOR_THRESHOLD` is a major deviation.
    Tools come from the model and from those of `milestones` that belong to
    it. `aliases` may be a shared table, as in `dependency.infer_edges`.
    """
    keys = _NameKeys.of(aliases)
    steps, roles, methods, tools = _model_aspects(model, milestones, keys)
    aspects = {
        "steps": _step_diff([keys[s] for s in reference.steps], steps),
        "roles": _set_diff(frozenset(keys[r] for r in reference.roles), roles),
        "methods": _set_diff(frozenset(keys[x] for x in reference.methods), methods),
        "tools": _set_diff(frozenset(keys[t] for t in reference.tools), tools),
    }
    ratios = [a.match_ratio for a in aspects.values()]
    if all(r == 1.0 for r in ratios):
        verdict = "conforming"
    elif any(r < MAJOR_THRESHOLD for r in ratios):
        verdict = "major-deviation"
    else:
        verdict = "minor-deviation"
    return DeviationReport(aspects=aspects, verdict=verdict)


def _vv_pairs(
    pyramid: Pyramid, references: Iterable[ReferenceProcess]
) -> Iterator[tuple[ReferenceProcess, ReferenceProcess, list[str], list[str]]]:
    """(right-side template, its counterpart, models bound to each) for every
    right-side template whose counterpart is known, by template id."""
    references = sorted(references, key=lambda r: r.ref_id)
    by_id = {r.ref_id: r for r in references}

    def bound_models(ref: ReferenceProcess) -> list[str]:
        return sorted(mid for mid, m in pyramid.models.items() if ref.binds(m))

    for ref in references:
        counterpart = by_id.get(ref.counterpart or "")
        if ref.side == "right" and counterpart is not None:
            yield ref, counterpart, bound_models(ref), bound_models(counterpart)


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
    right model) pair counts as one iteration, over the edges that carry
    real data. A milestone is never its own iteration, so a model bound to
    both sides links to itself only through data flowing between its own
    milestones. One row per distinct pairing, in first-seen order, however
    many template pairs bind it; each right model is walked once.
    `check_vv_links` flags the pairings counted at zero.
    """
    pairs = ((e.producer, e.consumer) for e in graph.edges if e.status != DECLARED_UNMATCHED)
    producers = adjacency(graph.nodes, pairs)[1]
    model_of = graph.model_of
    by_model: dict[str | None, list[str]] = {}
    for node in graph.nodes:
        by_model.setdefault(model_of.get(node), []).append(node)
    # right model -> the models of the milestones upstream of its own, counted
    upstream_of: dict[str, Counter] = {}
    rows: dict[tuple[str, str], VvLinkStat] = {}
    for _, _, right_models, left_models in _vv_pairs(pyramid, references):
        for rm in right_models:
            upstream = upstream_of.get(rm)
            if upstream is None:
                upstream = upstream_of[rm] = Counter(
                    model_of.get(n)
                    for node in by_model.get(rm, ())
                    for n in reachable(producers, [node])
                    if n != node
                )
            for lm in left_models:
                if (rm, lm) not in rows:
                    rows[rm, lm] = VvLinkStat(rm, lm, upstream[lm])
    return list(rows.values())


def check_vv_links(
    pyramid: Pyramid, references: Iterable[ReferenceProcess], links: Iterable[VvLinkStat]
) -> list[Finding]:
    """Every right-side (verification) model must trace back to data produced
    by a model bound to its left-side counterpart: `links` are the counts of
    `vv_iterations`, and a pairing with none is unlinked."""
    out: list[Finding] = []
    for ref, counterpart, right_models, left_models in _vv_pairs(pyramid, references):
        if not right_models:
            out.append(Finding("UNBOUND-REFERENCE", ref.ref_id, "binds no model in the bundle"))
        elif not left_models:
            out.append(
                Finding("UNBOUND-REFERENCE", counterpart.ref_id, "binds no model in the bundle")
            )
    for link in links:
        if link.iterations == 0:
            rm, lm = link.right_model, link.left_model
            out.append(
                Finding(
                    "VV-UNLINKED",
                    f"{rm}/{lm}",
                    f"verification model {rm!r} consumes nothing produced by {lm!r}",
                )
            )
    return sort_findings(out)


def check_milestone_retention(before: Iterable[Milestone], after: Iterable[Milestone]) -> list[Finding]:
    """Milestones may be added between snapshots but never silently dropped.
    Milestones pair by id first; of those left on each side, two pair when
    `unique_names` gives both their name, so a re-id survives if its name does."""
    before, after = list(before), list(after)
    ids_before, ids_after = {ms.milestone_id for ms in before}, {ms.milestone_id for ms in after}
    gone = [ms for ms in before if ms.milestone_id not in ids_after]
    new = [ms for ms in after if ms.milestone_id not in ids_before]
    shared = unique_names(gone).keys() & unique_names(new).keys()
    out = [
        Finding("MILESTONE-DROPPED", ms.milestone_id, f"milestone {ms.name!r} is gone from the later snapshot")
        for ms in gone
        if normalize_name(ms.name) not in shared
    ]
    out += [
        Finding(
            "ADDED-INTERMEDIATE",
            ms.milestone_id,
            f"intermediate milestone {ms.name!r} added since the earlier snapshot",
        )
        for ms in new
        if ms.kind == "intermediate" and normalize_name(ms.name) not in shared
    ]
    return sort_findings(out)
