"""Findings: the uniform diagnostic record emitted by every check."""

from __future__ import annotations

from collections import Counter
from dataclasses import FrozenInstanceError, dataclass

SEVERITIES = ("error", "warning", "info")

# Severity per finding code. Checks may not emit a code that is
# absent from this catalog.
CATALOG: dict[str, str] = {
    # model ingestion
    "UNSUPPORTED-ELEMENT": "info",
    "EXTRA-PROCESS": "info",
    "UNRESOLVED-DATA-REF": "warning",
    "MODEL-PARSE-ERROR": "error",
    # well-formedness of a single model
    "R1-UNREACHABLE": "warning",
    "R2-NO-DURATION": "error",
    "R2-NO-INPUT": "error",
    "R2-NO-OUTPUT": "error",
    "R3-NO-ROLE": "error",
    "R4-NO-TIMER": "error",
    # milestone extraction
    "AMBIGUOUS-ANCHOR": "error",
    "BAD-ANNOTATION": "error",
    # pyramid assembly
    "ORPHAN-MODEL": "warning",
    "MISSING-MODEL": "error",
    "LEVEL-SKIP": "warning",
    "UNRESOLVED-CALL": "warning",
    "UNLINKED-CHILD": "warning",
    "MULTI-PARENT": "info",
    "DISCONNECTED": "error",
    # offset resolution and the reference timeline
    "NO-ANCHOR": "warning",
    "FLOW-CYCLE": "error",
    "OFFSET-MISMATCH": "error",
    "GQ1-UNANSWERED": "warning",
    "GQ2-UNANSWERED": "warning",
    "GQ3-UNANSWERED": "warning",
    "GQ4-UNANSWERED": "warning",
    "GQ5-UNANSWERED": "warning",
    "GQ6-UNANSWERED": "warning",
    "GQ7-UNANSWERED": "warning",
    "GQ8-UNANSWERED": "warning",
    "GQ8-INCOMPLETE": "warning",
    "MISALIGNED": "error",
    "DANGLING-ALIGNMENT": "error",
    "GRID-TOO-WIDE": "warning",
    # dependency analysis
    "UNDECLARED-DEPENDENCY": "warning",
    "DECLARED-UNMATCHED": "error",
    "TEMPORAL-VIOLATION": "error",
    "CYCLE": "error",
    "NOT-TIMED": "info",
    "REDUNDANT-OUTPUT": "warning",
    # conformance
    "VV-UNLINKED": "error",
    "MAJOR-DEVIATION": "warning",
    "MINOR-DEVIATION": "info",
    "UNBOUND-REFERENCE": "info",
    "MILESTONE-DROPPED": "error",
    "ADDED-INTERMEDIATE": "info",
}

_RANK = {"error": 0, "warning": 1, "info": 2}


def frozen_record(cls: type) -> type:
    """`dataclass(frozen=True, slots=True)`, with every write refused by
    FrozenInstanceError: the refusals `dataclass` writes raise a TypeError
    for a name that is no field."""
    cls = dataclass(frozen=True, slots=True)(cls)

    def refuse(self, name: str, *value: object) -> None:
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@frozen_record
class Finding:
    """One diagnostic: a catalog code, a subject id and a message. Its
    severity is the one the catalog gives its code."""

    code: str
    subject: str
    message: str

    def __post_init__(self):
        if self.code not in CATALOG:
            raise ValueError(f"finding code {self.code!r} is not in the catalog")

    @property
    def severity(self) -> str:
        return CATALOG[self.code]

    def sort_key(self) -> tuple:
        return (_RANK[self.severity], self.code, self.subject, self.message)


def sort_findings(items: list[Finding]) -> list[Finding]:
    return sorted(items, key=Finding.sort_key)


def merge_findings(*groups: list[Finding]) -> list[Finding]:
    """Union of finding groups with exact duplicates collapsed."""
    seen: set[Finding] = set()
    for group in groups:
        seen.update(group)
    return sort_findings(list(seen))


def summarize(items: list[Finding]) -> dict:
    by_severity = Counter(f.severity for f in items)
    by_code = Counter(f.code for f in items)
    return {
        "bySeverity": {sev: by_severity.get(sev, 0) for sev in SEVERITIES},
        "byCode": dict(sorted(by_code.items())),
        "total": len(items),
    }


def error_count(items: list[Finding], strict: bool = False) -> int:
    """Number of findings that should fail the run. Strict counts warnings too."""
    bad = {"error", "warning"} if strict else {"error"}
    return sum(1 for f in items if f.severity in bad)
