import copy
import dataclasses
import pickle

import pytest

from procpyramid import Finding
from procpyramid.dependency import INFERRED_UNDECLARED, DependencyEdge
from procpyramid.findings import (
    CATALOG,
    error_count,
    merge_findings,
    sort_findings,
    summarize,
)


def test_catalog_supplies_severity():
    f = Finding("R2-NO-DURATION", "m:t1", "task has no execution time")
    assert f.severity == "error"
    assert Finding("NO-ANCHOR", "m:e", "msg").severity == "warning"
    assert Finding("MULTI-PARENT", "child", "msg").severity == "info"


def test_unknown_code_is_rejected():
    with pytest.raises(ValueError):
        Finding("NOT-A-CODE", "x", "y")
    with pytest.raises(ValueError):
        Finding(code="X", subject="s", message="m")


def test_a_finding_is_code_subject_and_message():
    assert [f.name for f in dataclasses.fields(Finding)] == ["code", "subject", "message"]
    assert Finding.severity.fset is None
    f = Finding("CYCLE", "x", "loop")
    assert dataclasses.replace(f, message="again").severity == "error"


@pytest.mark.parametrize(
    "record",
    [Finding("CYCLE", "x", "loop"), DependencyEdge("a:s", "b:e", frozenset({"x"}), INFERRED_UNDECLARED)],
    ids=["Finding", "DependencyEdge"],
)
def test_frozen_records_refuse_every_write(record):
    """Assigning or deleting a field or any other name raises
    FrozenInstanceError; the record stays slotted, pickles, and copies."""
    for name in ("zzz", dataclasses.fields(record)[0].name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, "new")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert not hasattr(record, "__dict__") and type(record).__slots__
    assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
    second = dataclasses.fields(record)[1].name
    assert getattr(dataclasses.replace(record, **{second: "y"}), second) == "y"


def test_sort_puts_errors_first_then_code_then_subject():
    items = [
        Finding("NO-ANCHOR", "b", "w"),
        Finding("R3-NO-ROLE", "a", "e"),
        Finding("NO-ANCHOR", "a", "w"),
        Finding("MULTI-PARENT", "a", "i"),
    ]
    ordered = sort_findings(items)
    assert [f.severity for f in ordered] == ["error", "warning", "warning", "info"]
    assert [f.subject for f in ordered[1:3]] == ["a", "b"]


def test_merge_drops_exact_duplicates():
    a = Finding("CYCLE", "x", "loop")
    b = Finding("CYCLE", "x", "loop")
    c = Finding("CYCLE", "y", "loop")
    assert merge_findings([a], [b, c]) == sort_findings([a, c])


def test_summarize_counts():
    items = [Finding("CYCLE", "x", "m"), Finding("NO-ANCHOR", "y", "m")]
    summary = summarize(items)
    assert summary["bySeverity"] == {"error": 1, "warning": 1, "info": 0}
    assert summary["byCode"] == {"CYCLE": 1, "NO-ANCHOR": 1}
    assert summary["total"] == 2


def test_error_count_strict_includes_warnings():
    items = [Finding("NO-ANCHOR", "y", "m"), Finding("MULTI-PARENT", "z", "m")]
    assert error_count(items) == 0
    assert error_count(items, strict=True) == 1


def test_every_catalog_severity_is_known():
    assert set(CATALOG.values()) <= {"error", "warning", "info"}
