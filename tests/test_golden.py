"""Byte-for-byte reports on the fixture bundles.

Each case runs one command and compares what it wrote with the file
recorded under tests/golden/: the --json report, the text report
(`.txt`), or the DOT text of `export --dot`. Refactors that must not
change behaviour keep these passing. After a deliberate change of output,
check the diff and record the files again with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import (
    ANCHORS_MANIFEST,
    DEVIATION_MANIFEST,
    FIG7_MANIFEST,
    IDCLASH_SEED,
    PARKPILOT_MANIFEST,
    PARKPILOT_SEVERED,
)
from procpyramid import cli

GOLDEN = Path(__file__).parent / "golden"
BUNDLES = {"fig7": FIG7_MANIFEST, "parkpilot": PARKPILOT_MANIFEST, "parkpilot-severed": PARKPILOT_SEVERED}

CASES: dict[str, list[str]] = {
    f"{bundle}-{command}.json": [command, str(manifest)]
    for bundle, manifest in BUNDLES.items()
    for command in ("validate", "timeline", "deps", "conform", "export", "report")
}
CASES["parkpilot-impact-milestone.json"] = ["impact", str(PARKPILOT_MANIFEST), "--seed", "Park pilot approved"]
CASES["parkpilot-impact-model.json"] = ["impact", str(PARKPILOT_MANIFEST), "--seed", "test-plan"]
CASES["parkpilot-retention.json"] = [
    "retention", str(PARKPILOT_MANIFEST), "--after", str(PARKPILOT_SEVERED)
]
CASES.update({f"{bundle}-export.dot": ["export", str(manifest)] for bundle, manifest in BUNDLES.items()})
# Two conflicting anchors on converging paths and one flow cycle.
CASES.update(
    {f"anchors-{command}.json": [command, str(ANCHORS_MANIFEST)] for command in ("timeline", "deps", "report")}
)
# One bound model deviates majorly, the other minorly.
CASES["deviation-conform.json"] = ["conform", str(DEVIATION_MANIFEST)]
# A seed name whose milestone id `p:b` is also a model id.
CASES["idclash-impact-seed.json"] = ["impact", str(IDCLASH_SEED), "--seed", "Program start"]
# The text views: every parkpilot command, validate and conform on the
# severed bundle, and conform on the deviating one.
TEXT = [n for n in CASES if n.startswith("parkpilot-") and "severed" not in n and n.endswith(".json")]
TEXT += ["parkpilot-severed-validate.json", "parkpilot-severed-conform.json", "deviation-conform.json"]
CASES.update({name.removesuffix(".json") + ".txt": CASES[name] for name in TEXT})


def produce(name: str, work: Path) -> bytes:
    """Run the case and return the bytes it is judged by."""
    report, dot = work / "report", work / "graph.dot"
    argv = CASES[name] + ["--out", str(report)]
    if not name.endswith(".txt"):
        argv.append("--json")
    if name.endswith(".dot"):
        argv += ["--dot", str(dot)]
    assert cli.run(argv) in (0, 1)
    return (dot if name.endswith(".dot") else report).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert produce(name, tmp_path) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "command, codes",
    [
        ("timeline", {"AMBIGUOUS-ANCHOR", "FLOW-CYCLE"}),
        ("deps", {"AMBIGUOUS-ANCHOR"}),
        ("report", {"AMBIGUOUS-ANCHOR", "FLOW-CYCLE"}),
    ],
)
def test_anchor_findings_are_pinned(command, codes):
    """The anchor goldens hold the findings they exist for: the bundle's
    AMBIGUOUS-ANCHOR (every view) and the timing FLOW-CYCLE (offset views)."""
    doc = json.loads((GOLDEN / f"anchors-{command}.json").read_text(encoding="utf-8"))
    assert codes <= {f["code"] for f in doc["findings"]}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name in sorted(CASES):
            (GOLDEN / name).write_bytes(produce(name, Path(work)))
            print(f"recorded {name}", file=sys.stderr)
