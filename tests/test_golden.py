"""Byte-for-byte reports on the fixture bundles.

Each case runs one command and compares what it wrote with the file
recorded under tests/golden/: the --json report, or the DOT text of
`export --dot`. Refactors that must not change behaviour keep these
passing. After a deliberate change of output, check the diff and record
the files again with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

from conftest import FIG7_MANIFEST, PARKPILOT_MANIFEST, PARKPILOT_SEVERED
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


def produce(name: str, work: Path) -> bytes:
    """Run the case and return the bytes it is judged by."""
    report, dot = work / "report.json", work / "graph.dot"
    argv = CASES[name] + ["--json", "--out", str(report)]
    if name.endswith(".dot"):
        argv += ["--dot", str(dot)]
    assert cli.run(argv) in (0, 1)
    return (dot if name.endswith(".dot") else report).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert produce(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name in sorted(CASES):
            (GOLDEN / name).write_bytes(produce(name, Path(work)))
            print(f"recorded {name}", file=sys.stderr)
