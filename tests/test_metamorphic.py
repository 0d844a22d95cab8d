"""Reports depend on what a bundle means, not how it is spelled.

Each fixture bundle is copied and rewritten in a way that keeps its meaning,
and `report --json` on the copy must give the exit code and the bytes of
the original.
"""

import json
import re
import shutil
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

MANIFESTS = {
    "fig7": FIG7_MANIFEST,
    "parkpilot": PARKPILOT_MANIFEST,
    "parkpilot-severed": PARKPILOT_SEVERED,
    "anchors": ANCHORS_MANIFEST,
    "deviation": DEVIATION_MANIFEST,
    "idclash-seed": IDCLASH_SEED,
}

# One process, with the namespace prefix its closing tag repeats, and one
# sequence flow with the indentation and line end around it, in either the
# empty-element or the start-and-end-tag form.
PROCESS = re.compile(rb"(<((?:\w+:)?)process\b.*?)(\s*</\2process>)", re.S)
FLOW = re.compile(rb"\s*<((?:\w+:)?)sequenceFlow\b(?:[^>]*/>|.*?</\1sequenceFlow>)", re.S)


def reverse_models(manifest: Path) -> None:
    doc = json.loads(manifest.read_bytes())
    doc["models"].reverse()
    manifest.write_text(json.dumps(doc, indent=2), encoding="utf-8")


def flows_last_reversed(manifest: Path) -> None:
    def move(process: re.Match) -> bytes:
        body, flows = process[1], [flow[0] for flow in FLOW.finditer(process[1])]
        return FLOW.sub(b"", body) + b"".join(reversed(flows)) + process[3]

    for path in manifest.parent.rglob("*.bpmn"):
        text = path.read_bytes()
        moved = PROCESS.sub(move, text)
        assert moved != text and moved.count(b"sequenceFlow") == text.count(b"sequenceFlow")
        path.write_bytes(moved)


def crlf_line_ends(manifest: Path) -> None:
    for path in manifest.parent.rglob("*"):
        if path.is_file():
            text = path.read_bytes()
            assert b"\r" not in text
            path.write_bytes(text.replace(b"\n", b"\r\n"))


RELATIONS = {
    "models-reversed": reverse_models,
    "flows-last-reversed": flows_last_reversed,
    "crlf": crlf_line_ends,
}


def report(manifest: Path, out: Path) -> tuple[int, bytes]:
    code = cli.run(["report", str(manifest), "--json", "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("name", MANIFESTS)
def test_a_rewritten_bundle_reports_the_same_bytes(tmp_path, name, relation):
    manifest = MANIFESTS[name]
    copy = tmp_path / "bundle"
    shutil.copytree(manifest.parent, copy)
    RELATIONS[relation](copy / manifest.name)
    want = report(manifest, tmp_path / "original.json")
    assert report(copy / manifest.name, tmp_path / "rewritten.json") == want
