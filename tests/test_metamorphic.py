"""Reports depend on what a bundle means, not how it is spelled.

Each fixture bundle is copied and rewritten in a way that keeps its meaning,
and `report --json` on the copy must give the exit code and the bytes of
the original, once a renaming's prefix is dropped from them.
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


# a model id's prefix, dropped from the rewritten bundle's report
RENAMED = "zz:"
CALLED = re.compile(r'(calledElement=")([^"]*)')
LISTED = re.compile(r'(key="(?:gq7|alignsWith)" value=")([^"]*)')


def prefix_model_ids(manifest: Path) -> None:
    """Every model id gains RENAMED wherever one is written: the manifest's
    root, ids and parent hints, call activities, template bindings, and gq7
    and alignsWith entries that spell a milestone id (model id, ":", node id)."""
    doc = json.loads(manifest.read_bytes())
    ids = {entry["id"] for entry in doc["models"]}

    def renamed(name: str) -> str:
        spelled = name in ids or any(name.startswith(model_id + ":") for model_id in ids)
        return RENAMED + name if spelled else name

    doc["root"] = renamed(doc["root"])
    for entry in doc["models"]:
        entry["id"] = renamed(entry["id"])
        if "parent" in entry:
            entry["parent"]["model"] = renamed(entry["parent"]["model"])
    manifest.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    for ref in doc.get("referenceTemplates", []):
        path = manifest.parent / ref
        templates = json.loads(path.read_bytes())
        for template in templates:
            binding = template.get("binding", {})
            if "modelId" in binding:
                binding["modelId"] = renamed(binding["modelId"])
        path.write_text(json.dumps(templates, indent=2), encoding="utf-8")
    for path in manifest.parent.rglob("*.bpmn"):
        text = path.read_text(encoding="utf-8")
        text = CALLED.sub(lambda m: m[1] + renamed(m[2]), text)
        text = LISTED.sub(lambda m: m[1] + ", ".join(renamed(n.strip()) for n in m[2].split(",")), text)
        path.write_text(text, encoding="utf-8")


RELATIONS = {
    "models-reversed": reverse_models,
    "flows-last-reversed": flows_last_reversed,
    "crlf": crlf_line_ends,
    "model-ids-prefixed": prefix_model_ids,
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
    code, text = report(copy / manifest.name, tmp_path / "rewritten.json")
    assert RENAMED.encode() not in want[1]
    assert (code, text.replace(RENAMED.encode(), b"")) == want
