import json
from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import stub_model, stub_pyramid
from procpyramid import (
    Finding,
    LevelEntry,
    ManifestError,
    assign_coordinates,
    build_pyramid,
    check_connectivity,
    link_levels,
    load_manifest,
)


def manifest_text(**overrides):
    doc = {
        "root": "top",
        "models": [
            {"id": "top", "file": "top.bpmn", "level": 0},
            {"id": "mid", "file": "mid.bpmn", "level": 1, "parent": {"model": "top", "node": "c1"}},
        ],
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestManifest:
    def test_defaults(self):
        manifest = load_manifest(manifest_text())
        assert manifest.root_model == "top"
        assert manifest.sop_label == "SOP"
        assert manifest.reference_step.days == 30
        assert manifest.alignment_tolerance == 0
        assert manifest.aliases == {}
        assert manifest.reference_templates == []
        assert manifest.entry_map()["mid"] == LevelEntry(model_id="mid", file="mid.bpmn", level=1)

    def test_settings_are_read(self):
        manifest = load_manifest(
            manifest_text(
                sopLabel="Start of Production",
                referenceStepDays=7,
                alignmentToleranceDays=3,
                aliases={"a": "b"},
                referenceTemplates=["refs/x.json"],
            )
        )
        assert manifest.sop_label == "Start of Production"
        assert manifest.reference_step.days == 7
        assert manifest.alignment_tolerance == 3
        assert manifest.aliases == {"a": "b"}
        assert manifest.reference_templates == ["refs/x.json"]

    def test_documents_are_checked_and_dropped(self):
        text = manifest_text(
            models=[
                {
                    "id": "top",
                    "file": "top.bpmn",
                    "level": 0,
                    "documents": [{"path": "docs/a.md", "kind": "notes", "description": "d"}],
                }
            ]
        )
        entry = load_manifest(text).entry_map()["top"]
        assert not hasattr(entry, "documents")

    @pytest.mark.parametrize(
        "overrides,code",
        [
            ({"root": ""}, "MISSING-ROOT"),
            ({"models": []}, "BAD-FIELD"),
            (
                {
                    "models": [
                        {"id": "top", "file": "a", "level": 0},
                        {"id": "top", "file": "b", "level": 1, "parent": {"model": "top", "node": "c"}},
                    ]
                },
                "DUPLICATE-MODEL",
            ),
            (
                {
                    "models": [
                        {"id": "top", "file": "a", "level": 0},
                        {"id": "deep", "file": "b", "level": 2},
                    ]
                },
                "NON-CONTIGUOUS-LEVELS",
            ),
            (
                {
                    "models": [
                        {"id": "top", "file": "a", "level": 0},
                        {"id": "also", "file": "b", "level": 0},
                    ]
                },
                "MISSING-ROOT",
            ),
            ({"root": "mid"}, "MISSING-ROOT"),
            (
                {
                    "models": [
                        {"id": "top", "file": "a", "level": 0},
                        {"id": "mid", "file": "b", "level": 1, "parent": {"model": "ghost", "node": "c"}},
                    ]
                },
                "BAD-PARENT",
            ),
            (
                {
                    "models": [
                        {"id": "top", "file": "a", "level": 0},
                        {"id": "mid", "file": "b", "level": 1, "parent": {"model": "top", "node": "c"}},
                        {"id": "leaf", "file": "c", "level": 2, "parent": {"model": "top", "node": "d"}},
                    ]
                },
                "BAD-PARENT",
            ),
            ({"referenceStepDays": 0}, "BAD-FIELD"),
            ({"referenceStepDays": True}, "BAD-FIELD"),
            ({"alignmentToleranceDays": -1}, "BAD-FIELD"),
            ({"aliases": {"a": 3}}, "BAD-FIELD"),
            ({"aliases": {"a": "b", "  ": "c"}}, "BAD-FIELD"),
            ({"aliases": {"pp requirements": ""}}, "BAD-FIELD"),
            ({"referenceTemplates": "refs.json"}, "BAD-FIELD"),
            ({"sopLabel": "  "}, "BAD-FIELD"),
        ],
    )
    def test_rejects_bad_shapes(self, overrides, code):
        with pytest.raises(ManifestError) as err:
            load_manifest(manifest_text(**overrides))
        assert err.value.code == code

    def test_duplicate_ids_are_listed_once_in_sorted_order(self):
        child = {"file": "x", "level": 1, "parent": {"model": "top", "node": "c"}}
        ids = ["top", "b", "a", "c", "b", "a", "b"]
        models = [{"id": "top", "file": "t", "level": 0}] + [dict(child, id=i) for i in ids[1:]]
        with pytest.raises(ManifestError, match=r"duplicate model ids: a, b$") as err:
            load_manifest(manifest_text(models=models))
        assert err.value.code == "DUPLICATE-MODEL"

    def test_root_must_not_have_parent(self):
        text = manifest_text(
            models=[{"id": "top", "file": "a", "level": 0, "parent": {"model": "x", "node": "y"}}]
        )
        with pytest.raises(ManifestError):
            load_manifest(text)

    def test_rejects_non_json(self):
        with pytest.raises(ManifestError):
            load_manifest("{nope")
        with pytest.raises(ManifestError):
            load_manifest(json.dumps(["not", "an", "object"]))


class TestAssembly:
    def test_orphan_and_missing(self):
        manifest = load_manifest(manifest_text())
        models = {"top": stub_model("top"), "stray": stub_model("stray")}
        pyramid, findings = build_pyramid(manifest, models)
        assert sorted(f.code for f in findings) == ["MISSING-MODEL", "ORPHAN-MODEL"]
        assert list(pyramid.models) == ["top"]

    def test_missing_root_is_fatal(self):
        manifest = load_manifest(manifest_text())
        with pytest.raises(ManifestError):
            build_pyramid(manifest, {"mid": stub_model("mid")})

    def test_places_each_model_at_its_level(self):
        manifest = load_manifest(manifest_text())
        pyramid, findings = build_pyramid(manifest, {"top": stub_model("top"), "mid": stub_model("mid")})
        assert findings == []
        assert pyramid.level_of == {"mid": 1, "top": 0}
        assert list(pyramid.models) == list(pyramid.level_of) == ["mid", "top"]
        assert pyramid.children == {"mid": [], "top": []}

        # neither the manifest's order nor the parsed models' order shows,
        # with a model of no entry and an entry of no model among them
        entries = manifest.entries + [LevelEntry("low", "low.bpmn", 2), LevelEntry("gone", "gone.bpmn", 1)]
        models = {model_id: stub_model(model_id) for model_id in ("top", "mid", "low", "stray")}
        built = [
            build_pyramid(replace(manifest, entries=list(order)), {m: models[m] for m in keys})
            for order, keys in zip(permutations(entries), permutations(models))
        ]
        pyramid, findings = built[0]
        assert list(pyramid.models) == list(pyramid.level_of) == list(pyramid.children) == ["low", "mid", "top"]
        assert [(f.code, f.subject) for f in findings] == [("MISSING-MODEL", "gone"), ("ORPHAN-MODEL", "stray")]
        for other, other_findings in built[1:]:
            assert other == pyramid and other_findings == findings
            assert [list(other.models), list(other.level_of), list(other.children)] == [
                list(pyramid.models), list(pyramid.level_of), list(pyramid.children)
            ]


def linked_pyramid():
    levels = {0: ["root"], 1: ["a", "b"], 2: ["c"]}
    links = [("root", "a"), ("root", "b"), ("a", "c")]
    pyramid = stub_pyramid(levels, links)
    pyramid.models["root"].call_targets = {"call_a": "a", "call_b": "b"}
    pyramid.models["a"].call_targets = {"call_c": "c"}
    return pyramid


class TestLinking:
    def test_clean_linking(self):
        pyramid = linked_pyramid()
        pyramid.children = {}
        pyramid, findings = link_levels(pyramid)
        assert findings == []
        assert pyramid.children == {"a": ["c"], "b": [], "c": [], "root": ["a", "b"]}

    def test_unresolved_and_skip_and_multiparent(self):
        pyramid = stub_pyramid({0: ["root"], 1: ["a", "b"], 2: ["c"]}, [])
        pyramid.models["root"].call_targets = {"c1": "a", "c2": "", "c3": "ghost", "c4": "c"}
        pyramid.models["a"].call_targets = {"c5": "c"}
        pyramid.models["b"].call_targets = {"c6": "c"}
        pyramid, findings = link_levels(pyramid)
        codes = sorted(f.code for f in findings)
        assert codes == [
            "LEVEL-SKIP",
            "MULTI-PARENT",
            "UNLINKED-CHILD",
            "UNRESOLVED-CALL",
            "UNRESOLVED-CALL",
        ]
        assert pyramid.children == {"a": ["c"], "b": ["c"], "c": [], "root": ["a"]}

    def test_leaves_its_argument_unchanged(self):
        pyramid = linked_pyramid()
        pyramid.children = {model_id: [] for model_id in pyramid.models}
        linked, _ = link_levels(pyramid)
        assert pyramid.children == {"a": [], "b": [], "c": [], "root": []}
        assert linked.children == {"a": ["c"], "b": [], "c": [], "root": ["a", "b"]}

    def test_unlinked_child(self):
        pyramid = stub_pyramid({0: ["root"], 1: ["a"]}, [])
        _, findings = link_levels(pyramid)
        assert [f.code for f in findings] == ["UNLINKED-CHILD"]
        assert findings[0].subject == "a"


class TestConnectivity:
    def test_connected(self):
        findings, depth = check_connectivity(linked_pyramid())
        assert findings == []
        assert depth == 2

    def test_disconnected_subtree(self):
        pyramid = stub_pyramid({0: ["root"], 1: ["a", "b"], 2: ["c"]}, [("root", "a")])
        findings, depth = check_connectivity(pyramid)
        assert sorted(f.subject for f in findings) == ["b", "c"]
        assert all(f.code == "DISCONNECTED" for f in findings)
        assert depth == 1

    def test_coordinates(self):
        coords = assign_coordinates(linked_pyramid())
        assert coords["root"] == (0, 0, 3)
        assert coords["a"] == (1, 1, 3)
        assert coords["c"] == (2, 2, 3)
        assert coords["b"] == (1, 3, 3)

    def test_coordinates_append_unreachable_models(self):
        pyramid = stub_pyramid({0: ["root"], 1: ["a", "b"]}, [("root", "b")])
        coords = assign_coordinates(pyramid)
        assert coords["root"][1] == 0
        assert coords["b"][1] == 1
        assert coords["a"][1] == 2

    def test_coordinates_place_a_shared_child_at_its_first_visit(self):
        levels = {0: ["root"], 1: ["a", "b"], 2: ["c", "d"], 3: ["e"]}
        links = [("root", "a"), ("root", "b"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "e"), ("d", "e")]
        coords = assign_coordinates(stub_pyramid(levels, links))
        positions = {model_id: position for model_id, (_, position, _) in coords.items()}
        assert positions == {"root": 0, "a": 1, "d": 2, "e": 3, "b": 4, "c": 5}

    def test_coordinates_of_a_chain_deeper_than_the_recursion_limit(self):
        depth = 1100
        levels = {lvl: [f"m{lvl:04d}"] for lvl in range(depth)}
        links = [(f"m{lvl:04d}", f"m{lvl + 1:04d}") for lvl in range(depth - 1)]
        coords = assign_coordinates(stub_pyramid(levels, links))
        assert coords[f"m{depth - 1:04d}"] == (depth - 1, depth - 1, 3)
        assert all(coords[f"m{lvl:04d}"][1] == lvl for lvl in range(depth))


@given(st.data())
def test_disconnected_matches_bfs_complement(data):
    width = data.draw(st.integers(min_value=1, max_value=4), label="width")
    depth = data.draw(st.integers(min_value=1, max_value=4), label="depth")
    levels = {0: ["m0"]}
    counter = 1
    for lvl in range(1, depth + 1):
        levels[lvl] = [f"m{counter + i}" for i in range(width)]
        counter += width

    all_links = [
        (parent, child)
        for lvl in range(depth)
        for parent in levels[lvl]
        for child in levels[lvl + 1]
    ]
    links = [l for l in all_links if data.draw(st.booleans(), label=f"keep {l}")]

    pyramid = stub_pyramid(levels, links)
    # stub_pyramid builds its dicts in id order; the findings must not show theirs
    order = data.draw(st.permutations(list(pyramid.level_of)), label="dict order")
    pyramid = replace(
        pyramid,
        models={m: pyramid.models[m] for m in order},
        level_of={m: pyramid.level_of[m] for m in order},
        children={m: pyramid.children[m] for m in order},
    )
    findings, _ = check_connectivity(pyramid)

    children = {mid: [] for ids in levels.values() for mid in ids}
    for parent, child in links:
        children[parent].append(child)
    expected = oracles.unreachable_by_bfs("m0", children)
    assert findings == [
        Finding("DISCONNECTED", m, f"model at level {pyramid.level_of[m]} is not reachable from the root")
        for m in sorted(expected)
    ]


@given(st.data())
def test_coordinates_match_the_stack_walk(data):
    """Repeated links, a child under several parents, children linked out of
    id order, unreachable models and a root missing from the models."""
    names = data.draw(st.permutations([f"m{i}" for i in range(13)]), label="names")
    widths = data.draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4), label="widths"
    )
    levels, start = {0: [names[0]]}, 1
    for lvl, width in enumerate(widths, start=1):
        levels[lvl], start = names[start:start + width], start + width
    candidates = [
        (parent, child) for lvl in range(len(widths)) for parent in levels[lvl] for child in levels[lvl + 1]
    ]
    links = data.draw(st.lists(st.sampled_from(candidates), max_size=12), label="links")
    root = data.draw(st.sampled_from([names[0], "ghost"]), label="root")
    pyramid = stub_pyramid(levels, links, root=root)
    assert assign_coordinates(pyramid) == oracles.coordinates_by_stack(pyramid)
