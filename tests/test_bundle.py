import copy
import json
import shutil
import tempfile
from argparse import Namespace
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import FIXTURES, PARKPILOT_MANIFEST, anchor, chain_model, milestone, node
from procpyramid import (
    Bundle,
    ManifestError,
    PyramidError,
    UnknownSeedError,
    check_milestone_retention,
    impact,
    load_bundle,
    serialize_model,
)
from procpyramid.bundle import resolve_references
from procpyramid.cli import _Session


@pytest.fixture(scope="module")
def parkpilot():
    return load_bundle(PARKPILOT_MANIFEST)


class TestParkpilotBundle:
    def test_loads_without_findings(self, parkpilot):
        assert parkpilot.findings == []
        assert list(parkpilot.pyramid.models) == [
            "function-chart",
            "park-pilot-test",
            "pep",
            "product-process",
            "test-plan",
        ]
        assert len(parkpilot.milestones) == 11
        assert parkpilot.root_dir == PARKPILOT_MANIFEST.parent

    def test_pyramid_chain_is_fully_linked(self, parkpilot):
        assert parkpilot.pyramid.children == {
            "function-chart": ["test-plan"],
            "park-pilot-test": [],
            "pep": ["function-chart"],
            "product-process": ["pep"],
            "test-plan": ["park-pilot-test"],
        }
        assert max(parkpilot.pyramid.level_of.values()) == 4

    def test_hints_naming_no_node_still_load(self, parkpilot, tmp_path):
        """A manifest's parent hint is checked for its model and level only;
        the call activities alone link the levels."""
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        hinted = [entry for entry in doc["models"] if "parent" in entry]
        for entry in hinted:
            entry["parent"]["node"] = "no-such-node"
        path.write_text(json.dumps(doc), encoding="utf-8")
        bundle = load_bundle(path)
        assert len(hinted) == 4
        assert bundle.findings == []
        assert bundle.pyramid.children == parkpilot.pyramid.children

    def test_labels_prefer_unique_names(self, parkpilot):
        labels = parkpilot.labels()
        assert labels["product-process:e0end"] == "SOP"
        assert labels["park-pilot-test:e4"] == "Park pilot approved"

    def test_declared_consumers_resolve_to_ids(self, parkpilot):
        by_id = {ms.milestone_id: ms for ms in parkpilot.milestones}
        e0 = by_id["product-process:e0"]
        assert e0.gq.gq7_consumers == frozenset({"pep:s1", "product-process:e0end"})
        e2 = by_id["function-chart:e2"]
        assert e2.gq.gq7_consumers == frozenset({"park-pilot-test:s4"})


class TestResolveReferences:
    def test_resolution_ladder(self):
        ms = [
            milestone("m:a", name="Alpha", consumers=("m:b",)),
            milestone("m:b", name="Beta", consumers=("ALPHA",)),
            milestone("n:c", name="Gamma", consumers=("b",)),
            milestone("n:d", name="Beta", consumers=("beta", "nowhere")),
        ]
        ms = resolve_references(ms)
        assert ms[0].gq.gq7_consumers == frozenset({"m:b"})
        assert ms[1].gq.gq7_consumers == frozenset({"m:a"})
        assert ms[2].gq.gq7_consumers == frozenset({"m:b"})
        assert ms[3].gq.gq7_consumers == frozenset({"beta", "nowhere"})

    def test_alignments_resolve_too(self):
        ms = [
            milestone("m:a", aligns=("Gamma",)),
            milestone("n:c", name="Gamma"),
        ]
        ms = resolve_references(ms)
        assert ms[0].aligns_with == frozenset({"n:c"})

    def test_leaves_its_input_unchanged(self):
        """Resolving one bundle's milestones cannot change another's that
        shares the records; a record with nothing to resolve is returned as is."""
        ms = [
            milestone("m:a", name="Alpha", consumers=("Beta",)),
            milestone("m:b", name="Beta", aligns=("alpha",)),
            milestone("m:c", name="Gamma"),
        ]
        before = copy.deepcopy(ms)
        resolved = resolve_references(ms)
        assert ms == before
        assert resolved[0].gq.gq7_consumers == frozenset({"m:b"})
        assert resolved[1].aligns_with == frozenset({"m:a"})
        assert resolved[2] is ms[2]


class TestDegradedLoads:
    def write_bundle(self, tmp_path, child_file="missing.bpmn"):
        (tmp_path / "root.bpmn").write_bytes(
            (FIXTURES / "fig7" / "fragment.bpmn").read_bytes()
        )
        manifest = {
            "root": "root",
            "models": [
                {"id": "root", "file": "root.bpmn", "level": 0},
                {
                    "id": "child",
                    "file": child_file,
                    "level": 1,
                    "parent": {"model": "root", "node": "nope"},
                },
            ],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return path

    def test_unreadable_model_degrades_to_findings(self, tmp_path):
        bundle = load_bundle(self.write_bundle(tmp_path))
        codes = sorted(f.code for f in bundle.findings)
        assert "MODEL-PARSE-ERROR" in codes
        assert "MISSING-MODEL" in codes
        assert list(bundle.pyramid.models) == ["root"]

    def test_garbage_model_degrades_to_findings(self, tmp_path):
        (tmp_path / "broken.bpmn").write_text("<definitions", encoding="utf-8")
        bundle = load_bundle(self.write_bundle(tmp_path, child_file="broken.bpmn"))
        parse_errors = [f for f in bundle.findings if f.code == "MODEL-PARSE-ERROR"]
        assert [f.subject for f in parse_errors] == ["child"]
        assert "child" not in bundle.pyramid.models

    def test_missing_root_model_stays_fatal(self, tmp_path):
        manifest = {
            "root": "root",
            "models": [{"id": "root", "file": "absent.bpmn", "level": 0}],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ManifestError, match="root"):
            load_bundle(path)


class TestLabels:
    def test_duplicate_names_fall_back_to_ids(self, parkpilot):
        ms = [
            milestone("m:a", name="Review"),
            milestone("n:b", name="Review"),
            milestone("n:c", name="Handover"),
        ]
        bundle = Bundle(manifest=parkpilot.manifest, pyramid=parkpilot.pyramid, milestones=ms)
        assert bundle.labels() == {"m:a": "m:a", "n:b": "n:b", "n:c": "Handover"}

    def test_a_name_equal_to_another_id_falls_back_to_its_id(self, parkpilot):
        ms = [
            milestone("m:s", name="X"),
            milestone("m:i", name="X"),
            milestone("m:e", name="m:s"),
            milestone("m:f", name="m:f"),
        ]
        bundle = Bundle(manifest=parkpilot.manifest, pyramid=parkpilot.pyramid, milestones=ms)
        labels = bundle.labels()
        assert labels == {"m:s": "m:s", "m:i": "m:i", "m:e": "m:e", "m:f": "m:f"}
        assert len(set(labels.values())) == len(ms)

    def test_names_alike_once_normalized_fall_back_to_ids(self, parkpilot):
        """`Review` and `review` both name no milestone as a reference, so
        neither is a label."""
        ms = [
            milestone("m:a", name="Review"),
            milestone("n:b", name="review"),
            milestone("n:c", name="Handover"),
        ]
        bundle = Bundle(manifest=parkpilot.manifest, pyramid=parkpilot.pyramid, milestones=ms)
        assert bundle.labels() == {"m:a": "m:a", "n:b": "n:b", "n:c": "Handover"}


# Small milestone lists for the reference rule: ids share node ids across
# models, and names mix case and whitespace variants, blank names, and
# names equal to ids or node ids.
NODES = ("a", "b", "e4")
IDS = tuple(f"{model}:{node}" for model in ("m", "n") for node in NODES)
NAMES = ("Review", "review", " REVIEW\t", "Re  view", "", " ", "Handover", "m:a", "n:b", "a", "e4", " E4")
REFS = (*NAMES, *IDS, "nowhere")


def milestone_lists(**kwargs):
    rows = st.tuples(
        st.sampled_from(IDS),
        st.sampled_from(NAMES),
        st.sampled_from(("start", "intermediate", "end")),
        st.frozensets(st.sampled_from(REFS), max_size=3),
    )
    return st.lists(rows, unique_by=lambda row: row[0], **kwargs).map(
        lambda rows: [
            milestone(mid, name=name, kind=kind, consumers=refs, aligns=sorted(refs)[:1])
            for mid, name, kind, refs in rows
        ]
    )


class TestReferenceRule:
    """gq7 and alignsWith references, labels, seeds and retention follow
    one rule, checked against linear scans."""

    @given(milestone_lists(min_size=1, max_size=6))
    def test_references_labels_and_seeds(self, parkpilot, ms):
        def expected(ref):
            return oracles.resolve_by_scan(ms, ref) or ref

        loaded = resolve_references(ms)
        for before, after in zip(ms, loaded):
            assert after.gq.gq7_consumers == frozenset(map(expected, before.gq.gq7_consumers))
            assert after.aligns_with == frozenset(map(expected, before.aligns_with))

        bundle = Bundle(manifest=parkpilot.manifest, pyramid=parkpilot.pyramid, milestones=loaded)
        labels = bundle.labels()
        assert len(set(labels.values())) == len(ms)
        for m in ms:
            named = oracles.resolve_by_scan(ms, m.name) == m.milestone_id
            assert labels[m.milestone_id] == (m.name if named else m.milestone_id)

        # No reference is a model id here, so a seed is the milestone it
        # names; a gq7 item kept as written is a graph node, but no seed.
        session = _Session(bundle)
        for ref in REFS:
            want = oracles.resolve_by_scan(ms, ref)
            if want is None:
                with pytest.raises(UnknownSeedError):
                    session.impact(Namespace(seed=ref))
            else:
                assert session.impact(Namespace(seed=ref))[1]["impact"]["seed"] == want

    @given(milestone_lists(max_size=5), milestone_lists(max_size=5))
    def test_retention(self, before, after):
        findings = check_milestone_retention(before, after)
        assert sorted((f.code, f.subject) for f in findings) == oracles.retention_by_scan(before, after)


def id_parts(letters: str, most: int):
    return st.lists(st.sampled_from(letters), min_size=1, max_size=most).map(":".join)


@st.composite
def clashing_bundles(draw):
    """Up to 6 models, each a chain of 2 or 3 events: model ids drawn from
    `a`, `a:b`, `a:b:c`, ... and node ids from `b`, `c`, `b:c`, ..., so a
    node id may complete another model's id, and a milestone id may be a
    model id. Each event has a name of its own and may promise consumers
    by id."""
    models = draw(st.lists(id_parts("abc", 3), min_size=1, max_size=6, unique=True))
    nodes = {m: draw(st.lists(id_parts("bcx", 2), min_size=2, max_size=3, unique=True)) for m in models}
    ids = [f"{m}:{n}" for m in models for n in nodes[m]]
    consumers = {i: draw(st.lists(st.sampled_from(ids), max_size=2, unique=True)) for i in ids}
    return models, nodes, consumers


class TestOneIdNamespace:
    @given(clashing_bundles())
    def test_one_milestone_per_pair_and_impact_is_a_union(self, drawn):
        """The load refuses two (model, node) pairs that spell one id, or
        else gives each pair its own milestone, listed once among the
        dependency nodes. A model seed's impact is the union of its
        milestones' impacts, and a name seed is the milestone it names."""
        models, nodes, consumers = drawn
        pairs = [(m, n) for m in models for n in nodes[m]]
        with tempfile.TemporaryDirectory() as tmp:
            entries = []
            for level, m in enumerate(models):
                kinds = ["start-event"] + ["intermediate-event"] * (len(nodes[m]) - 2) + ["end-event"]
                events = [
                    node(n, kind, name=f"event {m} {n}", ext={"gq7": ", ".join(consumers[f"{m}:{n}"])})
                    for n, kind in zip(nodes[m], kinds)
                ]
                events[0].timer = anchor(10)
                (Path(tmp) / f"{level}.bpmn").write_text(serialize_model(chain_model(m, events)), encoding="utf-8")
                entries.append({"id": m, "file": f"{level}.bpmn", "level": min(level, 1)})
            manifest = Path(tmp) / "manifest.json"
            manifest.write_text(json.dumps({"root": models[0], "models": entries}), encoding="utf-8")
            if len({f"{m}:{n}" for m, n in pairs}) < len(pairs):
                with pytest.raises(PyramidError) as refused:
                    load_bundle(manifest)
                assert refused.value.code == "DUPLICATE-MILESTONE"
                return
            loaded = load_bundle(manifest)

        got = sorted((ms.model_id, ms.event_node_id, ms.milestone_id) for ms in loaded.milestones)
        assert got == sorted((m, n, f"{m}:{n}") for m, n in pairs)
        session = _Session(loaded)
        listed = Counter(n["id"] for n in session.deps(Namespace())[1]["dependencies"]["nodes"])
        assert all(listed[ms.milestone_id] == 1 for ms in loaded.milestones)

        graph, pyramid = session.graph, loaded.pyramid
        closure = oracles.closure_floyd_warshall(graph.nodes, [(e.producer, e.consumer) for e in graph.edges])

        def section(seed, seeds):
            one = impact(graph, pyramid, seeds)
            levels = sorted(one.crossed_levels)
            return {"seed": seed, "downstream": one.downstream, "upstream": one.upstream, "crossedLevels": levels}

        for m in models:
            members = {f"{m}:{n}" for n in nodes[m]}
            whole = section(m, members)
            parts = [section(i, {i}) for i in members]
            assert set(whole["downstream"]) == {b for a, b in closure if a in members} - members
            assert set(whole["downstream"]) == {n for p in parts for n in p["downstream"]} - members
            assert set(whole["upstream"]) == {a for a, b in closure if b in members} - members
            assert set(whole["upstream"]) == {n for p in parts for n in p["upstream"]} - members
            assert set(whole["crossedLevels"]) == {n for p in parts for n in p["crossedLevels"]}
            assert session.impact(Namespace(seed=m))[1]["impact"] == whole
        for ms in loaded.milestones:
            assert session.impact(Namespace(seed=ms.name))[1]["impact"] == section(ms.milestone_id, {ms.milestone_id})
