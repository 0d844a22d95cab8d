import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import milestone, stub_pyramid
from procpyramid import (
    OffsetTable,
    UnknownSeedError,
    check_temporal,
    cross_check_declared,
    find_redundant,
    impact,
    infer_edges,
)
from procpyramid.dependency import (
    DECLARED_AND_MATCHED,
    DECLARED_UNMATCHED,
    INFERRED_UNDECLARED,
    DependencyEdge,
    DependencyGraph,
    graph_to_dot,
    graph_to_json,
)


def edge_map(graph):
    return {(e.producer, e.consumer): (set(e.via), e.status) for e in graph.edges}


class TestInference:
    def test_statuses(self):
        ms = [
            milestone("m:a", outputs=("plan", "brief"), consumers=("m:b", "m:ghost")),
            milestone("m:b", inputs=("plan",), outputs=("report",)),
            milestone("m:c", inputs=("report",)),
        ]
        graph = infer_edges(ms)
        assert edge_map(graph) == {
            ("m:a", "m:b"): ({"plan"}, DECLARED_AND_MATCHED),
            ("m:a", "m:ghost"): (set(), DECLARED_UNMATCHED),
            ("m:b", "m:c"): ({"report"}, INFERRED_UNDECLARED),
        }
        assert graph.nodes == ["m:a", "m:b", "m:c", "m:ghost"]

    def test_aliases_join_names(self):
        ms = [
            milestone("m:a", outputs=("Park Pilot Requirements",)),
            milestone("n:b", inputs=("pp requirements",)),
        ]
        assert infer_edges(ms).edges == []
        graph = infer_edges(ms, {"pp requirements": "park pilot requirements"})
        assert edge_map(graph) == {
            ("m:a", "n:b"): ({"park pilot requirements"}, INFERRED_UNDECLARED)
        }

    def test_no_self_edges(self):
        ms = [milestone("m:a", inputs=("x",), outputs=("x",), consumers=("m:a",))]
        assert infer_edges(ms).edges == []

    def test_cross_check_codes(self):
        ms = [
            milestone("m:a", outputs=("plan",), consumers=("m:ghost",)),
            milestone("m:b", inputs=("plan",)),
        ]
        findings = cross_check_declared(infer_edges(ms))
        assert [(f.code, f.subject) for f in findings] == [
            ("DECLARED-UNMATCHED", "m:a->m:ghost"),
            ("UNDECLARED-DEPENDENCY", "m:a->m:b"),
        ]

    names = st.sampled_from(["plan", "brief", "report", "frame", "spec"])

    @given(st.data())
    def test_matches_brute_force_oracle(self, data):
        count = data.draw(st.integers(min_value=0, max_value=8), label="count")
        ids = [f"m{i % 3}:e{i}" for i in range(count)]
        ms = []
        for mid in ids:
            outs = data.draw(st.frozensets(self.names, max_size=2), label=f"out {mid}")
            ins = data.draw(st.frozensets(self.names, max_size=2), label=f"in {mid}")
            declared = data.draw(
                st.frozensets(st.sampled_from(ids + ["x:ghost"]), max_size=2),
                label=f"gq7 {mid}",
            )
            ms.append(milestone(mid, inputs=ins, outputs=outs, consumers=declared))

        graph = infer_edges(ms)
        expected = oracles.edges_brute_force(
            {m.milestone_id: set(m.gq.gq6_outputs) for m in ms},
            {m.milestone_id: set(m.gq.gq5_inputs) for m in ms},
            {m.milestone_id: set(m.gq.gq7_consumers) for m in ms},
        )
        assert {(e.producer, e.consumer): (e.via, e.status) for e in graph.edges} == expected

    spellings = st.sampled_from(["plan", "Plan ", "brief", "BRIEF", "report", "frame", "spec"])

    @given(st.data())
    def test_aliased_edges_match_the_pairwise_scan_in_order(self, data):
        aliases = data.draw(st.dictionaries(self.spellings, self.spellings, max_size=5), label="aliases")
        count = data.draw(st.integers(min_value=0, max_value=8), label="count")
        ids = [f"m{i % 3}:e{i}" for i in range(count)]
        ms = []
        for mid in ids:
            outs = data.draw(st.frozensets(self.spellings, max_size=3), label=f"out {mid}")
            ins = data.draw(st.frozensets(self.spellings, max_size=3), label=f"in {mid}")
            declared = data.draw(
                st.frozensets(st.sampled_from(ids + ["x:ghost"]), max_size=2),
                label=f"gq7 {mid}",
            )
            ms.append(milestone(mid, inputs=ins, outputs=outs, consumers=declared))

        def canonical(names):
            return {oracles.alias_walk(n, aliases) for n in names}

        graph = infer_edges(data.draw(st.permutations(ms), label="order"), aliases)
        expected = oracles.edges_brute_force(
            {m.milestone_id: canonical(m.gq.gq6_outputs) for m in ms},
            {m.milestone_id: canonical(m.gq.gq5_inputs) for m in ms},
            {m.milestone_id: set(m.gq.gq7_consumers) for m in ms},
        )
        assert [(e.producer, e.consumer, e.via, e.status) for e in graph.edges] == [
            (p, c, *expected[p, c]) for p, c in sorted(expected)
        ]
        assert graph.nodes == sorted(set(ids).union(*(m.gq.gq7_consumers for m in ms)))

    def test_duplicate_ids_yield_one_edge_per_milestone_pair(self):
        ms = [
            milestone("m:a", outputs=("x",)),
            milestone("m:b", inputs=("x",), consumers=("m:a",)),
            milestone("m:a", outputs=("x",)),
        ]
        graph = infer_edges(ms)
        assert [(e.producer, e.consumer, e.status) for e in graph.edges] == [
            ("m:a", "m:b", INFERRED_UNDECLARED),
            ("m:a", "m:b", INFERRED_UNDECLARED),
            ("m:b", "m:a", DECLARED_UNMATCHED),
            ("m:b", "m:a", DECLARED_UNMATCHED),
        ]
        assert graph.nodes == ["m:a", "m:b"]

    @given(st.data())
    def test_aliases_only_ever_add_pairs(self, data):
        count = data.draw(st.integers(min_value=0, max_value=6))
        ms = []
        for i in range(count):
            outs = data.draw(st.frozensets(self.names, max_size=2))
            ins = data.draw(st.frozensets(self.names, max_size=2))
            ms.append(milestone(f"m:e{i}", inputs=ins, outputs=outs))
        alias = data.draw(st.sampled_from(["brief", "report"]))
        before = {(e.producer, e.consumer) for e in infer_edges(ms).edges}
        after = {(e.producer, e.consumer) for e in infer_edges(ms, {alias: "plan"}).edges}
        assert before <= after


class TestTemporal:
    def test_violation_and_not_timed(self):
        ms = [
            milestone("m:a", outputs=("x",)),
            milestone("m:b", inputs=("x",)),
            milestone("m:c", inputs=("x",)),
        ]
        graph = infer_edges(ms)
        table = OffsetTable(offsets={"m:a": -30, "m:b": -60})
        findings = check_temporal(graph, table)
        assert [(f.code, f.subject) for f in findings] == [
            ("TEMPORAL-VIOLATION", "m:a->m:b"),
            ("NOT-TIMED", "m:c"),
        ]

    def test_equal_offsets_are_fine(self):
        ms = [milestone("m:a", outputs=("x",)), milestone("m:b", inputs=("x",))]
        table = OffsetTable(offsets={"m:a": -30, "m:b": -30})
        assert check_temporal(infer_edges(ms), table) == []

    def test_cycle_detection(self):
        ms = [
            milestone("m:a", inputs=("z",), outputs=("x",)),
            milestone("m:b", inputs=("x",), outputs=("y",)),
            milestone("m:c", inputs=("y",), outputs=("z",)),
            milestone("m:d", inputs=("y",)),
        ]
        table = OffsetTable(offsets={m.milestone_id: 0 for m in ms})
        findings = check_temporal(infer_edges(ms), table)
        cycles = [f for f in findings if f.code == "CYCLE"]
        assert len(cycles) == 1
        assert "m:a" in cycles[0].message and "m:d" not in cycles[0].message


def diamond_graph():
    ms = [
        milestone("p0:a", outputs=("x",)),
        milestone("p1:b", inputs=("x",), outputs=("y",)),
        milestone("p1:c", inputs=("x",), outputs=("z",)),
        milestone("p2:d", inputs=("y", "z")),
    ]
    return infer_edges(ms)


class TestImpact:
    def test_layers_are_ordered(self):
        graph = diamond_graph()
        result = impact(graph, None, "p0:a")
        assert result.downstream == ["p1:b", "p1:c", "p2:d"]
        assert result.upstream == []
        result = impact(graph, None, "p2:d")
        assert result.upstream == ["p1:b", "p1:c", "p0:a"]

    def test_model_seed_expands_and_excludes_itself(self):
        pyramid = stub_pyramid({0: ["p0"], 1: ["p1"], 2: ["p2"]}, [("p0", "p1"), ("p1", "p2")])
        result = impact(diamond_graph(), pyramid, "p1")
        assert result.downstream == ["p2:d"]
        assert result.upstream == ["p0:a"]
        assert result.crossed_levels == {0, 1, 2}

    def test_unknown_seed(self):
        with pytest.raises(UnknownSeedError):
            impact(diamond_graph(), None, "nope")
        pyramid = stub_pyramid({0: ["p0"], 1: ["empty"]}, [("p0", "empty")])
        with pytest.raises(UnknownSeedError):
            impact(diamond_graph(), pyramid, "empty")

    @given(st.data())
    def test_downstream_matches_closure_oracle(self, data):
        size = data.draw(st.integers(min_value=1, max_value=7), label="size")
        ids = [f"m:e{i}" for i in range(size)]
        edges = [
            (a, b)
            for a in ids
            for b in ids
            if a != b and data.draw(st.booleans(), label=f"{a}->{b}")
        ]
        graph = DependencyGraph(
            nodes=sorted(ids),
            edges=[DependencyEdge(a, b, frozenset({"x"}), INFERRED_UNDECLARED) for a, b in edges],
        )
        closure = oracles.closure_floyd_warshall(ids, edges)
        seed = data.draw(st.sampled_from(ids), label="seed")
        result = impact(graph, None, seed)
        assert set(result.downstream) == {b for a, b in closure if a == seed} - {seed}
        assert set(result.upstream) == {a for a, b in closure if b == seed} - {seed}


class TestRedundant:
    def test_cross_model_duplicates_only(self):
        ms = [
            milestone("m:a", outputs=("plan",)),
            milestone("m:b", outputs=("plan",)),
            milestone("n:c", outputs=("Plan",)),
            milestone("m:d", outputs=("other",)),
        ]
        findings = find_redundant(ms)
        assert [(f.code, f.subject) for f in findings] == [("REDUNDANT-OUTPUT", "plan")]
        assert "m:a" in findings[0].message and "n:c" in findings[0].message

    def test_same_model_refinement_is_allowed(self):
        ms = [milestone("m:a", outputs=("plan",)), milestone("m:b", outputs=("plan",))]
        assert find_redundant(ms) == []


class TestExport:
    def test_dot_shape(self):
        graph = diamond_graph()
        table = OffsetTable(offsets={"p0:a": -60})
        dot = graph_to_dot(graph, table, names={"p0:a": 'say "hi"'})
        assert dot.startswith("digraph dependencies {")
        assert '"p0:a" [label="say \\"hi\\"@-60d"];' in dot
        assert '"p1:b" [label="p1:b@?"];' in dot
        assert '"p0:a" -> "p1:b" [label="x", style=dashed];' in dot
        assert dot.rstrip().endswith("}")

    def test_json_shape(self):
        pyramid = stub_pyramid({0: ["p0"], 1: ["p1"], 2: ["p2"]}, [])
        doc = graph_to_json(diamond_graph(), OffsetTable(offsets={"p0:a": -60}), pyramid)
        nodes = {n["id"]: n for n in doc["nodes"]}
        assert nodes["p0:a"] == {"id": "p0:a", "name": "p0:a", "level": 0, "offset": -60}
        assert nodes["p2:d"]["offset"] is None
        edge = next(e for e in doc["edges"] if e["consumer"] == "p2:d" and e["producer"] == "p1:b")
        assert edge == {
            "producer": "p1:b",
            "consumer": "p2:d",
            "via": ["y"],
            "status": INFERRED_UNDECLARED,
            "producerLevel": 1,
            "consumerLevel": 2,
        }
