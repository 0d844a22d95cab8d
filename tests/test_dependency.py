from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import chain_model, milestone, node, stub_pyramid
from procpyramid import (
    OffsetTable,
    Pyramid,
    check_temporal,
    cross_check_declared,
    diff,
    find_redundant,
    impact,
    infer_edges,
)
from procpyramid.conformance import ReferenceProcess
from procpyramid.dependency import (
    DECLARED_AND_MATCHED,
    DECLARED_UNMATCHED,
    INFERRED_UNDECLARED,
    DependencyEdge,
    DependencyGraph,
    _NameKeys,
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

    spellings = st.sampled_from(
        ["plan", "Plan ", "brief", "BRIEF", "report", "frame", "Frame\n", "spec", "\u3000spec", "SPEC\t"]
    )

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

    @given(st.data())
    def test_cycles_match_mutual_reachability(self, data):
        size = data.draw(st.integers(min_value=1, max_value=6), label="size")
        ids = [f"m:e{i}" for i in range(size)]
        edges = [(a, b) for a in ids for b in ids if data.draw(st.booleans(), label=f"{a}->{b}")]
        graph = DependencyGraph(
            nodes=ids,
            edges=[DependencyEdge(a, b, frozenset({"x"}), INFERRED_UNDECLARED) for a, b in edges],
            model_of=dict.fromkeys(ids, "m"),
        )
        closure = oracles.closure_floyd_warshall(ids, edges)
        expected = set()
        for a in ids:
            component = sorted({a} | {b for b in ids if (a, b) in closure and (b, a) in closure})
            if len(component) > 1:
                expected.add((component[0], "dependency cycle: " + " -> ".join(component)))
        findings = check_temporal(graph, OffsetTable(offsets=dict.fromkeys(ids, 0)))
        found = [(f.subject, f.message) for f in findings if f.code == "CYCLE"]
        assert len(found) == len(set(found))
        assert set(found) == expected


def layer_order(seeds, edges):
    """Nodes other than the seeds that they reach, by fewest edges from a
    seed, then by id; distances by relaxing every edge once per node."""
    hops = dict.fromkeys(seeds, 0)
    for _ in range(len(edges)):
        for a, b in edges:
            if a in hops and hops[a] + 1 < hops.get(b, len(edges) + 1):
                hops[b] = hops[a] + 1
    return sorted((n for n in hops if n not in seeds), key=lambda n: (hops[n], n))


def diamond_graph():
    ms = [
        milestone("p0:a", outputs=("x",)),
        milestone("p1:b", inputs=("x",), outputs=("y",)),
        milestone("p1:c", inputs=("x",), outputs=("z",)),
        milestone("p2:d", inputs=("y", "z")),
    ]
    return infer_edges(ms)


class TestImpact:
    """`impact` walks the graph from a set of milestone ids; what a
    `--seed` names is the session's decision (tests/test_cli.py)."""

    def test_layers_are_ordered(self):
        graph = diamond_graph()
        result = impact(graph, Pyramid(""), {"p0:a"})
        assert result.downstream == ["p1:b", "p1:c", "p2:d"]
        assert result.upstream == []
        result = impact(graph, Pyramid(""), {"p2:d"})
        assert result.upstream == ["p1:b", "p1:c", "p0:a"]

    def test_a_seed_set_excludes_itself(self):
        pyramid = stub_pyramid({0: ["p0"], 1: ["p1"], 2: ["p2"]}, [("p0", "p1"), ("p1", "p2")])
        result = impact(diamond_graph(), pyramid, {"p1:b", "p1:c"})
        assert result.downstream == ["p2:d"]
        assert result.upstream == ["p0:a"]
        assert result.crossed_levels == {0, 1, 2}

    def test_a_dangling_reference_belongs_to_no_model(self):
        """n:b promises a consumer p0:ghost that is no milestone. Its text
        starts with the model id p0, but only a milestone of p0 is p0's: it
        crosses no level when reached."""
        graph = infer_edges([milestone("p0:a"), milestone("n:b", consumers=("p0:ghost",))])
        assert "p0:ghost" in graph.nodes
        pyramid = stub_pyramid({0: ["p0"], 1: ["n"]}, [("p0", "n")])
        result = impact(graph, pyramid, {"p0:a"})
        assert (result.downstream, result.upstream, result.crossed_levels) == ([], [], {0})
        promising = impact(graph, pyramid, {"n:b"})
        assert (promising.downstream, promising.crossed_levels) == (["p0:ghost"], {1})

    @given(st.data())
    def test_downstream_matches_closure_oracle(self, data):
        """Over gq7 graphs whose promises include dangling references under
        a real model id (m0:ghost), seeded by any set of milestones: the
        crossed levels are those of model_of's models alone."""
        size = data.draw(st.integers(min_value=1, max_value=7), label="size")
        ids = [f"m{i % 3}:e{i}" for i in range(size)]
        targets = (*ids, "m0:ghost", "m1:ghost")
        promised = {
            a: [b for b in targets if a != b and data.draw(st.booleans(), label=f"{a}->{b}")] for a in ids
        }
        graph = infer_edges([milestone(a, consumers=promised[a]) for a in ids])
        assert graph.model_of == {a: a.split(":")[0] for a in ids}
        edges = [(e.producer, e.consumer) for e in graph.edges]
        closure = oracles.closure_floyd_warshall(graph.nodes, edges)
        pyramid = stub_pyramid({0: ["m0"], 1: ["m1"], 2: ["m2"]}, [("m0", "m1"), ("m1", "m2")])
        seeds = data.draw(st.sets(st.sampled_from(ids), min_size=1), label="seeds")
        result = impact(graph, pyramid, seeds)
        assert set(result.downstream) == {b for a, b in closure if a in seeds} - seeds
        assert set(result.upstream) == {a for a, b in closure if b in seeds} - seeds
        assert result.downstream == layer_order(seeds, edges)
        assert result.upstream == layer_order(seeds, [(b, a) for a, b in edges])
        touched = seeds | set(result.downstream) | set(result.upstream)
        members = touched & graph.model_of.keys()
        assert result.crossed_levels == {pyramid.level_of[graph.model_of[n]] for n in members}


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

    def test_two_spellings_of_one_key_list_their_milestone_once(self):
        ms = [milestone("m:a", outputs=("plan", "Plan ")), milestone("n:b", outputs=("plan",))]
        [found] = find_redundant(ms)
        assert found.message == "produced in 2 different models by: m:a, n:b"

    def test_same_model_refinement_is_allowed(self):
        ms = [milestone("m:a", outputs=("plan",)), milestone("m:b", outputs=("plan",))]
        assert find_redundant(ms) == []

    @given(st.data())
    def test_aliased_findings_match_a_brute_force_grouping(self, data):
        spellings = TestInference.spellings
        aliases = data.draw(st.dictionaries(spellings, spellings, max_size=5), label="aliases")
        count = data.draw(st.integers(min_value=0, max_value=8), label="count")
        ms = []
        for i in range(count):
            outs = data.draw(st.frozensets(spellings, max_size=3), label=f"out {i}")
            ms.append(milestone(f"m{i % 3}:e{i}", outputs=outs))

        # A milestone is listed once per key, however many of its raw
        # output names share that key.
        ordered = sorted(ms, key=lambda m: m.milestone_id)
        keyed = [(m, {oracles.alias_walk(n, aliases) for n in m.gq.gq6_outputs}) for m in ordered]
        expected = []
        for key in sorted(set().union(*(keys for _, keys in keyed))):
            group = [m for m, keys in keyed if key in keys]
            models = {m.model_id for m in group}
            if len(models) > 1:
                who = ", ".join(m.milestone_id for m in group)
                message = f"produced in {len(models)} different models by: {who}"
                expected.append(("REDUNDANT-OUTPUT", key, message))

        findings = find_redundant(data.draw(st.permutations(ms), label="order"), aliases)
        assert [(f.code, f.subject, f.message) for f in findings] == expected


class TestSharedNameKeys:
    """A name table shared across calls gives the values a fresh one gives."""

    spellings = TestInference.spellings
    aliases = st.one_of(
        st.just({"plan": "brief", "Brief": "report", "REPORT ": "frame"}),  # a chain
        st.just({"plan": "brief", "Brief ": "PLAN", "spec": "plan"}),  # a cycle, entered from spec
        st.dictionaries(spellings, spellings, max_size=5),
    )

    def milestones(self, data, label):
        count = data.draw(st.integers(min_value=0, max_value=6), label=f"{label} count")
        ids = [f"m{i % 3}:e{i}" for i in range(count)]
        names = st.frozensets(self.spellings, max_size=3)
        return [
            milestone(
                mid,
                inputs=data.draw(names, label=f"{label} in {mid}"),
                outputs=data.draw(names, label=f"{label} out {mid}"),
                consumers=data.draw(st.frozensets(st.sampled_from(ids + ["x:ghost"]), max_size=2)),
                tools=data.draw(names, label=f"{label} tools {mid}"),
            )
            for mid in ids
        ]

    def model_and_reference(self, data, label):
        steps = data.draw(st.lists(self.spellings, max_size=5), label=f"{label} tasks")
        tools = ", ".join(data.draw(st.lists(self.spellings, max_size=2), label=f"{label} ext"))
        nodes = [node(f"t{i}", "task", name=n, days=1) for i, n in enumerate(steps)]
        model = chain_model("m0", nodes, extensions={"tools": tools, "methods": tools})
        names = st.frozensets(self.spellings, max_size=3)
        reference = ReferenceProcess(
            "ref",
            steps=data.draw(st.lists(self.spellings, min_size=1, max_size=5), label=f"{label} steps"),
            roles=data.draw(names, label=f"{label} roles"),
            methods=data.draw(names, label=f"{label} methods"),
            tools=data.draw(names, label=f"{label} tools"),
        )
        return model, reference

    @given(st.data())
    def test_a_filled_table_changes_no_value(self, data):
        aliases = data.draw(self.aliases, label="aliases")
        shared = _NameKeys(aliases)
        assert _NameKeys.of(shared) is shared
        # fill the table through other calls first
        other = self.milestones(data, "other")
        infer_edges(other, shared)
        find_redundant(other, shared)
        model, reference = self.model_and_reference(data, "other")
        diff(model, other, reference, shared)

        ms = self.milestones(data, "this")
        model, reference = self.model_and_reference(data, "this")
        calls = {
            "edges": lambda names: infer_edges(ms, names),
            "redundant": lambda names: find_redundant(ms, names),
            "diff": lambda names: diff(model, ms, reference, names),
        }
        for name in data.draw(st.permutations(sorted(calls)), label="order"):
            assert calls[name](shared) == calls[name](aliases), name
        for raw, key in shared.items():
            assert key == oracles.alias_walk(raw, aliases)

    def test_a_name_that_is_its_own_key_is_stored_as_itself(self):
        keys = _NameKeys({"pp plan": "park pilot plan"})
        own = "".join(["park pilot ", "plan"])
        assert keys[own] is own
        assert keys.get(own) is own
        padded = "Park  Pilot Plan "
        assert keys[padded] == "park pilot plan" and keys[padded] is not padded
        assert keys["PP plan"] == "park pilot plan"

    def test_edges_carry_the_milestones_own_strings(self):
        out, read = "".join(["pl", "an"]), "".join(["pla", "n"])
        ms = [milestone("m:a", outputs=(out,)), milestone("n:b", inputs=(read,))]
        [edge] = infer_edges(ms).edges
        [via] = edge.via
        assert via is out or via is read


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
        table = OffsetTable(offsets={"p0:a": -60})
        doc = graph_to_json(diamond_graph(), table, pyramid, {"p0:a": "kick-off"})
        nodes = {n["id"]: n for n in doc["nodes"]}
        assert nodes["p0:a"] == {"id": "p0:a", "name": "kick-off", "level": 0, "offset": -60}
        assert nodes["p1:b"]["name"] == "p1:b"
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
