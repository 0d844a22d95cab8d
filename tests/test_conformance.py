import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import anchor, chain_model, milestone, node, stub_pyramid
from procpyramid import (
    TemplateError,
    VvLinkStat,
    check_milestone_retention,
    check_vv_links,
    diff,
    load_reference,
    parse_model,
    vv_iterations,
)
from procpyramid.conformance import ReferenceProcess, _lcs_matched
from procpyramid.dependency import (
    DECLARED_UNMATCHED,
    INFERRED_UNDECLARED,
    DependencyEdge,
    DependencyGraph,
)


def template(**overrides):
    data = {"id": "t1", "steps": ["plan"], "binding": {"modelId": "m"}}
    data.update(overrides)
    return data


class TestLoad:
    def test_single_object_and_defaults(self):
        (ref,) = load_reference(json.dumps(template()))
        assert ref.ref_id == "t1"
        assert ref.side == "none"
        assert ref.counterpart is None
        assert ref.steps == ["plan"]
        assert ref.roles == frozenset()
        assert ref.binding_model == "m"
        assert ref.binding_pattern is None

    def test_name_is_accepted_and_ignored(self):
        names = ({}, {"name": "Plan"}, {"name": 7})
        loaded = [load_reference(json.dumps(template(**name))) for name in names]
        assert loaded[0] == loaded[1] == loaded[2]

    def test_list_with_counterpart(self):
        refs = load_reference(
            json.dumps(
                [
                    template(id="design", side="left"),
                    template(id="test", side="right", counterpart="design"),
                ]
            )
        )
        assert [r.ref_id for r in refs] == ["design", "test"]

    @pytest.mark.parametrize(
        ("data", "fragment"),
        [
            ("{nope", "not valid JSON"),
            (json.dumps([42]), "must be an object"),
            (json.dumps(template(id=None)), "missing id"),
            (json.dumps({"steps": ["x"]}), "missing id"),
            (json.dumps(template(id="  ")), r"\[0\]: missing id"),
            (json.dumps([template(id="a"), template(id="\t")]), r"\[1\]: missing id"),
            (json.dumps(template(side="middle")), "side must be one of"),
            (json.dumps(template(steps="plan")), "steps must be a list"),
            (json.dumps(template(steps=[])), "EMPTY-STEPS"),
            (json.dumps(template(side="right")), "must name its left counterpart"),
            (json.dumps(template(binding=7)), "binding must be an object"),
            (json.dumps(template(binding={"namePattern": 7})), "binding.namePattern must be a string"),
            (json.dumps(template(binding={"modelId": ["m"]})), "binding.modelId must be a string"),
            (json.dumps(template(binding={"modelId": "m", "namePattern": 7})), "namePattern must be a string"),
            (json.dumps(template(binding={"modelId": "m1", "namePattern": "*"})), "one non-blank"),
            (json.dumps(template(binding={"modelId": "  "})), "one non-blank"),
            (json.dumps(template(binding={"modelId": ""})), "one non-blank"),
            (json.dumps(template(binding={"namePattern": " \t"})), "one non-blank"),
            (json.dumps(template(side="right", counterpart=["a"])), "counterpart must be a template id"),
            (json.dumps(template(counterpart=3)), "counterpart must be a template id"),
            (json.dumps(template(side="left", counterpart="t1")), "counterpart is only for right-side"),
            (json.dumps(template(counterpart="elsewhere")), "counterpart is only for right-side"),
            (json.dumps(template(roles="crew")), "roles must be a list"),
            # a blank name is a requirement no model can meet: models drop theirs
            (json.dumps(template(steps=["plan", ""])), "steps must be a list of names"),
            (json.dumps(template(steps=[" \t"])), "steps must be a list of names"),
            (json.dumps(template(roles=["  "])), "roles must be a list of names"),
            (json.dumps(template(methods=["review", ""])), "methods must be a list of names"),
            (json.dumps(template(tools=["\n"])), "tools must be a list of names"),
            (json.dumps([template(), template()]), "duplicate template ids"),
            (
                json.dumps(
                    [
                        template(id="a", side="right", counterpart="b"),
                        template(id="b", side="right", counterpart="a"),
                    ]
                ),
                "is not left-side",
            ),
        ],
    )
    def test_rejects(self, data, fragment):
        with pytest.raises(TemplateError, match=fragment):
            load_reference(data)

    def test_duplicate_ids_are_listed_once_in_sorted_order(self):
        ids = ["b", "a", "c", "b", "a", "b"]
        with pytest.raises(TemplateError, match=r"duplicate template ids: a, b$"):
            load_reference(json.dumps([template(id=i) for i in ids]))

    def test_ids_are_unique_across_texts(self):
        texts = [json.dumps(template(id=i)) for i in ("a", "b", "a")]
        with pytest.raises(TemplateError, match=r"duplicate template ids: a$"):
            load_reference(*texts)

    def test_counterpart_may_sit_in_another_text(self):
        right = json.dumps(template(id="test", side="right", counterpart="design"))
        left = json.dumps(template(id="design", side="left"))
        refs = load_reference(right, left)
        assert [(r.ref_id, r.counterpart) for r in refs] == [("test", "design"), ("design", None)]

    def test_dangling_counterpart_is_rejected(self):
        with pytest.raises(TemplateError, match="reference template t1: DANGLING-COUNTERPART 'elsewhere'$"):
            load_reference(json.dumps(template(side="right", counterpart="elsewhere")))

    def test_no_texts_load_no_templates(self):
        assert load_reference() == []


class TestBinding:
    def model(self, model_id="m", name="Park Pilot Test"):
        return chain_model(
            model_id,
            [node("s", "start-event", timer=anchor(30)), node("t", "task", days=1),
             node("e", "end-event")],
            name=name,
        )

    def test_model_id_is_exact(self):
        ref = ReferenceProcess("r", steps=["x"], binding_model="m")
        assert ref.binds(self.model())
        assert not ref.binds(self.model(model_id="m2"))

    def test_name_pattern_is_case_blind_glob(self):
        ref = ReferenceProcess("r", steps=["x"], binding_pattern="*park pilot*")
        assert ref.binds(self.model(name="PARK  PILOT test"))
        assert not ref.binds(self.model(name="bench test"))

    def test_pattern_also_tries_the_id(self):
        ref = ReferenceProcess("r", steps=["x"], binding_pattern="pp-*")
        assert ref.binds(self.model(model_id="pp-07", name="something else"))

    def test_no_binding_binds_nothing(self):
        assert not ReferenceProcess("r", steps=["x"]).binds(self.model())


def task_chain(names, model_id="m", **kwargs):
    nodes = [node(f"t{i}", "task", name=n, days=1) for i, n in enumerate(names)]
    return chain_model(model_id, nodes, **kwargs)


class TestDiff:
    def reference(self, **overrides):
        fields = dict(
            ref_id="ref", steps=["draft plan", "review plan"],
            roles=frozenset({"crew"}),
        )
        fields.update(overrides)
        return ReferenceProcess(**fields)

    def test_verbatim_model_conforms(self):
        model = task_chain(["Draft Plan", "review  plan"])
        ms = [milestone("m:e", tools=("workbench",))]
        ref = self.reference(tools=frozenset({"Workbench"}))
        report = diff(model, ms, ref)
        assert report.verdict == "conforming"
        for aspect in report.aspects.values():
            assert aspect.match_ratio == 1.0
            assert aspect.missing == [] and aspect.extra == [] and aspect.reordered == []
        assert report.aspects["steps"].matched == ["draft plan", "review plan"]

    def test_extra_steps_do_not_break_conformance(self):
        model = task_chain(["draft plan", "polish wording", "review plan"])
        report = diff(model, [], self.reference())
        assert report.aspects["steps"].extra == ["polish wording"]
        assert report.verdict == "conforming"

    def test_missing_step_counts_partition_the_reference(self):
        ref = self.reference(steps=["a", "b", "c", "d"], roles=frozenset())
        report = diff(task_chain(["a", "c", "d"]), [], ref)
        steps = report.aspects["steps"]
        assert steps.matched == ["a", "c", "d"]
        assert steps.missing == ["b"]
        assert len(steps.matched) + len(steps.missing) == 4
        assert steps.match_ratio == 0.75
        assert report.verdict == "minor-deviation"

    def test_badly_gutted_steps_are_major(self):
        ref = self.reference(steps=["a", "b", "c", "d"], roles=frozenset())
        report = diff(task_chain(["d"]), [], ref)
        assert report.aspects["steps"].match_ratio == 0.25
        assert report.verdict == "major-deviation"

    def test_swapped_steps_are_reordered(self):
        report = diff(task_chain(["review plan", "draft plan"]), [], self.reference(roles=frozenset()))
        steps = report.aspects["steps"]
        assert steps.reordered == [("draft plan", "review plan")]
        assert steps.match_ratio == 0.5

    def test_roles_come_from_lanes(self):
        model = task_chain(["draft plan", "review plan"])
        report = diff(model, [], self.reference(roles=frozenset({"crew", "auditor"})))
        roles = report.aspects["roles"]
        assert roles.matched == ["crew"] and roles.missing == ["auditor"]
        assert report.verdict == "minor-deviation"

    def test_methods_and_tools_from_extensions(self):
        nodes = [
            node("t0", "task", name="draft plan", days=1, ext={"tools": "lathe, Press"}),
            node("t1", "task", name="review plan", days=1),
        ]
        model = chain_model("m", nodes, extensions={"methods": "sampling, stress test"})
        ref = self.reference(
            methods=frozenset({"Stress Test"}), tools=frozenset({"press", "lathe"})
        )
        report = diff(model, [], ref)
        assert report.aspects["methods"].match_ratio == 1.0
        assert report.aspects["methods"].extra == ["sampling"]
        assert report.aspects["tools"].matched == ["lathe", "press"]
        assert report.verdict == "conforming"

    def test_alias_bridges_vocabulary(self):
        ref = self.reference(steps=["pp plan"], roles=frozenset())
        aliases = {"pp plan": "park pilot plan"}
        report = diff(task_chain(["Park Pilot Plan"]), [], ref, aliases=aliases)
        assert report.aspects["steps"].match_ratio == 1.0

    def test_cyclic_flow_falls_back_to_document_order(self):
        nodes = [
            node("t0", "task", name="first", days=1),
            node("t1", "task", name="second", days=1),
        ]
        model = chain_model("m", nodes, flows=[("t0", "t1"), ("t1", "t0")])
        report = diff(model, [], self.reference(steps=["second", "first"], roles=frozenset()))
        assert report.aspects["steps"].reordered == [("second", "first")]

    def test_diff_is_deterministic(self):
        model = task_chain(["a", "b", "a", "c"])
        ref = self.reference(steps=["a", "c", "b"], roles=frozenset())
        first = diff(model, [], ref)
        second = diff(model, [], ref)
        assert first == second

    @given(
        ref=st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
        act=st.lists(st.sampled_from("abcd"), max_size=8),
    )
    def test_step_matching_is_a_true_lcs(self, ref, act):
        report = diff(task_chain(act), [], ReferenceProcess("r", steps=list(ref)))
        steps = report.aspects["steps"]
        assert len(steps.matched) == len(oracles.lcs_exhaustive(ref, act))
        assert len(steps.matched) + len(steps.missing) == len(ref)
        assert steps.match_ratio == len(steps.matched) / len(ref)

    @settings(max_examples=200)
    @given(st.data())
    def test_step_pairs_match_the_full_table(self, data):
        """The bit-parallel alignment picks exactly the pairs the n x m table
        backtrack picks, past one and two 64-bit words as well."""
        names = st.sampled_from([f"s{k}" for k in range(data.draw(st.integers(1, 8), label="alphabet"))])
        sides = []
        for side in ("ref", "act"):
            size = data.draw(st.sampled_from([0, 1, 2, 5, 20, 63, 64, 65, 130]), label=f"{side} size")
            sides.append(data.draw(st.lists(names, min_size=size, max_size=size), label=side))
        ref, act = sides
        assert _lcs_matched(ref, act) == oracles.lcs_pairs_by_table(ref, act)

    @given(st.data())
    def test_steps_follow_flows_then_document_order(self, data):
        size = data.draw(st.integers(min_value=1, max_value=7), label="size")
        flow_rank = data.draw(st.permutations(range(size)), label="flow rank")
        ids = data.draw(st.permutations([f"n{i}" for i in range(size)]), label="document order")
        edges = [
            (a, b)
            for a in ids
            for b in ids
            if flow_rank[ids.index(a)] < flow_rank[ids.index(b)]
            and data.draw(st.booleans(), label=f"{a}->{b}")
        ]
        if edges and data.draw(st.booleans(), label="back edge"):
            edges.append(edges[0][::-1])
        kinds = {n: data.draw(st.sampled_from(["task", "exclusive-gateway"]), label=n) for n in ids}
        model = chain_model("m", [node(n, kinds[n], days=1) for n in ids], flows=edges)
        report = diff(model, [], ReferenceProcess("r", steps=["none of these"]))
        order = oracles.priority_topological_order(ids, edges) or ids
        assert report.aspects["steps"].extra == [n for n in order if kinds[n] == "task"]

    @pytest.mark.parametrize(
        ("ref", "act"),
        [
            ("abcabcabcabc", "cbacbacba"),
            ("aabbccddaabbccd", "abcdabcdabcd"),
        ],
    )
    def test_step_matching_on_longer_adversarial_sequences(self, ref, act):
        report = diff(task_chain(list(act)), [], ReferenceProcess("r", steps=list(ref)))
        matched = report.aspects["steps"].matched
        assert len(matched) == len(oracles.lcs_exhaustive(list(ref), list(act)))


PARITY_XML = """<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
  <process id="p" name="Parity">
    <extensionElements><entry key="methods" value="Review"/></extensionElements>
    <startEvent id="s"/>
    <task id="a" name="Draft">
      <extensionElements>
        <entry key="tools" value="Lathe, press"/>
        <entry key="duration" value="P3D"/>
      </extensionElements>
    </task>
    <task id="b" name="Check"/>
    <task id="c" name="Sign">
      <extensionElements><entry key="methods" value="sampling,"/></extensionElements>
    </task>
    <task id="d" name="File"><extensionElements><entry key="duration" value="P1D"/></extensionElements></task>
    <endEvent id="e"/>
    <sequenceFlow id="f1" sourceRef="s" targetRef="b"/>
    <sequenceFlow id="f2" sourceRef="b" targetRef="a"/>
    <sequenceFlow id="f3" sourceRef="a" targetRef="d"/>
    <sequenceFlow id="f4" sourceRef="s" targetRef="c"/>
    <sequenceFlow id="f5" sourceRef="c" targetRef="d"/>
    <sequenceFlow id="f6" sourceRef="d" targetRef="e"/>
  </process>
</definitions>
"""


def aspect_lists(report):
    return {
        name: (a.matched, a.missing, a.extra, a.reordered, a.match_ratio)
        for name, a in report.aspects.items()
    }


class TestDiffParity:
    """Pinned diffs: a parsed model whose extension entries sit on some
    nodes only, and hand-built models with a repeated node id, whose last
    node stands for the id."""

    def test_extensions_on_some_nodes(self):
        model = parse_model(PARITY_XML, "p")
        ref = ReferenceProcess(
            "r", steps=["draft", "check", "sign"], methods=frozenset({"review"}),
            tools=frozenset({"Press", "drill"}),
        )
        report = diff(model, [milestone("p:e", tools=("Gauge",))], ref)
        assert aspect_lists(report) == {
            "steps": (["check", "sign"], ["draft"], ["draft", "file"], [("draft", "check")], 2 / 3),
            "roles": ([], [], [], [], 1.0),
            "methods": (["review"], [], ["sampling"], [], 1.0),
            "tools": (["press"], ["drill"], ["gauge", "lathe"], [], 0.5),
        }
        assert report.verdict == "minor-deviation"

    @pytest.mark.parametrize(
        ("flows", "matched", "extra", "reordered"),
        [
            ([("y", "x")], ["second"], ["third"], [("third", "second")]),
            ([("x", "y"), ("y", "z")], ["third", "second"], [], []),
            # on a cycle, document order: the id's last node twice
            ([("y", "x"), ("x", "y")], ["third", "second"], ["third"], []),
        ],
        ids=["acyclic", "last-node-first", "cyclic"],
    )
    def test_a_repeated_node_id_is_its_last_node(self, flows, matched, extra, reordered):
        nodes = [
            node("x", "task", name="first", days=1),
            node("y", "task", name="second", days=1),
            node("z", "exclusive-gateway"),
            node("x", "task", name="third", days=1, ext={"tools": "saw"}),
        ]
        model = chain_model("m", nodes, flows=flows)
        ref = ReferenceProcess("r", steps=["third", "second"], tools=frozenset({"saw"}))
        report = diff(model, [], ref)
        steps = report.aspects["steps"]
        assert (steps.matched, steps.extra, steps.reordered) == (matched, extra, reordered)
        assert report.aspects["tools"].matched == ["saw"]


def vv_setup(edges):
    pyramid = stub_pyramid({0: ["lm"], 1: ["rm"], 2: ["other"]}, [("lm", "rm"), ("rm", "other")])
    nodes = sorted({n for e in edges for n in (e.producer, e.consumer)} | {"lm:a", "rm:b"})
    graph = DependencyGraph(nodes=nodes, edges=list(edges), model_of={n: n.split(":")[0] for n in nodes})
    refs = [
        ReferenceProcess("design", side="left", steps=["x"], binding_model="lm"),
        ReferenceProcess(
            "verify", side="right", counterpart="design", steps=["x"],
            binding_model="rm",
        ),
    ]
    return pyramid, graph, refs


class TestVvLinks:
    def test_direct_data_flow_satisfies_the_link(self):
        pyramid, graph, refs = vv_setup(
            [DependencyEdge("lm:a", "rm:b", frozenset({"plan"}), INFERRED_UNDECLARED)]
        )
        assert check_vv_links(pyramid, refs, vv_iterations(pyramid, graph, refs)) == []

    def test_transitive_flow_counts(self):
        pyramid, graph, refs = vv_setup(
            [
                DependencyEdge("lm:a", "other:x", frozenset({"plan"}), INFERRED_UNDECLARED),
                DependencyEdge("other:x", "rm:b", frozenset({"report"}), INFERRED_UNDECLARED),
            ]
        )
        assert check_vv_links(pyramid, refs, vv_iterations(pyramid, graph, refs)) == []

    def test_missing_flow_is_an_error(self):
        pyramid, graph, refs = vv_setup([])
        findings = check_vv_links(pyramid, refs, vv_iterations(pyramid, graph, refs))
        assert [(f.code, f.subject) for f in findings] == [("VV-UNLINKED", "rm/lm")]

    def test_unmatched_declaration_does_not_count(self):
        pyramid, graph, refs = vv_setup(
            [DependencyEdge("lm:a", "rm:b", frozenset(), DECLARED_UNMATCHED)]
        )
        findings = check_vv_links(pyramid, refs, vv_iterations(pyramid, graph, refs))
        assert [f.code for f in findings] == ["VV-UNLINKED"]

    def test_unbound_sides_are_reported_not_guessed(self):
        pyramid, graph, refs = vv_setup([])
        refs[1].binding_model = "nowhere"
        findings = check_vv_links(pyramid, refs, vv_iterations(pyramid, graph, refs))
        assert [(f.code, f.subject) for f in findings] == [("UNBOUND-REFERENCE", "verify")]
        refs[1].binding_model = "rm"
        refs[0].binding_model = "nowhere"
        findings = check_vv_links(pyramid, refs, vv_iterations(pyramid, graph, refs))
        assert [(f.code, f.subject) for f in findings] == [("UNBOUND-REFERENCE", "design")]

    def test_left_and_unpaired_templates_are_ignored(self):
        pyramid, graph, _ = vv_setup([])
        refs = [ReferenceProcess("design", side="left", steps=["x"], binding_model="lm")]
        assert check_vv_links(pyramid, refs, vv_iterations(pyramid, graph, refs)) == []

    def test_a_model_bound_to_both_sides_needs_an_iteration_of_its_own(self):
        """Its own milestones do not link it to itself: with no edge between
        them the pairing has no iteration, so it is unlinked."""
        pyramid, _, refs = vv_setup([])
        refs[0].binding_model = "rm"
        graph = DependencyGraph(nodes=["rm:a", "rm:b"], edges=[], model_of={"rm:a": "rm", "rm:b": "rm"})
        links = vv_iterations(pyramid, graph, refs)
        assert links == [VvLinkStat("rm", "rm", 0)]
        findings = check_vv_links(pyramid, refs, links)
        assert [(f.code, f.subject) for f in findings] == [("VV-UNLINKED", "rm/rm")]

    def test_a_pairing_two_template_pairs_bind_is_one_row(self):
        """The right model rm is bound once by id and once by name pattern,
        both against the template that binds lm."""
        pyramid, graph, refs = vv_setup([])
        refs.append(
            ReferenceProcess(
                "verify-by-name", side="right", counterpart="design", steps=["x"],
                binding_pattern="rm",
            )
        )
        links = vv_iterations(pyramid, graph, refs)
        assert links == [VvLinkStat("rm", "lm", 0)]
        findings = check_vv_links(pyramid, refs, links)
        assert [(f.code, f.subject) for f in findings] == [("VV-UNLINKED", "rm/lm")]


class TestIterationCounts:
    def test_each_linked_milestone_pair_counts_once(self):
        pyramid, graph, refs = vv_setup(
            [
                DependencyEdge("lm:a", "rm:b", frozenset({"plan"}), INFERRED_UNDECLARED),
                DependencyEdge("lm:a", "rm:c", frozenset({"plan"}), INFERRED_UNDECLARED),
                DependencyEdge("lm:d", "rm:c", frozenset({"spec"}), INFERRED_UNDECLARED),
            ]
        )
        assert vv_iterations(pyramid, graph, refs) == [VvLinkStat("rm", "lm", 3)]

    def test_transitive_reach_counts_but_each_pair_only_once(self):
        pyramid, graph, refs = vv_setup(
            [
                DependencyEdge("lm:a", "other:x", frozenset({"plan"}), INFERRED_UNDECLARED),
                DependencyEdge("other:x", "rm:b", frozenset({"report"}), INFERRED_UNDECLARED),
                DependencyEdge("lm:a", "rm:b", frozenset({"plan"}), INFERRED_UNDECLARED),
            ]
        )
        assert vv_iterations(pyramid, graph, refs) == [VvLinkStat("rm", "lm", 1)]

    def test_unlinked_pair_reports_zero_not_absence(self):
        pyramid, graph, refs = vv_setup([])
        assert vv_iterations(pyramid, graph, refs) == [VvLinkStat("rm", "lm", 0)]

    def test_unmatched_declarations_do_not_count(self):
        pyramid, graph, refs = vv_setup(
            [DependencyEdge("lm:a", "rm:b", frozenset(), DECLARED_UNMATCHED)]
        )
        assert vv_iterations(pyramid, graph, refs) == [VvLinkStat("rm", "lm", 0)]

    def test_left_only_templates_yield_no_rows(self):
        pyramid, graph, _ = vv_setup([])
        refs = [ReferenceProcess("design", side="left", steps=["x"], binding_model="lm")]
        assert vv_iterations(pyramid, graph, refs) == []

    @given(st.data())
    def test_counts_and_links_match_closure(self, data):
        ids = ["lm:a", "lm:b", "other:x", "rm:b", "rm:c"]
        edges = []
        for p in ids:
            for c in ids:
                if p != c and data.draw(st.booleans(), label=f"{p}->{c}"):
                    status = data.draw(
                        st.sampled_from([INFERRED_UNDECLARED, DECLARED_UNMATCHED]), label="status"
                    )
                    edges.append(DependencyEdge(p, c, frozenset({"x"}), status))
        design = data.draw(st.sampled_from(["lm", "rm"]), label="design binds")
        pyramid, graph, refs = vv_setup(edges)
        refs[0].binding_model = design
        carried = [(e.producer, e.consumer) for e in edges if e.status != DECLARED_UNMATCHED]
        closure = oracles.closure_floyd_warshall(graph.nodes, carried)
        count = sum(1 for a, b in closure if a.startswith(f"{design}:") and b.startswith("rm:"))
        links = vv_iterations(pyramid, graph, refs)
        assert links == [VvLinkStat("rm", design, count)]
        findings = check_vv_links(pyramid, refs, links)
        assert [f.code for f in findings] == ([] if count else ["VV-UNLINKED"])


class TestRetention:
    def test_unchanged_snapshots_are_quiet(self):
        before = [milestone("m:a"), milestone("m:b")]
        assert check_milestone_retention(before, before) == []

    def test_renamed_id_survives_on_name(self):
        before = [milestone("m:a", name="Design Freeze")]
        after = [milestone("m:zz", name="design  freeze")]
        assert check_milestone_retention(before, after) == []

    def test_dropped_milestone_is_an_error(self):
        before = [milestone("m:a", name="Design Freeze"), milestone("m:b")]
        findings = check_milestone_retention(before, [milestone("m:b")])
        assert [(f.code, f.severity, f.subject) for f in findings] == [
            ("MILESTONE-DROPPED", "error", "m:a")
        ]
        assert "Design Freeze" in findings[0].message

    def test_added_intermediate_is_informational(self):
        after = [milestone("m:a"), milestone("m:new", kind="intermediate")]
        findings = check_milestone_retention([milestone("m:a")], after)
        assert [(f.code, f.severity) for f in findings] == [("ADDED-INTERMEDIATE", "info")]

    def test_a_blank_name_matches_no_other_milestone(self):
        before = [milestone("m:a"), milestone("m:e1", name=" ")]
        after = [milestone("m:a"), milestone("m:e2", name="\t ")]
        findings = check_milestone_retention(before, after)
        assert [(f.code, f.subject) for f in findings] == [
            ("MILESTONE-DROPPED", "m:e1"),
            ("ADDED-INTERMEDIATE", "m:e2"),
        ]

    @pytest.mark.parametrize(
        "after, expected",
        [
            ([milestone("m:a", name="Review")], [("MILESTONE-DROPPED", "m:b")]),
            (
                [milestone("m:c", name="Review")],
                [("ADDED-INTERMEDIATE", "m:c"), ("MILESTONE-DROPPED", "m:a"), ("MILESTONE-DROPPED", "m:b")],
            ),
        ],
        ids=["one-kept-by-id", "one-new-of-that-name"],
    )
    def test_a_name_two_milestones_share_pairs_neither(self, after, expected):
        """`Review` names neither of two milestones, so it cannot keep the
        one whose id is gone."""
        before = [milestone("m:a", name="Review"), milestone("m:b", name="Review")]
        findings = check_milestone_retention(before, after)
        assert sorted((f.code, f.subject) for f in findings) == expected

    def test_names_pair_among_the_milestones_left_after_ids(self):
        """m:a pairs by id; of the rest, only m:b and m:c carry `Review`."""
        before = [milestone("m:a", name="Review"), milestone("m:b", name="Review")]
        after = [milestone("m:a", name="Review"), milestone("m:c", name="review")]
        assert check_milestone_retention(before, after) == []

    def test_added_terminal_events_pass_silently(self):
        after = [milestone("m:a"), milestone("m:fin", kind="end")]
        assert check_milestone_retention([milestone("m:a")], after) == []
