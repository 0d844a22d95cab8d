import random
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import FIXTURES, anchor, chain_model, elapsed, node
from procpyramid import (
    DataObject,
    Duration,
    FlowNode,
    Lane,
    Milestone,
    ModelParseError,
    ProcessModel,
    TimerDef,
    check_gq,
    check_wellformed,
    extract_milestones,
    parse_model,
    serialize_model,
)
from procpyramid.bundle import _decode, _encode
from procpyramid.dependency import DependencyEdge
from procpyramid.findings import Finding
from procpyramid.model import _NO_EXTENSIONS
from procpyramid.timeline import _NO_ITEMS

FRAGMENT_XML = (FIXTURES / "fig7" / "fragment.bpmn").read_text(encoding="utf-8")
PRODUCT_XML = (FIXTURES / "parkpilot" / "product-process.bpmn").read_text(encoding="utf-8")


def wrap(body: str) -> str:
    return (
        '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">'
        f'<process id="m" name="M">{body}</process></definitions>'
    )


MINIMAL = '<startEvent id="s"/><endEvent id="e"/><sequenceFlow id="f" sourceRef="s" targetRef="e"/>'


class TestParse:
    def test_fragment_structure(self):
        model = parse_model(FRAGMENT_XML, "fragment")
        kinds = {n.node_id: n.kind for n in model.nodes}
        assert kinds == {
            "s_start": "start-event",
            "t_build": "task",
            "t_refine": "task",
            "e_ps": "intermediate-event",
            "e_done": "end-event",
        }
        assert model.name == "Sample Phase Fragment"
        assert model.flows == [
            ("s_start", "t_build"),
            ("t_build", "t_refine"),
            ("t_refine", "e_ps"),
            ("e_ps", "e_done"),
        ]
        nm = model.node_map()
        assert nm["s_start"].timer.amount == Duration(90)
        assert nm["s_start"].timer.mode == "anchor-before-sop"
        assert nm["t_build"].duration == Duration(10)
        assert nm["t_build"].inputs == ("d_plan",)
        assert nm["t_build"].outputs == ("d_build",)
        assert nm["e_ps"].extensions["gq7"] == "Fragment complete"
        assert model.extensions["methods"] == "physical sampling"
        assert [lane.role_name for lane in model.lanes] == ["development"]
        assert {d.object_id: d.storage_ref for d in model.data_objects} == {
            "d_plan": "pdm://fragment/sample-plan",
            "d_build": "pdm://fragment/sample-build",
            "d_report": "pdm://fragment/sample-report",
        }
        # diagram interchange is skipped without comment
        assert model.parse_findings == []

    def test_namespace_prefixes_are_transparent(self):
        model = parse_model(PRODUCT_XML, "product-process")
        assert model.call_targets == {"ca0": "pep"}
        assert model.node_map()["s0"].timer.amount == Duration(360)
        assert model.parse_findings == []

    def test_data_object_reference_indirection(self):
        body = (
            '<dataObject id="d1" name="plan"/>'
            '<dataObjectReference id="ref1" dataObjectRef="d1"/>'
            '<startEvent id="s"/>'
            '<task id="t"><dataInputAssociation><sourceRef>ref1</sourceRef></dataInputAssociation></task>'
            '<endEvent id="e"/>'
            '<sequenceFlow id="f1" sourceRef="s" targetRef="t"/>'
            '<sequenceFlow id="f2" sourceRef="t" targetRef="e"/>'
        )
        model = parse_model(wrap(body), "m")
        assert model.node_map()["t"].inputs == ("d1",)

    def test_unresolved_data_ref_degrades_to_warning(self):
        body = (
            '<startEvent id="s"/>'
            '<task id="t"><dataInputAssociation><sourceRef>ghost</sourceRef></dataInputAssociation></task>'
            '<endEvent id="e"/>'
            '<sequenceFlow id="f1" sourceRef="s" targetRef="t"/>'
            '<sequenceFlow id="f2" sourceRef="t" targetRef="e"/>'
        )
        model = parse_model(wrap(body), "m")
        assert [f.code for f in model.parse_findings] == ["UNRESOLVED-DATA-REF"]
        assert model.node_map()["t"].inputs == ()

    def test_inputs_and_outputs_are_sorted_distinct_tuples(self):
        model = parse_model(PRODUCT_XML, "product")
        items = [s for n in model.nodes for s in (n.inputs, n.outputs)]
        assert any(not s for s in items) and any(s for s in items)
        assert all(type(s) is tuple and list(s) == sorted(set(s)) for s in items)

    def test_a_duration_only_node_keeps_no_extension_entries(self):
        body = (
            '<startEvent id="s"/>'
            '<task id="a"><extensionElements><entry key="duration" value="P2W"/></extensionElements></task>'
            '<task id="b"><extensionElements><entry key="duration" value="P3D"/></extensionElements></task>'
            '<endEvent id="e"/>'
            '<sequenceFlow id="f1" sourceRef="s" targetRef="a"/>'
            '<sequenceFlow id="f2" sourceRef="a" targetRef="b"/>'
            '<sequenceFlow id="f3" sourceRef="b" targetRef="e"/>'
        )
        model = parse_model(wrap(body), "m")
        nm = model.node_map()
        assert (nm["a"].duration, nm["b"].duration) == (Duration(14), Duration(3))
        empty = nm["a"].extensions
        assert empty == {}
        assert all(n.extensions is empty for n in model.nodes)
        with pytest.raises(TypeError):
            empty["duration"] = "P1D"
        again = parse_model(serialize_model(model), "m").node_map()
        assert (again["a"].duration, again["a"].extensions) == (Duration(14), {})

    def test_unsupported_elements_are_reported_not_fatal(self):
        model = parse_model(wrap('<subProcess id="sub"/>' + MINIMAL), "m")
        assert [f.code for f in model.parse_findings] == ["UNSUPPORTED-ELEMENT"]

    @pytest.mark.parametrize(
        "namespace, findings",
        [
            ("http://example.com/schema/audit", 1),
            ("http://example.com/schema/studio", 1),
            ("http://example.com/schema/dictionary", 1),
            ("http://example.com/schema/media", 1),
            ("http://example.com/schema/DI", 0),
            ("http://example.com/schema/DC", 0),
            ("http://www.omg.org/spec/BPMN/20100524/DI", 0),
        ],
    )
    def test_only_diagram_interchange_namespaces_are_silent(self, namespace, findings):
        """Diagram interchange is a namespace whose last URI segment,
        lower-cased, is one of its names; a segment that merely contains
        one (audit holds "di") is a vendor's, and its elements are noted."""
        source = wrap(f'<x:note xmlns:x="{namespace}" id="n"/>' + MINIMAL)
        model = parse_model(source, "m")
        noted = [(f.code, f.severity, f.subject, f.message) for f in model.parse_findings]
        assert noted == [("UNSUPPORTED-ELEMENT", "info", "m", "ignored element 'note'")] * findings
        assert _outcome(parse_model, source) == _outcome(oracles.parse_model_by_tree, source)

    def test_an_entry_may_give_its_value_as_element_text(self):
        source = wrap(
            '<startEvent id="s"/>'
            '<task id="t"><extensionElements><entry key="duration">P3D</entry></extensionElements></task>'
            '<endEvent id="e"><extensionElements><entry key="gq3">\n  release desk </entry>'
            "</extensionElements></endEvent>"
            '<sequenceFlow id="f1" sourceRef="s" targetRef="t"/>'
            '<sequenceFlow id="f2" sourceRef="t" targetRef="e"/>'
        )
        nm = parse_model(source, "m").node_map()
        assert (nm["t"].duration, nm["t"].extensions) == (Duration(3), {})
        assert nm["e"].extensions == {"gq3": "release desk"}
        assert _outcome(parse_model, source) == _outcome(oracles.parse_model_by_tree, source)

    def test_second_process_is_ignored_with_a_note(self):
        xml = (
            '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">'
            f'<process id="m">{MINIMAL}</process>'
            f'<process id="shadow">{MINIMAL}</process></definitions>'
        )
        model = parse_model(xml, "m")
        assert [f.code for f in model.parse_findings] == ["EXTRA-PROCESS"]
        assert model.model_id == "m"

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ('<startEvent id="s"/>', "end event"),
            ('<endEvent id="e"/>', "start event"),
            (MINIMAL + '<startEvent id="s2"/>', "start event"),
            (MINIMAL + '<task id="s"/>', "duplicate node id"),
            (
                '<startEvent id="s"/><endEvent id="e"/>'
                '<sequenceFlow id="broken" sourceRef="s" targetRef="ghost"/>',
                "broken",
            ),
            (
                '<startEvent id="s"/><endEvent id="e"/>'
                '<task id="t"><timerEventDefinition><timeDuration>P1D</timeDuration>'
                "</timerEventDefinition></task>",
                "timer on non-event",
            ),
            (
                '<startEvent id="s"><timerEventDefinition/></startEvent><endEvent id="e"/>',
                "timeDuration",
            ),
            (
                '<startEvent id="s"><timerEventDefinition><timeDuration>PT5H</timeDuration>'
                '</timerEventDefinition></startEvent><endEvent id="e"/>',
                "duration",
            ),
            ('<startEvent/><endEvent id="e"/>', "without id"),
        ],
    )
    def test_structural_defects_are_fatal(self, body, fragment):
        with pytest.raises(ModelParseError) as err:
            parse_model(wrap(body), "m")
        assert fragment in str(err.value)

    def test_malformed_xml_and_missing_process_are_fatal(self):
        with pytest.raises(ModelParseError):
            parse_model("<definitions>", "m")
        with pytest.raises(ModelParseError):
            parse_model("<definitions></definitions>", "m")

    def test_bad_task_duration_is_fatal(self):
        body = (
            '<startEvent id="s"/>'
            '<task id="t"><extensionElements><entry key="duration" value="soon"/>'
            "</extensionElements></task>"
            '<endEvent id="e"/>'
        )
        with pytest.raises(ModelParseError):
            parse_model(wrap(body), "m")


class TestConstructorGuards:
    def test_an_unknown_node_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown node kind 'subprocess'"):
            FlowNode("n", "subprocess")

    def test_only_events_may_carry_timers(self):
        with pytest.raises(ValueError, match="node t: only events may carry timers"):
            FlowNode("t", "task", timer=TimerDef(Duration(1)))

    def test_an_unknown_milestone_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown milestone kind 'final'"):
            Milestone("m:e", "m", "e", "done", "final")


# Two tasks in one lane: the first writes `draft`, the second reads it through
# a reference and writes `final`. A lane names one member with surrounding
# whitespace and one that is no node.
SHARING_XML = wrap(
    '<laneSet id="lanes"><lane id="crew" name="crew">'
    "<flowNodeRef>start</flowNodeRef><flowNodeRef>\n  write \n</flowNodeRef>"
    "<flowNodeRef>review</flowNodeRef><flowNodeRef>ghost</flowNodeRef>"
    "<flowNodeRef>finish</flowNodeRef></lane></laneSet>"
    '<dataObject id="draft" name="draft"/><dataObject id="final" name="final"/>'
    '<dataObjectReference id="draft-ref" dataObjectRef="draft"/>'
    '<startEvent id="start"/>'
    '<task id="write"><extensionElements><entry key="duration" value="P5D"/>'
    '<entry key="methods" value="peer review"/></extensionElements>'
    "<dataOutputAssociation><targetRef>draft</targetRef></dataOutputAssociation></task>"
    '<task id="review"><extensionElements><entry key="duration" value="P5D"/>'
    '<entry key="methods" value="peer review"/></extensionElements>'
    "<dataInputAssociation><sourceRef>draft-ref</sourceRef></dataInputAssociation>"
    '<dataOutputAssociation targetRef="final"/></task>'
    '<endEvent id="finish"/>'
    '<sequenceFlow id="f1" sourceRef="start" targetRef="write"/>'
    '<sequenceFlow id="f2" sourceRef="write" targetRef="review"/>'
    '<sequenceFlow id="f3" sourceRef="review" targetRef="finish"/>'
)

SOURCE_IDS = ["sharing", "fragment", "product"]


class TestSharing:
    """A parsed model keeps one object per repeated id, ref and io set; the
    values are those of a parse that shares nothing."""

    @staticmethod
    def ids(model):
        return {n.node_id: n.node_id for n in model.nodes}

    @pytest.mark.parametrize("source", [SHARING_XML, FRAGMENT_XML, PRODUCT_XML], ids=SOURCE_IDS)
    def test_every_flow_end_is_its_nodes_id(self, source):
        model = parse_model(source.encode("utf-8"), "m")
        ids = self.ids(model)
        assert model.flows
        assert all(end is ids[end] for flow in model.flows for end in flow)

    @pytest.mark.parametrize("source", [SHARING_XML, FRAGMENT_XML, PRODUCT_XML], ids=SOURCE_IDS)
    def test_every_lane_member_naming_a_node_is_its_id(self, source):
        model = parse_model(source.encode("utf-8"), "m")
        ids = self.ids(model)
        members = [m for lane in model.lanes for m in lane.member_nodes if m in ids]
        assert members
        assert all(m is ids[m] for m in members)

    @pytest.mark.parametrize("source", [SHARING_XML, FRAGMENT_XML, PRODUCT_XML], ids=SOURCE_IDS)
    def test_every_resolved_io_ref_is_its_objects_id(self, source):
        model = parse_model(source.encode("utf-8"), "m")
        objects = {d.object_id: d.object_id for d in model.data_objects}
        refs = [r for n in model.nodes for items in (n.inputs, n.outputs) for r in items]
        assert refs
        assert all(r is objects[r] for r in refs)

    @pytest.mark.parametrize("source", [SHARING_XML, FRAGMENT_XML], ids=SOURCE_IDS[:2])
    def test_equal_io_sets_are_one_object(self, source):
        model = parse_model(source.encode("utf-8"), "m")
        first: dict[tuple, tuple] = {}
        shared = 0
        for items in (s for n in model.nodes for s in (n.inputs, n.outputs) if s):
            shared += items in first
            assert first.setdefault(items, items) is items
        assert shared

    def test_equal_extension_entries_are_one_object(self):
        nm = parse_model(SHARING_XML, "m").node_map()
        [(key_w, value_w)] = nm["write"].extensions.items()
        [(key_r, value_r)] = nm["review"].extensions.items()
        assert key_w is key_r and value_w is value_r

    def test_record_classes_are_slotted(self):
        model = parse_model(FRAGMENT_XML, "fragment")
        milestones, _ = extract_milestones(model)
        records = [
            model.nodes[0],
            model.lanes[0],
            model.data_objects[0],
            milestones[0],
            milestones[0].gq,
            Finding("R1-UNREACHABLE", "m:n", "unreached"),
            DependencyEdge("m:a", "m:b", frozenset({"x"}), "inferred-undeclared"),
        ]
        assert sorted(type(r).__name__ for r in records) == [
            "DataObject", "DependencyEdge", "Finding", "FlowNode", "GqRecord", "Lane", "Milestone",
        ]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__
            with pytest.raises((AttributeError, TypeError)):
                record.extra = 1

    def test_sharing_changes_no_value(self):
        model = parse_model(SHARING_XML, "m")
        assert model.lanes[0].member_nodes == frozenset({"start", "write", "review", "ghost", "finish"})
        nm = model.node_map()
        assert (nm["write"].inputs, nm["write"].outputs) == ((), ("draft",))
        assert (nm["review"].inputs, nm["review"].outputs) == (("draft",), ("final",))
        assert model.flows == [("start", "write"), ("write", "review"), ("review", "finish")]
        assert model.parse_findings == []
        assert _outcome(parse_model, SHARING_XML) == _outcome(oracles.parse_model_by_tree, SHARING_XML)

    def test_a_member_naming_no_node_is_kept_verbatim(self):
        model = parse_model(SHARING_XML.replace(">ghost<", "> ghost:1 <"), "m")
        assert "ghost:1" in model.lanes[0].member_nodes
        assert "ghost:1" not in self.ids(model)

    def test_an_unknown_ref_is_still_one_finding(self):
        source = SHARING_XML.replace(
            "<sourceRef>draft-ref</sourceRef></dataInputAssociation>",
            "<sourceRef>draft-ref</sourceRef></dataInputAssociation>"
            "<dataInputAssociation><sourceRef>nowhere</sourceRef></dataInputAssociation>"
            '<dataInputAssociation sourceRef=" nowhere "/>',
        )
        model = parse_model(source, "m")
        assert [(f.code, f.subject, f.message) for f in model.parse_findings] == [
            (
                "UNRESOLVED-DATA-REF",
                "m:review",
                "data association references unknown object 'nowhere'",
            )
        ]
        objects = {d.object_id: d.object_id for d in model.data_objects}
        [ref] = model.node_map()["review"].inputs
        assert ref is objects["draft"]

    def test_refs_naming_one_object_give_one_id_in_sorted_order(self):
        # `z-ref` sorts after `final` but names `draft`; `draft` is named twice
        source = SHARING_XML.replace(
            "<sourceRef>draft-ref</sourceRef></dataInputAssociation>",
            "<sourceRef>z-ref</sourceRef></dataInputAssociation>"
            '<dataInputAssociation sourceRef="final"/><dataInputAssociation sourceRef="draft"/>',
        ).replace("<startEvent", '<dataObjectReference id="z-ref" dataObjectRef="draft"/><startEvent')
        model = parse_model(source, "m")
        assert model.node_map()["review"].inputs == ("draft", "final")
        assert model.parse_findings == []
        assert _outcome(parse_model, source) == _outcome(oracles.parse_model_by_tree, source)

    @pytest.mark.parametrize(
        ("old", "new", "message"),
        [
            ('<endEvent id="finish"/>', '<endEvent id="finish"/><task id="write"/>',
             "model 'm': duplicate node id 'write'"),
            ('targetRef="review"', 'targetRef="reviews"',
             "model 'm': flow 'f2' references unknown node 'reviews'"),
            ('sourceRef="write" targetRef="review"', 'sourceRef="w" targetRef="r"',
             "model 'm': flow 'f2' references unknown node 'w'"),
            ('id="f2" sourceRef="write"', 'sourceRef="wrte"',
             "model 'm': flow 'flow1' references unknown node 'wrte'"),
            # `review` outputs `final`: two objects under one id must not
            # silently become one
            ('<dataObject id="final" name="final"/>',
             '<dataObject id="final" name="A"/><dataObject id="final" name="B"/>',
             "model 'm': duplicate data object id 'final'"),
        ],
        ids=[
            "duplicate-node", "unknown-target", "unknown-source-first", "flow-without-id",
            "duplicate-object",
        ],
    )
    def test_structural_defects_keep_their_messages(self, old, new, message):
        source = SHARING_XML.replace(old, new)
        assert source != SHARING_XML
        with pytest.raises(ModelParseError) as err:
            parse_model(source, "m")
        assert str(err.value) == message


class TestWellformed:
    def test_fixture_models_are_clean(self):
        for xml, mid in ((FRAGMENT_XML, "fragment"), (PRODUCT_XML, "product-process")):
            assert check_wellformed(parse_model(xml, mid)) == []

    def test_each_rule_fires(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(30)),
                node("t", "task"),
                node("e", "end-event"),
                node("island", "task", days=1, inputs=("d",), outputs=("d",)),
            ],
            flows=[("s", "t"), ("t", "e")],
            lanes=[Lane("l0", "crew", frozenset({"s", "t", "e"}))],
            data_objects=[DataObject("d", "thing")],
        )
        codes = sorted(f.code for f in check_wellformed(model))
        assert codes == [
            "R1-UNREACHABLE",
            "R2-NO-DURATION",
            "R2-NO-INPUT",
            "R2-NO-OUTPUT",
            "R3-NO-ROLE",
        ]

    def test_unlaned_and_untimed(self):
        model = chain_model(
            "m",
            [node("s", "start-event"), node("e", "end-event")],
            lanes=[Lane("l0", "   ", frozenset({"s", "e"}))],
        )
        codes = sorted(f.code for f in check_wellformed(model))
        assert codes == ["R3-NO-ROLE", "R3-NO-ROLE", "R4-NO-TIMER", "R4-NO-TIMER"]

    def test_a_model_without_a_start_event_reaches_nothing(self):
        nodes = [FlowNode("t", "task"), FlowNode("e", "end-event")]
        model = ProcessModel("m", nodes=nodes, flows=[("t", "e")])
        findings = check_wellformed(model)
        unreached = [f.subject for f in findings if f.code == "R1-UNREACHABLE"]
        assert unreached == ["m:e", "m:t"]
        assert findings == oracles.wellformed_by_scan(model)

    def test_timer_covers_downstream_events_only(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event"),
                node("mid", "intermediate-event", timer=anchor(10)),
                node("e", "end-event"),
            ],
        )
        codes = [f.code for f in check_wellformed(model)]
        assert codes.count("R4-NO-TIMER") == 1  # only the start is uncovered

    @pytest.mark.parametrize(
        ("first", "last", "untimed"),
        [
            (node("t", "intermediate-event", timer=anchor(10)), node("t", "task", days=1), {"s", "t", "x", "e"}),
            (node("t", "task", days=1), node("t", "intermediate-event", timer=anchor(10)), {"s"}),
        ],
        ids=["timer-on-first", "timer-on-last"],
    )
    def test_r4_and_extraction_agree_on_a_repeated_node_id(self, first, last, untimed):
        """A hand-built model may repeat a node id: its last node stands for
        the id, so R4 flags exactly the events extraction leaves out."""
        model = chain_model(
            "m",
            [node("s", "start-event"), first, node("x", "intermediate-event"), last, node("e", "end-event")],
            flows=[("s", "t"), ("t", "x"), ("x", "e")],
        )
        r4 = {f.subject for f in check_wellformed(model) if f.code == "R4-NO-TIMER"}
        assert r4 == {f"m:{nid}" for nid in untimed}
        events = {f"m:{n.node_id}" for n in model.events()}
        milestones, _ = extract_milestones(model)
        assert {ms.milestone_id for ms in milestones} == events - r4


class TestLanes:
    """A node's lane is the first lane that lists it."""

    def two_lane_model(self):
        return chain_model(
            "m",
            [node("s", "start-event", timer=anchor(30)), node("e", "end-event")],
            lanes=[Lane("blank", "  ", frozenset({"e"})), Lane("crew", "crew", frozenset({"s", "e"}))],
        )

    def test_a_later_lane_with_a_role_does_not_lift_r3(self):
        findings = check_wellformed(self.two_lane_model())
        assert [(f.code, f.subject) for f in findings] == [("R3-NO-ROLE", "m:e")]

    def test_a_later_lane_with_a_role_does_not_answer_gq2(self):
        milestones, _ = extract_milestones(self.two_lane_model())
        assert {ms.milestone_id: ms.gq.gq2_role for ms in milestones} == {"m:s": "crew", "m:e": ""}


class TestMilestones:
    def test_fragment_extraction(self):
        model = parse_model(FRAGMENT_XML, "fragment")
        milestones, findings = extract_milestones(model)
        assert findings == []
        by_id = {ms.milestone_id: ms for ms in milestones}
        assert set(by_id) == {"fragment:s_start", "fragment:e_ps", "fragment:e_done"}

        ps = by_id["fragment:e_ps"]
        assert ps.name == "PS"
        assert ps.kind == "intermediate"
        assert ps.declared_offset == -60
        assert ps.gq.gq1_process == "fragment"
        assert ps.gq.gq2_role == "development"
        assert ps.gq.gq3_tools == frozenset({"sample workshop"})
        assert ps.gq.gq4_duration == Duration(30)
        assert ps.gq.gq5_inputs == ("sample build", "sample plan")
        assert ps.gq.gq6_outputs == ("sample build", "sample report")
        assert ps.gq.gq7_consumers == frozenset({"Fragment complete"})
        assert ps.gq.gq8_storage["sample report"] == "pdm://fragment/sample-report"

        done = by_id["fragment:e_done"]
        assert done.terminal
        assert done.kind == "end"
        assert done.gq.gq5_inputs == ("sample report",)
        assert done.gq.gq6_outputs == ("release note",)
        assert done.gq.gq8_storage["release note"] == "pdm://fragment/release-note"

    def test_uncovered_events_yield_no_milestone(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event"),
                node("mid", "intermediate-event", timer=anchor(10)),
                node("e", "end-event"),
            ],
        )
        milestones, _ = extract_milestones(model)
        assert {ms.milestone_id for ms in milestones} == {"m:mid", "m:e"}

    def test_explicit_entries_override_derived(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(30)),
                node("t", "task", days=5, inputs=("d",), outputs=("d",)),
                node(
                    "e",
                    "end-event",
                    ext={"gq4": "P99D", "gq5": "b, a, b", "gq6": "c", "gq8": "a=x;b=y;c=z"},
                ),
            ],
            data_objects=[DataObject("d", "thing", storage_ref="loc://d")],
        )
        ms = [m for m in extract_milestones(model)[0] if m.milestone_id == "m:e"][0]
        assert ms.gq.gq4_duration == Duration(99)
        assert ms.gq.gq5_inputs == ("a", "b")
        assert ms.gq.gq6_outputs == ("c",)
        assert ms.gq.gq8_storage == {"thing": "loc://d", "a": "x", "b": "y", "c": "z"}

    def test_documented_annotation_forms(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(30)),
                node("e", "end-event", ext={"gq8": "a=x, b=y; c=z", "declaredOffset": "P2M"}),
            ],
        )
        ms = [m for m in extract_milestones(model)[0] if m.milestone_id == "m:e"][0]
        assert ms.gq.gq8_storage == {"a": "x", "b": "y", "c": "z"}
        assert ms.declared_offset == -60

    @pytest.mark.parametrize(
        "gq8, storage, codes",
        [
            ("A= ", {}, ["GQ8-UNANSWERED"]),
            ("A=loc://a; B=", {"A": "loc://a"}, ["GQ8-INCOMPLETE"]),
        ],
    )
    def test_a_gq8_entry_with_an_empty_location_is_unanswered(self, gq8, storage, codes):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(30)),
                node("t", "task", days=5, outputs=("a", "b")),
                node("e", "end-event", ext={"gq8": gq8}),
            ],
            data_objects=[DataObject("a", "A"), DataObject("b", "B")],
        )
        ms = [m for m in extract_milestones(model)[0] if m.milestone_id == "m:e"][0]
        assert ms.gq.gq8_storage == storage
        assert [f.code for f in check_gq(ms) if f.code.startswith("GQ8")] == codes

    @pytest.mark.parametrize(
        "storage_ref, storage, codes",
        [("  ", {}, ["GQ8-UNANSWERED"]), (" loc://a ", {"A": "loc://a"}, [])],
    )
    def test_a_blank_storage_ref_is_unanswered(self, storage_ref, storage, codes):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(30)),
                node("t", "task", days=5, outputs=("a",)),
                node("e", "end-event"),
            ],
            data_objects=[DataObject("a", "A", storage_ref=storage_ref)],
        )
        ms = [m for m in extract_milestones(model)[0] if m.milestone_id == "m:e"][0]
        assert ms.gq.gq8_storage == storage
        assert [f.code for f in check_gq(ms) if f.code.startswith("GQ8")] == codes

    @pytest.mark.parametrize(
        "key, value", [("declaredOffset", "banana"), ("declaredOffset", "P"), ("gq4", "banana")]
    )
    def test_malformed_annotation_is_a_finding(self, key, value):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(30)),
                node("t", "task", days=5),
                node("e", "end-event", ext={key: value}),
            ],
        )
        milestones, findings = extract_milestones(model)
        bad = [f for f in findings if f.code == "BAD-ANNOTATION"]
        assert [(f.subject, f.severity) for f in bad] == [("m:e", "error")]
        assert key in bad[0].message and repr(value) in bad[0].message
        ms = [m for m in milestones if m.milestone_id == "m:e"][0]
        # the entry counts as absent: no declared offset, gq4 from the segment
        assert ms.declared_offset is None
        assert ms.gq.gq4_duration == Duration(5)

    def test_a_refused_annotation_quotes_its_value_once(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(30)),
                node("e", "end-event", ext={"declaredOffset": "1_000"}),
            ],
        )
        [bad] = extract_milestones(model)[1]
        assert bad.message == (
            "declaredOffset ignored: declared offset '1_000': days must be at most 1000000, in ASCII digits"
        )

    def test_a_milestone_is_named_by_its_events_display_name(self):
        """The name trimmed, or the node id when the name is blank."""
        model = chain_model(
            "m",
            [
                node("s", "start-event", name="  ", timer=anchor(30)),
                node("t", "task", days=5),
                node("e", "end-event", name=" Gate A "),
            ],
        )
        names = {ms.event_node_id: ms.name for ms in extract_milestones(model)[0]}
        assert names == {"s": "s", "e": "Gate A"}

    def test_nameless_objects_fall_back_to_ids(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(30)),
                node("t", "task", days=5, inputs=("d9",), outputs=()),
                node("e", "end-event"),
            ],
            data_objects=[DataObject("d9", "  ")],
        )
        ms = [m for m in extract_milestones(model)[0] if m.milestone_id == "m:e"][0]
        assert ms.gq.gq5_inputs == ("m:d9",)

    def test_ambiguous_anchor_is_flagged(self):
        model = chain_model(
            "m",
            [
                node("a1", "start-event", timer=anchor(100)),
                node("a2", "intermediate-event", timer=anchor(50)),
                node("join", "parallel-gateway"),
                node("e", "end-event"),
            ],
            flows=[("a1", "join"), ("a2", "join"), ("join", "e")],
        )
        _, findings = extract_milestones(model)
        assert any(f.code == "AMBIGUOUS-ANCHOR" and f.subject == "m:e" for f in findings)


names = st.text(alphabet="abc XY-_'&<>\"", min_size=0, max_size=8)


@st.composite
def models(draw):
    objs = [
        DataObject(f"d{i}", name=draw(names), storage_ref=draw(st.one_of(st.none(), st.just("loc://x"))))
        for i in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    oids = [o.object_id for o in objs]
    io = st.frozensets(st.sampled_from(oids), max_size=2) if oids else st.just(frozenset())
    nodes = [node("start", "start-event", name=draw(names), timer=anchor(draw(st.integers(0, 400))))]
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        ext = {"gq3": "kit, bench"} if draw(st.booleans()) else {}
        nodes.append(
            node(
                f"t{i}",
                "task",
                name=draw(names),
                days=draw(st.integers(0, 90)),
                inputs=draw(io),
                outputs=draw(io),
                ext=ext,
            )
        )
    nodes.append(node("end", "end-event", name=draw(names), ext={"terminal": "true"}))
    return chain_model("m", nodes, name=draw(names), data_objects=objs)


@given(models())
def test_serialize_parse_round_trip(model):
    parsed = parse_model(serialize_model(model), model.model_id)
    assert [(n.node_id, n.kind, n.name) for n in parsed.nodes] == [
        (n.node_id, n.kind, n.name) for n in model.nodes
    ]
    assert [(n.duration, n.timer, n.inputs, n.outputs) for n in parsed.nodes] == [
        (n.duration, n.timer, n.inputs, n.outputs) for n in model.nodes
    ]
    assert parsed.flows == model.flows
    assert parsed.lanes == model.lanes
    assert parsed.data_objects == model.data_objects
    assert parsed.name == model.name

    # after one round the representation is a fixed point
    again = parse_model(serialize_model(parsed), model.model_id)
    assert again == parsed


@given(models(), st.randoms())
def test_analysis_ignores_element_order(model, rng):
    base = parse_model(serialize_model(model), "m")
    shuffled = parse_model(serialize_model(model), "m")
    rng.shuffle(shuffled.nodes)
    rng.shuffle(shuffled.data_objects)
    reparsed = parse_model(serialize_model(shuffled), "m")

    assert check_wellformed(reparsed) == check_wellformed(base)
    left, _ = extract_milestones(base)
    right, _ = extract_milestones(reparsed)
    key = lambda ms: ms.milestone_id
    assert sorted(left, key=key) == sorted(right, key=key)


@given(models(), st.data())
def test_check_wellformed_matches_the_rule_by_rule_scan(model, data):
    """Flows dropped and added, event timers removed or added, and lanes
    redrawn with blank roles break each rule somewhere."""
    ids = [n.node_id for n in model.nodes]
    pick = st.sampled_from(ids)
    dropped = data.draw(st.sets(st.sampled_from(range(len(model.flows))), max_size=2), label="dropped")
    flows = [f for i, f in enumerate(model.flows) if i not in dropped]
    flows += data.draw(st.lists(st.tuples(pick, pick), max_size=3), label="added flows")
    timers = st.sampled_from([None, anchor(5), elapsed(2)])
    nodes = [
        replace(n, timer=data.draw(timers, label="timer")) if n.is_event else n for n in model.nodes
    ]
    lanes = [
        Lane(f"l{i}", role, frozenset(members))
        for i, (role, members) in enumerate(
            data.draw(
                st.lists(
                    st.tuples(st.sampled_from(["crew", "", " "]), st.sets(pick)), max_size=3
                ),
                label="lanes",
            )
        )
    ]
    model = replace(model, nodes=nodes, flows=flows, lanes=lanes)
    assert check_wellformed(model) == oracles.wellformed_by_scan(model)



def assert_codec_round_trip(parsed: ProcessModel) -> None:
    """`_decode(_encode(...))` of a parsed model, its milestones and their
    findings gives equal records, `anchors` and `parse_findings` included,
    and keeps the sharing that `TestSharing` checks on a parse."""
    milestones, findings = extract_milestones(parsed)
    model, decoded, decoded_findings = _decode(_encode((parsed, milestones, findings)))
    assert model == parsed
    assert model.parse_findings == parsed.parse_findings
    assert decoded == milestones
    assert [ms.anchors for ms in decoded] == [ms.anchors for ms in milestones]
    assert decoded_findings == findings

    ids = {n.node_id: n.node_id for n in model.nodes}
    assert all(end is ids[end] for flow in model.flows for end in flow)
    assert all(m is ids[m] for lane in model.lanes for m in lane.member_nodes if m in ids)
    assert all(ms.event_node_id is ids[ms.event_node_id] for ms in decoded)
    first: dict[tuple, tuple] = {}
    for items in (s for n in model.nodes for s in (n.inputs, n.outputs) if s):
        assert first.setdefault(items, items) is items
    assert [n.extensions is _NO_EXTENSIONS for n in model.nodes] == [
        n.extensions is _NO_EXTENSIONS for n in parsed.nodes
    ]
    assert all(
        sys.intern(text) is text for n in model.nodes for entry in n.extensions.items() for text in entry
    )

    def empties(mss):
        return [(ms.gq.gq3_tools is _NO_ITEMS, ms.gq.gq7_consumers is _NO_ITEMS, ms.aligns_with is _NO_ITEMS) for ms in mss]

    assert empties(decoded) == empties(milestones)


@given(models())
def test_codec_round_trip(model):
    assert_codec_round_trip(parse_model(serialize_model(model), model.model_id))


@pytest.mark.parametrize(
    "source",
    [
        SHARING_XML,
        FRAGMENT_XML,
        PRODUCT_XML,
        (FIXTURES / "anchors" / "rework.bpmn").read_bytes(),
        wrap(
            '<subProcess id="sub"/><startEvent id="s"><timerEventDefinition><timeDuration>P5D'
            '</timeDuration></timerEventDefinition></startEvent><task id="t"><dataInputAssociation>'
            "<sourceRef>nothing</sourceRef></dataInputAssociation></task>"
            '<endEvent id="e"><extensionElements><entry key="declaredOffset" value="banana"/>'
            '</extensionElements></endEvent><sequenceFlow id="f1" sourceRef="s" targetRef="t"/>'
            '<sequenceFlow id="f2" sourceRef="t" targetRef="e"/>'
        ),
    ],
    ids=SOURCE_IDS + ["cyclic", "findings"],
)
def test_codec_round_trip_of_fixtures(source):
    assert_codec_round_trip(parse_model(source, "m"))


def test_codec_round_trip_of_a_failed_entry():
    failed = (None, [], [Finding("MODEL-PARSE-ERROR", "m", "cannot read 'm.bpmn': gone")])
    assert _decode(_encode(failed)) == failed


# Variants that the serializer never emits, applied to a serialized model on
# its way into both parsers. Each maps document text to document text.
BPMN_NS = "http://www.omg.org/spec/BPMN/20100524/MODEL"
DI_NOISE = (
    '<bpmndi:BPMNShape xmlns:bpmndi="http://www.omg.org/spec/BPMN/20100524/DI" id="shape">'
    '<di:waypoint xmlns:di="http://www.omg.org/spec/DD/20100524/DI" x="1" y="2"/>'
    "</bpmndi:BPMNShape>"
)


def _into_process(text: str, extra: str) -> str:
    return text.replace("  </process>", f"    {extra}\n  </process>")


def _into_first_node(text: str, extra: str) -> str:
    def insert(m: re.Match) -> str:
        return f"{m[1]}>{extra}" + ("</startEvent>" if m[2] else "")

    return re.sub(r"(<startEvent[^>]*?)(/?)>", insert, text, count=1)


def _process_root(text: str) -> str:
    text = re.sub(r"(?s)<definitions[^>]*>\s*<process ", f'<process xmlns="{BPMN_NS}" ', text)
    return text.replace("</definitions>", "")


def _prefixed(text: str) -> str:
    text = text.replace(f'xmlns="{BPMN_NS}"', f'xmlns:bpmn2="{BPMN_NS}"')
    return re.sub(r"<(/?)(?!\?)(?!bpmn2:)([A-Za-z]+)", r"<\1bpmn2:\2", text)


VARIANTS = {
    "prefixed": _prefixed,
    "di-noise": lambda t: _into_first_node(_into_process(t, DI_NOISE), DI_NOISE),
    "ignored-children": lambda t: _into_first_node(t, "<documentation>d</documentation><outgoing>x</outgoing>"),
    "unsupported": lambda t: _into_first_node(_into_process(t, '<subProcess id="sp"/>'), "<compensate/>"),
    "non-ascii": lambda t: _into_process(t, '<dataObject id="dx" name="Übergabe – naïve"/>'),
    "extra-process": lambda t: t.replace("</definitions>", '<process id="p2"/><process id="p3"/></definitions>'),
    "nested-process": lambda t: _into_process(t, '<process id="inner"><task id="deep"/></process>'),
    "process-root": _process_root,
    "node-without-id": lambda t: _into_process(t, '<task name="anonymous"/>'),
    "timer-without-duration": lambda t: _into_process(
        t, '<intermediateCatchEvent id="tx"><timerEventDefinition mode="elapsed"/></intermediateCatchEvent>'
    ),
    "bad-duration": lambda t: _into_process(
        t, '<task id="tb"><extensionElements><entry key="duration" value="PT1H"/></extensionElements></task>'
    ),
    "malformed-tail": lambda t: t.replace("</definitions>", "<unclosed></definitions>"),
    "duplicate-data-object": lambda t: _into_process(
        t, '<dataObject id="dz" name="A"/><dataObject id="dz" name="B"/>'
    ),
    # a known and an unknown source each named twice (the second time as an
    # attribute), and a target given as an attribute
    "duplicate-associations": lambda t: _into_process(
        t,
        '<dataObject id="dd" name="dup"/><task id="td">'
        "<dataInputAssociation><sourceRef>dd</sourceRef></dataInputAssociation>"
        "<dataInputAssociation><sourceRef>ghost</sourceRef></dataInputAssociation>"
        '<dataInputAssociation sourceRef=" dd "/>'
        '<dataInputAssociation sourceRef="ghost"/>'
        '<dataOutputAssociation targetRef="dd"/></task>',
    ),
}


def _outcome(parse, source):
    """The parsed model with its findings, or the ModelParseError message."""
    try:
        model = parse(source, "m")
    except ModelParseError as exc:
        return str(exc)
    return model, model.parse_findings


@given(models(), st.lists(st.sampled_from(sorted(VARIANTS)), unique=True, max_size=4))
def test_parse_model_of_bytes_matches_the_tree_walk_oracle(model, variants):
    text = serialize_model(model)
    # Prefixing goes last: the other variants edit unprefixed markup.
    for name in sorted(variants, key=lambda name: name == "prefixed"):
        text = VARIANTS[name](text)
    assert _outcome(parse_model, text.encode("utf-8")) == _outcome(oracles.parse_model_by_tree, text)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_each_variant_parses_like_the_oracle(name):
    base = serialize_model(parse_model(PRODUCT_XML, "m"))
    text = VARIANTS[name](base)
    assert text != base
    expected = _outcome(oracles.parse_model_by_tree, text)
    assert _outcome(parse_model, text.encode("utf-8")) == expected
    assert _outcome(parse_model, text) == expected


def test_process_elements_under_two_tags_keep_document_order():
    text = VARIANTS["prefixed"](serialize_model(parse_model(PRODUCT_XML, "m")))
    text = text.replace("  </bpmn2:process>", '<process id="inner"/></bpmn2:process>')
    text = text.replace("</bpmn2:definitions>", '<bpmn2:process id="p2"/><process id="p3"/></bpmn2:definitions>')
    model, findings = _outcome(parse_model, text.encode("utf-8"))
    assert [f.message for f in findings if f.code == "EXTRA-PROCESS"] == [
        "additional process elements ignored: inner, p2, p3"
    ]
    assert (model, findings) == _outcome(oracles.parse_model_by_tree, text)


def test_malformed_xml_wins_over_an_earlier_semantic_error():
    text = serialize_model(parse_model(PRODUCT_XML, "m"))
    text = VARIANTS["malformed-tail"](VARIANTS["node-without-id"](text))
    message = _outcome(parse_model, text.encode("utf-8"))
    assert "not well-formed XML" in message
    assert message == _outcome(oracles.parse_model_by_tree, text)


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*/*.bpmn")), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_fixture_bytes_parse_like_the_oracle(path):
    assert _outcome(parse_model, path.read_bytes()) == _outcome(
        oracles.parse_model_by_tree, path.read_text(encoding="utf-8")
    )


def test_bytes_are_decoded_as_declared():
    text = wrap(MINIMAL.replace('<startEvent id="s"/>', '<startEvent id="s" name="Prüfung"/>'))
    latin1 = ('<?xml version="1.0" encoding="ISO-8859-1"?>' + text).encode("latin-1")
    utf16 = ('<?xml version="1.0" encoding="UTF-16"?>' + text).encode("utf-16")
    expected = parse_model(text, "m")
    assert parse_model(latin1, "m") == parse_model(utf16, "m") == expected
    assert expected.node_map()["s"].name == "Prüfung"


@pytest.mark.parametrize(
    ("declaration", "body", "fragment"),
    [
        ("UTF-8", "Pr\xfcfung".encode("latin-1"), "not well-formed XML"),
        ("Shift_JIS", b"x", "cannot decode XML (ValueError"),
        ("no-such-codec", b"x", "cannot decode XML (LookupError"),
    ],
)
def test_undecodable_bytes_are_parse_errors(declaration, body, fragment):
    head, tail = wrap(MINIMAL).split("</process>")
    source = f'<?xml version="1.0" encoding="{declaration}"?>{head}<task id="t" name="'.encode()
    source += body + f'"/></process>{tail}'.encode()
    with pytest.raises(ModelParseError, match=re.escape(fragment)):
        parse_model(source, "m")
