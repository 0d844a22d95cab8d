import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES, anchor, chain_model, node
from procpyramid import (
    DataObject,
    Duration,
    Lane,
    ModelParseError,
    check_wellformed,
    extract_milestones,
    parse_model,
    serialize_model,
)

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
        assert nm["t_build"].inputs == frozenset({"d_plan"})
        assert nm["t_build"].outputs == frozenset({"d_build"})
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
        assert model.node_map()["t"].inputs == frozenset({"d1"})

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
        assert model.node_map()["t"].inputs == frozenset()

    def test_unsupported_elements_are_reported_not_fatal(self):
        model = parse_model(wrap('<subProcess id="sub"/>' + MINIMAL), "m")
        assert [f.code for f in model.parse_findings] == ["UNSUPPORTED-ELEMENT"]

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
        assert ps.gq.gq5_inputs == frozenset({"sample plan", "sample build"})
        assert ps.gq.gq6_outputs == frozenset({"sample build", "sample report"})
        assert ps.gq.gq7_consumers == frozenset({"Fragment complete"})
        assert ps.gq.gq8_storage["sample report"] == "pdm://fragment/sample-report"

        done = by_id["fragment:e_done"]
        assert done.terminal
        assert done.kind == "end"
        assert done.gq.gq5_inputs == frozenset({"sample report"})
        assert done.gq.gq6_outputs == frozenset({"release note"})
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
                    ext={"gq4": "P99D", "gq5": "a, b", "gq6": "c", "gq8": "a=x;b=y;c=z"},
                ),
            ],
            data_objects=[DataObject("d", "thing", storage_ref="loc://d")],
        )
        ms = [m for m in extract_milestones(model)[0] if m.milestone_id == "m:e"][0]
        assert ms.gq.gq4_duration == Duration(99)
        assert ms.gq.gq5_inputs == frozenset({"a", "b"})
        assert ms.gq.gq6_outputs == frozenset({"c"})
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
        assert ms.gq.gq5_inputs == frozenset({"m:d9"})

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
