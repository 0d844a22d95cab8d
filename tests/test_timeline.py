from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    ANCHORS_MANIFEST,
    PARKPILOT_MANIFEST,
    anchor,
    chain_model,
    elapsed,
    milestone,
    node,
    stub_pyramid,
)
from procpyramid import (
    EmptyTimelineError,
    OffsetTable,
    Pyramid,
    build_reference_timeline,
    check_alignment,
    check_gq,
    load_bundle,
    reconcile_declared,
    resolve_offsets,
)
from procpyramid.flowgraph import (
    FlowIndex,
    anchor_candidates,
    segment_duration,
    segment_nodes,
    timer_covered_events,
)
from procpyramid import timeline


def one_model_pyramid(model):
    return Pyramid(root_model=model.model_id, models={model.model_id: model}, level_of={model.model_id: 0})


def offsets_for(model, sop_label="SOP"):
    from procpyramid.ingest import extract_milestones

    milestones, _ = extract_milestones(model)
    table, findings = resolve_offsets(one_model_pyramid(model), milestones, sop_label)
    return table, findings


class TestResolve:
    def test_chain_with_tasks(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(90)),
                node("t1", "task", days=10),
                node("t2", "task", days=20),
                node("e", "end-event"),
            ],
        )
        table, findings = offsets_for(model)
        assert findings == []
        assert table.offsets == {"m:s": -90, "m:e": -60}
        assert "anchor s at 90d" in table.provenance["m:e"]

    def test_diverging_branches_take_the_longest(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(100)),
                node("split", "parallel-gateway"),
                node("fast", "task", days=5),
                node("slow", "task", days=50),
                node("join", "exclusive-gateway"),
                node("e", "end-event"),
            ],
            flows=[
                ("s", "split"),
                ("split", "fast"),
                ("split", "slow"),
                ("fast", "join"),
                ("slow", "join"),
                ("join", "e"),
            ],
        )
        table, _ = offsets_for(model)
        assert table.offsets["m:e"] == -50

    def test_elapsed_timers_add_to_the_path(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(100)),
                node("t", "task", days=10),
                node("wait", "intermediate-event", timer=elapsed(15)),
                node("e", "end-event"),
            ],
        )
        table, _ = offsets_for(model)
        assert table.offsets == {"m:s": -100, "m:wait": -75, "m:e": -75}

    def test_anchor_on_the_event_itself(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(100)),
                node("t", "task", days=10),
                node("mid", "intermediate-event", timer=anchor(40)),
                node("e", "end-event"),
            ],
        )
        table, _ = offsets_for(model)
        assert table.offsets["m:mid"] == -40
        # downstream of a nearer anchor, the nearer one wins
        assert table.offsets["m:e"] == -40

    def test_sop_milestone_is_pinned_to_zero(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(100)),
                node("t", "task", days=10),
                node("e", "end-event", name="  sop "),
            ],
        )
        table, findings = offsets_for(model)
        assert findings == []
        assert table.offsets["m:e"] == 0
        assert table.provenance["m:e"] == "designated SOP milestone"

    def test_no_anchor_and_missing_model(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event"),
                node("mid", "intermediate-event", timer=elapsed(5)),
                node("e", "end-event"),
            ],
        )
        table, findings = offsets_for(model)
        assert table.offsets == {}
        assert {f.code for f in findings} == {"NO-ANCHOR"}

        stray = milestone("ghost:e", name="Ghost")
        _, findings = resolve_offsets(one_model_pyramid(model), [stray])
        assert [f.code for f in findings] == ["NO-ANCHOR"]

    def test_hand_built_milestone_walks_its_anchor(self):
        model = chain_model(
            "m",
            [node("s", "start-event", timer=anchor(90)), node("t", "task", days=10), node("e", "end-event")],
        )
        extracted = offsets_for(model)
        built = resolve_offsets(one_model_pyramid(model), [milestone("m:e", name="e")])
        assert built[0].offsets == {"m:e": -80} == {"m:e": extracted[0].offsets["m:e"]}
        assert built[0].provenance["m:e"] == extracted[0].provenance["m:e"]

        table, findings = resolve_offsets(one_model_pyramid(model), [milestone("m:t", name="t")])
        assert table.offsets == {}
        assert [(f.code, f.message) for f in findings] == [
            ("NO-ANCHOR", "owning model or event not present in the pyramid")
        ]

    @pytest.mark.parametrize("manifest", [PARKPILOT_MANIFEST, ANCHORS_MANIFEST], ids=["parkpilot", "anchors"])
    def test_hand_built_milestones_share_one_walk_per_model(self, monkeypatch, manifest):
        bundle = load_bundle(manifest)
        expected = resolve_offsets(bundle.pyramid, bundle.milestones, bundle.manifest.sop_label)
        built = [replace(ms, anchors=None) for ms in bundle.milestones]
        indexed = []
        index_of = FlowIndex.of

        def counted(model):
            indexed.append(model.model_id)
            return index_of(model)

        monkeypatch.setattr(FlowIndex, "of", staticmethod(counted))
        assert resolve_offsets(bundle.pyramid, built, bundle.manifest.sop_label) == expected
        walked = {ms.model_id for ms in built if ms.model_id in bundle.pyramid.models}
        assert len(walked) > 1
        assert sorted(indexed) == sorted(walked)

    def test_ambiguous_anchor(self):
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
        table, findings = offsets_for(model)
        assert "m:e" not in table.offsets
        assert any(f.code == "AMBIGUOUS-ANCHOR" for f in findings)

    def test_agreeing_anchors_are_not_ambiguous(self):
        model = chain_model(
            "m",
            [
                node("a1", "start-event", timer=anchor(60)),
                node("a2", "intermediate-event", timer=anchor(60)),
                node("join", "parallel-gateway"),
                node("e", "end-event"),
            ],
            flows=[("a1", "join"), ("a2", "join"), ("join", "e")],
        )
        table, findings = offsets_for(model)
        assert findings == []
        assert table.offsets["m:e"] == -60

    def test_cycle_between_anchor_and_event(self):
        model = chain_model(
            "m",
            [
                node("s", "start-event", timer=anchor(30)),
                node("t1", "task", days=1),
                node("t2", "task", days=1),
                node("e", "end-event"),
            ],
            flows=[("s", "t1"), ("t1", "t2"), ("t2", "t1"), ("t2", "e")],
        )
        _, findings = offsets_for(model)
        assert any(f.code == "FLOW-CYCLE" for f in findings)


class TestReconcile:
    def test_mismatch_is_an_error(self):
        table = OffsetTable(offsets={"m:a": -60, "m:b": -30})
        ms = [
            milestone("m:a", declared=-60),
            milestone("m:b", declared=-31),
            milestone("m:c", declared=0),
        ]
        findings = reconcile_declared(table, ms)
        assert [(f.code, f.subject) for f in findings] == [("OFFSET-MISMATCH", "m:b")]


class TestGq:
    def test_fully_answered_is_clean(self):
        ms = milestone("m:e", inputs=("a",), outputs=("b",), consumers=("m:x",))
        assert check_gq(ms) == []

    def test_terminal_skips_gq7(self):
        ms = milestone("m:e", inputs=("a",), outputs=("b",), terminal=True)
        assert check_gq(ms) == []

    def test_gq8_partial_coverage(self):
        ms = milestone(
            "m:e",
            inputs=("a",),
            outputs=("b",),
            consumers=("m:x",),
            storage={"a": "loc://a"},
        )
        assert [f.code for f in check_gq(ms)] == ["GQ8-INCOMPLETE"]
        assert "b" in check_gq(ms)[0].message

    def test_gq8_incomplete_lists_an_input_that_is_also_an_output_once(self):
        ms = milestone(
            "m:e",
            inputs=("a", "x"),
            outputs=("x",),
            consumers=("m:x",),
            storage={"a": "loc://a"},
        )
        assert [(f.code, f.message) for f in check_gq(ms)] == [
            ("GQ8-INCOMPLETE", "no storage location for: x")
        ]


class TestGrid:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_reference_timeline(OffsetTable(offsets={"a": 0}), step=0)
        with pytest.raises(EmptyTimelineError):
            build_reference_timeline(OffsetTable())

    def test_single_offset_still_gets_one_slot(self):
        grid = build_reference_timeline(OffsetTable(offsets={"a": -60}), step=30)
        assert grid.boundaries == [-60, -30]
        assert grid.assignments == {"a": 0}
        assert len(grid.boundaries) - 1 == 1

    def test_boundary_offsets(self):
        grid = build_reference_timeline(OffsetTable(offsets={"a": -60, "b": 0, "c": -1}), step=30)
        assert grid.boundaries == [-60, -30, 0]
        assert grid.assignments == {"a": 0, "b": 1, "c": 1}

    @given(
        st.dictionaries(
            st.text(alphabet="ab:123", min_size=1, max_size=6),
            st.integers(min_value=-1000, max_value=1000),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=90),
    )
    def test_grid_matches_slot_scan_oracle(self, offsets, step):
        grid = build_reference_timeline(OffsetTable(offsets=offsets), step=step)
        assert grid.boundaries[0] <= min(offsets.values())
        assert grid.boundaries[-1] >= max(offsets.values())
        assert all(b % step == 0 for b in grid.boundaries)
        for mid, off in offsets.items():
            assert grid.assignments[mid] == oracles.slot_scan(off, grid.boundaries)

    @given(
        st.integers(min_value=-(2**40) + 1, max_value=2**40 - 2**16),
        st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=2**10 - 1),
    )
    def test_grid_matches_the_float_formula_where_floats_are_exact(self, base, spreads, step):
        """Offsets below 2**40 days, spread over fewer slots than the cap."""
        offsets = {f"m{i}": base + spread for i, spread in enumerate(spreads)}
        grid = build_reference_timeline(OffsetTable(offsets=offsets), step=step)
        assert (grid.boundaries, grid.assignments) == oracles.grid_by_float_division(offsets, step)

    def test_offsets_beyond_float_precision_stay_in_their_slots(self):
        """In floats, 986031778147293388 / 69 rounds the last boundary down
        to ...348, below the offset it should cover."""
        offsets = {"a": 986031778147293258, "b": 986031778147293388}
        boundaries, _ = oracles.grid_by_float_division(offsets, 69)
        assert boundaries[-1] == 986031778147293348
        grid = build_reference_timeline(OffsetTable(offsets=offsets), step=69)
        assert grid.boundaries[-1] == 986031778147293417
        for mid, off in offsets.items():
            assert grid.assignments[mid] == oracles.slot_scan(off, grid.boundaries)

    def test_refuses_more_slots_than_the_cap(self):
        cap = timeline.MAX_GRID_SLOTS
        grid = build_reference_timeline(OffsetTable(offsets={"a": -7, "b": cap * 7 - 7}), step=7)
        assert len(grid.boundaries) == cap + 1
        with pytest.raises(ValueError, match=f"{cap + 1} slots of 7d from -7d to {cap * 7}d"):
            build_reference_timeline(OffsetTable(offsets={"a": -7, "b": cap * 7 - 6}), step=7)


ALIGNED = [
    milestone("p:a", aligns=("c:s", "ghost3", "ghost1", "ghost2")),
    milestone("p:b", aligns=("c:t", "d:u"), consumers=("c:s",)),
    milestone("c:s", aligns=("zombie",)),
    milestone("c:t", consumers=("p:a",)),
    milestone("d:u", aligns=("p:a",)),
]


class TestAlignment:
    def test_aligns_with_within_tolerance(self):
        pyramid = stub_pyramid({0: ["p"], 1: ["c"]}, [("p", "c")])
        table = OffsetTable(offsets={"p:e": -60, "c:s": -58})
        ms = [milestone("p:e", aligns=("c:s",)), milestone("c:s")]
        assert check_alignment(pyramid, table, ms, tolerance=2) == []
        findings = check_alignment(pyramid, table, ms, tolerance=1)
        assert [f.code for f in findings] == ["MISALIGNED"]
        assert findings[0].subject == "c:s~p:e"
        assert "2d apart" in findings[0].message

    def test_dangling_alignment(self):
        pyramid = stub_pyramid({0: ["p"]}, [])
        table = OffsetTable(offsets={"p:e": -60})
        findings = check_alignment(pyramid, table, [milestone("p:e", aligns=("nowhere",))])
        assert [f.code for f in findings] == ["DANGLING-ALIGNMENT"]

    def test_cross_level_gq7_pairs_are_checked(self):
        pyramid = stub_pyramid({0: ["p"], 1: ["c"]}, [("p", "c")])
        table = OffsetTable(offsets={"p:e": -60, "c:s": -30})
        ms = [milestone("p:e", outputs=("x",), consumers=("c:s",)), milestone("c:s", inputs=("x",))]
        findings = check_alignment(pyramid, table, ms)
        assert [f.code for f in findings] == ["MISALIGNED"]

    def test_same_level_gq7_pairs_are_not(self):
        pyramid = stub_pyramid({0: ["p"]}, [])
        table = OffsetTable(offsets={"p:e": -60, "p:s": -30})
        ms = [milestone("p:e", consumers=("p:s",)), milestone("p:s")]
        assert check_alignment(pyramid, table, ms) == []

    @given(st.permutations(ALIGNED))
    def test_findings_ignore_milestone_order(self, milestones):
        """Several dangling alignsWith refs on one milestone, one more on
        another, and several MISALIGNED pairs, from alignsWith and from gq7
        across levels, and two pairs within the tolerance."""
        pyramid = stub_pyramid({0: ["p"], 1: ["c", "d"]}, [("p", "c"), ("p", "d")])
        table = OffsetTable(offsets={"p:a": 0, "p:b": 10, "c:s": 3, "c:t": 20, "d:u": 7})
        findings = check_alignment(pyramid, table, milestones, tolerance=3)
        assert [(f.code, f.subject, f.message) for f in findings] == [
            ("DANGLING-ALIGNMENT", "c:s", "alignsWith unknown milestone 'zombie'"),
            ("DANGLING-ALIGNMENT", "p:a", "alignsWith unknown milestone 'ghost1'"),
            ("DANGLING-ALIGNMENT", "p:a", "alignsWith unknown milestone 'ghost2'"),
            ("DANGLING-ALIGNMENT", "p:a", "alignsWith unknown milestone 'ghost3'"),
            ("MISALIGNED", "c:s~p:b", "linked milestones are 7d apart (3d vs 10d, tolerance 3d)"),
            ("MISALIGNED", "c:t~p:a", "linked milestones are 20d apart (20d vs 0d, tolerance 3d)"),
            ("MISALIGNED", "c:t~p:b", "linked milestones are 10d apart (20d vs 10d, tolerance 3d)"),
            ("MISALIGNED", "d:u~p:a", "linked milestones are 7d apart (7d vs 0d, tolerance 3d)"),
        ]



@st.composite
def anchored_chains(draw):
    """A linear model with an anchor start and random task durations."""
    amount = draw(st.integers(min_value=0, max_value=500))
    durations = draw(st.lists(st.integers(min_value=0, max_value=60), max_size=6))
    nodes = [node("s", "start-event", timer=anchor(amount))]
    nodes += [node(f"t{i}", "task", days=d) for i, d in enumerate(durations)]
    nodes.append(node("e", "end-event"))
    return chain_model("m", nodes), amount, sum(durations)


@given(anchored_chains(), st.integers(min_value=1, max_value=200))
def test_moving_the_anchor_translates_every_offset(chain, shift):
    model, amount, total = chain
    table, _ = offsets_for(model)
    assert table.offsets["m:e"] == -amount + total

    moved = chain_model(
        "m",
        [
            node("s", "start-event", timer=anchor(amount + shift)),
            *[n for n in model.nodes if n.kind == "task"],
            node("e", "end-event"),
        ],
    )
    shifted, _ = offsets_for(moved)
    assert shifted.offsets["m:e"] == table.offsets["m:e"] - shift


@st.composite
def sparse_dags(draw):
    """A chain plus a few forward jump edges; path counts stay small."""
    size = draw(st.integers(min_value=2, max_value=30))
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=40), min_size=size, max_size=size)
    )
    ids = [f"n{i}" for i in range(size)]
    edges = list(zip(ids, ids[1:]))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        a = draw(st.integers(min_value=0, max_value=size - 2))
        b = draw(st.integers(min_value=a + 1, max_value=size - 1))
        edges.append((ids[a], ids[b]))
    nodes = [node(ids[0], "start-event", timer=anchor(100))]
    nodes += [node(ids[i], "task", days=weights[i]) for i in range(1, size - 1)]
    nodes.append(node(ids[-1], "end-event"))
    return chain_model("m", nodes, flows=sorted(set(edges))), weights


@given(sparse_dags())
def test_longest_path_matches_exhaustive_oracle(drawn):
    model, weights = drawn
    last = model.nodes[-1].node_id
    candidates, cyclic = anchor_candidates(FlowIndex.of(model))[last]
    assert not cyclic
    assert len(candidates) == 1

    adjacency = {}
    for src, dst in model.flows:
        adjacency.setdefault(src, []).append(dst)
    weight_map = {f"n{i}": w for i, w in enumerate(weights)}
    weight_map[model.nodes[0].node_id] = 0
    weight_map[last] = 0
    expected = oracles.longest_path_exhaustive(adjacency, weight_map, model.nodes[0].node_id, last)
    anchor_id, offset = candidates[0]
    assert offset == -100 + expected


FLOW_KINDS = ("task", "task", "task", "intermediate-event", "exclusive-gateway", "parallel-gateway", "end-event")


@st.composite
def cyclic_flow_graphs(draw):
    """Small flow graphs with 1-3 anchors, elapsed timers, forward jumps,
    duplicate flows and back edges (cycles, self-loops included)."""
    size = draw(st.integers(min_value=2, max_value=10))
    kinds = ["start-event"] + [draw(st.sampled_from(FLOW_KINDS)) for _ in range(size - 1)]
    anchors = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=3))
    for i in anchors - {0}:
        kinds[i] = "intermediate-event"
    nodes = []
    for i, kind in enumerate(kinds):
        timer = days = None
        if i in anchors:
            timer = anchor(draw(st.integers(min_value=0, max_value=200)))
        elif "event" in kind and draw(st.booleans()):
            timer = elapsed(draw(st.integers(min_value=0, max_value=30)))
        if kind == "task":
            days = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=40)))
        nodes.append(node(f"n{i}", kind, days=days, timer=timer))
    pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    flows = [(f"n{i}", f"n{i + 1}") for i in range(size - 1) if draw(st.integers(0, 5))]
    for a, b in draw(st.lists(pair, max_size=8)):
        flows.append((f"n{min(a, b)}", f"n{max(a, b)}"))
    for a, b in draw(st.lists(pair, max_size=3)):
        flows.append((f"n{max(a, b)}", f"n{min(a, b)}"))
    return chain_model("m", nodes, flows=flows)


CONVERGING_ANCHORS = chain_model(
    "m",
    [
        node("a1", "start-event", timer=anchor(180)),
        node("split", "parallel-gateway"),
        node("t1", "task", days=10),
        node("a2", "intermediate-event", timer=anchor(120)),
        node("t2", "task", days=15),
        node("join", "parallel-gateway"),
        node("e", "intermediate-event", timer=elapsed(3)),
        node("t3", "task", days=2),
        node("gw", "exclusive-gateway"),
        node("end", "end-event"),
    ],
    flows=[
        ("a1", "split"), ("split", "t1"), ("split", "a2"), ("a2", "t2"), ("t1", "join"),
        ("t2", "join"), ("join", "e"), ("e", "t3"), ("t3", "gw"), ("gw", "t3"), ("gw", "end"),
    ],
)


def back_edge_model(exit_from):
    """a -> x -> a, and the event e left from a or from x."""
    return chain_model(
        "m",
        [node("a", "start-event", timer=anchor(100)), node("x", "task", days=5), node("e", "end-event")],
        flows=[("a", "x"), ("x", "a"), (exit_from, "e")],
    )


THREE_ANCHORS_ONE_CYCLE = chain_model(
    "m",
    [
        node("a1", "start-event", timer=anchor(200)),
        node("t1", "task", days=4),
        node("loop", "intermediate-event", timer=elapsed(1)),
        node("a2", "intermediate-event", timer=anchor(150)),
        node("t2", "task", days=6),
        node("a3", "intermediate-event", timer=anchor(90)),
        node("t3", "task", days=8),
        node("t4", "task", days=30),
        node("e", "intermediate-event"),
        node("end", "end-event"),
    ],
    flows=[
        ("a1", "t1"), ("t1", "loop"), ("loop", "t1"), ("loop", "a2"), ("loop", "t3"), ("a2", "t2"),
        ("t2", "e"), ("a1", "a3"), ("a3", "t3"), ("t3", "e"), ("a1", "t4"), ("t4", "e"), ("e", "end"),
    ],
)


# Acyclic: two anchors converging, an elapsed timer, a duplicate flow, a
# flow skipping a branch, an event with no task in its segment and an
# event no timer reaches.
ACYCLIC_ANCHORS = chain_model(
    "m",
    [
        node("a1", "start-event", timer=anchor(180)),
        node("split", "parallel-gateway"),
        node("t1", "task", days=10),
        node("a2", "intermediate-event", timer=anchor(120)),
        node("t2", "task", days=15),
        node("join", "parallel-gateway"),
        node("e", "intermediate-event", timer=elapsed(3)),
        node("t3", "task", days=2),
        node("gw", "exclusive-gateway"),
        node("x", "intermediate-event"),
        node("orphan", "intermediate-event"),
        node("end", "end-event"),
    ],
    flows=[
        ("a1", "split"), ("split", "t1"), ("split", "a2"), ("a2", "t2"), ("t1", "join"), ("t1", "join"),
        ("t2", "join"), ("split", "join"), ("join", "e"), ("e", "t3"), ("t3", "gw"), ("gw", "x"),
        ("gw", "end"), ("x", "end"), ("orphan", "end"),
    ],
)


# e is cyclic for its anchor s (e -> y -> x -> e), but its segment {e, t1, x}
# stops at the event y, so it is acyclic and lasts 5 days.
CYCLIC_FOR_ANCHOR_ACYCLIC_SEGMENT = chain_model(
    "m",
    [
        node("s", "start-event", timer=anchor(100)),
        node("t1", "task", days=5),
        node("e", "intermediate-event"),
        node("y", "intermediate-event"),
        node("x", "task", days=3),
        node("end", "end-event"),
    ],
    flows=[("s", "t1"), ("t1", "e"), ("e", "y"), ("y", "x"), ("x", "e"), ("e", "end")],
)


@settings(max_examples=300)
@example(CYCLIC_FOR_ANCHOR_ACYCLIC_SEGMENT)
@example(ACYCLIC_ANCHORS)
@example(CONVERGING_ANCHORS)
@example(back_edge_model("a"))
@example(back_edge_model("x"))
@example(THREE_ANCHORS_ONE_CYCLE)
@given(cyclic_flow_graphs())
def test_flow_index_walks_match_per_event_cones(model):
    """anchor_candidates, segment_duration and timer_covered_events over one
    FlowIndex give exactly what the per-event cone walks and a plain
    reachability walk over the whole model give: candidate order, cycle
    flag, days and covered events, on the one-pass path for an acyclic
    model and on the per-anchor and per-segment passes for a cyclic one.
    A second index without the one-pass facts holds those passes to the
    same oracles on every draw, acyclic ones too."""
    index = FlowIndex.of(model)
    ids = [n.node_id for n in model.nodes]
    acyclic = oracles.priority_topological_order(ids, model.flows) is not None
    assert (index.acyclic_facts is not None) == acyclic
    assert timer_covered_events(index.nodes, index.succ) == oracles.timer_covered_by_reachability(model)
    per_pass = FlowIndex.of(model)
    per_pass.__dict__["acyclic_facts"] = None
    for flows in (index, per_pass):
        candidates = anchor_candidates(flows)
        assert candidates.keys() == {event.node_id for event in model.events()}
        for event in model.events():
            expected = oracles.anchor_candidates_by_cones(model, event.node_id)
            assert candidates[event.node_id] == expected
            expected_days = oracles.segment_duration_by_scan(model, event.node_id)
            segment = segment_nodes(flows, event.node_id)
            assert segment_duration(flows, event.node_id, segment) == expected_days
