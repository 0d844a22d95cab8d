"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass line; `pytest -v tests/test_acceptance.py`
gives one line per criterion either way. Tolerances are exact unless a
runtime or memory bound is stated in the assertion.
"""

import heapq
import json
import random
import resource
import time

import pytest

import oracles
from conftest import PARKPILOT_MANIFEST, PARKPILOT_SEVERED, FIG7_MANIFEST, milestone, stub_pyramid
from procpyramid import (
    DataObject,
    Duration,
    FlowNode,
    Lane,
    OffsetTable,
    ProcessModel,
    ReferenceProcess,
    TimerDef,
    check_connectivity,
    check_gq,
    check_temporal,
    cli,
    diff,
    impact,
    infer_edges,
    load_bundle,
    resolve_offsets,
    serialize_model,
)
from procpyramid.dependency import INFERRED_UNDECLARED, DependencyEdge, DependencyGraph
from procpyramid.timeline import build_reference_timeline


def run_json(capsys, argv):
    code = cli.run(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_anchor_arithmetic(capsys):
    started = time.perf_counter()
    code, doc = run_json(capsys, ["timeline", str(FIG7_MANIFEST)])
    elapsed = time.perf_counter() - started
    assert code == 0
    section = doc["timeline"]
    assert section["offsets"]["PS"] == -60
    assert section["renderings"]["PS"] == "2 months before SOP"
    assert elapsed < 1.0
    print(f"criterion 1 (anchor arithmetic to -60d): PASS in {elapsed:.2f}s")


def test_criterion_2_single_omission_coverage():
    def fresh():
        return milestone("m:e", inputs=("a",), outputs=("b",), consumers=("m:x",))

    assert check_gq(fresh()) == []

    cases = {}
    for k in range(1, 9):
        ms = fresh()
        if k == 1:
            ms.gq.gq1_process = ""
        elif k == 2:
            ms.gq.gq2_role = " "
        elif k == 3:
            ms.gq.gq3_tools = frozenset()
        elif k == 4:
            ms.gq.gq4_duration = None
        elif k == 5:
            ms.gq.gq5_inputs = ()
        elif k == 6:
            ms.gq.gq6_outputs = ()
        elif k == 7:
            ms.gq.gq7_consumers = frozenset()
        elif k == 8:
            ms.gq.gq8_storage = {}
        cases[k] = [f.code for f in check_gq(ms)]

    for k in range(1, 9):
        assert cases[k] == [f"GQ{k}-UNANSWERED"], cases[k]
    print("criterion 2 (all 8 single-omission cases): PASS")


def test_criterion_3_twelve_slot_grid():
    bundle = load_bundle(PARKPILOT_MANIFEST)
    table, findings = resolve_offsets(bundle.pyramid, bundle.milestones, "SOP")
    assert findings == []
    assert min(table.offsets.values()) == -360
    assert max(table.offsets.values()) == 0

    grid = build_reference_timeline(table, 30)
    assert len(grid.boundaries) - 1 == 12
    assert sorted(grid.assignments) == sorted(table.offsets)
    for mid, offset in table.offsets.items():
        slot = grid.assignments[mid]
        assert 0 <= slot < 12
        assert slot == oracles.slot_scan(offset, grid.boundaries)
    print("criterion 3 (12-month span, 12 slots, oracle-checked): PASS")


def test_criterion_4_dependency_oracle_equivalence():
    rng = random.Random(41)
    pool = [f"obj{k}" for k in range(20)]
    models = [f"m{k}" for k in range(5)]
    pyramid = stub_pyramid({k: [mid] for k, mid in enumerate(models)}, list(zip(models, models[1:])))
    started = time.perf_counter()

    for _ in range(100):
        count = rng.randint(1, 50)
        ids = [f"m{i % 5}:e{i}" for i in range(count)]
        ms = []
        for mid in ids:
            outs = rng.sample(pool, rng.randint(0, 3))
            ins = rng.sample(pool, rng.randint(0, 3))
            declared = (
                rng.sample(ids + ["ghost:g", "m0:ghost"], rng.randint(1, 2)) if rng.random() < 0.4 else []
            )
            ms.append(milestone(mid, inputs=ins, outputs=outs, consumers=declared))

        graph = infer_edges(ms)
        expected = oracles.edges_brute_force(
            {m.milestone_id: set(m.gq.gq6_outputs) for m in ms},
            {m.milestone_id: set(m.gq.gq5_inputs) for m in ms},
            {m.milestone_id: set(m.gq.gq7_consumers) for m in ms},
        )
        actual = {(e.producer, e.consumer): (e.via, e.status) for e in graph.edges}
        assert actual == expected

        closure = oracles.closure_floyd_warshall(
            graph.nodes, [(e.producer, e.consumer) for e in graph.edges]
        )
        # a milestone seed, or a model seed standing for its milestones in model_of
        seed = rng.choice(ids + sorted(set(graph.model_of.values())))
        seeds = {n for n, model in graph.model_of.items() if model == seed} or {seed}
        result = impact(graph, pyramid, seeds)
        assert set(result.downstream) == {b for a, b in closure if a in seeds} - seeds
        assert set(result.upstream) == {a for a, b in closure if b in seeds} - seeds
        touched = seeds | set(result.downstream) | set(result.upstream)
        members = touched & graph.model_of.keys()
        assert result.crossed_levels == {pyramid.level_of[graph.model_of[n]] for n in members}

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 4 (100 bundles vs brute-force + closure oracles): PASS in {elapsed:.2f}s")


def test_criterion_5_connectivity_oracle_equivalence():
    rng = random.Random(52)
    for _ in range(100):
        count = rng.randint(2, 100)
        ids = [f"g{i}" for i in range(count)]
        level_of = {ids[0]: 0}
        parent_of = {}
        for mid in ids[1:]:
            parent = rng.choice(ids[: ids.index(mid)])
            parent_of[mid] = parent
            level_of[mid] = level_of[parent] + 1
        kept = [(p, c) for c, p in parent_of.items() if rng.random() > 0.3]

        levels: dict[int, list[str]] = {}
        for mid, lvl in level_of.items():
            levels.setdefault(lvl, []).append(mid)
        pyramid = stub_pyramid(levels, kept, root=ids[0])

        children = {mid: [] for mid in ids}
        for p, c in kept:
            children[p].append(c)
        expected = oracles.unreachable_by_bfs(ids[0], children)

        findings, _ = check_connectivity(pyramid)
        assert all(f.code == "DISCONNECTED" for f in findings)
        assert {f.subject for f in findings} == expected
    print("criterion 5 (100 pyramids vs BFS-complement oracle): PASS")


def test_criterion_6_temporal_soundness():
    rng = random.Random(63)
    for _ in range(100):
        count = rng.randint(1, 30)
        ids = [f"m:e{i:02d}" for i in range(count)]
        offsets = {}
        cursor = rng.randint(-400, -300)
        for mid in ids:
            cursor += rng.randint(0, 10)
            offsets[mid] = cursor
        edges = [
            (ids[i], ids[j])
            for i in range(count)
            for j in range(i + 1, count)
            if rng.random() < 0.15
        ]
        graph = DependencyGraph(
            nodes=sorted(ids),
            edges=[DependencyEdge(p, c, frozenset({"x"}), INFERRED_UNDECLARED) for p, c in edges],
            model_of=dict.fromkeys(ids, "m"),
        )
        assert check_temporal(graph, OffsetTable(offsets=offsets)) == []

        # exhibit the order the clean verdict promises
        indeg = {n: 0 for n in ids}
        adj = {n: [] for n in ids}
        for p, c in edges:
            adj[p].append(c)
            indeg[c] += 1
        heap = [(offsets[n], n) for n in ids if indeg[n] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            _, cur = heapq.heappop(heap)
            order.append(cur)
            for nxt in adj[cur]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(heap, (offsets[nxt], nxt))
        assert len(order) == count
        position = {n: i for i, n in enumerate(order)}
        assert all(position[p] < position[c] for p, c in edges)
        assert all(
            offsets[order[i]] <= offsets[order[i + 1]] for i in range(count - 1)
        )
    print("criterion 6 (clean verdicts admit offset-sorted topological orders): PASS")


def test_criterion_7_conformance_fixed_point_and_lcs():
    steps = ["frame goals", "draft design", "review design", "build rig", "trial run", "sign off"]
    ref = ReferenceProcess(
        "shape", steps=steps, roles=frozenset({"crew"}),
        methods=frozenset({"inspection"}), tools=frozenset({"bench"}),
    )
    nodes = [
        FlowNode(f"t{i}", "task", name=s, duration=Duration(1), extensions=({"tools": "bench"} if i == 0 else {}))
        for i, s in enumerate(steps)
    ]
    model = ProcessModel(
        model_id="m", name="m", nodes=nodes,
        flows=[(a.node_id, b.node_id) for a, b in zip(nodes, nodes[1:])],
        lanes=[Lane("l0", "crew", frozenset(n.node_id for n in nodes))],
        extensions={"methods": "inspection"},
    )
    report = diff(model, [], ref)
    assert report.verdict == "conforming"
    for aspect in report.aspects.values():
        assert aspect.match_ratio == 1.0

    def lcs_via_diff(ref_steps, act_steps):
        tasks = [FlowNode(f"t{i}", "task", name=s, duration=Duration(1)) for i, s in enumerate(act_steps)]
        m = ProcessModel(
            model_id="m", name="m", nodes=tasks,
            flows=[(a.node_id, b.node_id) for a, b in zip(tasks, tasks[1:])],
        )
        return diff(m, [], ReferenceProcess("r", steps=list(ref_steps))).aspects["steps"]

    fixed_pairs = [
        ("abcabcabcabcabc", "cbacbacbacba"),
        ("aaaaabbbbbccccc", "cccccbbbbbaaaaa"),
        ("abababababababa", "babababababab"),
    ]
    rng = random.Random(74)
    random_pairs = [
        (
            [rng.choice("abc") for _ in range(rng.randint(1, 12))],
            [rng.choice("abc") for _ in range(rng.randint(0, 12))],
        )
        for _ in range(20)
    ]
    for ref_steps, act_steps in fixed_pairs + random_pairs:
        got = lcs_via_diff(ref_steps, act_steps)
        assert len(got.matched) == len(oracles.lcs_exhaustive(list(ref_steps), list(act_steps)))
        assert len(got.matched) + len(got.missing) == len(ref_steps)
    print("criterion 7 (conforming fixed point; LCS == exhaustive oracle to length 15): PASS")


def test_criterion_8_five_level_scenario(capsys):
    started = time.perf_counter()

    code, doc = run_json(capsys, ["validate", str(PARKPILOT_MANIFEST)])
    assert code == 0
    assert doc["summary"]["bySeverity"]["error"] == 0

    code, doc = run_json(capsys, ["impact", str(PARKPILOT_MANIFEST), "--seed", "park-pilot-test:e4"])
    assert code == 0
    assert doc["impact"]["crossedLevels"] == [0, 1, 2, 3, 4]

    code, doc = run_json(capsys, ["conform", str(PARKPILOT_MANIFEST)])
    assert code == 0
    assert doc["findings"] == []

    code, doc = run_json(capsys, ["conform", str(PARKPILOT_SEVERED)])
    assert code == 1
    assert [(f["code"], f["subject"]) for f in doc["findings"]] == [
        ("VV-UNLINKED", "park-pilot-test/function-chart")
    ]

    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    print(f"criterion 8 (5-level scenario, one severed V&V link): PASS in {elapsed:.2f}s")


def build_scale_bundle(root_dir):
    """200 models, 10,000 flow nodes, fully linked and milestone-clean."""
    widths = [1, 40, 80, 79]
    anchors = [400, 350, 300, 250]
    ids = [[f"m{lvl}x{i}" for i in range(w)] for lvl, w in enumerate(widths)]
    parent_of = {}
    for child in ids[1]:
        parent_of[child] = ids[0][0]
    for i, child in enumerate(ids[2]):
        parent_of[child] = ids[1][i // 2]
    for i, child in enumerate(ids[3]):
        parent_of[child] = ids[2][i]
    children = {mid: [] for level in ids for mid in level}
    for child, parent in parent_of.items():
        children[parent].append(child)

    entries = []
    total_nodes = 0
    for lvl, level_ids in enumerate(ids):
        for mid in level_ids:
            kids = children[mid]
            task_count = 48 - len(kids)
            objects = [
                DataObject(
                    "oin",
                    name="market demand" if lvl == 0 else f"{parent_of[mid]} artifact",
                    storage_ref=f"store://{mid}/in",
                )
            ]
            objects += [
                DataObject(
                    f"o{j}",
                    name=f"{mid} artifact" if j == task_count else f"{mid} step {j}",
                    storage_ref=f"store://{mid}/{j}",
                )
                for j in range(task_count + 1)
            ]
            nodes = [
                FlowNode(
                    "start", "start-event", name=f"{mid} start",
                    timer=TimerDef(amount=Duration(anchors[lvl])),
                    inputs=("oin",), outputs=("o0",),
                    extensions={"gq3": "board", "gq4": "P0D", "gq7": f"{mid}:end"},
                )
            ]
            nodes += [
                FlowNode(
                    f"t{j}", "task", name=f"{mid} work {j}", duration=Duration(1),
                    inputs=(f"o{j}",), outputs=(f"o{j + 1}",),
                )
                for j in range(task_count)
            ]
            call_targets = {}
            for k, kid in enumerate(kids):
                nodes.append(FlowNode(f"c{k}", "call-activity", name=f"call {kid}"))
                call_targets[f"c{k}"] = kid
            end_ext = {"gq3": "board"}
            if kids:
                end_ext["gq7"] = ", ".join(f"{kid}:start" for kid in kids)
            else:
                end_ext["terminal"] = "true"
            nodes.append(FlowNode("end", "end-event", name=f"{mid} end", extensions=end_ext))

            model = ProcessModel(
                model_id=mid, name=mid, nodes=nodes,
                flows=[(a.node_id, b.node_id) for a, b in zip(nodes, nodes[1:])],
                lanes=[Lane("l0", "crew", frozenset(n.node_id for n in nodes))],
                data_objects=objects,
                call_targets=call_targets,
            )
            total_nodes += len(nodes)
            (root_dir / f"{mid}.bpmn").write_text(serialize_model(model), encoding="utf-8")

            entry = {"id": mid, "file": f"{mid}.bpmn", "level": lvl}
            if lvl:
                parent = parent_of[mid]
                entry["parent"] = {"model": parent, "node": f"c{children[parent].index(mid)}"}
            entries.append(entry)

    assert len(entries) == 200
    assert total_nodes == 10_000
    manifest = {"root": ids[0][0], "models": entries, "alignmentToleranceDays": 50}
    path = root_dir / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def test_criterion_9_scale_smoke(tmp_path):
    manifest = build_scale_bundle(tmp_path)
    out = tmp_path / "report.json"

    started = time.perf_counter()
    code = cli.run(["report", str(manifest), "--json", "--out", str(out)])
    elapsed = time.perf_counter() - started

    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["summary"]["total"] == 0
    assert doc["bundle"] == {"models": 200, "milestones": 400, "maxConnectedDepth": 3}
    assert elapsed < 10.0

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 1024 * 1024
    print(
        f"criterion 9 (200 models / 10k nodes): PASS in {elapsed:.2f}s, peak {peak_kb / 1024:.0f} MB"
    )


def build_tree_bundle(root_dir, parent_of):
    """One small model per id, parents listed before their children: a timer
    start, one one-day task, a call activity per child and an end event.
    Each end hands the model's artifact to its children's starts, at the
    same offset, so the bundle is clean at any depth and width."""
    children = {mid: [] for mid in parent_of}
    level = {}
    for mid, parent in parent_of.items():
        level[mid] = 0 if parent is None else level[parent] + 1
        if parent is not None:
            children[parent].append(mid)
    depth = max(level.values())
    entries = []
    for mid, parent in parent_of.items():
        kids = children[mid]
        end_ext = {"gq3": "board"}
        if kids:
            end_ext["gq7"] = ", ".join(f"{kid}:start" for kid in kids)
        else:
            end_ext["terminal"] = "true"
        nodes = [
            FlowNode(
                "start", "start-event", name=f"{mid} start",
                timer=TimerDef(amount=Duration(depth - level[mid] + 1)),
                inputs=("oin",), outputs=("o0",),
                extensions={"gq3": "board", "gq4": "P0D", "gq7": f"{mid}:end"},
            ),
            FlowNode(
                "t0", "task", name=f"{mid} work", duration=Duration(1),
                inputs=("o0",), outputs=("o1",),
            ),
            *(FlowNode(f"c{k}", "call-activity", name=f"call {kid}") for k, kid in enumerate(kids)),
            FlowNode("end", "end-event", name=f"{mid} end", extensions=end_ext),
        ]
        model = ProcessModel(
            model_id=mid, name=mid, nodes=nodes,
            flows=[(a.node_id, b.node_id) for a, b in zip(nodes, nodes[1:])],
            lanes=[Lane("l0", "crew", frozenset(n.node_id for n in nodes))],
            data_objects=[
                DataObject("oin", name=f"{parent} artifact" if parent else "demand", storage_ref="s"),
                DataObject("o0", name=f"{mid} step", storage_ref="s"),
                DataObject("o1", name=f"{mid} artifact", storage_ref="s"),
            ],
            call_targets={f"c{k}": kid for k, kid in enumerate(kids)},
        )
        (root_dir / f"{mid}.bpmn").write_text(serialize_model(model), encoding="utf-8")
        entry = {"id": mid, "file": f"{mid}.bpmn", "level": level[mid]}
        if parent is not None:
            entry["parent"] = {"model": parent, "node": f"c{children[parent].index(mid)}"}
        entries.append(entry)
    path = root_dir / "manifest.json"
    path.write_text(json.dumps({"root": next(iter(parent_of)), "models": entries}), encoding="utf-8")
    return path


CHAIN = {f"m{i}": f"m{i - 1}" if i else None for i in range(5000)}
FLAT = {"root": None, **{f"c{i}": "root" for i in range(2000)}}


@pytest.mark.parametrize(
    ("parent_of", "depth"), [(CHAIN, 4999), (FLAT, 1)], ids=["deep-5000-chain", "wide-2000-children"]
)
def test_criterion_9_deep_and_wide(tmp_path, parent_of, depth):
    manifest = build_tree_bundle(tmp_path, parent_of)
    out = tmp_path / "report.json"

    started = time.perf_counter()
    code = cli.run(["report", str(manifest), "--json", "--out", str(out)])
    elapsed = time.perf_counter() - started

    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    models = len(parent_of)
    assert doc["bundle"] == {"models": models, "milestones": 2 * models, "maxConnectedDepth": depth}
    print(f"criterion 9 ({models} models, depth {depth}): PASS in {elapsed:.2f}s")
