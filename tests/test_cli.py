import gc
import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    ANCHORS_MANIFEST,
    DEVIATION_MANIFEST,
    FIG7_MANIFEST,
    PARKPILOT_MANIFEST,
    IDCLASH_SEED,
    PARKPILOT_SEVERED,
    anchor,
    chain_model,
    milestone,
    node,
    stub_pyramid,
)
from procpyramid import (
    Bundle,
    Manifest,
    UnknownSeedError,
    cli,
    conformance,
    dependency,
    flowgraph,
    load_bundle,
    serialize_model,
)
from procpyramid.cli import _Session
from procpyramid.findings import Finding, summarize


def run_json(capsys, argv):
    code = cli.run(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


class TestExitStatus:
    def test_clean_is_zero(self):
        assert cli.exit_status([]) == 0

    def test_warnings_pass_unless_strict(self):
        gq = [Finding("GQ3-UNANSWERED", "m:a", "no tool named")]
        assert cli.exit_status(gq) == 0
        assert cli.exit_status(gq, strict=True) == 1

    def test_errors_always_fail(self):
        bad = [Finding("MISALIGNED", "a~b", "off by a mile")]
        assert cli.exit_status(bad) == 1


class TestValidate:
    def test_clean_bundle_text_report(self, capsys):
        assert cli.run(["validate", str(FIG7_MANIFEST)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("procpyramid validate\n")
        assert "summary: 0 errors, 0 warnings, 0 info" in out
        assert "bundle: 1 models, 3 milestones, connected depth 0" in out

    def test_clean_bundle_json_report(self, capsys):
        code, doc = run_json(capsys, ["validate", str(FIG7_MANIFEST)])
        assert code == 0
        assert doc["command"] == "validate"
        assert doc["findings"] == []
        assert doc["summary"]["total"] == 0
        assert doc["bundle"] == {"models": 1, "milestones": 3, "maxConnectedDepth": 0}

    def test_parkpilot_is_clean(self, capsys):
        code, doc = run_json(capsys, ["validate", str(PARKPILOT_MANIFEST)])
        assert code == 0
        assert doc["findings"] == []
        assert doc["bundle"] == {"models": 5, "milestones": 11, "maxConnectedDepth": 4}

    def test_out_writes_the_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = cli.run(["validate", str(FIG7_MANIFEST), "--json", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["command"] == "validate"

    @pytest.mark.parametrize(
        "key, old, bad",
        [
            ("declaredOffset", "-60", "banana"),
            ("gq4", "P0D", "banana"),
            ("declaredOffset", "-60", "P1000001D"),
            ("gq4", "P0D", "P2778Y"),
            ("declaredOffset", "-60", "-1000001"),
            ("declaredOffset", "-60", "1_000"),
            ("declaredOffset", "-60", "\u0663"),
            ("terminal", "true", "ture"),
        ],
        ids=[
            "declaredOffset",
            "gq4",
            "declaredOffset-over-day-bound",
            "gq4-over-day-bound",
            "integer-declaredOffset-over-day-bound",
            "declaredOffset-underscore",
            "declaredOffset-arabic-indic-3",
            "terminal-typo",
        ],
    )
    def test_malformed_annotation_is_a_finding(self, capsys, tmp_path, key, old, bad):
        needle = f'key="{key}" value="{old}"'
        text = (FIG7_MANIFEST.parent / "fragment.bpmn").read_text(encoding="utf-8")
        assert needle in text
        edited = text.replace(needle, f'key="{key}" value="{bad}"', 1)
        (tmp_path / "fragment.bpmn").write_text(edited, encoding="utf-8")
        shutil.copy(FIG7_MANIFEST, tmp_path / "manifest.json")
        code, doc = run_json(capsys, ["validate", str(tmp_path / "manifest.json")])
        assert code == 1
        errors = [f for f in doc["findings"] if f["severity"] == "error"]
        assert [f["code"] for f in errors] == ["BAD-ANNOTATION"]
        message = errors[0]["message"]
        assert message.startswith(f"{key} ignored: ") and message.count(repr(bad)) == 1

    @pytest.mark.parametrize("declared, codes", [("-55", []), ("-60", ["OFFSET-MISMATCH"])])
    def test_an_elapsed_timer_waits_in_the_flow(self, capsys, tmp_path, declared, codes):
        """A 5-day elapsed timer on PS moves PS from 60 to 55 days before SOP."""
        text = (FIG7_MANIFEST.parent / "fragment.bpmn").read_text(encoding="utf-8")
        needle = '<entry key="declaredOffset" value="-60"/>\n      </extensionElements>\n'
        assert text.count(needle) == 1
        timer = '<timerEventDefinition mode="elapsed"><timeDuration>P5D</timeDuration></timerEventDefinition>'
        edited = text.replace(needle, needle.replace("-60", declared) + timer)
        (tmp_path / "fragment.bpmn").write_text(edited, encoding="utf-8")
        shutil.copy(FIG7_MANIFEST, tmp_path / "manifest.json")
        code, doc = run_json(capsys, ["validate", str(tmp_path / "manifest.json")])
        assert (code, [f["code"] for f in doc["findings"]]) == (1 if codes else 0, codes)

    @pytest.mark.parametrize("mode", ["cycle", ""])
    def test_an_unknown_timer_mode_is_a_parse_error(self, capsys, tmp_path, mode):
        root = tmp_path / "parkpilot"
        shutil.copytree(PARKPILOT_MANIFEST.parent, root)
        chart = root / "function-chart.bpmn"
        text = chart.read_text(encoding="utf-8")
        assert text.count('mode="anchor-before-sop"') == 1
        chart.write_text(text.replace('mode="anchor-before-sop"', f'mode="{mode}"'), encoding="utf-8")
        code, doc = run_json(capsys, ["validate", str(root / "manifest.json")])
        assert code == 1
        parse_errors = [
            (f["severity"], f["subject"], f["message"])
            for f in doc["findings"]
            if f["code"] == "MODEL-PARSE-ERROR"
        ]
        message = f"model 'function-chart': timer on node 's2': unknown timer mode {mode!r}"
        assert parse_errors == [("error", "function-chart", message)]

    @pytest.mark.parametrize(
        "amount",
        ["P" + "9" * 4299 + "Y", "P" + "9" * 320 + "D", "P" + "9" * 4301 + "D"],
        ids=["4299-nines-Y", "320-nines-D", "4301-nines-D"],
    )
    @pytest.mark.parametrize(
        "needle, current",
        [("<bpmn2:timeDuration>{}</bpmn2:timeDuration>", "P10M"), ('<bpmn2:entry key="duration" value="{}"/>', "P2M")],
        ids=["timer", "task"],
    )
    def test_a_duration_over_the_day_bound_is_a_parse_error(self, capsys, tmp_path, needle, current, amount):
        """Day counts stay exact integers far below Python's 4300-digit
        limit on printing one, so no command ends in `fatal [FATAL]`. The
        bound is checked before `int()` meets that limit, and the message
        names it and quotes 40 characters of the duration."""
        root = tmp_path / "parkpilot"
        shutil.copytree(PARKPILOT_MANIFEST.parent, root)
        pep = root / "pep.bpmn"
        text = pep.read_text(encoding="utf-8")
        assert text.count(needle.format(current)) == 1
        pep.write_text(text.replace(needle.format(current), needle.format(amount)), encoding="utf-8")
        for command in ("validate", "timeline", "deps", "report"):
            code, doc = run_json(capsys, [command, str(root / "manifest.json")])
            parse_errors = [f for f in doc["findings"] if f["code"] == "MODEL-PARSE-ERROR"]
            assert (command, code, [f["subject"] for f in parse_errors]) == (command, 1, ["pep"])
            message = parse_errors[0]["message"]
            assert len(message) <= 200 and "set_int_max_str_digits" not in message
            assert message.endswith(": days must be at most 1000000, in ASCII digits")


def degraded_fig7(tmp_path):
    """fig7 with one tool answer removed: exactly one warning, no errors."""
    text = (FIG7_MANIFEST.parent / "fragment.bpmn").read_text(encoding="utf-8")
    needle = '<entry key="gq3" value="sample workshop"/>'
    assert needle in text
    (tmp_path / "fragment.bpmn").write_text(text.replace(needle, ""), encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(FIG7_MANIFEST.read_text(encoding="utf-8"), encoding="utf-8")
    return manifest


class TestStrict:
    def test_warning_only_bundle_flips_under_strict(self, capsys, tmp_path):
        manifest = degraded_fig7(tmp_path)
        code, doc = run_json(capsys, ["validate", str(manifest)])
        assert code == 0
        assert [f["code"] for f in doc["findings"]] == ["GQ3-UNANSWERED"]
        assert cli.run(["validate", str(manifest), "--strict"]) == 1


class TestTimeline:
    def test_fig7_offsets_and_renderings(self, capsys):
        code, doc = run_json(capsys, ["timeline", str(FIG7_MANIFEST)])
        assert code == 0
        section = doc["timeline"]
        assert section["offsets"] == {
            "Sample phase start": -90,
            "PS": -60,
            "Fragment complete": -60,
        }
        assert section["renderings"]["PS"] == "2 months before SOP"
        assert section["renderings"]["Sample phase start"] == "3 months before SOP"
        assert section["grid"]["stepDays"] == 30
        assert section["grid"]["boundaries"] == [-90, -60]
        assert "anchor s_start" in section["provenance"]["PS"]

    def test_step_override(self, capsys):
        code, doc = run_json(capsys, ["timeline", str(PARKPILOT_MANIFEST), "--step", "45"])
        assert code == 0
        grid = doc["timeline"]["grid"]
        assert grid["stepDays"] == 45
        assert grid["boundaries"][0] == -360 and grid["boundaries"][-1] == 0
        assert len(grid["boundaries"]) == 9

    def test_non_positive_step_is_a_usage_error(self, capsys):
        assert cli.run(["timeline", str(FIG7_MANIFEST), "--step", "0"]) == 2
        assert cli.run(["timeline", str(FIG7_MANIFEST), "--step", "nope"]) == 2

    @pytest.mark.parametrize("step", ["1_0", "\u0663", "1000001"], ids=["underscore", "arabic-indic-3", "over-bound"])
    def test_a_step_outside_ascii_digits_or_the_bound_is_a_usage_error(self, capsys, step):
        assert cli.run(["timeline", str(FIG7_MANIFEST), "--step", step]) == 2
        assert f"argument --step: {step!r}: days must be at most 1000000, in ASCII digits" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["45", "+45", " 45 ", "1000000"])
    def test_a_step_in_ascii_digits_within_the_bound_runs(self, capsys, step):
        code, doc = run_json(capsys, ["timeline", str(FIG7_MANIFEST), "--step", step])
        assert (code, doc["timeline"]["grid"]["stepDays"]) == (0, int(step))

    def test_offsets_table_in_text_mode(self, capsys):
        assert cli.run(["timeline", str(FIG7_MANIFEST)]) == 0
        out = capsys.readouterr().out
        assert "milestone offsets:" in out
        assert "grid: 1 slots of 30d from -90d to -60d" in out

    def test_a_grid_over_the_slot_cap_is_a_finding(self, tmp_path):
        """A hundred tasks of a million days each, at a step of one day, ask
        for 10**8 slots. The command runs in a child interpreter under a
        1 GiB address-space limit and a timeout, so a grid that is built
        anyway fails the test instead of the machine."""
        nodes = [node("s", "start-event", timer=anchor(1_000_000))]
        nodes += [node(f"t{i}", "task", days=1_000_000) for i in range(100)]
        model = chain_model("m", [*nodes, node("e", "end-event")])
        (tmp_path / "m.bpmn").write_text(serialize_model(model), encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"root": "m", "models": [{"id": "m", "file": "m.bpmn", "level": 0}]}),
            encoding="utf-8",
        )
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from procpyramid import cli\n"
            "sys.exit(cli.run(sys.argv[1:]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["timeline", str(manifest), "--json", "--step", "1"]
        result = subprocess.run(
            [sys.executable, "-c", child, *argv], env=env, capture_output=True, encoding="utf-8", timeout=60
        )
        assert result.stderr == ""
        doc = json.loads(result.stdout)
        assert doc["timeline"]["grid"] is None
        assert doc["timeline"]["offsets"]["e"] == 99_000_000
        assert [f for f in doc["findings"] if f["code"] == "GRID-TOO-WIDE"] == [
            {
                "code": "GRID-TOO-WIDE",
                "severity": "warning",
                "subject": "grid",
                "message": "100000000 slots of 1d from -1000000d to 99000000d exceed the cap of 100000",
            }
        ]

    def test_a_name_equal_to_another_milestone_id_keeps_every_offset(self, capsys, tmp_path):
        """m:e is named like m:s's id, while m:s shares its name with m:i;
        no two milestones may share a label, or an offset is lost."""
        model = chain_model(
            "m",
            [
                node("s", "start-event", name="X", timer=anchor(90)),
                node("t1", "task", days=10),
                node("i", "intermediate-event", name="X"),
                node("t2", "task", days=20),
                node("e", "end-event", name="m:s"),
            ],
        )
        (tmp_path / "m.bpmn").write_text(serialize_model(model), encoding="utf-8")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"root": "m", "models": [{"id": "m", "file": "m.bpmn", "level": 0}]}),
            encoding="utf-8",
        )
        _, deps = run_json(capsys, ["deps", str(manifest)])
        by_id = {n["id"]: n for n in deps["dependencies"]["nodes"]}
        assert {i: n["offset"] for i, n in by_id.items()} == {"m:s": -90, "m:i": -80, "m:e": -60}
        _, doc = run_json(capsys, ["timeline", str(manifest)])
        offsets = doc["timeline"]["offsets"]
        assert sorted(offsets.values()) == [-90, -80, -60]
        assert offsets == {by_id[i]["name"]: n["offset"] for i, n in by_id.items()}


class TestDeps:
    def test_parkpilot_graph_is_fully_declared(self, capsys, tmp_path):
        dot_path = tmp_path / "deps.gv"
        code, doc = run_json(
            capsys, ["deps", str(PARKPILOT_MANIFEST), "--dot", str(dot_path)]
        )
        assert code == 0
        assert doc["findings"] == []
        edges = doc["dependencies"]["edges"]
        assert len(edges) == 11
        assert {e["status"] for e in edges} == {"declared-and-matched"}
        assert doc["artifacts"] == {"dot": str(dot_path)}
        dot = dot_path.read_text(encoding="utf-8")
        assert dot.startswith("digraph dependencies {")
        assert "style=solid" in dot

    def test_text_mode_names_the_dot_file_last(self, capsys, tmp_path):
        dot_path = tmp_path / "deps.dot"
        assert cli.run(["deps", str(PARKPILOT_MANIFEST), "--dot", str(dot_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote dot: {dot_path}"
        golden = Path(__file__).parent / "golden" / "parkpilot-export.dot"
        assert dot_path.read_bytes() == golden.read_bytes()

    def test_export_payload_matches_deps(self, capsys):
        _, deps_doc = run_json(capsys, ["deps", str(PARKPILOT_MANIFEST)])
        code, export_doc = run_json(capsys, ["export", str(PARKPILOT_MANIFEST)])
        assert code == 0
        assert export_doc["dependencies"] == deps_doc["dependencies"]


class TestImpact:
    def test_seed_by_unique_name(self, capsys):
        code, doc = run_json(
            capsys, ["impact", str(PARKPILOT_MANIFEST), "--seed", "Park pilot approved"]
        )
        assert code == 0
        section = doc["impact"]
        assert section["seed"] == "park-pilot-test:e4"
        assert section["downstream"] == []
        assert section["upstream"] == [
            "park-pilot-test:s4",
            "function-chart:e2",
            "test-plan:e3",
            "function-chart:s2",
            "test-plan:s3",
            "pep:e1",
            "pep:s1",
            "product-process:e0",
            "product-process:s0",
        ]
        assert section["crossedLevels"] == [0, 1, 2, 3, 4]

    def test_seed_by_event_node_id(self, capsys):
        """A node id that one milestone alone has names it, as in a gq7 entry."""
        by_node = run_json(capsys, ["impact", str(PARKPILOT_MANIFEST), "--seed", "e4"])
        by_name = run_json(capsys, ["impact", str(PARKPILOT_MANIFEST), "--seed", "Park pilot approved"])
        assert by_node == by_name
        assert by_node[1]["impact"]["seed"] == "park-pilot-test:e4"

    def test_seed_by_model_id(self, capsys):
        code, doc = run_json(capsys, ["impact", str(PARKPILOT_MANIFEST), "--seed", "test-plan"])
        assert code == 0
        section = doc["impact"]
        assert section["downstream"] == ["park-pilot-test:s4", "park-pilot-test:e4"]
        assert section["crossedLevels"] == [0, 1, 3, 4]

    def test_crossed_levels_are_sorted(self, capsys, tmp_path):
        """A 9-level chain whose only dependency runs from level 1 to level 8:
        the seed crosses levels {1, 8}, which a set iterates as [8, 1]."""
        entries = []
        for level in range(9):
            mid, child = f"m{level}", f"m{level + 1}"
            end = {"gq7": "m8:s"} if level == 1 else {}
            nodes = [node("s", "start-event", name=f"{mid} start", timer=anchor(9 - level))]
            if level < 8:
                nodes.append(node("c", "call-activity", name=f"call {child}"))
            nodes.append(node("e", "end-event", name=f"{mid} end", ext=end))
            model = chain_model(mid, nodes, call_targets={"c": child} if level < 8 else {})
            (tmp_path / f"{mid}.bpmn").write_text(serialize_model(model), encoding="utf-8")
            entry = {"id": mid, "file": f"{mid}.bpmn", "level": level}
            if level:
                entry["parent"] = {"model": f"m{level - 1}", "node": "c"}
            entries.append(entry)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"root": "m0", "models": entries}), encoding="utf-8")
        _, doc = run_json(capsys, ["impact", str(manifest), "--seed", "m1:e"])
        assert doc["impact"]["downstream"] == ["m8:s"]
        assert doc["impact"]["upstream"] == []
        assert doc["impact"]["crossedLevels"] == [1, 8]

    def test_unknown_seed_is_fatal(self, capsys):
        assert cli.run(["impact", str(PARKPILOT_MANIFEST), "--seed", "nope"]) == 2
        assert "fatal [UNKNOWN-SEED]" in capsys.readouterr().err

    def test_an_unknown_seed_is_quoted_to_40_characters(self, capsys):
        assert cli.run(["impact", str(PARKPILOT_MANIFEST), "--seed", "x" * 100]) == 2
        assert capsys.readouterr().err == (
            f"fatal [UNKNOWN-SEED]: seed {'x' * 40!r}… names no milestone and no model with milestones\n"
        )

    def test_a_gq7_item_that_names_no_milestone_is_no_seed(self, capsys, tmp_path):
        """pep's `PEP released` renamed `program approved`: pep:s1's gq7 item
        `PEP released` then names no milestone. It stays a graph node, so its
        broken promise shows, but it is no seed."""
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        pep = tmp_path / "pep.bpmn"
        text = pep.read_text(encoding="utf-8")
        pep.write_text(text.replace('name="PEP released"', 'name="program approved"'), encoding="utf-8")
        manifest = str(tmp_path / "manifest.json")
        _, doc = run_json(capsys, ["deps", manifest])
        assert ("pep:s1", "PEP released", "declared-unmatched") in {
            (e["producer"], e["consumer"], e["status"]) for e in doc["dependencies"]["edges"]
        }
        assert cli.run(["impact", manifest, "--seed", "PEP released"]) == 2
        assert "fatal [UNKNOWN-SEED]" in capsys.readouterr().err

    def test_seed_is_required(self, capsys):
        assert cli.run(["impact", str(PARKPILOT_MANIFEST)]) == 2

    def test_a_name_seed_is_its_milestone_where_that_id_is_a_model_id(self, capsys):
        """`Program start` is milestone `p:b` at level 0, with one gq7
        consumer, `SOP`; `p:b` is also the id of a model at level 1."""
        by_name = run_json(capsys, ["impact", str(IDCLASH_SEED), "--seed", "Program start"])
        assert by_name == run_json(capsys, ["impact", str(IDCLASH_SEED), "--seed", "b"])
        code, doc = by_name
        assert code == 0
        assert doc["impact"] == {"seed": "p:b", "downstream": ["p:e_sop"], "upstream": [], "crossedLevels": [0]}
        _, doc = run_json(capsys, ["impact", str(IDCLASH_SEED), "--seed", "p:b"])
        assert doc["impact"] == {"seed": "p:b", "downstream": [], "upstream": [], "crossedLevels": [1]}

    @staticmethod
    def session(milestones, levels, links):
        pyramid = stub_pyramid(levels, links)
        return _Session(Bundle(Manifest([], pyramid.root_model), pyramid, milestones))

    def test_a_model_seed_stands_for_its_milestones(self):
        """p2:d promises a consumer p0:ghost that is no milestone. Its text
        starts with the model id p0, but the model seed p0 does not take it
        in: it is reached, and its producers are not upstream."""
        milestones = [
            milestone("p0:a", outputs=("x",)),
            milestone("p1:b", inputs=("x",), outputs=("y",)),
            milestone("p1:c", inputs=("x",), outputs=("z",)),
            milestone("p2:d", inputs=("y", "z"), consumers=("p0:ghost",)),
        ]
        session = self.session(milestones, {0: ["p0"], 1: ["p1"], 2: ["p2"]}, [("p0", "p1"), ("p1", "p2")])
        assert session.impact(Namespace(seed="p1"))[1]["impact"] == {
            "seed": "p1", "downstream": ["p2:d", "p0:ghost"], "upstream": ["p0:a"], "crossedLevels": [0, 1, 2]
        }
        assert session.impact(Namespace(seed="p0"))[1]["impact"] == {
            "seed": "p0", "downstream": ["p1:b", "p1:c", "p2:d", "p0:ghost"], "upstream": [], "crossedLevels": [0, 1, 2]
        }

    def test_one_message_for_every_seed_refused(self):
        """Text that names no milestone, a gq7 item kept as written, and a
        model with no milestones."""
        session = self.session(
            [milestone("p0:a", consumers=("p0:ghost",))], {0: ["p0"], 1: ["empty"]}, [("p0", "empty")]
        )
        for seed in ("nope", "p0:ghost", "empty"):
            with pytest.raises(UnknownSeedError) as refused:
                session.impact(Namespace(seed=seed))
            assert str(refused.value) == f"seed {seed!r} names no milestone and no model with milestones"


class TestConform:
    def test_parkpilot_conforms_on_both_sides(self, capsys):
        code, doc = run_json(capsys, ["conform", str(PARKPILOT_MANIFEST)])
        assert code == 0
        assert doc["findings"] == []
        assert [(e["model"], e["reference"], e["verdict"]) for e in doc["conformance"]] == [
            ("function-chart", "component-design", "conforming"),
            ("park-pilot-test", "component-test", "conforming"),
        ]
        assert doc["vvLinks"] == [
            {"right": "park-pilot-test", "left": "function-chart", "iterations": 4}
        ]

    def test_severed_bundle_breaks_exactly_the_vv_link(self, capsys):
        code, doc = run_json(capsys, ["conform", str(PARKPILOT_SEVERED)])
        assert code == 1
        assert [(f["code"], f["subject"]) for f in doc["findings"]] == [
            ("VV-UNLINKED", "park-pilot-test/function-chart")
        ]
        assert doc["vvLinks"] == [
            {"right": "park-pilot-test", "left": "function-chart", "iterations": 0}
        ]

    def test_a_major_deviation_fails_only_under_strict(self, capsys):
        """A major deviation is a warning, a minor one info: the deviating
        bundle passes, and fails under --strict."""
        code, doc = run_json(capsys, ["conform", str(DEVIATION_MANIFEST)])
        assert code == 0
        assert [(f["code"], f["severity"], f["subject"]) for f in doc["findings"]] == [
            ("MAJOR-DEVIATION", "warning", "build/prototype-build"),
            ("MINOR-DEVIATION", "info", "program/program-plan"),
        ]
        assert cli.run(["conform", str(DEVIATION_MANIFEST), "--strict"]) == 1

    def test_a_blank_task_name_is_no_step_name(self, capsys, tmp_path):
        """A task named only whitespace is the step of its node id."""
        root = tmp_path / "deviation"
        shutil.copytree(DEVIATION_MANIFEST.parent, root)
        build = root / "build.bpmn"
        text = build.read_text(encoding="utf-8")
        needle = '<task id="t_build" name="Build prototype">'
        assert text.count(needle) == 1
        build.write_text(text.replace(needle, '<task id="t_build" name="   ">'), encoding="utf-8")
        _, doc = run_json(capsys, ["conform", str(root / "manifest.json")])
        [steps] = [e["aspects"]["steps"] for e in doc["conformance"] if e["model"] == "build"]
        assert steps["extra"] == ["t_build", "paint prototype"]

    def test_a_model_bound_to_both_sides_is_unlinked_from_itself(self, capsys, tmp_path):
        """Its own milestones are no iteration: no data flows between them."""
        model = chain_model(
            "m",
            [node("s", "start-event", timer=anchor(90)), node("t", "task", days=10), node("e", "end-event")],
        )
        (tmp_path / "m.bpmn").write_text(serialize_model(model), encoding="utf-8")
        (tmp_path / "refs.json").write_text(
            json.dumps(
                [
                    {"id": "d", "side": "left", "steps": ["t"], "binding": {"modelId": "m"}},
                    {
                        "id": "v", "side": "right", "counterpart": "d", "steps": ["t"],
                        "binding": {"modelId": "m"},
                    },
                ]
            ),
            encoding="utf-8",
        )
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "root": "m",
                    "referenceTemplates": ["refs.json"],
                    "models": [{"id": "m", "file": "m.bpmn", "level": 0}],
                }
            ),
            encoding="utf-8",
        )
        code, doc = run_json(capsys, ["conform", str(manifest)])
        assert code == 1
        assert [(f["code"], f["subject"]) for f in doc["findings"]] == [("VV-UNLINKED", "m/m")]
        assert doc["vvLinks"] == [{"right": "m", "left": "m", "iterations": 0}]

    @pytest.mark.parametrize(
        "listed",
        [
            ["refs/vmodel.json", "refs/vmodel.json"],
            ["refs/vmodel.json", "./refs/vmodel.json"],
            ["refs/vmodel.json", "refs/copy.json"],
        ],
        ids=["same-name", "two-names", "copy"],
    )
    def test_a_template_file_listed_twice_is_a_template_fatal(self, capsys, tmp_path, listed):
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        shutil.copyfile(tmp_path / "refs" / "vmodel.json", tmp_path / "refs" / "copy.json")
        manifest = list_templates(tmp_path, listed)
        assert cli.run(["conform", str(manifest), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "fatal [TEMPLATE]: duplicate template ids: component-design, component-test\n"
        )
        assert captured.out == ""

    def test_a_pairing_two_template_pairs_bind_is_one_row(self, capsys, tmp_path):
        """component-test binds park-pilot-test by name pattern; a second
        right-side template binds it by id against the same counterpart."""
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        refs = tmp_path / "refs" / "vmodel.json"
        templates = json.loads(refs.read_text(encoding="utf-8"))
        templates.append(
            {
                "id": "component-test-by-id", "side": "right", "counterpart": "component-design",
                "steps": ["Execute park pilot"], "binding": {"modelId": "park-pilot-test"},
            }
        )
        refs.write_text(json.dumps(templates), encoding="utf-8")
        code, doc = run_json(capsys, ["conform", str(tmp_path / "manifest-severed.json")])
        assert code == 1
        assert [(f["code"], f["subject"]) for f in doc["findings"]] == [
            ("VV-UNLINKED", "park-pilot-test/function-chart")
        ]
        assert doc["vvLinks"] == [
            {"right": "park-pilot-test", "left": "function-chart", "iterations": 0}
        ]


def list_templates(bundle_dir: Path, listed: list[str]) -> Path:
    """Point the manifest in `bundle_dir` at the template files `listed`."""
    manifest = bundle_dir / "manifest.json"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["referenceTemplates"] = listed
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    return manifest


class TestColonInModelId:
    """Model ids may contain ":", so the model of a milestone is not the
    prefix of its id: park-pilot-test renamed to ecu:v2 must analyse the same."""

    OLD, NEW = "park-pilot-test", "ecu:v2"

    @pytest.fixture
    def renamed(self, tmp_path):
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        for name in ("manifest.json", "test-plan.bpmn"):
            path = tmp_path / name
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(f'"{self.OLD}"', f'"{self.NEW}"'), encoding="utf-8")
        return tmp_path / "manifest.json"

    def rename(self, node):
        return self.NEW + node[len(self.OLD):] if node.startswith(self.OLD + ":") else node

    def test_impact_expands_the_model_seed(self, capsys, renamed):
        _, before = run_json(capsys, ["impact", str(PARKPILOT_MANIFEST), "--seed", self.OLD])
        code, after = run_json(capsys, ["impact", str(renamed), "--seed", self.NEW])
        assert code == 0
        assert after["impact"]["crossedLevels"] == before["impact"]["crossedLevels"] == [0, 1, 2, 3, 4]
        assert set(after["impact"]["upstream"]) == {self.rename(n) for n in before["impact"]["upstream"]}

    def test_graph_levels_and_vv_links(self, capsys, renamed):
        _, before = run_json(capsys, ["report", str(PARKPILOT_MANIFEST)])
        code, after = run_json(capsys, ["report", str(renamed)])
        assert code == 0
        assert after["findings"] == before["findings"] == []
        levels = {n["id"]: n["level"] for n in after["dependencies"]["nodes"]}
        assert levels == {self.rename(n["id"]): n["level"] for n in before["dependencies"]["nodes"]}
        assert levels["ecu:v2:e4"] == 4
        assert after["vvLinks"] == [{"right": self.NEW, "left": "function-chart", "iterations": 4}]

    def test_a_dangling_reference_has_no_level(self, capsys, tmp_path):
        """Models a and a:b, and a gq7 item a:b:x that names no milestone:
        its text starts with both model ids, yet it belongs to neither."""
        a = chain_model(
            "a",
            [
                node("s", "start-event", name="a start", timer=anchor(2)),
                node("c", "call-activity", name="call a:b"),
                node("e", "end-event", name="a end", ext={"gq7": "a:b:x"}),
            ],
            call_targets={"c": "a:b"},
        )
        b = chain_model(
            "a:b", [node("s", "start-event", name="b start", timer=anchor(1)), node("e", "end-event", name="b end")]
        )
        (tmp_path / "a.bpmn").write_text(serialize_model(a), encoding="utf-8")
        (tmp_path / "b.bpmn").write_text(serialize_model(b), encoding="utf-8")
        entries = [
            {"id": "a", "file": "a.bpmn", "level": 0},
            {"id": "a:b", "file": "b.bpmn", "level": 1, "parent": {"model": "a", "node": "c"}},
        ]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"root": "a", "models": entries}), encoding="utf-8")
        _, doc = run_json(capsys, ["deps", str(manifest)])
        nodes = {n["id"]: (n["name"], n["level"], n["offset"]) for n in doc["dependencies"]["nodes"]}
        assert nodes["a:b:x"] == ("a:b:x", None, None)
        assert nodes["a:b:e"][1] == 1
        edges = {(e["producer"], e["consumer"]): e for e in doc["dependencies"]["edges"]}
        assert (edges["a:e", "a:b:x"]["producerLevel"], edges["a:e", "a:b:x"]["consumerLevel"]) == (0, None)


class TestRetention:
    def test_manifest_is_the_earlier_snapshot(self, capsys):
        code, doc = run_json(
            capsys, ["retention", str(FIG7_MANIFEST), "--after", str(FIG7_MANIFEST)]
        )
        assert code == 0
        assert doc["retention"] == {
            "before": 3,
            "after": 3,
            "dropped": 0,
            "addedIntermediate": 0,
        }

    def test_dropped_milestones_fail_the_run(self, capsys):
        code, doc = run_json(
            capsys, ["retention", str(PARKPILOT_MANIFEST), "--after", str(FIG7_MANIFEST)]
        )
        assert code == 1
        assert doc["retention"]["before"] == 11
        assert doc["retention"]["after"] == 3
        assert doc["retention"]["dropped"] == 11
        assert doc["retention"]["addedIntermediate"] == 1

    def test_after_is_required(self, capsys):
        assert cli.run(["retention", str(FIG7_MANIFEST)]) == 2

    def test_manifest_is_the_only_earlier_snapshot(self, capsys):
        manifest = str(FIG7_MANIFEST)
        assert cli.run(["retention", manifest, "--before", manifest, "--after", manifest]) == 2
        assert "unrecognized arguments: --before" in capsys.readouterr().err

    @pytest.fixture
    def broken(self, tmp_path):
        """Parkpilot with its function chart cut off mid-document."""
        root = tmp_path / "parkpilot"
        shutil.copytree(PARKPILOT_MANIFEST.parent, root)
        chart = root / "function-chart.bpmn"
        text = chart.read_text(encoding="utf-8")
        chart.write_text(text[: len(text) // 2], encoding="utf-8")
        return root / "manifest.json"

    @staticmethod
    def function_chart_findings(doc):
        return {
            (f["code"], f["message"].startswith("after snapshot: "))
            for f in doc["findings"]
            if f["subject"] == "function-chart"
        }

    def test_a_broken_after_snapshot_is_reported_with_its_name(self, capsys, broken):
        code, doc = run_json(capsys, ["retention", str(PARKPILOT_MANIFEST), "--after", str(broken)])
        assert code == 1
        found = self.function_chart_findings(doc)
        assert found >= {("MODEL-PARSE-ERROR", True), ("MISSING-MODEL", True)}
        assert {prefixed for _, prefixed in found} == {True}
        assert "MILESTONE-DROPPED" in {f["code"] for f in doc["findings"]}

    def test_a_broken_earlier_snapshot_is_reported_as_loaded(self, capsys, broken):
        code, doc = run_json(capsys, ["retention", str(broken), "--after", str(PARKPILOT_MANIFEST)])
        assert code == 1
        found = self.function_chart_findings(doc)
        assert found >= {("MODEL-PARSE-ERROR", False), ("MISSING-MODEL", False)}
        assert {prefixed for _, prefixed in found} == {False}


ANCHORS_ARGS = {
    "impact": ["--seed", "program"],
    "retention": ["--after", str(ANCHORS_MANIFEST)],
}


@pytest.mark.parametrize("command", [spec.name for spec in cli.COMMANDS])
def test_every_command_reports_the_bundle_load_findings(capsys, command):
    load = {(f.code, f.severity, f.subject, f.message) for f in load_bundle(ANCHORS_MANIFEST).findings}
    assert [code for code, *_ in load] == ["AMBIGUOUS-ANCHOR"] * 2
    _, doc = run_json(capsys, [command, str(ANCHORS_MANIFEST), *ANCHORS_ARGS.get(command, [])])
    reported = {(f["code"], f["severity"], f["subject"], f["message"]) for f in doc["findings"]}
    assert load <= reported


@pytest.fixture
def dangling_ref(tmp_path):
    """Parkpilot with one function-chart data input naming no object."""
    root = tmp_path / "parkpilot"
    shutil.copytree(PARKPILOT_MANIFEST.parent, root)
    chart = root / "function-chart.bpmn"
    text = chart.read_text(encoding="utf-8")
    edited = text.replace(">d2_plan</bpmn2:sourceRef>", ">no-such-object</bpmn2:sourceRef>")
    assert edited.count("no-such-object") == 1
    chart.write_text(edited, encoding="utf-8")
    return root / "manifest.json"


@pytest.mark.parametrize("command", [spec.name for spec in cli.COMMANDS])
def test_every_command_reports_the_parse_findings(capsys, dangling_ref, command):
    if command == "retention":
        argv, prefix = [str(PARKPILOT_MANIFEST), "--after", str(dangling_ref)], "after snapshot: "
    else:
        argv, prefix = [str(dangling_ref), *{"impact": ["--seed", "test-plan"]}.get(command, [])], ""
    _, doc = run_json(capsys, [command, *argv])
    dangling = [
        (f["severity"], f["subject"], f["message"])
        for f in doc["findings"]
        if f["code"] == "UNRESOLVED-DATA-REF"
    ]
    message = f"{prefix}data association references unknown object 'no-such-object'"
    assert dangling == [("warning", "function-chart:s2", message)]


class TestReport:
    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.run(["report", str(PARKPILOT_MANIFEST), "--json", "--out", str(first)]) == 0
        assert cli.run(["report", str(PARKPILOT_MANIFEST), "--json", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_merges_every_section(self, capsys):
        code, doc = run_json(capsys, ["report", str(PARKPILOT_MANIFEST)])
        assert code == 0
        for key in ("bundle", "timeline", "dependencies", "conformance", "coordinates"):
            assert key in doc
        coords = doc["coordinates"]
        assert coords["product-process"] == {"depth": 0, "position": 0, "complexity": 6}
        assert coords["park-pilot-test"]["depth"] == 4
        assert coords["park-pilot-test"]["position"] == 4

    def test_findings_are_the_union_of_the_parts(self, capsys):
        def findings_of(argv):
            _, doc = run_json(capsys, argv)
            return {(f["code"], f["severity"], f["subject"], f["message"]) for f in doc["findings"]}

        merged = set()
        for command in ("validate", "timeline", "deps", "conform"):
            merged |= findings_of([command, str(PARKPILOT_SEVERED)])
        code, doc = run_json(capsys, ["report", str(PARKPILOT_SEVERED)])
        assert code == 1
        reported = {
            (f["code"], f["severity"], f["subject"], f["message"]) for f in doc["findings"]
        }
        assert reported == merged
        assert [f["code"] for f in doc["findings"]] == ["VV-UNLINKED"]


class TestFatalPaths:
    def test_missing_manifest_file(self, capsys):
        assert cli.run(["validate", "/definitely/not/here.json"]) == 2
        assert "fatal [IO]" in capsys.readouterr().err

    def test_bad_manifest_json(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{broken", encoding="utf-8")
        assert cli.run(["validate", str(path)]) == 2
        assert "fatal [MANIFEST]" in capsys.readouterr().err

    def test_help_exits_clean(self, capsys):
        assert cli.run(["--help"]) == 0
        assert cli.run(["validate", "--help"]) == 0

    def test_parser_is_built_once_per_process(self, capsys):
        cli.build_parser.cache_clear()
        assert cli.run(["validate", str(PARKPILOT_MANIFEST)]) == 0
        assert cli.run(["validate", str(PARKPILOT_MANIFEST)]) == 0
        assert cli.run(["validate"]) == 2
        assert cli.run(["--help"]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_missing_command_or_argument(self, capsys):
        assert cli.run([]) == 2
        assert cli.run(["validate"]) == 2
        assert cli.run(["no-such-command", "x.json"]) == 2

    @pytest.mark.parametrize("value", [None, 5, True, 1.5], ids=["null", "int", "bool", "float"])
    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_non_list_documents_is_a_bad_field(self, capsys, tmp_path, command, value):
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["models"][1]["documents"] = value
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.run([command, str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "fatal [BAD-FIELD]: manifest field 'models[1].documents': must be a list\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "raw", ["[" * 200000 + "]" * 200000, "9" * 5000], ids=["deep-array", "long-integer"]
    )
    @pytest.mark.parametrize(
        ("name", "command", "code"),
        [("manifest.json", "validate", "MANIFEST"), ("refs/vmodel.json", "conform", "TEMPLATE")],
        ids=["manifest", "template"],
    )
    def test_json_past_the_decoder_limits_is_an_input_fatal(
        self, capsys, tmp_path, name, command, code, raw
    ):
        # json.loads raises RecursionError for deep nesting and a plain
        # ValueError for an integer longer than sys.get_int_max_str_digits()
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        target = tmp_path / name
        doc = json.loads(target.read_text(encoding="utf-8"))
        (doc[0] if isinstance(doc, list) else doc)["probe"] = "@raw"
        target.write_text(json.dumps(doc).replace('"@raw"', raw), encoding="utf-8")
        assert cli.run([command, str(tmp_path / "manifest.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"fatal [{code}]: ")
        assert captured.out == ""

    def test_a_blank_alias_is_a_bad_field(self, capsys, tmp_path):
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["aliases"] = {"pp requirements": "  ", "park pilot requirements": " "}
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.run(["deps", str(manifest), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "fatal [BAD-FIELD]: manifest field 'aliases': must map names to names\n"
        assert captured.out == ""

    @pytest.mark.parametrize("entry", [{"kind": "notes"}, {"path": 5}, "docs/a.md"])
    def test_a_document_without_a_path_is_a_bad_field(self, capsys, tmp_path, entry):
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["models"][1]["documents"] = [{"path": "docs/a.md"}, entry]
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.run(["validate", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "fatal [BAD-FIELD]: manifest field 'models[1].documents[1]': must hold a path\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("path", ["", "  ", "refs/vmodel.json\x00"], ids=["empty", "blank", "nul"])
    @pytest.mark.parametrize("command", ["validate", "conform"])
    def test_a_template_path_that_names_no_file_is_a_bad_field(self, capsys, tmp_path, command, path):
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["referenceTemplates"] = ["refs/vmodel.json", path]
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.run([command, str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "fatal [BAD-FIELD]: manifest field 'referenceTemplates': must be a list of paths\n"
        )
        assert captured.out == ""

    def test_a_model_file_with_a_nul_character_is_a_bad_field(self, capsys, tmp_path):
        # the OS refuses such a path: Python raises ValueError, not OSError
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["models"][1]["file"] += "\x00"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.run(["validate", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "fatal [BAD-FIELD]: manifest field 'models[1].file': required string\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        ("field", "expected"),
        [
            ("id", "fatal [BAD-FIELD]: manifest field 'models[4].id': required string\n"),
            ("root", "fatal [MISSING-ROOT]: manifest field 'root': required and must name a model\n"),
        ],
        ids=["model-id", "root"],
    )
    @pytest.mark.parametrize("blank", ["  ", "\t\n"], ids=["spaces", "tab-newline"])
    def test_a_blank_model_id_or_root_is_fatal(self, capsys, tmp_path, field, expected, blank):
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        if field == "root":
            doc["root"] = doc["models"][0]["id"] = blank
            doc["models"][1]["parent"]["model"] = blank
        else:
            doc["models"][4]["id"] = blank
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.run(["validate", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.err == expected
        assert captured.out == ""

    def test_unexpected_exception_is_fatal(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("stage blew up")

        monkeypatch.setattr(cli, "resolve_offsets", broken)
        assert cli.run(["timeline", str(FIG7_MANIFEST)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "fatal [FATAL]: RuntimeError: stage blew up\n"
        assert captured.out == ""


    @pytest.mark.parametrize(
        ("old", "new"),
        [
            (b'"namePattern": "*park pilot*"', b'"namePattern": 7'),
            (b'"counterpart": "component-design"', b'"counterpart": ["component-design"]'),
        ],
        ids=["namePattern", "counterpart"],
    )
    def test_mistyped_template_field_is_a_template_fatal(self, capsys, tmp_path, old, new):
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        template = tmp_path / "refs" / "vmodel.json"
        assert old in template.read_bytes()
        template.write_bytes(template.read_bytes().replace(old, new))
        assert cli.run(["conform", str(tmp_path / "manifest.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("fatal [TEMPLATE]: reference template component-")
        assert captured.out == ""


def test_importing_the_cli_loads_no_network_or_mail_modules():
    """`xml.sax.saxutils` pulls in urllib, http, email and ssl; only
    `serialize_model` needs it, so it is imported there."""
    heavy = ["xml.sax.saxutils", "urllib.request", "http.client", "email", "ssl"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"import sys, procpyramid.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, encoding="utf-8", check=True
    )
    assert result.stdout.strip() == "[]"


class TestCyclicGcPause:
    """The collector is off while one command runs and restored after it,
    whatever its state before and however the command ends."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_before(self, request):
        saved = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if saved else gc.disable)()

    @pytest.fixture
    def seen(self, monkeypatch):
        states = []
        load = cli.load_bundle

        def recording(*args, **kwargs):
            states.append(gc.isenabled())
            return load(*args, **kwargs)

        monkeypatch.setattr(cli, "load_bundle", recording)
        return states

    def test_success(self, capsys, gc_before, seen):
        assert cli.run(["validate", str(FIG7_MANIFEST)]) == 0
        assert (gc.isenabled(), seen) == (gc_before, [False])

    def test_pyramid_error(self, capsys, gc_before, seen):
        assert cli.run(["impact", str(FIG7_MANIFEST), "--seed", "nowhere"]) == 2
        assert "fatal [UNKNOWN-SEED]" in capsys.readouterr().err
        assert (gc.isenabled(), seen) == (gc_before, [False])

    def test_unexpected_exception(self, capsys, monkeypatch, gc_before, seen):
        def broken(*args, **kwargs):
            raise RuntimeError("stage blew up")

        monkeypatch.setattr(cli, "resolve_offsets", broken)
        assert cli.run(["timeline", str(FIG7_MANIFEST)]) == 2
        assert "fatal [FATAL]: RuntimeError" in capsys.readouterr().err
        assert (gc.isenabled(), seen) == (gc_before, [False])

    def test_usage_error_leaves_the_collector_alone(self, capsys, gc_before):
        assert cli.run(["validate"]) == 2
        assert gc.isenabled() is gc_before


class TestStagesRunOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls per stage function, counted where the CLI calls them."""
        counts = Counter()

        def counting(name):
            fn = getattr(cli, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        for name in ("resolve_offsets", "infer_edges", "load_reference"):
            monkeypatch.setattr(cli, name, counting(name))
        return counts

    def test_report_computes_each_stage_once(self, capsys, calls):
        assert cli.run(["report", str(PARKPILOT_MANIFEST), "--json"]) == 0
        assert calls == {"resolve_offsets": 1, "infer_edges": 1, "load_reference": 1}

    def test_every_template_file_loads_in_one_call(self, capsys, calls, tmp_path):
        """The right-side template sits in a file listed before the file of
        its left-side counterpart, and conformance is as with one file."""
        _, whole = run_json(capsys, ["conform", str(PARKPILOT_MANIFEST)])
        calls.clear()
        shutil.copytree(PARKPILOT_MANIFEST.parent, tmp_path, dirs_exist_ok=True)
        design, test = json.loads((tmp_path / "refs" / "vmodel.json").read_text(encoding="utf-8"))
        (tmp_path / "refs" / "design.json").write_text(json.dumps(design), encoding="utf-8")
        (tmp_path / "refs" / "test.json").write_text(json.dumps(test), encoding="utf-8")
        manifest = list_templates(tmp_path, ["refs/test.json", "refs/design.json"])
        code, doc = run_json(capsys, ["conform", str(manifest)])
        assert (code, doc) == (0, whole)
        assert calls["load_reference"] == 1

    def test_report_keys_each_name_once(self, capsys, monkeypatch):
        """One name table per run: across dependency inference, the
        redundancy check and every conformance diff, no name is keyed twice
        and the alias table is compiled once."""
        names, compiled = [], []

        def recording(fn, log):
            def recorded(first, *rest):
                log.append(first)
                return fn(first, *rest)

            return recorded

        for module in (dependency, conformance):
            monkeypatch.setattr(module, "canonical_key", recording(module.canonical_key, names))
            if hasattr(module, "compile_aliases"):
                monkeypatch.setattr(module, "compile_aliases", recording(module.compile_aliases, compiled))
        code, doc = run_json(capsys, ["report", str(PARKPILOT_MANIFEST)])
        assert code == 0 and doc["conformance"] and doc["dependencies"]["edges"]
        keyed = Counter(names)
        assert keyed and [name for name, n in keyed.items() if n > 1] == []
        assert len(compiled) == 1

    def test_report_walks_each_anchor_once(self, capsys, monkeypatch):
        walked = []
        original = flowgraph.anchor_candidates

        def counted(index):
            walked.append(index)
            return original(index)

        monkeypatch.setattr(flowgraph, "anchor_candidates", counted)
        code, doc = run_json(capsys, ["report", str(PARKPILOT_MANIFEST)])
        assert code == 0
        assert len(walked) == doc["bundle"]["models"]

    def test_conform_walks_the_producer_graph_once(self, capsys, monkeypatch):
        """The V&V check reads the iteration counts; it builds no index of its own."""
        built = []
        original = conformance.adjacency

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(conformance, "adjacency", counted)
        assert cli.run(["conform", str(PARKPILOT_SEVERED), "--json"]) == 1
        assert len(built) == 1

    @pytest.mark.parametrize(
        "argv", [["conform"], ["impact", "--seed", "test-plan"]], ids=["conform", "impact"]
    )
    def test_views_without_offsets_do_not_resolve_them(self, capsys, calls, argv):
        assert cli.run([argv[0], str(PARKPILOT_MANIFEST), *argv[1:]]) == 0
        assert calls["resolve_offsets"] == 0


json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(st.text(max_size=6), json_values, max_size=5))
def test_json_reports_are_indented_sorted_dumps(payload):
    """Keys and strings with non-ASCII and control characters, empty
    containers, tuples, and floats that JSON cannot spell all render as
    `json.dumps(doc, indent=2, sort_keys=True)` does."""
    report = cli.ReportBundle("report", [], payload=payload)
    doc = {"command": "report", "findings": [], "summary": summarize([]), "artifacts": {}}
    doc.update(payload)
    assert cli.render_report(report, "json") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
