"""Check one command's exit code and `--json` report against a bundle's facts.

`check` returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json

from gen import COMMAND_FAMILIES, ERROR

BUNDLE_COMMANDS = ("validate", "report")
GRAPH_COMMANDS = ("deps", "export", "report")
TIMELINE_COMMANDS = ("timeline", "report")
CONFORM_COMMANDS = ("conform", "report")


def expected_findings(facts: dict, command: str) -> list[list[str]]:
    """(code, subject, severity) of every finding the command must report."""
    if command == "retention":
        return [list(f) for f in facts["retention"]["findings"]]
    families = COMMAND_FAMILIES[command]
    return sorted([code, subject, severity] for code, subject, severity, family in facts["findings"]
                  if family in families)


def expected_exit(facts: dict, command: str) -> int:
    return 1 if any(sev == ERROR for _, _, sev in expected_findings(facts, command)) else 0


def _diff(label: str, got, want, problems: list[str]) -> None:
    if got != want:
        problems.append(f"{label}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 200 else text[:197] + "..."


def check(command: str, exit_code: int, text: str, facts: dict, impact: str | None = None) -> list[str]:
    """Problems with one command's result; `impact` names the seed kind for `impact`."""
    problems: list[str] = []
    _diff("exit code", exit_code, expected_exit(facts, command), problems)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON ({exc})"]
    _diff("command", doc.get("command"), command, problems)
    got = sorted([f["code"], f["subject"], f["severity"]] for f in doc.get("findings", []))
    _diff("findings", got, expected_findings(facts, command), problems)

    if command == "retention":
        want = {k: facts["retention"][k] for k in ("before", "after", "dropped", "addedIntermediate")}
        _diff("retention", doc.get("retention"), want, problems)
        return problems
    if command in BUNDLE_COMMANDS:
        want = {"models": facts["models"], "milestones": facts["milestones"], "maxConnectedDepth": facts["depth"]}
        _diff("bundle", doc.get("bundle"), want, problems)
    if command in TIMELINE_COMMANDS:
        _check_timeline(doc.get("timeline") or {}, facts, problems)
    if command in GRAPH_COMMANDS:
        _check_graph(doc.get("dependencies") or {}, facts, problems)
    if command in CONFORM_COMMANDS and facts["conformance"]:
        _check_conformance(doc, facts, problems)
    if command == "impact":
        want = facts["impact"][impact]
        got = doc.get("impact") or {}
        _diff("impact seed", got.get("seed"), want["resolved"], problems)
        _diff("impact downstream", sorted(got.get("downstream", [])), want["downstream"], problems)
        _diff("impact upstream", sorted(got.get("upstream", [])), want["upstream"], problems)
        _diff("impact levels", got.get("crossedLevels"), want["crossedLevels"], problems)
    return problems


def _check_timeline(section: dict, facts: dict, problems: list[str]) -> None:
    want = {facts["names"][ms]: day for ms, day in facts["offsets"].items()}
    _diff("timeline offsets", section.get("offsets"), want, problems)
    grid = section.get("grid") or {}
    _diff("grid step", grid.get("stepDays"), facts["stepDays"], problems)
    bounds = grid.get("boundaries") or [0]
    if not (bounds[0] <= min(want.values()) and bounds[-1] >= max(want.values())):
        problems.append(f"grid {bounds[0]}..{bounds[-1]} does not cover every offset")


def _check_graph(section: dict, facts: dict, problems: list[str]) -> None:
    nodes = {n["id"]: n.get("offset") for n in section.get("nodes", [])}
    _diff("graph node offsets", nodes, facts["offsets"], problems)
    edges = [[e["producer"], e["consumer"], e["status"], e["via"]] for e in section.get("edges", [])]
    _diff("edges", edges, facts["edges"], problems)


def _check_conformance(doc: dict, facts: dict, problems: list[str]) -> None:
    entries = [
        [e["model"], e["reference"], e["verdict"], e["aspects"]["steps"]["matchRatio"]]
        for e in doc.get("conformance", [])
    ]
    _diff("conformance", entries, facts["conformance"], problems)
    links = [[v["right"], v["left"], v["iterations"]] for v in doc.get("vvLinks", [])]
    _diff("vv links", links, facts["vvLinks"], problems)


def check_dot(text: str, facts: dict) -> list[str]:
    """The DOT export holds one line per milestone and one per edge."""
    lines = text.splitlines()
    nodes = sum(1 for line in lines if line.startswith("  \"") and "->" not in line)
    edges = sum(1 for line in lines if " -> " in line)
    problems: list[str] = []
    _diff("dot nodes", nodes, len(facts["offsets"]), problems)
    _diff("dot edges", edges, len(facts["edges"]), problems)
    return problems
