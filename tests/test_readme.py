"""The README's "Library use" example runs as written and prints what its
comments say, and its finding catalog lists every code the program knows."""

import re
from pathlib import Path

from procpyramid.findings import CATALOG

ROOT = Path(__file__).resolve().parents[1]


def library_use_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_prints_what_its_comments_say(capsys, monkeypatch):
    code = library_use_block()
    expected = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    assert len(expected) == 5
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_the_finding_catalog_table_gives_every_code_its_severity():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Finding catalog\n", 1)[1].split("\n## ", 1)[0]
    gq_unanswered = ", ".join(f"`GQ{i}-UNANSWERED`" for i in range(1, 9))
    documented = {}
    for codes, severity in re.findall(r"^\| (`.+?`) \| (\w+) \|", section, re.MULTILINE):
        for code in re.findall(r"`([^`]+)`", codes.replace("`GQ1`…`GQ8-UNANSWERED`", gq_unanswered)):
            documented[code] = severity
    assert documented == CATALOG
