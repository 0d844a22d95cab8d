"""The README's "Library use" example runs as written and prints what its
comments say."""

import re
from pathlib import Path

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
