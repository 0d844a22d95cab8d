"""Input files as bytes: model files in any declared encoding, manifests and
templates that are not UTF-8, and a no-traceback fuzz over model bytes."""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import PARKPILOT_MANIFEST
from procpyramid import cli

# Names in the parkpilot bundle and non-ASCII replacements: the first set
# Latin-1 can encode, the second only cp1252 (the dash and the quotes).
RENAMES = {"PEP started": "PEP gestartet (Übergabe)", "engineering management": "Entwicklungsleitung"}
CP1252_RENAMES = {"PEP started": "PEP “gestartet” – Übergabe"}


def copy_bundle(dest, renames=None):
    shutil.copytree(PARKPILOT_MANIFEST.parent, dest)
    for path in dest.glob("*.bpmn"):
        text = path.read_text(encoding="utf-8")
        for old, new in (renames or {}).items():
            text = text.replace(old, new)
        path.write_text(text, encoding="utf-8")
    return dest / "manifest.json"


def run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def renamed(value):
    if isinstance(value, str):
        for old, new in RENAMES.items():
            value = value.replace(old, new)
        return value
    if isinstance(value, list):
        return [renamed(v) for v in value]
    if isinstance(value, dict):
        return {renamed(k): renamed(v) for k, v in value.items()}
    return value


class TestModelEncodings:
    def test_latin1_model_with_its_declaration_loads(self, capsys, tmp_path):
        utf8 = copy_bundle(tmp_path / "utf8", RENAMES)
        latin1 = copy_bundle(tmp_path / "latin1", RENAMES)
        pep = latin1.parent / "pep.bpmn"
        text = pep.read_text(encoding="utf-8").replace('encoding="UTF-8"', 'encoding="ISO-8859-1"')
        pep.write_bytes(text.encode("latin-1"))
        assert b"\xdcbergabe" in pep.read_bytes()

        _, original, _ = run(capsys, ["report", str(PARKPILOT_MANIFEST), "--json"])
        code_utf8, from_utf8, _ = run(capsys, ["report", str(utf8), "--json"])
        code, from_latin1, err = run(capsys, ["report", str(latin1), "--json"])
        assert (code, err) == (code_utf8, "") == (0, "")
        assert from_latin1 == from_utf8
        assert json.loads(from_latin1) == renamed(json.loads(original))

    def test_invalid_utf8_model_is_a_parse_error_finding(self, capsys, tmp_path):
        manifest = copy_bundle(tmp_path / "bundle")
        pep = manifest.parent / "pep.bpmn"
        pep.write_bytes(pep.read_bytes().replace(b"PEP started", b"PEP \xfcbergabe"))
        code, out, err = run(capsys, ["validate", str(manifest), "--json"])
        assert (code, err) == (1, "")
        parse_errors = [f for f in json.loads(out)["findings"] if f["code"] == "MODEL-PARSE-ERROR"]
        assert [f["subject"] for f in parse_errors] == ["pep"]
        assert "not well-formed XML" in parse_errors[0]["message"]


class TestJsonInputsMustBeUtf8:
    def test_undecodable_manifest_is_a_manifest_fatal(self, capsys, tmp_path):
        manifest = copy_bundle(tmp_path / "bundle")
        manifest.write_bytes(manifest.read_bytes().replace(b'"SOP"', '"SOP é"'.encode("latin-1")))
        code, out, err = run(capsys, ["validate", str(manifest)])
        assert (code, out) == (2, "")
        assert err.startswith("fatal [MANIFEST]: manifest.json is not UTF-8 text")

    def test_undecodable_template_is_a_template_fatal(self, capsys, tmp_path):
        manifest = copy_bundle(tmp_path / "bundle")
        template = manifest.parent / "refs" / "vmodel.json"
        latin1 = "Komponentenentwurf é".encode("latin-1")
        template.write_bytes(template.read_bytes().replace(b"Component Design", latin1))
        code, out, err = run(capsys, ["conform", str(manifest)])
        assert (code, out) == (2, "")
        assert err.startswith("fatal [TEMPLATE]: vmodel.json is not UTF-8 text")


# The fuzz: a model file re-encoded, maybe truncated, then up to three byte edits.
FUZZ_FILES = ("pep.bpmn", "product-process.bpmn")


def _reencodings(text: str) -> dict[str, bytes]:
    cp1252 = text
    for old, new in CP1252_RENAMES.items():
        cp1252 = cp1252.replace(old, new)
    return {
        "utf-8": text.encode("utf-8"),
        "utf-16-bom": text.replace('encoding="UTF-8"', 'encoding="UTF-16"').encode("utf-16"),
        "utf-16-bom-utf8-declared": text.encode("utf-16"),
        "cp1252-declared": cp1252.replace('encoding="UTF-8"', 'encoding="windows-1252"').encode("cp1252"),
        "cp1252-undeclared": cp1252.encode("cp1252"),
    }


@st.composite
def model_bytes(draw, sources):
    name = draw(st.sampled_from(FUZZ_FILES))
    data = bytearray(draw(st.sampled_from(sorted(sources[name].items())))[1])
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("set", "insert", "delete")))
        byte = draw(st.integers(0, 255))
        if op == "insert" or pos == len(data):
            data.insert(pos, byte)
        elif op == "set":
            data[pos] = byte
        else:
            del data[pos]
    return name, bytes(data)


@pytest.fixture(scope="module")
def fuzz_bundle(tmp_path_factory):
    manifest = copy_bundle(tmp_path_factory.mktemp("fuzz") / "bundle")
    sources = {
        name: _reencodings((manifest.parent / name).read_text(encoding="utf-8")) for name in FUZZ_FILES
    }
    return manifest, sources


def test_no_traceback_for_any_model_bytes(fuzz_bundle):
    manifest, sources = fuzz_bundle
    originals = {name: (manifest.parent / name).read_bytes() for name in FUZZ_FILES}

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(model_bytes(sources))
    def check(case):
        name, data = case
        (manifest.parent / name).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(["validate", str(manifest)])
        finally:
            (manifest.parent / name).write_bytes(originals[name])
        assert code in (0, 1, 2)
        assert "[FATAL]" not in err.getvalue()
        assert "Traceback" not in err.getvalue()

    check()
