"""A no-traceback fuzz over JSON value types: one value anywhere in the
parkpilot manifest or its template replaced by a value of another type."""

import contextlib
import copy
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import PARKPILOT_MANIFEST
from procpyramid import cli

JSON_FILES = ("manifest.json", "refs/vmodel.json")
# Values json.dumps cannot write and json.loads refuses beyond JSONDecodeError:
# nesting past the recursion limit, and an integer longer than
# sys.get_int_max_str_digits(). They enter the document as marker strings,
# longer than any drawn text, that are swapped for the raw JSON once dumped.
RAW = {"<raw:deep-array>": "[" * 200000 + "]" * 200000, "<raw:long-integer>": "7" * 5000}
REPLACEMENTS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=8),
    st.just([]),
    st.just({}),
    st.sampled_from(sorted(RAW)),
)


def dumped(document) -> str:
    text = json.dumps(document)
    for marker, raw in RAW.items():
        text = text.replace(json.dumps(marker), raw)
    return text


def json_paths(value, path=()):
    """Every path into a JSON document, the root () included."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, (*path, key))


def replaced(document, path, value):
    if not path:
        return value
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


@pytest.fixture(scope="module")
def json_bundle(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("json-fuzz") / "bundle"
    shutil.copytree(PARKPILOT_MANIFEST.parent, bundle)
    documents = {name: json.loads((bundle / name).read_text(encoding="utf-8")) for name in JSON_FILES}
    paths = {name: list(json_paths(doc)) for name, doc in documents.items()}
    return bundle, documents, paths


def test_no_traceback_for_any_json_value(json_bundle):
    bundle, documents, paths = json_bundle

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(JSON_FILES))
        path = data.draw(st.sampled_from(paths[name]))
        document = replaced(documents[name], path, data.draw(REPLACEMENTS))
        target = bundle / name
        original = target.read_bytes()
        target.write_text(dumped(document), encoding="utf-8")
        try:
            for command in ("validate", "report"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run([command, str(bundle / "manifest.json")])
                assert code in (0, 1, 2)
                assert "[FATAL]" not in err.getvalue()
                assert "Traceback" not in err.getvalue()
        finally:
            target.write_bytes(original)

    check()
