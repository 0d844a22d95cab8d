"""The manifest and template loaders against their field-by-field ladders
(`oracles.load_manifest_by_ladder`, `oracles.load_reference_by_ladder`),
over a fixed corpus of mutated documents: same exception class, code and
message, or an equal return value."""

import json
from itertools import combinations, product

import pytest

import oracles
from procpyramid import load_manifest, load_reference
from procpyramid.errors import PyramidError

MANIFEST = {
    "root": "top",
    "sopLabel": "SOP",
    "referenceStepDays": 30,
    "alignmentToleranceDays": 2,
    "aliases": {"pp reqs": "park pilot requirements"},
    "referenceTemplates": ["refs/left.json", "refs/right.json"],
    "models": [
        {"id": "top", "file": "top.bpmn", "level": 0, "documents": [{"path": "a.md", "kind": "notes"}]},
        {"id": "mid", "file": "mid.bpmn", "level": 1, "parent": {"model": "top", "node": "call_mid"}},
        {"id": "low", "file": "low.bpmn", "level": 2, "parent": {"model": "mid", "node": "call_low"}},
    ],
}
TEMPLATES = [
    {
        "id": "design",
        "side": "left",
        "steps": ["draft", "review"],
        "roles": ["engineer"],
        "methods": ["walkthrough"],
        "tools": ["editor"],
        "binding": {"modelId": "mid"},
    },
    {
        "id": "test",
        "name": "component test",
        "side": "right",
        "counterpart": "design",
        "steps": ["plan", "run"],
        "roles": ["tester"],
        "methods": ["hil"],
        "tools": ["bench"],
        "binding": {"namePattern": "*low*"},
    },
]
# Each value in turn replaces every value of a document. Besides the wrong
# types and blank strings, some name a model, a level, a side or a template,
# so that the checks after the field checks run too.
POOL = (
    None, 0, -1, 1, 2, True, False, 1.5, "", " ", "\0", "top", "mid", "right", "design",
    [], [""], [" "], [1], ["x"], {}, {"a": " "}, {"a": "b"}, {"model": "top", "node": "n"},
)
# The values two top-level fields take together.
PAIR_POOL = (None, -1, True, "", " ", [], [""], {})
# Texts the JSON decoder refuses, or that hold no object.
RAW_TEXTS = ("", "{nope", "null", "[]", '"top"', "[" * 100000 + "]" * 100000, "7" * 5000)


def json_paths(value, path=()):
    """Every path into a JSON document, the root () included."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_paths(child, (*path, key))


def known_keys(*documents):
    return sorted({p[-1] for doc in documents for p in json_paths(doc) if p and isinstance(p[-1], str)})


def edited(document, path, edit):
    """A copy of `document` with `edit(parent, key)` applied at `path`."""
    document = json.loads(json.dumps(document))
    edit(_at(document, path[:-1]), path[-1])
    return document


def _at(document, path):
    for key in path:
        document = document[key]
    return document


def mutants(document, pair_at):
    """Every path replaced by each pool value, every path deleted, every
    known key added to every object with each pool value, and every pair
    of the fields at `pair_at` replaced together."""
    keys = known_keys(MANIFEST, *TEMPLATES)
    yield from POOL
    for path in list(json_paths(document))[1:]:
        for value in POOL:
            yield edited(document, path, lambda parent, key: parent.__setitem__(key, value))
        yield edited(document, path, lambda parent, key: parent.__delitem__(key))
    for path in json_paths(document):
        target = _at(document, path)
        if isinstance(target, dict):
            for key, value in product((k for k in keys if k not in target), POOL):
                yield edited(document, (*path, key), lambda parent, k: parent.__setitem__(k, value))
    for first, second in combinations(_at(document, pair_at), 2):
        for pair in product(PAIR_POOL, repeat=2):
            def both(parent, _):
                parent[first], parent[second] = pair

            yield edited(document, (*pair_at, first), both)


def outcome(load, *texts):
    try:
        result = load(*texts)
    except PyramidError as exc:
        return type(exc), exc.code, str(exc)
    return result, repr(result)


def manifest_corpus():
    return [json.dumps(doc) for doc in mutants(MANIFEST, ())] + list(RAW_TEXTS)


def template_corpus():
    texts = [(json.dumps(doc),) for doc in mutants(TEMPLATES, (0,))]
    texts += [(json.dumps(doc),) for doc in mutants(TEMPLATES, (1,))]
    texts += [(raw,) for raw in RAW_TEXTS]
    # one template per file, and the pair listed twice
    left, right = (json.dumps(t) for t in TEMPLATES)
    texts += [(left, right), (right, left), (left, right, left), ()]
    return texts


@pytest.fixture(scope="module")
def corpora():
    return manifest_corpus(), template_corpus()


def test_the_corpus_reaches_every_check(corpora):
    manifests, templates = corpora
    assert len(manifests) + len(templates) >= 7000
    messages = set()
    for text in manifests:
        got = outcome(oracles.load_manifest_by_ladder, text)
        if isinstance(got[0], type):
            messages.add(got[1:])
    for texts in templates:
        got = outcome(oracles.load_reference_by_ladder, *texts)
        if isinstance(got[0], type):
            messages.add(got[1:])
    codes = {code for code, _ in messages}
    assert codes == {
        "MANIFEST", "BAD-FIELD", "MISSING-ROOT", "DUPLICATE-MODEL", "NON-CONTIGUOUS-LEVELS",
        "BAD-PARENT", "TEMPLATE",
    }
    assert len(messages) >= 100


def test_the_manifest_loader_matches_its_ladder(corpora):
    for text in corpora[0]:
        assert outcome(load_manifest, text) == outcome(oracles.load_manifest_by_ladder, text), text


def test_the_template_loader_matches_its_ladder(corpora):
    for texts in corpora[1]:
        assert outcome(load_reference, *texts) == outcome(oracles.load_reference_by_ladder, *texts), texts
