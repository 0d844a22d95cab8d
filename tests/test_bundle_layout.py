"""The report reads a bundle, not its layout on disk.

A bundle written out twice, once as generated and once with the manifest's
`models` list shuffled, every model file renamed and the reference
templates reordered within and across their files, must give the same
`report --json` bytes.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import anchor, chain_model, node
from procpyramid import DataObject, cli, serialize_model

TASKS = ("plan", "design", "build", "test", "review")
ARTIFACTS = ("spec", "sample", "report")


@st.composite
def bundles(draw):
    """A pyramid of one to four models: (models, manifest entries by model
    id without their files, templates).

    Models share task and artifact names, so templates bind and match
    partly and milestones in different models depend on each other.
    """
    count = draw(st.integers(1, 4))
    parent_of = {"m0": None}
    for i in range(1, count):
        parent_of[f"m{i}"] = f"m{draw(st.integers(0, i - 1))}"
    models = {}
    entries = {"m0": {"id": "m0", "level": 0}}
    for mid in parent_of:
        kids = [kid for kid, parent in parent_of.items() if parent == mid]
        used, made = draw(st.sampled_from(ARTIFACTS)), draw(st.sampled_from(ARTIFACTS))
        nodes = [node("s", "start-event", name=f"{mid} start", timer=anchor(draw(st.integers(10, 90))))]
        for k, task in enumerate(draw(st.lists(st.sampled_from(TASKS), min_size=1, max_size=3))):
            nodes.append(node(f"t{k}", "task", name=task, days=draw(st.integers(1, 9)), inputs=["in"]))
        nodes.append(node("i", "intermediate-event", name=f"{mid} gate", outputs=["out"]))
        for k, kid in enumerate(kids):
            nodes.append(node(f"c{k}", "call-activity", name=f"call {kid}"))
            level = entries[mid]["level"] + 1
            entries[kid] = {"id": kid, "level": level, "parent": {"model": mid, "node": f"c{k}"}}
        nodes.append(node("e", "end-event", name=f"{mid} end", ext={"terminal": "true"}))
        models[mid] = chain_model(
            mid,
            nodes,
            data_objects=[DataObject("in", used, "store"), DataObject("out", made, "store")],
            call_targets={f"c{k}": kid for k, kid in enumerate(kids)},
        )

    def template(ref_id, side, **extra):
        steps = draw(st.lists(st.sampled_from(TASKS), min_size=1, max_size=3, unique=True))
        binding = draw(
            st.one_of(
                st.builds(lambda m: {"modelId": m}, st.sampled_from(sorted(models))),
                st.just({"namePattern": "m*"}),
            )
        )
        return {"id": ref_id, "side": side, "steps": steps, "binding": binding, **extra}

    lefts = [template(f"left{k}", "left") for k in range(draw(st.integers(0, 2)))]
    rights = [
        template(f"right{k}", "right", counterpart=draw(st.sampled_from(lefts))["id"])
        for k in range(draw(st.integers(0, 2)) if lefts else 0)
    ]
    plain = [template(f"none{k}", "none") for k in range(draw(st.integers(0, 1)))]
    return models, entries, lefts + rights + plain


def write(root: Path, models, entries, model_order, file_of, template_files) -> Path:
    """Write the bundle under `root`: the models in `model_order`, each in
    its `file_of` file, and each (file name, templates) pair as one file."""
    listed = []
    for mid in model_order:
        (root / file_of[mid]).write_text(serialize_model(models[mid]), encoding="utf-8")
        listed.append({**entries[mid], "file": file_of[mid]})
    for name, items in template_files:
        (root / name).write_text(json.dumps(items), encoding="utf-8")
    refs = [name for name, _ in template_files]
    manifest = {"root": "m0", "models": listed, "referenceTemplates": refs}
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def report_bytes(manifest: Path) -> bytes:
    out = manifest.parent / "report.json"
    assert cli.run(["report", str(manifest), "--json", "--out", str(out)]) in (0, 1)
    return out.read_bytes()


@settings(max_examples=25)
@given(bundles(), st.randoms(use_true_random=False))
def test_report_ignores_model_order_file_names_and_template_order(bundle, rng):
    models, entries, templates = bundle
    ids = sorted(models)
    split = len(templates) // 2
    as_generated = [("refs-a.json", templates[:split]), ("refs-b.json", templates[split:])]

    order = ids[:]
    rng.shuffle(order)
    names = list(range(len(ids)))
    rng.shuffle(names)
    renamed = {mid: f"diagram-{n}.bpmn" for mid, n in zip(ids, names)}
    dealt = templates[:]
    rng.shuffle(dealt)
    cut = rng.randint(0, len(dealt))
    reordered = [("x.json", dealt[:cut]), ("y.json", dealt[cut:])]
    rng.shuffle(reordered)

    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        base = write(Path(a), models, entries, ids, {mid: f"{mid}.bpmn" for mid in ids}, as_generated)
        variant = write(Path(b), models, entries, order, renamed, reordered)
        assert report_bytes(variant) == report_bytes(base)
