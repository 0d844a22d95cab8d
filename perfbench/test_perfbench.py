"""Tests of the benchmark itself: generator, checker and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q

They use the small warm-up shapes, so they take a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from procpyramid import cli  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracing import ROOT as ROOT_SPAN  # noqa: E402
from tracing import Tracer  # noqa: E402

MIX_WARM = gen.SHAPES["command-mix"]["warm"]
DENSE_WARM = gen.SHAPES["dense-report"]["warm"]


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def _report(manifest: Path, run_fn=cli.run, command: str = "report") -> run.Result:
    return run.invoke(run_fn, run.Op(command, command, "warm"), [command, str(manifest), "--json"])


@pytest.fixture(scope="module")
def mix_bundle(tmp_path_factory) -> tuple[Path, dict]:
    out = tmp_path_factory.mktemp("mix")
    return out, gen.generate(MIX_WARM, 7, out)


def test_generator_is_deterministic(tmp_path):
    for seed, name in ((3, "a"), (3, "b"), (4, "c")):
        gen.generate(dataclasses.replace(MIX_WARM, retention=True), seed, tmp_path / name)
        gen.probe_annotations(tmp_path / name / "probe")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("shape", [MIX_WARM, DENSE_WARM, gen.SHAPES["wide-report"]["warm"]])
def test_generated_facts_hold(tmp_path, shape):
    facts = gen.generate(shape, 11, tmp_path)
    result = _report(tmp_path / "manifest.json")
    assert check.check("report", result.exit_code, result.text, facts) == []
    if shape.planted:
        assert facts["findings"], "a planted bundle must expect findings"


def test_checker_rejects_a_flipped_offset(mix_bundle):
    out, facts = mix_bundle
    result = _report(out / "manifest.json")
    assert check.check("report", result.exit_code, result.text, facts) == []
    doc = json.loads(result.text)
    node = doc["dependencies"]["nodes"][3]
    node["offset"] = -node["offset"]
    tampered = json.dumps(doc, indent=2, sort_keys=True)
    problems = check.check("report", result.exit_code, tampered, facts)
    assert any("offsets" in p for p in problems)


def test_checker_rejects_a_wrong_exit_code(mix_bundle):
    out, facts = mix_bundle
    result = _report(out / "manifest.json")
    problems = check.check("report", 1 - result.exit_code, result.text, facts)
    assert any(p.startswith("exit code") for p in problems)


def test_traced_and_untraced_reports_are_identical(mix_bundle):
    out, _ = mix_bundle
    plain = _report(out / "manifest.json")
    tracer = Tracer()
    with tracer.patched():
        traced = _report(out / "manifest.json", tracer.wrap(ROOT_SPAN, cli.run))
    assert traced.text == plain.text
    totals = tracer.totals()
    assert totals[ROOT_SPAN]["calls"] == 1
    assert totals["ingest.parse_model"]["calls"] == sum(MIX_WARM.widths)
    assert tracer.self_ns() == tracer.covered_ns()
    assert cli.load_bundle.__name__ == "load_bundle", "wrappers must be removed after the block"


def test_probes_fail_only_as_recorded(tmp_path):
    known = run.read_json(run.SPEC)["known_failures"]
    for name, command, make in (
        ("probe-annotations", "validate", gen.probe_annotations),
        ("probe-deep-chain", "report", gen.probe_deep_chain),
    ):
        facts = make(tmp_path / name)
        result = _report(tmp_path / name / "manifest.json", command=command)
        problems = [result.error] if result.error else check.check(command, result.exit_code, result.text, facts)
        for problem in problems:
            assert any(sig in problem for sig in known[name]["signatures"]), problem


def test_gauge_samples_during_the_block_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Gauge() as gauge:
        started = time.perf_counter()
        while time.perf_counter() - started < 10 * reference.PERIOD_S:
            pass
        wall = time.perf_counter() - started
    assert len(gauge.samples) >= 5  # before, after and ticks while the loop ran
    assert 0 < gauge.inside_s < wall
    assert 0 < gauge.reference_seconds(wall)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
