"""A bundle whose model files total at least `FORK_MIN_BYTES` loads on two
CPUs: one forked worker parses and extracts the second half of the files.
Its reports are the bytes of a serial load, no worker outlives
`load_bundle`, and a worker that dies or a defect in either share ends as a
serial load does."""

import importlib
import os
import signal
import sys
from pathlib import Path

import pytest

from conftest import IDCLASH_DUPLICATE
from procpyramid import bundle, cli, durations, load_bundle, load_manifest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="loading forks a worker on Linux only"
)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory) -> Path:
    """The benchmark's half-size command-mix bundle: 50 models, 1.28 MB."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        gen = importlib.import_module("gen")
        out = tmp_path_factory.mktemp("mix-half")
        gen.generate(gen.SHAPES["command-mix"]["half"], 1, out)
    path = out / "manifest.json"
    entries = load_manifest(path.read_text(encoding="utf-8")).entries
    assert sum((out / e.file).stat().st_size for e in entries) >= bundle.FORK_MIN_BYTES
    return path


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs `load_bundle` sees; returns the pids it forks."""
    forked: list[int] = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def use(count: int) -> list[int]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        return forked

    return use


@pytest.fixture
def exit_codes(monkeypatch):
    """The exit code of each child `load_bundle` reaps."""
    codes: list[int] = []
    waitpid = os.waitpid

    def recorded(pid, options):
        reaped = waitpid(pid, options)
        codes.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    monkeypatch.setattr(os, "waitpid", recorded)
    return codes


def report(manifest: Path, capsys) -> tuple[int, str, str]:
    code = cli.run(["report", str(manifest), "--json"])
    out, err = capsys.readouterr()
    return code, out, err


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_cpu_and_two_give_the_same_report(manifest, cpus, capsys):
    forked = cpus(1)
    serial = report(manifest, capsys)
    assert forked == []
    cpus(2)
    assert report(manifest, capsys) == serial
    assert len(forked) == 1
    assert serial[1].startswith("{")


def test_no_worker_outlives_the_load(manifest, cpus, exit_codes):
    forked = cpus(2)
    load_bundle(manifest)
    assert len(forked) == 1 and exit_codes == [0]
    assert_no_child_left()


@pytest.mark.parametrize("sigchld", [signal.SIG_DFL, signal.SIG_IGN], ids=["default", "ignored"])
def test_a_worker_that_dies_mid_share_leaves_the_report_unchanged(
    manifest, cpus, exit_codes, capsys, monkeypatch, sigchld
):
    """With SIGCHLD ignored the kernel reaps the worker itself: the parent's
    wait finds no child, so no exit code is recorded."""
    cpus(1)
    serial = report(manifest, capsys)
    parent, parse, seen = os.getpid(), bundle.parse_model, []

    def dies_on_its_third_model(source, model_id):
        if os.getpid() != parent:  # in the worker
            seen.append(model_id)
            if len(seen) == 3:
                os._exit(3)
        return parse(source, model_id)

    monkeypatch.setattr(bundle, "parse_model", dies_on_its_third_model)
    forked = cpus(2)
    previous = signal.signal(signal.SIGCHLD, sigchld)
    try:
        code, out, err = report(manifest, capsys)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forked) == 1 and exit_codes == ([3] if sigchld == signal.SIG_DFL else [])
    assert (code, out, err) == serial
    assert "fatal" not in err
    assert_no_child_left()


@pytest.mark.parametrize("broken", [[0], [-1], [1, -1]], ids=["parent", "worker", "both"])
def test_a_defect_in_either_share_raises_as_a_serial_load_does(manifest, cpus, monkeypatch, broken):
    """The first half of the entries is the parent's, the second half the
    worker's: [0] is the parent's first entry and [-1] the worker's last.
    With a defect in both shares, the first in manifest order is the
    parent's."""
    entries = load_manifest(manifest.read_text(encoding="utf-8")).entries
    broken_ids = {entries[i].model_id for i in broken}
    parse = bundle.parse_model

    def defect(source, model_id):
        if model_id in broken_ids:
            raise RuntimeError(f"defect in {model_id}")
        return parse(source, model_id)

    monkeypatch.setattr(bundle, "parse_model", defect)
    cpus(1)
    with pytest.raises(RuntimeError) as serial:
        load_bundle(manifest)
    forked = cpus(2)
    with pytest.raises(RuntimeError) as parallel:
        load_bundle(manifest)
    assert len(forked) == 1
    assert str(parallel.value) == str(serial.value) == f"defect in {entries[broken[0]].model_id}"
    assert_no_child_left()


@pytest.mark.parametrize("refused", ["pipe", "fork"])
def test_a_failed_fork_loads_serially(manifest, cpus, capsys, monkeypatch, refused):
    cpus(1)
    serial = report(manifest, capsys)
    forked = cpus(2)

    def refuse():
        raise OSError(f"{refused} refused")

    monkeypatch.setattr(os, refused, refuse)
    assert report(manifest, capsys) == serial
    assert forked == []


def test_whole_chunks_from_a_failed_worker_are_dropped(manifest, cpus, exit_codes, capsys, monkeypatch):
    """A worker that writes two whole chunks and a torn third, then exits 1:
    the parent decodes the two whole chunks, stops at the torn one, and
    drops both for the non-zero exit, so it parses every entry itself."""
    cpus(1)
    serial = report(manifest, capsys)
    entries = load_manifest(manifest.read_text(encoding="utf-8")).entries

    def tears_its_third_chunk(read_fd, write_fd, base, share):
        try:
            os.close(read_fd)
            frames = []
            for entry in share[:3]:
                chunk = bundle._encode(bundle._load_entry(base, entry))
                frames.append(len(chunk).to_bytes(8, "little") + chunk)
            frames[2] = frames[2][: len(frames[2]) // 2]
            with open(write_fd, "wb") as pipe:
                pipe.writelines(frames)
        finally:
            os._exit(1)

    parent, parse, decode = os.getpid(), bundle.parse_model, bundle._decode
    parsed, decoded = [], []

    def counted_parse(source, model_id):
        if os.getpid() == parent:
            parsed.append(model_id)
        return parse(source, model_id)

    def counted_decode(chunk):
        decoded.append(len(chunk))
        return decode(chunk)

    monkeypatch.setattr(bundle, "_work", tears_its_third_chunk)
    monkeypatch.setattr(bundle, "parse_model", counted_parse)
    monkeypatch.setattr(bundle, "_decode", counted_decode)
    forked = cpus(2)
    assert report(manifest, capsys) == serial
    assert len(forked) == 1 and exit_codes == [1]
    assert len(decoded) == 2
    assert sorted(parsed) == sorted(entry.model_id for entry in entries)
    assert_no_child_left()


def test_an_ignored_sigchld_still_loads(manifest, cpus, capsys):
    """With SIGCHLD ignored the kernel reaps the worker itself, and the
    parent's wait finds no child."""
    cpus(1)
    serial = report(manifest, capsys)
    forked = cpus(2)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert report(manifest, capsys) == serial
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forked) == 1


# Start (a 3-month anchor timer) -> a P1M task -> an intermediate event ->
# a P30D task -> end: both later events derive a 30-day gq4.
THIRTY_DAYS_XML = (
    '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"><process id="p">'
    '<startEvent id="s"><timerEventDefinition><timeDuration>P3M</timeDuration>'
    "</timerEventDefinition></startEvent>"
    '<task id="month"><extensionElements><entry key="duration" value="P1M"/></extensionElements></task>'
    '<intermediateCatchEvent id="mid"/>'
    '<task id="days"><extensionElements><entry key="duration" value="P30D"/></extensionElements></task>'
    '<endEvent id="e"/>'
    '<sequenceFlow id="f1" sourceRef="s" targetRef="month"/>'
    '<sequenceFlow id="f2" sourceRef="month" targetRef="mid"/>'
    '<sequenceFlow id="f3" sourceRef="mid" targetRef="days"/>'
    '<sequenceFlow id="f4" sourceRef="days" targetRef="e"/>'
    "</process></definitions>"
)


@pytest.mark.parametrize("cpu_count", [1, 2], ids=["serial", "forked"])
def test_a_load_shares_one_duration_per_day_count(tmp_path, cpus, monkeypatch, cpu_count):
    """Parsed (`P1M`, `P30D`, the timer), derived (gq4) and, in a forked
    load, decoded durations of one day count are one object. The second
    model is the worker's share."""
    for model_id in "ab":
        (tmp_path / f"{model_id}.bpmn").write_text(THIRTY_DAYS_XML, encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        '{"root": "a", "models": [{"id": "a", "file": "a.bpmn", "level": 0},'
        ' {"id": "b", "file": "b.bpmn", "level": 1}]}',
        encoding="utf-8",
    )
    monkeypatch.setattr(bundle, "FORK_MIN_BYTES", 0)
    durations.parse_duration.cache_clear()
    durations.shared_duration.cache_clear()
    forked = cpus(cpu_count)
    loaded = load_bundle(manifest)
    assert len(forked) == cpu_count - 1

    nodes = [n for m in loaded.pyramid.models.values() for n in m.nodes]
    found = [n.duration for n in nodes if n.duration] + [n.timer.amount for n in nodes if n.timer]
    found += [ms.gq.gq4_duration for ms in loaded.milestones if ms.gq.gq4_duration]
    first: dict[int, object] = {}
    assert [first.setdefault(d.days, d) is d for d in found] == [True] * len(found)
    assert sorted(first) == [30, 90]
    assert [d.days for d in found].count(30) == 8


@pytest.mark.parametrize("cpu_count", [1, 2], ids=["serial", "forked"])
def test_two_pairs_that_spell_one_milestone_id_are_fatal(cpus, monkeypatch, capsys, cpu_count):
    """Node `b:x` of model `p` and node `x` of model `p:b` both spell
    milestone id `p:b:x`; in a forked load, `p:b` is the worker's share."""
    monkeypatch.setattr(bundle, "FORK_MIN_BYTES", 0)
    forked = cpus(cpu_count)
    assert cli.run(["validate", str(IDCLASH_DUPLICATE)]) == 2
    assert len(forked) == cpu_count - 1
    assert capsys.readouterr().err == (
        "fatal [DUPLICATE-MILESTONE]: milestone id 'p:b:x' is node 'b:x' of model 'p'"
        " and node 'x' of model 'p:b'\n"
    )
    assert_no_child_left()
