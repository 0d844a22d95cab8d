"""Load a whole bundle: manifest, model files, pyramid, milestones."""

from __future__ import annotations

import marshal
import os
import stat
import sys
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, NoReturn

from .durations import shared_duration
from .errors import ManifestError, ModelParseError, PyramidError
from .findings import Finding, merge_findings
from .ingest import extract_milestones, parse_model
from .model import _NO_EXTENSIONS, DataObject, FlowNode, Lane, ProcessModel, TimerDef
from .pyramid import LevelEntry, Manifest, Pyramid, build_pyramid, link_levels, load_manifest
from .timeline import _NO_ITEMS, GqRecord, Milestone, milestone_resolver

# The listed model files' total size in bytes from which loading forks one
# worker for the second half of them. Below it, the fork and the codec cost
# more than the parse time they save (break-even measured in CHANGES.md).
FORK_MIN_BYTES = 300_000


@dataclass
class Bundle:
    manifest: Manifest
    pyramid: Pyramid
    milestones: list[Milestone]
    findings: list[Finding] = field(default_factory=list)
    root_dir: Path = Path(".")

    def labels(self) -> dict[str, str]:
        """Reporting label per milestone: its display name when that name,
        read as a reference, names it (`milestone_resolver`), its full id
        otherwise, so no two milestones share a label."""
        named = milestone_resolver(self.milestones)
        return {
            ms.milestone_id: ms.name if named(ms.name) == ms.milestone_id else ms.milestone_id
            for ms in self.milestones
        }


def read_file(path: Path) -> bytes:
    """The bytes of an input file. It is opened without blocking, as opening
    a FIFO waits for a writer, and read only if it is a regular file, as a
    FIFO or a device such as /dev/zero may never end; anything else raises
    OSError naming the path."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise OSError(f"not a regular file: {str(path)!r}")
        with open(fd, "rb", closefd=False) as f:
            return f.read()
    finally:
        os.close(fd)


def read_utf8(path: Path, error: type[PyramidError]) -> str:
    """The text of a UTF-8 JSON input file; any other bytes raise `error`."""
    try:
        return read_file(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path.name} is not UTF-8 text ({exc})") from None


def resolve_references(milestones: list[Milestone]) -> list[Milestone]:
    """Rewrite gq7 and alignsWith entries to milestone ids, in new records.

    A reference resolves by `milestone_resolver`. Anything unresolvable
    stays verbatim so later checks can flag it. The records given are left
    unchanged.
    """
    named = milestone_resolver(milestones)

    def resolve_all(refs: frozenset[str]) -> frozenset[str]:
        # Empty sets are kept as they are: they are shared, not copied.
        return frozenset(named(ref) or ref for ref in refs) if refs else refs

    resolved = []
    for ms in milestones:
        if ms.gq.gq7_consumers or ms.aligns_with:
            gq = replace(ms.gq, gq7_consumers=resolve_all(ms.gq.gq7_consumers))
            ms = replace(ms, gq=gq, aligns_with=resolve_all(ms.aligns_with))
        resolved.append(ms)
    return resolved


# One manifest entry loaded: its parsed model (None when the file could not
# be read or parsed), the model's milestones before reference resolution,
# and the entry's findings (the load failure, or the extraction findings).
_Loaded = tuple[ProcessModel | None, list[Milestone], list[Finding]]


def _load_entry(base: Path, entry: LevelEntry) -> _Loaded:
    """Parse one entry's model file and extract its milestones; a file that
    cannot be read or parsed gives no model and one MODEL-PARSE-ERROR
    finding."""
    try:
        model = parse_model(read_file(base / entry.file), entry.model_id)
    except OSError as exc:
        return None, [], [Finding("MODEL-PARSE-ERROR", entry.model_id, f"cannot read {entry.file!r}: {exc}")]
    except ModelParseError as exc:
        return None, [], [Finding("MODEL-PARSE-ERROR", entry.model_id, str(exc))]
    milestones, findings = extract_milestones(model)
    return model, milestones, findings


def _encode(loaded: _Loaded) -> bytes:
    """One loaded entry as one `marshal` chunk of plain tuples. marshal
    writes an object that occurs twice once and refers back to it, and
    keeps a string's interning, so the node ids in flows and lanes, equal
    io tuples and the interned extension entries stay shared when decoded.
    The shared empty mapping and set are restored by `_decode`."""
    model, milestones, findings = loaded
    return marshal.dumps(
        (
            None
            if model is None
            else (
                model.model_id,
                model.name,
                [
                    (
                        n.node_id,
                        n.kind,
                        n.name,
                        None if n.duration is None else n.duration.days,
                        None if n.timer is None else (n.timer.amount.days, n.timer.mode),
                        n.inputs,
                        n.outputs,
                        None if n.extensions is _NO_EXTENSIONS else n.extensions,
                    )
                    for n in model.nodes
                ],
                model.flows,
                [(lane.lane_id, lane.role_name, lane.member_nodes) for lane in model.lanes],
                [(obj.object_id, obj.name, obj.storage_ref) for obj in model.data_objects],
                model.call_targets,
                model.extensions,
                [(f.code, f.subject, f.message) for f in model.parse_findings],
            ),
            [
                (
                    ms.milestone_id,
                    ms.model_id,
                    ms.event_node_id,
                    ms.name,
                    ms.kind,
                    (
                        ms.gq.gq1_process,
                        ms.gq.gq2_role,
                        ms.gq.gq3_tools,
                        None if ms.gq.gq4_duration is None else ms.gq.gq4_duration.days,
                        ms.gq.gq5_inputs,
                        ms.gq.gq6_outputs,
                        ms.gq.gq7_consumers,
                        ms.gq.gq8_storage,
                    ),
                    ms.declared_offset,
                    ms.terminal,
                    ms.aligns_with,
                    ms.anchors,
                )
                for ms in milestones
            ],
            [(f.code, f.subject, f.message) for f in findings],
        )
    )


def _decode(chunk: bytes) -> _Loaded:
    """The entry `_encode` wrote, rebuilt through the record constructors,
    so that each record's own checks run; its durations are the parser's
    `shared_duration` objects."""
    model, milestones, findings = marshal.loads(chunk)
    if model is not None:
        model_id, name, nodes, flows, lanes, objects, call_targets, extensions, parse_findings = model
        model = ProcessModel(
            model_id,
            name,
            [
                FlowNode(
                    node_id,
                    kind,
                    node_name,
                    shared_duration(days),
                    None if timer is None else TimerDef(shared_duration(timer[0]), timer[1]),
                    inputs,
                    outputs,
                    _NO_EXTENSIONS if ext is None else ext,
                )
                for node_id, kind, node_name, days, timer, inputs, outputs, ext in nodes
            ],
            flows,
            [Lane(*lane) for lane in lanes],
            [DataObject(*obj) for obj in objects],
            call_targets,
            extensions,
            [Finding(*f) for f in parse_findings],
        )
    return (
        model,
        [
            Milestone(*ids, _gq_record(*gq), declared_offset, terminal, aligns_with or _NO_ITEMS, anchors)
            for *ids, gq, declared_offset, terminal, aligns_with, anchors in milestones
        ],
        [Finding(*f) for f in findings],
    )


def _gq_record(gq1, gq2, gq3, gq4, gq5, gq6, gq7, gq8) -> GqRecord:
    return GqRecord(gq1, gq2, gq3 or _NO_ITEMS, shared_duration(gq4), gq5, gq6, gq7 or _NO_ITEMS, gq8)


def _fork_pays(base: Path, entries: list[LevelEntry]) -> bool:
    """Whether loading these entries forks a worker: on Linux, with two
    CPUs to run on, no other Python thread (a fork copies only the calling
    thread, so another thread's locks could stay held in the child), and
    model files totalling at least FORK_MIN_BYTES by `stat`."""
    if sys.platform != "linux" or len(entries) < 2 or threading.active_count() > 1:
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    total = 0
    for entry in entries:
        try:
            total += (base / entry.file).stat().st_size
        except OSError:
            pass  # reported when the file is read
    return total >= FORK_MIN_BYTES


def _leave_parents_cpu() -> None:
    """Take the CPU the forked worker starts on, its parent's, out of its
    affinity set: where the kernel does not balance load between CPUs, a
    child stays on its parent's CPU and the two share it. Best effort, as
    it needs `/proc`."""
    try:
        with open("/proc/self/stat", "rb") as f:
            # field 39, `processor`, counted after the parenthesised name
            cpu = int(f.read().rsplit(b")", 1)[1].split()[36])
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
    except (OSError, ValueError, IndexError):
        pass


def _work(read_fd: int, write_fd: int, base: Path, entries: list[LevelEntry]) -> NoReturn:
    """The forked worker: load each entry, then write them all down the
    pipe as length-prefixed chunks, so that it never waits on the parent's
    reads while it parses; exit with status 1 on any error."""
    status = 1
    try:
        os.close(read_fd)
        _leave_parents_cpu()
        chunks = []
        for entry in entries:
            chunk = _encode(_load_entry(base, entry))
            chunks += [len(chunk).to_bytes(8, "little"), chunk]
        with open(write_fd, "wb") as pipe:
            pipe.writelines(chunks)
        status = 0
    finally:
        os._exit(status)


def _receive(pipe: BinaryIO) -> list[_Loaded]:
    """The worker's chunks, each read and decoded in turn, until the pipe
    ends or a chunk comes short: the worker closes it after its last entry."""
    out = []
    while len(head := pipe.read(8)) == 8:
        size = int.from_bytes(head, "little")
        chunk = pipe.read(size)
        if len(chunk) < size:
            break
        out.append(_decode(chunk))
    return out


def _load_forked(base: Path, entries: list[LevelEntry]) -> list[_Loaded]:
    """The entries loaded, in manifest order, as far as they got: this
    process loads the first half while a forked worker loads the second.
    Of the worker's half, only the chunks that arrive whole count, and none
    when the pipe or the fork is refused or the worker exits non-zero. The
    caller loads whatever is missing after this prefix, so a defect raises
    what a serial load raises.

    The worker is reaped before this returns. When this process stops
    reading early, it closes the pipe, and the worker's write fails and
    ends it.
    """
    mid = (len(entries) + 1) // 2
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return []
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return []
    if pid == 0:
        _work(read_fd, write_fd, base, entries[mid:])
    os.close(write_fd)
    loaded: list[_Loaded] = []
    try:
        with open(read_fd, "rb") as pipe:
            loaded += [_load_entry(base, entry) for entry in entries[:mid]]
            loaded += _receive(pipe)
    finally:
        try:
            if os.waitpid(pid, 0)[1] != 0:
                del loaded[mid:]
        except ChildProcessError:  # reaped already, as when SIGCHLD is ignored
            pass
    return loaded


def load_bundle(manifest_path: str | Path) -> Bundle:
    """Read the manifest, parse every listed model, and assemble the pyramid.

    Model files are read as bytes, so each one's XML encoding declaration is
    honoured. Individual model files that fail to parse degrade to findings;
    a missing or unreadable root model stays fatal, and so do two milestones
    with one id (`milestone_resolver`), which is checked first. Each model's
    parse findings join the bundle's `findings`.

    When the model files total at least FORK_MIN_BYTES and a second CPU is
    free (`_fork_pays`), one forked worker parses and extracts the second
    half of the files and sends each result back through `_encode`. What
    it does not deliver loads here after the first half, so the bundle is
    the same either way; no worker outlives the call.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(read_utf8(manifest_path, ManifestError))
    base = manifest_path.parent

    entries = manifest.entries
    loaded = _load_forked(base, entries) if _fork_pays(base, entries) else []
    loaded += [_load_entry(base, entry) for entry in entries[len(loaded):]]

    # By model id, so `Bundle.milestones` and a DUPLICATE-MILESTONE message's pair
    # order do not follow the manifest's; `merge_findings` sorts and de-duplicates the groups.
    models: dict[str, ProcessModel] = {}
    extracted: list[Milestone] = []
    groups: list[list[Finding]] = []
    by_id = sorted(zip(entries, loaded), key=lambda pair: pair[0].model_id)
    for entry, (model, milestones, findings) in by_id:
        if model is not None:
            models[entry.model_id] = model
            extracted += milestones
            groups.append(model.parse_findings)
        groups.append(findings)
    milestones = resolve_references(extracted)

    pyramid, build_findings = build_pyramid(manifest, models)
    pyramid, link_findings = link_levels(pyramid)

    return Bundle(
        manifest=manifest,
        pyramid=pyramid,
        milestones=milestones,
        findings=merge_findings(build_findings, link_findings, *groups),
        root_dir=base,
    )
