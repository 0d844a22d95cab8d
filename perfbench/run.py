"""The procpyramid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
`src/`. It writes seeded bundles under `.bench_work/`, drives the public CLI
entry `procpyramid.cli.run(argv)` in this one process (one closed-loop
client, no threads), checks every output against the facts the generator
knows by construction, and prints the metrics. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`). Workloads, metrics and the layer map are described in
`perfbench/spec.json`. Timings are in reference seconds (`reference.py`):
wall time corrected for the speed of the core, sampled while it ran.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SPEC = HERE / "spec.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
WORK_DIR = ".bench_work"
SETUP_SAMPLES = 15
SUBPROCESS_TIMEOUT = 150


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `key` labels it in digests and metrics."""

    key: str
    command: str
    size: str  # bundle directory: full, half or warm
    impact: str | None = None  # impact seed kind: milestone or model


WARM = Op("report:warm", "report", "warm")
REPORT_FULL = Op("report:full", "report", "full")
REPORT_HALF = Op("report:half", "report", "half")
MIX_ROUND = (
    Op("validate", "validate", "full"),
    Op("timeline", "timeline", "full"),
    Op("deps", "deps", "full"),
    Op("impact:milestone", "impact", "full", "milestone"),
    Op("impact:model", "impact", "full", "model"),
    Op("conform", "conform", "full"),
    Op("export", "export", "full"),
    Op("retention", "retention", "full"),
)
# command-mix timing name per op; both impact seeds share impact_s
MIX_METRIC = {op.key: f"{op.command}_s" for op in MIX_ROUND}
PROBES = (("probe-annotations", "validate"), ("probe-deep-chain", "report"))


@dataclass
class Result:
    op: Op
    exit_code: int | None
    text: str
    seconds: float
    error: str | None  # an exception that escaped cli.run


class Bench:
    """Invokes operations of one workload and keeps the tally of their checks."""

    def __init__(self, workload: str, seed: int, cli_run, check_mod):
        self.workload = workload
        self.base = f"{WORK_DIR}/{workload}"
        self.cli_run = cli_run
        self.check = check_mod
        self.facts = {
            size: json.loads(Path(self.base, size, "facts.json").read_text(encoding="utf-8"))
            for size in ("full", "half", "warm")
        }
        digests = read_json(DIGESTS) if DIGESTS.exists() else {}
        self.digests = digests.get("workloads", {}).get(workload) if seed == digests.get("seed") else None
        self.attempted = 0
        self.failed = 0
        self.known: list[str] = []
        self.messages: list[str] = []

    def argv(self, op: Op) -> list[str]:
        out = [op.command, f"{self.base}/{op.size}/manifest.json", "--json"]
        if op.impact:
            out += ["--seed", self.facts[op.size]["impact"][op.impact]["seed"]]
        if op.command == "export":
            out += ["--dot", f"{self.base}/export.dot"]
        if op.command == "retention":
            out += ["--after", f"{self.base}/{op.size}/manifest-after.json"]
        return out

    def invoke(self, op: Op, run=None) -> Result:
        return invoke(run or self.cli_run, op, self.argv(op))

    def timed(self, op: Op) -> tuple[Result, float]:
        """Invoke `op` under a speed gauge; also its time in reference seconds."""
        with reference.Gauge() as gauge:
            result = self.invoke(op)
        return result, gauge.reference_seconds(result.seconds)

    def verify(self, result: Result) -> bool:
        """Check one result against its facts and, on the default seed, its digest."""
        op = result.op
        facts = self.facts[op.size]
        if result.error:
            problems = [result.error]
        else:
            problems = self.check.check(op.command, result.exit_code, result.text, facts, op.impact)
            digests = {op.key: result.text}
            if op.command == "export":
                dot = Path(self.base, "export.dot").read_text(encoding="utf-8")
                problems += self.check.check_dot(dot, facts)
                digests["export:dot"] = dot
            if self.digests is not None:
                for key, text in digests.items():
                    if sha256(text) != self.digests.get(key):
                        problems.append(f"sha256 of {key} differs from the recorded digest")
        return self.tally(op.key, problems)

    def tally(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{label}: " + "; ".join(problems[:3]))
        return not problems

    def probe(self, name: str, command: str) -> None:
        """A correctness probe: passes, fails as recorded in spec.json, or fails."""
        facts = json.loads(Path(self.base, name, "facts.json").read_text(encoding="utf-8"))
        result = invoke(self.cli_run, Op(name, command, name), [command, f"{self.base}/{name}/manifest.json", "--json"])
        problems = [result.error] if result.error else self.check.check(command, result.exit_code, result.text, facts)
        self.attempted += 1
        if not problems:
            return
        known = read_json(SPEC)["known_failures"].get(name, {})
        if all(any(sig in problem for sig in known.get("signatures", ())) for problem in problems):
            self.known.append(f"{name} (ROADMAP item {known['roadmap']}): {problems[0][:160]}")
        else:
            self.failed += 1
            self.messages.append(f"{name}: " + "; ".join(problems[:3]))


def invoke(run, op: Op, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Exception as exc:  # a crash is a measured failure, not a benchmark abort
        return Result(op, None, "", time.perf_counter() - started, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - started
    return Result(op, code, out.getvalue(), seconds, None)


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def load_program(root: Path):
    """Import procpyramid's CLI and the checker from a checkout; None if absent."""
    src = root / "src"
    if not (src / "procpyramid" / "__init__.py").is_file():
        print(f"error: no procpyramid sources under {src}; run from a source checkout", file=sys.stderr)
        return None
    sys.path[:0] = [str(src), str(HERE)]
    import procpyramid
    from procpyramid import cli

    import check

    if Path(procpyramid.__file__).resolve().parent != (src / "procpyramid").resolve():
        print(f"error: imported procpyramid from {procpyramid.__file__}, not {src}", file=sys.stderr)
        return None
    return cli, check


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def generate(workload: str, seed: int, root: Path) -> None:
    work = root / WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(work)],
        cwd=root, env=child_env(root), check=True, timeout=SUBPROCESS_TIMEOUT,
    )


def setup_sample(bench: Bench, root: Path, warm_digest: str) -> float | None:
    """A fresh interpreter timing the import plus the warm-up command."""
    manifest = f"{bench.base}/warm/manifest.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), manifest],
        cwd=root, env=child_env(root), capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
    )
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        bench.tally("setup", [f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-200:]}"])
        return None
    problems = []
    expected_exit = bench.check.expected_exit(bench.facts["warm"], "report")
    if sample["exit"] != expected_exit:
        problems.append(f"warm-up exit {sample['exit']}, expected {expected_exit}")
    if sample["sha256"] != warm_digest:
        problems.append("warm-up report differs from the in-process one")
    bench.tally("setup", problems)
    return sample["seconds"]


def quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def describe(name: str, samples: list[float], unit: str) -> str:
    """Median with sample count and quartiles; the highest percentile with at
    least ten samples beyond it once there are enough samples."""
    median = statistics.median(samples)
    q1, q3 = quartiles(samples)
    line = (
        f"info {name}: median {median:.6g} {unit} over {len(samples)} samples,"
        f" quartiles {q1:.6g}..{q3:.6g}, mean {statistics.fmean(samples):.6g}"
    )
    if len(samples) > 10:
        ordered = sorted(samples)
        k = len(ordered) - 11
        line += f", p{100 * (k + 1) / len(ordered):.0f} {ordered[k]:.6g} {unit}"
    return line


def timed_run(bench: Bench, seconds: float, between) -> dict[str, list[float]]:
    """Closed-loop rounds until `seconds` have passed (at least one round).

    Every timing is in reference seconds. `between(elapsed)` runs before
    every round and every report, outside the timed operations.
    """
    mix = bench.workload == "command-mix"
    timings: dict[str, list[float]] = {"report_full": [], "report_half": [], "report_full_wall": []}
    if mix:
        timings.update({name: [] for name in MIX_METRIC.values()})
        timings["mix_round_s"] = []
    started = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - started < seconds:
        if mix:
            between(time.perf_counter() - started)
            timed = [bench.timed(op) for op in MIX_ROUND]
            timings["mix_round_s"].append(sum(s for _, s in timed))
            for result, s in timed:
                timings[MIX_METRIC[result.op.key]].append(s)
                bench.verify(result)
        pair = (REPORT_FULL, REPORT_HALF) if rounds % 2 == 0 else (REPORT_HALF, REPORT_FULL)
        for op in pair:
            between(time.perf_counter() - started)
            result, s = bench.timed(op)
            timings["report_full" if op is REPORT_FULL else "report_half"].append(s)
            if op is REPORT_FULL:
                timings["report_full_wall"].append(result.seconds)
            bench.verify(result)
        rounds += 1
    return timings


def traced_run(bench: Bench, work: Path) -> dict[str, float]:
    """One pass untraced, the same pass traced; per-layer metrics of the traced one."""
    from procpyramid import cli

    from tracing import ROOT, Tracer

    ops = (MIX_ROUND if bench.workload == "command-mix" else ()) + (REPORT_FULL,)
    plain = []
    for op in ops:
        plain.append(bench.invoke(op))
        bench.verify(plain[-1])
    tracer = Tracer()
    with tracer.patched():
        run = tracer.wrap(ROOT, cli.run)
        started = time.perf_counter_ns()
        traced = [bench.invoke(op, run) for op in ops]
        wall_ns = time.perf_counter_ns() - started
    tracer.write(work / "spans.jsonl")
    for before, after in zip(plain, traced):
        problems = [] if after.text == before.text else ["traced report differs from the untraced one"]
        if bench.verify(after) and problems:
            bench.tally(f"{after.op.key} traced bytes", problems)
    covered = tracer.covered_ns()
    if tracer.self_ns() != covered:
        bench.tally("trace", [f"self times sum to {tracer.self_ns()} ns, spans cover {covered} ns"])

    totals = tracer.totals()
    counters = tracer.counters

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    for name, keys in (
        ("ingest.parse_model", ("calls", "busy_s", "self_s")),
        ("ingest.extract_milestones", ("busy_s",)),
        ("ingest.check_wellformed", ("busy_s",)),
        ("dependency.infer_edges", ("calls", "busy_s", "self_s")),
        ("dependency.find_redundant", ("busy_s",)),
        ("dependency.check_temporal", ("busy_s",)),
        ("dependency.graph_to_json", ("busy_s",)),
        ("dependency.impact", ("busy_s",)),
        ("naming.canonical_key", ("calls", "busy_s")),
        ("flowgraph.anchor_candidates", ("calls", "busy_s")),
        ("flowgraph.segment_nodes", ("calls", "busy_s")),
        ("timeline.resolve_offsets", ("calls", "busy_s")),
        ("timeline.check_alignment", ("busy_s",)),
        ("timeline.check_gq", ("busy_s",)),
        ("conformance.diff", ("calls", "busy_s")),
        ("conformance.check_vv_links", ("busy_s",)),
        ("conformance.vv_iterations", ("busy_s",)),
        ("pyramid.check_connectivity", ("busy_s",)),
        ("pyramid.assign_coordinates", ("busy_s",)),
        ("bundle.load_bundle", ("calls", "busy_s")),
        ("cli.render_report", ("busy_s",)),
    ):
        for key in keys:
            metrics[f"{name}.{key}"] = get(name, key)
    metrics["ingest.nodes_per_s"] = ratio(counters["ingest.nodes"], get("ingest.parse_model", "busy_s"))
    metrics["dependency.pairs_examined"] = counters["dependency.pairs_examined"]
    metrics["dependency.edge_yield"] = ratio(counters["dependency.edges"], counters["dependency.pairs_examined"])
    metrics["naming.alias_entries_scanned"] = counters["naming.alias_entries_scanned"]
    metrics["flowgraph.anchor_calls_per_milestone"] = ratio(
        get("flowgraph.anchor_candidates", "calls"), counters["bundle.milestones_loaded"]
    )
    metrics["model.node_map.calls"] = counters["model.node_map.calls"]
    metrics["timeline.resolve_offsets.calls_per_command"] = ratio(get("timeline.resolve_offsets", "calls"), len(ops))
    metrics["conformance.lcs_cells"] = counters["conformance.lcs_cells"]
    metrics["pyramid.build_link.busy_s"] = get("pyramid.build_pyramid", "busy_s") + get("pyramid.link_levels", "busy_s")
    metrics["cli.report_bytes"] = counters["cli.report_bytes"]
    metrics["trace.overhead_ratio"] = ratio(traced[-1].seconds, plain[-1].seconds)
    metrics["trace.wall_s"] = wall_ns / 1e9
    metrics["trace.uncovered_s"] = (wall_ns - covered) / 1e9

    for name in sorted(totals):
        entry = totals[name]
        print(f"info span {name}: {entry['calls']} calls, busy {entry['busy_s']:.6f} s, self {entry['self_s']:.6f} s")
    print(
        f"info trace: self times {tracer.self_ns() / 1e9:.6f} s + uncovered {(wall_ns - covered) / 1e9:.6f} s"
        f" = traced wall {wall_ns / 1e9:.6f} s; spans written to {work / 'spans.jsonl'}"
    )
    return metrics


def emit(bench: Bench, metrics: dict[str, float], kind: str) -> None:
    units = {m["name"]: m["unit"] for m in read_json(BENCHMARK)[kind]}
    for message in bench.messages:
        print(f"failed {message}")
    for message in bench.known:
        print(f"known failure {message}")
    attempted = bench.attempted
    print(
        f"info failed_ratio: {bench.failed + len(bench.known)}/{attempted} operations failed"
        f" ({len(bench.known)} known failures, {bench.failed} unexpected)"
    )
    doc = {
        "correct": bench.failed == 0,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(doc))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="procpyramid benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in read_json(BENCHMARK)["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    program = load_program(root)
    if program is None:
        return 2
    cli, check = program
    generate(args.workload, args.seed, root)
    bench = Bench(args.workload, args.seed, cli.run, check)
    warm = bench.invoke(WARM)
    bench.verify(warm)

    if args.trace:
        metrics = traced_run(bench, root / WORK_DIR / args.workload)
        emit(bench, metrics, "per_layer")
        return 0

    # set-up samples are spread over the run, one at a time between operations,
    # so that they do not all land in the same fast or slow spell of the core
    setup: list[float] = []
    warm_digest = sha256(warm.text)

    def sample_setup() -> None:
        sample = setup_sample(bench, root, warm_digest)
        if sample is not None:
            setup.append(sample)

    attempts = 0

    def between(elapsed: float) -> None:
        nonlocal attempts
        if attempts < SETUP_SAMPLES and elapsed >= attempts * args.seconds / SETUP_SAMPLES:
            attempts += 1
            sample_setup()

    if bench.workload == "command-mix":
        for name, command in PROBES:
            bench.probe(name, command)
    timings = timed_run(bench, args.seconds, between)
    while attempts < SETUP_SAMPLES:
        attempts += 1
        sample_setup()
    full, half = timings.pop("report_full"), timings.pop("report_half")
    wall = timings.pop("report_full_wall")
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,  # no sample: already counted as failed
        "report_s": statistics.median(full),
        "report_growth": statistics.median(full) / statistics.median(half),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if setup:
        print(describe("setup_s", setup, "s"))
    print(describe("report_s", full, "s"))
    print(describe("report_s (half size)", half, "s"))
    print(describe("report_s (wall seconds, not normalised)", wall, "s"))
    for name, samples in timings.items():
        print(describe(name, samples, "s"))
    emit(bench, metrics, "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
