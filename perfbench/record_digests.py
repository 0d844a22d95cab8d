"""Record the sha256 of every report on the default seed in perfbench/digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose outputs are the reference. Each
output must pass its fact checks before its digest is recorded; later runs
of the benchmark on the default seed then also require byte-identical
reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    program = run.load_program(root)
    if program is None:
        return 2
    cli, check = program
    seed = run.read_json(run.SPEC)["default_seed"]
    recorded: dict[str, dict[str, str]] = {}
    for workload in (w["name"] for w in run.read_json(run.BENCHMARK)["workloads"]):
        run.generate(workload, seed, root)
        bench = run.Bench(workload, None, cli.run, check)
        ops = (run.WARM, run.REPORT_FULL, run.REPORT_HALF)
        if workload == "command-mix":
            ops += run.MIX_ROUND
        digests = recorded[workload] = {}
        for op in ops:
            result = bench.invoke(op)
            if not bench.verify(result):
                print(f"{workload} {op.key}: {bench.messages[-1]}", file=sys.stderr)
                return 1
            digests[op.key] = run.sha256(result.text)
            if op.command == "export":
                digests["export:dot"] = run.sha256(Path(bench.base, "export.dot").read_text(encoding="utf-8"))
    doc = {"seed": seed, "workloads": recorded}
    run.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {sum(map(len, recorded.values()))} digests for seed {seed} in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
