"""Run the benchmark on consecutive seeds and summarize every metric.

    python3 perfbench/collect.py --workload NAME --runs 10 [--first-seed 1] [--trace 0] [--out FILE]

Run it from the root of a checkout. Each run uses the next seed and the
`run_seconds` of BENCHMARK.json. For every metric it prints the median, the
quartiles and the spread (quartile distance over median, the figure the
bounds in BENCHMARK.json are compared with). With --out it also writes the
per-run results and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(runs: list[dict]) -> dict[str, dict[str, float]]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(benchmark["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        bound = bounds.get(name)
        limit = f" (bound {bound}, a third {bound / 3:.3f})" if bound is not None else ""
        print(f"{name}: median {s['median']:.6g} {s['unit']}, quartiles {s['q1']:.6g}..{s['q3']:.6g},"
              f" spread {s['spread']:.4f}{limit}")
    if args.out:
        doc = {"workload": args.workload, "trace": args.trace, "runs": runs, "summary": summary}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
