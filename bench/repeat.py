"""Run the benchmark on several seeds and summarise every metric.

Usage, from the root of a source checkout:

    python3 bench/repeat.py --seeds 1-10 --seconds 40 [--trace 0|1]
                            [--workloads a5-hall,...] [--out FILE]

Runs are made one after another. For each workload and metric it prints
the median over the runs, the quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and the spread (q3 - q1) / median. The spread of each
end-to-end metric must stay within its bound in BENCHMARK.json. To compare
two commits, run both on the same seeds and compare medians. With --out
the runs and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int,
             env: dict | None = None):
    """(completed process, parsed result line or None) of one benchmark run."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return done, None
    try:
        return done, json.loads(lines[-1])
    except json.JSONDecodeError:
        return done, None


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {"python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)),
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    failed = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            done, result = run_once(ROOT, workload, seed, args.seconds, args.trace)
            if result is None:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                failed = True
                continue
            result["seed"] = seed
            runs.append(result)
            failed |= not result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        if not runs:
            continue
        summary = summarise(runs)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:16s} {name:28s} median {s['median']:.6g} {s['unit']}"
                  f"  spread {spread}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
