"""Self-test of the benchmark itself.

Usage, from the root of a source checkout: python3 bench/selftest.py

1. Exact counts: two traced runs of every workload, with different seeds
   and hash seeds, must report identical work counts and count ratios.
2. The correctness check bites: in a copy of the checkout with one seed
   answer corrupted, a run must report a failed job and correct = false.
3. Refusal without the program: in a directory that holds only
   BENCHMARK.json and bench/, a run must exit non-zero and print no result.

Copies are made under .bench_out/ and removed afterwards. Exits 1 when a
check fails. Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from repeat import run_once
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
CORRUPTED = ("quotient-corpus", "s4//0/analyze")


def run(root: Path, workload: str, seed: int, seconds: float, trace: int,
        hash_seed: str = "0"):
    return run_once(root, workload, seed, seconds, trace,
                    env=dict(os.environ, PYTHONHASHSEED=hash_seed))


def exact_metrics(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count" or (m["unit"] == "ratio"
                                        and name != "trace.overhead_ratio")}


def check_counts() -> list[str]:
    failures = []
    for workload in WORKLOADS:
        _, a = run(ROOT, workload, 1, 0, 1, hash_seed="1")
        _, b = run(ROOT, workload, 2, 0, 1, hash_seed="2")
        if a is None or b is None:
            failures.append(f"{workload}: traced run failed")
            continue
        ca, cb = exact_metrics(a), exact_metrics(b)
        differ = sorted(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))
        if differ:
            failures.append(f"{workload}: counts differ between runs: {differ}")
        if not (a["correct"] and b["correct"]):
            failures.append(f"{workload}: traced run reports a wrong answer")
        print(f"counts {workload}: {len(ca)} metrics, "
              f"{'identical' if not differ else 'DIFFERENT'}", flush=True)
    return failures


def copy_checkout(dest: Path, program: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", dest / "bench", ignore=ignore)
    if program:
        for part in ("src", "tests", "fixtures"):
            shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def check_corruption(tmp: Path) -> list[str]:
    dest = tmp / "corrupted"
    dest.mkdir()
    copy_checkout(dest, program=True)
    path = dest / "bench" / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    workload, key = CORRUPTED
    expected["jobs"][workload][key]["output"]["closed_subsets"] += 1
    path.write_text(json.dumps(expected), encoding="utf-8")
    # A traced run always completes whole passes, so the corrupted job runs.
    _, result = run(dest, workload, 1, 0, 1)
    print(f"corrupted answer: {result and {k: result[k] for k in ('correct', 'failed')}}",
          flush=True)
    if result is None or result["correct"] or result["failed"] == 0:
        return ["a corrupted seed answer was not reported as a failure"]
    return []


def check_refusal(tmp: Path) -> list[str]:
    dest = tmp / "bench-only"
    dest.mkdir()
    copy_checkout(dest, program=False)
    done, _ = run(dest, "a5-hall", 1, 1, 0)
    print(f"bench-only directory: exit {done.returncode}, "
          f"{len(done.stdout.splitlines())} lines of output", flush=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["a run without the program did not refuse"]
    return []


def main() -> int:
    OUT.mkdir(exist_ok=True)
    failures = check_counts()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="selftest-") as tmp:
        failures += check_corruption(Path(tmp))
        failures += check_refusal(Path(tmp))
    for line in failures:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
