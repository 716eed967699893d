"""Benchmark of the hypergroups command line, end to end and per layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/workloads.py for why each is here): s5-lattice,
a5-hall, quotient-corpus. The inputs are generated from the package's
public functions at set-up; the seed only sets the order of the jobs.

One worker process, a fresh interpreter, runs ``hypergroups.cli.main`` in
a closed loop with one client: each job starts when the previous one
returns. Everything runs in one thread with no queues, so no layer ever
waits on another and no wait time is reported. Every job's exit code and
``--machine`` JSON is checked against the seed answers in
bench/expected.json and against the oracles of tests/oracles.py.

With ``--trace 0`` the run reports the end-to-end metrics:

- setup_s: median time for a fresh interpreter to import
  ``hypergroups.cli`` and exit, the fixed cost every CLI call pays
  (three samples after each pass)
- jobs_per_s: jobs of the workload completed per second
- job_s_p50: median job latency over the workload's jobs
- peak_rss_mb: peak resident memory of the worker process

Beside them it prints error_rate, wrong or failed jobs over jobs
attempted (``failed / attempted`` of the result line), and job_s_p95, the
95th-percentile job latency, where at least ten jobs lie beyond it: on
quotient-corpus (411 jobs), not on s5-lattice (1 job) or a5-hall (4
jobs). The result line leaves job_s_p95 out, because its metrics are the
same for every workload.

The run repeats whole passes over the job list, and a job's latency is
the fastest of its repetitions. Other tenants of a shared machine only
ever add time, and on a small virtual machine they slow a whole job by up
to 1.5x for tens of seconds at a time; the median over all repetitions
flips between the fast and the slow phase from run to run, the fastest
repetition does not.

With ``--trace 1`` the run alternates untraced and traced passes over the
whole job list and reports the per-layer self times (median over traced
passes), exact work counts of one pass, and trace.overhead_ratio (traced
over untraced pass time, minus 1). Counts that differ between traced
passes fail the run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A record of the run (Python
version, commit, nproc, load average at start and end, seed, all
latencies) is written under .bench_out/runs/, with the spans of the
first traced pass beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# a run ends within this many seconds, set-up included
RUN_LIMIT_S = 170
# the 95th percentile latency is reported only with ten jobs beyond it
TAIL_JOBS = 200

TIME_METRICS = ("formats.parse_s", "core.validate_s", "core.closure_s",
                "lattice.enumerate_s", "quotient.quotient_s",
                "valency.rt_chain_s", "valency.valency_of_s",
                "hall.verify_hall_s", "hall.suite_s", "cli.self_s")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def child_env() -> dict:
    """The environment with src/ first on the path and bytecode caching on,
    as in an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def oracle_facts(expected: dict, wl) -> dict[str, dict]:
    facts = {k: v for k, v in expected["oracle"].items()
             if any(j.key == k for j in wl.jobs)}
    if wl.small:
        facts.update(check.small_input_facts(check.load_oracles(ROOT), wl))
    return facts


def check_outcomes(result, expected, wl, facts):
    """(attempted, failed, problems) over every job run."""
    seed_inputs = expected["inputs"][wl.name]
    bad_inputs = {name for name, d in wl.digests.items() if seed_inputs.get(name) != d}
    seed_jobs = expected["jobs"][wl.name]
    attempted = failed = 0
    problems = []
    for key, variants in result["outcomes"].items():
        job_input = key.rsplit("/", 1)[0]
        for variant in variants:
            attempted += variant["count"]
            if job_input in bad_inputs:
                errors = ["input differs from the seed's"]
            else:
                errors = check.job_errors(variant, seed_jobs.get(key), facts.get(key, {}))
            if errors:
                failed += variant["count"]
                problems += [f"{key}: {e}" for e in errors]
    return attempted, failed, problems


def end_to_end(result) -> tuple[dict, dict]:
    """(gated metrics, printed-only metrics) of an untraced run."""
    best = [min(runs) for runs in result["latencies"].values()]
    metrics = {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "jobs_per_s": (len(best) / sum(best), "1/s"),
        "job_s_p50": (statistics.median(best), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    extra = {}
    if len(best) >= TAIL_JOBS:
        p95 = statistics.quantiles(best, n=20, method="inclusive")[18]
        extra["job_s_p95"] = (p95, "s")
    return metrics, extra


def per_layer(result) -> tuple[dict, list[str]]:
    counts = result["layer_counts"]
    problems = [f"traced pass {i} counts differ from pass 0"
                for i, c in enumerate(counts) if c != counts[0]]
    metrics = {}
    for name in TIME_METRICS:
        metrics[name] = (statistics.median(t[name] for t in result["layer_times"]), "s")
    for name, value in counts[0].items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio") or
                         name.endswith("_yield") else "count")
    ratio = (statistics.median(result["traced_pass_s"])
             / statistics.median(result["untraced_pass_s"]) - 1)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "hypergroups" / "cli.py").is_file():
        return fail(f"no hypergroups package under {SRC}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        return fail("tests/oracles.py is missing")
    sys.path.insert(0, str(SRC))
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "commit": commit(), "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": loadavg(),
    }
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        tmp = Path(tmp)
        wl = workloads.build(args.workload, ROOT, tmp)
        facts = oracle_facts(expected, wl)
        spec = {"src": str(SRC), "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "jobs": [(j.key, j.argv) for j in wl.jobs]}
        (tmp / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(tmp / "spec.json"),
                 str(tmp / "result.json")],
                env=child_env(), cwd=ROOT, timeout=max(budget, 1))
        except subprocess.TimeoutExpired:
            return fail(f"worker did not finish within {budget:.0f} s")
        if done.returncode != 0:
            return fail(f"worker exited with code {done.returncode}")
        result = json.loads((tmp / "result.json").read_text(encoding="utf-8"))

    attempted, failed, problems = check_outcomes(result, expected, wl, facts)
    extra = {}
    if args.trace:
        metrics, count_problems = per_layer(result)
        problems += count_problems
    else:
        metrics, extra = end_to_end(result)
    record["loadavg_end"] = loadavg()

    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        (runs / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["span", "parent", "job", "name", "start", "end", "error"],
             "spans": spans}, separators=(",", ":")), encoding="utf-8")
    result.pop("outcomes")
    (runs / f"{stem}.json").write_text(json.dumps(
        {"record": record, "attempted": attempted, "failed": failed,
         "problems": problems, "metrics": metrics, "not_gated": extra,
         "result": result}, indent=1), encoding="utf-8")

    print("run: " + json.dumps(record))
    for line in problems[:20]:
        print(f"problem: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{name:28s} {value:.6g} {unit} (not in the result line)")
    print(f"{'error_rate':28s} {failed / attempted if attempted else 1:.6g} ratio "
          f"({failed} of {attempted} jobs)")
    correct = attempted > 0 and failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
