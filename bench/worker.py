"""Closed-loop job runner for the benchmark, in one fresh interpreter.

Usage: python3 bench/worker.py SPEC.json RESULT.json

Runs ``hypergroups.cli.main(argv)`` for the jobs listed in SPEC, one at a
time in a single thread: each job starts when the previous one returns.
A pass runs every job of the workload once, in an order shuffled with the
workload seed. Nothing is checked here; every distinct (exit code, stdout)
of each job is written to RESULT for the caller to check. Garbage from one job is collected before the next
job starts, outside its timing, as a separate CLI process would never pay
for it. The objects that exist after import are frozen out of the garbage
collector first, so that this collection costs little.

Without tracing, fresh interpreters that import ``hypergroups.cli`` are
timed between passes: the set-up cost every CLI call pays.

With tracing on, passes over the whole job list alternate between untraced
and traced. A traced pass wraps the public functions of each layer, in
every ``hypergroups.*`` namespace that binds them, and records one span
per call with its parent span. Self time is span time minus the time of
its child spans. The hot bitset helpers (``bits``, ``complex_product``) are
not wrapped: they see millions of calls per job, and wrapping them would
measure the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

SETUP_SAMPLES_PER_PASS = 3

# function name -> defining module; wrapped wherever a hypergroups.*
# namespace binds that same function object
TRACED = {
    "parse_document": "formats",
    "cayley_to_hypergroup": "formats",
    "scheme_to_hypergroup": "formats",
    "validate": "core",
    "closure": "core",
    "sub_hypergroup": "core",
    "closed_subsets": "lattice",
    "quotient": "quotient",
    "section_quotient": "quotient",
    "rt_chain": "valency",
    "valency_of": "valency",
    "verify_hall": "hall",
    "solvability_suite": "hall",
    "sigma_solvable_chain": "hall",
}


class _Frame:
    __slots__ = ("span", "name", "child", "closures")

    def __init__(self, span, name):
        self.span = span
        self.name = name
        self.child = 0.0
        self.closures = 0


class Tracer:
    """In-memory spans and per-layer counters for one traced pass."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self.stack: list[_Frame] = []
        self.next_span = 0
        self.job = -1
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._returned: dict[int, object] = {}
        self._refused = False

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        frame = _Frame(self.next_span, name)
        self.next_span += 1
        self.stack.append(frame)
        error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame.child
            self.calls[name] += 1
            if parent is not None:
                parent.child += duration
            if self.keep_spans:
                self.spans.append((frame.span, -1 if parent is None else parent.span,
                                   self.job, name, start, end, error))
            if error == "RankCapError":
                self._refused = True
        self._count(name, args, kwargs, result, frame, parent)
        return result

    def _first_return(self, result) -> bool:
        # Cached results come back as the same object. The job's results
        # are held until it ends, so an id is never reused within a job.
        if id(result) in self._returned:
            return False
        self._returned[id(result)] = result
        return True

    def _count(self, name, args, kwargs, result, frame, parent):
        c = self.counts
        if name == "validate":
            rank = kwargs.get("rank") or len(args[0])
            c["validate_triples"] += rank ** 3
        elif name == "closure":
            if parent is not None and parent.name == "closed_subsets":
                parent.closures += 1
        elif name == "closed_subsets":
            if self._first_return(result):
                c["enumerations"] += 1
                c["enumerated_subsets"] += len(result.subsets)
                c["enumeration_closures"] += frame.closures
        elif name == "quotient":
            if self._first_return(result):
                c["quotients_built"] += 1

    def run_job(self, main, argv):
        self.job += 1
        self._refused = False
        try:
            code = self.call("main", main, (argv,), {})
        finally:
            self._returned.clear()
        if code == 2 and self._refused:
            self.counts["refusals"] += 1
        return code

    def layers(self) -> tuple[dict, dict]:
        """(self times in seconds, exact counts) of this pass."""
        s, n, c = self.self_s, self.calls, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        times = {
            "formats.parse_s": s["parse_document"] + s["cayley_to_hypergroup"]
            + s["scheme_to_hypergroup"],
            "core.validate_s": s["validate"],
            "core.closure_s": s["closure"],
            "lattice.enumerate_s": s["closed_subsets"],
            "quotient.quotient_s": s["quotient"],
            "valency.rt_chain_s": s["rt_chain"],
            "valency.valency_of_s": s["valency_of"],
            "hall.verify_hall_s": s["verify_hall"],
            "hall.suite_s": s["solvability_suite"],
            "cli.self_s": s["main"],
        }
        counts = {
            "core.validate_calls": n["validate"],
            "core.validate_triples": c["validate_triples"],
            "core.closure_calls": n["closure"],
            "core.sub_hypergroup_calls": n["sub_hypergroup"],
            "lattice.enumerations": c["enumerations"],
            "lattice.cache_hit_ratio": ratio(n["closed_subsets"] - c["enumerations"],
                                             n["closed_subsets"]),
            "lattice.closure_yield": ratio(c["enumerated_subsets"],
                                           c["enumeration_closures"]),
            "quotient.built": c["quotients_built"],
            "quotient.cache_hit_ratio": ratio(n["quotient"] - c["quotients_built"],
                                              n["quotient"]),
            "quotient.section_calls": n["section_quotient"],
            "valency.rt_chain_calls": n["rt_chain"],
            "valency.valency_of_calls": n["valency_of"],
            "hall.sigma_chain_calls": n["sigma_solvable_chain"],
            "cli.refusals": c["refusals"],
        }
        return times, counts


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Replace every binding of the TRACED functions by a traced wrapper."""
    originals = {name: getattr(sys.modules[f"hypergroups.{mod}"], name)
                 for name, mod in TRACED.items()}
    wrappers = {name: tracer.wrap(name, fn) for name, fn in originals.items()}
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "hypergroups" and not modname.startswith("hypergroups."):
            continue
        for name, fn in originals.items():
            if getattr(mod, name, None) is fn:
                setattr(mod, name, wrappers[name])
                undo.append((mod, name, fn))
    try:
        yield
    finally:
        for mod, name, fn in undo:
            setattr(mod, name, fn)


class Loop:
    """Runs jobs and keeps every distinct outcome of each job."""

    def __init__(self, main, jobs, seed, deadline):
        self.main = main
        self.jobs = jobs
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.outcomes: dict[str, dict] = {}
        self.latencies: dict[str, list[float]] = {}

    def order(self):
        order = list(self.jobs)
        self.rng.shuffle(order)
        return order

    def fits(self, seconds: float) -> bool:
        return time.perf_counter() + seconds <= self.deadline

    def run(self, key, argv, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.main(list(argv))
                else:
                    code = tracer.run_job(self.main, list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a wrong answer; keep going
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.latencies.setdefault(key, []).append(elapsed)
        variants = self.outcomes.setdefault(key, {})
        variant = variants.setdefault(
            json.dumps([code, out.getvalue()]),
            {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
             "count": 0})
        variant["count"] += 1

    def closed_loop(self, between):
        """Whole passes while the next one is expected to end before the
        deadline, calling between() after each. Whole passes keep the mix
        of jobs the same in every run."""
        while True:
            duration = self.one_pass()
            between()
            if not self.fits(duration):
                return

    def one_pass(self, tracer=None) -> float:
        start = time.perf_counter()
        for key, argv in self.order():
            self.run(key, argv, tracer)
        return time.perf_counter() - start


def import_time() -> float:
    """Seconds for a fresh interpreter to import hypergroups.cli and exit.

    No timeout: with one, the wait polls with sleeps of up to 50 ms, which
    would quantize the measurement.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hypergroups.cli"], check=True)
    return time.perf_counter() - start


def traced_passes(loop: Loop) -> dict:
    """Alternate untraced and traced passes; at least one of each."""
    untraced, traced, times, counts, spans = [], [], [], [], []
    while True:
        kind = traced if len(traced) < len(untraced) else untraced
        if untraced and traced:
            last = statistics.median(kind)
            if not loop.fits(last):
                break
        if kind is untraced:
            untraced.append(loop.one_pass())
            continue
        tracer = Tracer(keep_spans=not traced)
        with patched(tracer):
            traced.append(loop.one_pass(tracer))
        t, c = tracer.layers()
        times.append(t)
        counts.append(c)
        if tracer.keep_spans:
            spans = tracer.spans
    return {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "layer_times": times,
        "layer_counts": counts,
        "spans": spans,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import hypergroups
    import hypergroups.cli

    src = Path(spec["src"]).resolve()
    if src not in Path(hypergroups.__file__).resolve().parents:
        print(f"hypergroups imported from {hypergroups.__file__}, not {src}",
              file=sys.stderr)
        return 2
    jobs = [(key, tuple(argv)) for key, argv in spec["jobs"]]
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    loop = Loop(hypergroups.cli.main, jobs, spec["seed"], start + spec["seconds"])
    result: dict = {}
    if spec["trace"]:
        result.update(traced_passes(loop))
    else:
        # Set-up is sampled between passes, so that its samples, like the
        # jobs, spread over the whole run. The first sample may write the
        # bytecode cache and is not kept.
        import_time()
        setup = result["setup_s"] = []
        loop.closed_loop(lambda: setup.extend(
            import_time() for _ in range(SETUP_SAMPLES_PER_PASS)))
    result["loop_s"] = time.perf_counter() - start
    result["latencies"] = loop.latencies
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["outcomes"] = {key: list(v.values()) for key, v in loop.outcomes.items()}
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
