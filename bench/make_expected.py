"""Write bench/expected.json: the answer of every benchmark job at this commit.

Usage: python3 bench/make_expected.py

Runs each job of each workload once, stores its exit code, its
``--machine`` JSON and the digest of its input, and cross-checks the answers
against the independent oracles in ``tests/oracles.py`` (reading them only).
The group oracle on S5 and A5 takes about a minute; its facts are stored so
that each benchmark run can check them cheaply. Refuses to write the file
when an answer disagrees with an oracle. The expected answers are those of
the commit that defined the benchmark; regenerate them only when a change
of the answers is intended and reviewed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from worker import Loop  # noqa: E402


def group_oracle_facts(oracles) -> dict[str, dict]:
    from hypergroups import cayley_to_hypergroup, fixtures

    s5 = oracles.GroupOracle(workloads.s5_table())
    facts = {"s5/analyze": {"closed_subsets": len(s5.subgroups())}}
    a5_text = (ROOT / "fixtures" / "a5.cayley").read_text(encoding="utf-8")
    a5 = oracles.GroupOracle(fixtures.int_table(cayley_to_hypergroup(a5_text)))
    primes = {"smallest {2}": {2}, "2,3|5 0": {2, 3},
              "smallest {3},{5}": {3, 5}, "2|3,5 1": {3, 5}}
    for job, selected in primes.items():
        facts[f"a5/verify {job}"] = {"hall_subsets": len(a5.hall_subgroups(selected))}
    facts["a5/analyze"] = {"closed_subsets": len(a5.subgroups())}
    return facts


def main() -> int:
    from hypergroups import cli

    oracles = check.load_oracles(ROOT)
    facts = group_oracle_facts(oracles)
    out = {"oracle": {}, "inputs": {}, "jobs": {}}
    problems = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="expected-") as tmp:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, ROOT, Path(tmp))
            jobs = [(j.key, j.argv) for j in wl.jobs]
            if name == "a5-hall":
                # A5 itself is no benchmark job; its subgroup count is
                # cross-checked here once.
                jobs.append(("a5/analyze", ("analyze", str(ROOT / "fixtures" / "a5.cayley"),
                                            "--rank-cap", "60", "--machine")))
            loop = Loop(cli.main, jobs, seed=0, deadline=float("inf"))
            loop.one_pass()
            facts.update(check.small_input_facts(oracles, wl))
            answers = {}
            for key, variants in loop.outcomes.items():
                (variant,) = variants.values()
                answers[key] = {"code": variant["code"],
                                "output": check.parse_output(variant["stdout"])}
                errors = check.job_errors(variant, answers[key], facts.get(key, {}))
                problems += [f"{key}: {e}" for e in errors]
            answers.pop("a5/analyze", None)
            out["jobs"][name] = dict(sorted(answers.items()))
            out["inputs"][name] = wl.digests
            print(f"{name}: {len(answers)} jobs", file=sys.stderr)
    out["oracle"] = {k: v for k, v in facts.items()
                     if k.startswith(("s5/", "a5/verify"))}
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
