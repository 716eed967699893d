"""Correctness check of job outcomes against the stored seed answers.

Each job's exit code must equal the seed's, and its ``--machine`` JSON must
agree with the seed's on the seed's keys; keys added later (new witnesses,
for instance) are not compared. Facts from the independent oracles in
``tests/oracles.py`` are checked as well: the group oracle's subgroup and
Hall counts, stored with the seed answers because they take a minute to
compute, and, for every corpus input of rank at most 8, the powerset
closed subsets and the brute-force residually thin chains, recomputed on
every run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def naive_facts(oracles, h) -> dict[str, dict]:
    """Oracle facts of one small input, by CLI command."""
    table, star = oracles.sets_of(h)
    closed = oracles.naive_closed_subsets(table, star)
    chains = oracles.naive_rt_chains(table, star)
    valency = None
    if chains:
        valency = 1
        for lo, hi in zip(chains[0], chains[0][1:]):
            blocks, _, _ = oracles.naive_quotient(table, star, set(lo), set(hi))
            valency *= len(blocks)
    return {"analyze": {"closed_subsets": len(closed),
                        "is_residually_thin": bool(chains),
                        "valency": valency},
            "verify": {"flags.is_residually_thin": bool(chains)}}


def small_input_facts(oracles, wl) -> dict[str, dict]:
    """Naive oracle facts for every job on an input of rank at most 8."""
    by_input = {name: naive_facts(oracles, h) for name, h in wl.small.items()}
    return {job.key: by_input[job.input][job.argv[0]]
            for job in wl.jobs if job.input in by_input}


def matches(expected, actual) -> bool:
    """actual agrees with expected on every key expected has."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and matches(v, actual[k]) for k, v in expected.items())
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(matches(e, a) for e, a in zip(expected, actual)))
    return type(expected) is type(actual) and expected == actual


def _lookup(obj, path: str):
    for part in path.split("."):
        obj = obj[part]
    return len(obj) if isinstance(obj, list) else obj


def fact_errors(facts: dict, output) -> list[str]:
    out = []
    for path, want in facts.items():
        try:
            got = _lookup(output, path)
        except (KeyError, TypeError):
            got = "missing"
        if got != want or type(got) is not type(want):
            out.append(f"oracle says {path} = {want!r}, got {got!r}")
    return out


def parse_output(stdout: str):
    return json.loads(stdout) if stdout.strip() else None


def job_errors(variant: dict, expected: dict | None, facts: dict) -> list[str]:
    """Why one outcome of a job is wrong; empty when it is right."""
    if expected is None:
        return ["no seed answer for this job"]
    if variant["code"] != expected["code"]:
        return [f"exit code {variant['code']!r}, seed gave {expected['code']!r}: "
                f"{variant['stderr'].strip()[:200]}"]
    try:
        output = parse_output(variant["stdout"])
    except json.JSONDecodeError:
        return ["output is not JSON"]
    errors = []
    if not matches(expected["output"], output):
        errors.append("output differs from the seed's")
    if facts and output is not None:
        errors += fact_errors(facts, output)
    return errors
