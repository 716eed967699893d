"""Inputs and jobs of the three benchmark workloads.

A job is one call of ``hypergroups.cli.main(argv)``: read a file, parse,
validate, compute and print the ``--machine`` JSON. Inputs that are not
fixture files are generated here, through the package's public functions,
and written to a scratch directory; the program under test only ever sees
those files and the argv.

Workloads, and why each is in the benchmark:

- ``s5-lattice``: ``analyze`` on S5 (order 120) as a generated Cayley
  document. One large thin input whose time goes to closure and lattice
  enumeration, then to validating the rank-120 table. The Hall and valency
  layers do almost nothing, so it is the control for changes there.
- ``a5-hall``: ``verify`` on ``fixtures/a5.cayley`` under four (sigma, Pi)
  choices: a family that exists and is conjugate, a containment failure,
  and empty Hall families. Small top lattice; the time goes to valencies of
  sub-lattices, sigma-chain search and re-validating section quotients.
- ``quotient-corpus``: about 137 small inputs, mostly non-thin: the
  fixtures, every double-coset quotient of the small groups and of A5, and
  the two S5//C2 quotients, each under ``analyze`` and two ``verify`` runs.
  Fixed per-call costs dominate, so per-instance set-up added to speed big
  inputs shows here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("s5-lattice", "a5-hall", "quotient-corpus")

S5_GENERATORS = ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))

A5_VERIFY = (("smallest", "{2}"), ("2,3|5", "0"),
             ("smallest", "{3},{5}"), ("2|3,5", "1"))

CORPUS_VERIFY = (("smallest", "{2}"), ("2|3,5", "0"))


@dataclass(frozen=True)
class Job:
    """One CLI call. ``key`` names it independently of where its input lives."""

    key: str
    input: str
    argv: tuple[str, ...]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # sha256 of each input document, keyed by input name
    digests: dict[str, str] = field(default_factory=dict)
    # parsed hypergroup of each input of rank <= 8, for the naive oracles
    small: dict = field(default_factory=dict)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _analyze(name, path, cap):
    return Job(f"{name}/analyze", name,
               ("analyze", str(path), "--rank-cap", str(cap), "--machine"))


def _verify(name, path, cap, sigma, pi):
    return Job(f"{name}/verify {sigma} {pi}", name,
               ("verify", str(path), "--rank-cap", str(cap), "--machine",
                "--sigma", sigma, "--pi", pi))


def s5_table():
    from hypergroups import fixtures
    return fixtures.group_table(S5_GENERATORS)


def build(name: str, root: Path, workdir: Path) -> Workload:
    """Write the inputs of a workload into workdir and list its jobs."""
    if name == "s5-lattice":
        from hypergroups import fixtures
        text = fixtures.cayley_text(s5_table(), "s5")
        path = workdir / "s5.cayley"
        path.write_text(text, encoding="utf-8")
        return Workload(name, [_analyze("s5", path, 120)], {"s5": digest(text)})
    if name == "a5-hall":
        path = root / "fixtures" / "a5.cayley"
        jobs = [_verify("a5", path, 60, s, p) for s, p in A5_VERIFY]
        return Workload(name, jobs, {"a5": digest(path.read_text(encoding="utf-8"))})
    if name == "quotient-corpus":
        return _corpus(root, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _corpus_inputs(root: Path):
    """(name, text, hypergroup, fixture path or None) per corpus input, in a fixed order."""
    from hypergroups import (closed_subsets, closure, fixtures, load_any,
                             members, quotient, serialize_hypergroup)

    for path in sorted((root / "fixtures").iterdir()):
        if path.name == "a5.cayley":
            continue
        text = path.read_text(encoding="utf-8")
        yield path.name, text, load_any(text), path

    groups = dict(fixtures.group_corpus())
    groups["a5"] = fixtures.alt5().with_rank_cap(60)
    for gname, g in groups.items():
        for k in closed_subsets(g).subsets:
            if gname == "a5" and k == 1:
                continue
            q = quotient(g, k).quotient
            yield (f"{gname}//{'.'.join(map(str, members(k)))}",
                   serialize_hypergroup(q), q, None)

    # S5 over a transposition (rank 33) and over a double transposition
    # (rank 32): the largest non-thin inputs of the corpus.
    s5 = fixtures.thin_from_table(s5_table(), "s5")
    wanted = {33: "s5//transposition", 32: "s5//double-transposition"}
    for s in fixtures.involutions(s5):
        q = quotient(s5, closure(s5, {s})).quotient
        if q.rank in wanted:
            yield wanted.pop(q.rank), serialize_hypergroup(q), q, None
        if not wanted:
            break


def _corpus(root: Path, workdir: Path) -> Workload:
    wl = Workload("quotient-corpus", [])
    for i, (name, text, h, path) in enumerate(_corpus_inputs(root)):
        if path is None:
            path = workdir / f"q{i:03d}.hg"
            path.write_text(text, encoding="utf-8")
        wl.digests[name] = digest(text)
        if h.rank <= 8:
            wl.small[name] = h
        wl.jobs.append(_analyze(name, path, 64))
        wl.jobs.extend(_verify(name, path, 64, s, p) for s, p in CORPUS_VERIFY)
    return wl
