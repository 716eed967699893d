"""Command line surface over hypergroup files.

Commands: validate, analyze, quotient, hall, radical, verify, convert.
Input files may be native hypergroup documents, Cayley tables or scheme
matrices; non-native formats are converted on load. Exit codes: 0 success,
1 property or verification failure, 2 input error. With --machine the
report is a JSON object with stable, sorted keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bitset import members
from .core import FiniteHypergroup, ValidationReport, closure, thin_elements
from .errors import (
    HypergroupError,
    HypothesisViolationError,
    InvalidHypergroupError,
    ParseError,
    PartitionSyntaxError,
    RankCapError,
    StructuralError,
    ValencyUndefinedError,
)
from .formats import load_any, load_as, serialize_hypergroup
from .hall import pi_radical, solvability_suite, verify_hall
from .lattice import closed_subsets
from .quotient import quotient
from .sigma import parse_partition, parse_selection
from .valency import is_residually_thin, valency

# A table failing the axioms while a file is read for analysis is corrupt input.
INPUT_ERRORS = (OSError, UnicodeDecodeError, ParseError, StructuralError,
                PartitionSyntaxError, RankCapError, InvalidHypergroupError)


def _emit(args, machine_obj, human_lines):
    if args.machine:
        print(json.dumps(machine_obj, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(args) -> FiniteHypergroup:
    h = load_any(_read(args.file))
    if args.rank_cap is not None:
        h = h.with_rank_cap(args.rank_cap)
    return h


def _sets(masks) -> list[list[int]]:
    return [list(members(m)) for m in masks]


def _set_or_none(mask) -> list[int] | None:
    return None if mask is None else list(members(mask))


def _flags(report) -> dict[str, bool]:
    return {
        "is_residually_thin": report.is_rt,
        "is_sigma_solvable": report.is_sigma_solvable,
        "is_pi_valenced": report.is_pi_valenced,
    }


def _sigma_pi(args):
    sigma = parse_partition(args.sigma)
    pi = parse_selection(args.pi, sigma)
    return sigma, pi


def cmd_validate(args) -> int:
    # Every reader returns only axiom-checked hypergroups; a native table
    # that fails the check carries its report.
    text = _read(args.file)
    try:
        load_any(text)
        report = ValidationReport(valid=True, violations=())
    except InvalidHypergroupError as exc:
        report = exc.report
    machine = {
        "command": "validate",
        "valid": report.valid,
        "violations": [{"axiom": v.axiom, "witness": list(v.witness)}
                       for v in report.violations],
    }
    human = [f"valid: {'yes' if report.valid else 'no'}"]
    human += [f"violation: {v.axiom} witness {v.witness}" for v in report.violations]
    _emit(args, machine, human)
    return 0 if report.valid else 1


def cmd_analyze(args) -> int:
    h = _load(args)
    lat = closed_subsets(h)
    thin = thin_elements(h)
    rt = is_residually_thin(h)
    val = valency(h) if rt else None
    machine = {
        "command": "analyze",
        "rank": h.rank,
        "thin_elements": list(members(thin)),
        "thin_count": thin.bit_count(),
        "is_thin": thin == h.full,
        "closed_subsets": len(lat.subsets),
        "is_residually_thin": rt,
        "valency": val,
        "normal_pairs": len(lat.normal_in),
        "strongly_normal_pairs": len(lat.strongly_normal_in),
    }
    human = [
        f"rank: {h.rank}",
        f"thin elements: {thin.bit_count()} of {h.rank}",
        f"closed subsets: {len(lat.subsets)}",
        f"residually thin: {'yes' if rt else 'no'}",
        f"valency: {val if val is not None else 'undefined'}",
        f"normal pairs: {len(lat.normal_in)}",
        f"strongly normal pairs: {len(lat.strongly_normal_in)}",
    ]
    _emit(args, machine, human)
    return 0


def cmd_quotient(args) -> int:
    h = _load(args)
    spec = args.generators.strip()
    try:
        gens = [int(tok) for tok in spec.split(",") if tok.strip()] if spec else []
    except ValueError:
        raise StructuralError(f"bad generator list {spec!r}") from None
    if any(g < 0 or g >= h.rank for g in gens):
        raise StructuralError("generator index out of range")
    f = closure(h, gens)
    sys.stdout.write(serialize_hypergroup(quotient(h, f).quotient))
    return 0


def cmd_hall(args) -> int:
    h = _load(args)
    sigma, pi = _sigma_pi(args)
    report = verify_hall(h, sigma, pi)
    flags = _flags(report)
    machine = {"command": "hall", "flags": flags,
               "radical": _set_or_none(report.radical)}
    human = [f"{k}: {'yes' if v else 'no'}" for k, v in flags.items()]
    human.append("radical: " + _set_str(report.radical))
    if args.constructive:
        found = report.constructive
        machine.update(mode="constructive", hall_subset=_set_or_none(found),
                       note=report.constructive_note)
        human.append("hall subset: " + _set_str(found))
        if report.constructive_note:
            human.append(f"note: {report.constructive_note}")
        ok = found is not None
    else:
        machine.update(mode="enumerate", hall_subsets=_sets(report.hall_subsets))
        human.append(f"hall subsets: {len(report.hall_subsets)}")
        human += ["  " + _set_str(m) for m in report.hall_subsets]
        ok = bool(report.hall_subsets)
    _emit(args, machine, human)
    return 0 if ok else 1


def _set_str(mask) -> str:
    if mask is None:
        return "(none)"
    return "{" + ",".join(map(str, members(mask))) + "}"


def cmd_radical(args) -> int:
    h = _load(args)
    sigma, pi = _sigma_pi(args)
    try:
        rad = pi_radical(h, sigma, pi)
    except (ValencyUndefinedError, HypothesisViolationError) as exc:
        print(f"radical unavailable: {exc}", file=sys.stderr)
        return 1
    _emit(args, {"command": "radical", "radical": list(members(rad))},
          ["radical: " + _set_str(rad)])
    return 0


def cmd_verify(args) -> int:
    h = _load(args)
    sigma, pi = _sigma_pi(args)
    report = verify_hall(h, sigma, pi)
    suite = solvability_suite(h, sigma)
    ok = report.hypotheses_hold and report.conclusions_hold and suite.passed
    machine = {
        "command": "verify",
        "flags": _flags(report),
        "radical": _set_or_none(report.radical),
        "hall_subsets": _sets(report.hall_subsets),
        "constructive": _set_or_none(report.constructive),
        "conclusions": {
            "exists": report.conclusion_exists,
            "conjugate": report.conclusion_conjugate,
            "containment": report.conclusion_containment,
        },
        "conjugacy": [
            {"pair": [list(members(s)), list(members(t))], "witness": w}
            for s, t, w in report.conjugacy_witnesses],
        "containment": [
            {"subset": list(members(c)), "hall": _set_or_none(hm)}
            for c, hm in report.containment_witnesses],
        "suite": [{"check": c.name, "applicable": c.applicable,
                   "passed": c.passed, "violations": list(c.violations)}
                  for c in suite.checks],
        "all_passed": ok,
    }
    human = [
        f"residually thin: {'yes' if report.is_rt else 'no'}",
        f"sigma-solvable: {'yes' if report.is_sigma_solvable else 'no'}",
        f"Pi-valenced: {'yes' if report.is_pi_valenced else 'no'}",
        "radical: " + _set_str(report.radical),
        f"hall subsets: {len(report.hall_subsets)}",
    ]
    human += ["  " + _set_str(m) for m in report.hall_subsets]
    human += [
        "constructive: " + _set_str(report.constructive),
        f"conclusion exists: {'pass' if report.conclusion_exists else 'fail'}",
        f"conclusion conjugate: {'pass' if report.conclusion_conjugate else 'fail'}",
        f"conclusion containment: "
        f"{'pass' if report.conclusion_containment else 'fail'}",
    ]
    for c in suite.checks:
        human.append(f"suite {c.name}: {'pass' if c.passed else 'fail'} "
                     f"({c.applicable} instances)")
    human.append(f"overall: {'pass' if ok else 'fail'}")
    _emit(args, machine, human)
    return 0 if ok else 1


def cmd_convert(args) -> int:
    h = load_as(_read(args.file), args.from_format)
    sys.stdout.write(serialize_hypergroup(h))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypergroups",
        description="Analyze finite hypergroups given as multiplication tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sigma_pi=False):
        p.add_argument("file", help="input document")
        p.add_argument("--machine", action="store_true",
                       help="JSON output with stable keys")
        p.add_argument("--rank-cap", type=int, default=None,
                       help="raise the exhaustive-lattice refusal threshold")
        if sigma_pi:
            p.add_argument("--sigma", default="smallest",
                           help="prime partition, e.g. '2,3|5' or 'smallest'")
            p.add_argument("--pi", required=True,
                           help="class selection: indices '0,2', literals "
                                "'{2},{5}', or 'all'")

    p = sub.add_parser("validate", help="check the axioms of a table")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="rank, thin elements, lattice, valency")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("quotient", help="quotient over the closure of generators")
    common(p)
    p.add_argument("generators", nargs="?", default="",
                   help="comma-separated element indices")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("hall", help="Hall subsets for a class selection")
    common(p, sigma_pi=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--enumerate", dest="constructive", action="store_false",
                      help="lattice scan (default)")
    mode.add_argument("--constructive", dest="constructive", action="store_true",
                      help="build one Hall subset through the radical")
    p.set_defaults(func=cmd_hall, constructive=False)

    p = sub.add_parser("radical", help="largest subnormal closed Pi-subset")
    common(p, sigma_pi=True)
    p.set_defaults(func=cmd_radical)

    p = sub.add_parser("verify", help="Hall conclusions and solvability suite")
    common(p, sigma_pi=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="convert Cayley or scheme input to native")
    common(p)
    p.add_argument("--from", dest="from_format", required=True,
                   choices=("cayley", "scheme"))
    p.set_defaults(func=cmd_convert)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call of main: a build
    costs about as much as a small job, and building at import would add
    it to every start-up that never parses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        return _fail(str(exc), 2)
    except HypergroupError as exc:
        return _fail(str(exc), 1)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
