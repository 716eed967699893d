"""Acceptance gate: one timed check per shipped guarantee.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion with its runtime against the pinned budget.
"""

import time
from itertools import chain, combinations

from hypergroups import (
    SMALLEST,
    ValencyUndefinedError,
    cayley_to_hypergroup,
    closed_subsets,
    closure,
    hall_subsets_enumerated,
    is_pi_number,
    is_pi_valenced,
    is_residually_thin,
    is_sigma_solvable,
    is_solvable,
    mask_of,
    members,
    parse_selection,
    pi_radical,
    prime_factors,
    quotient,
    subnormal_closed_subsets,
    valency,
    valency_of,
    validate,
    verify_hall,
)
from hypergroups import fixtures as fx

import instance_checks
from instance_checks import is_thin, isomorphic
from oracles import GroupOracle, chain_products

K2_TABLE = [[{0}, {1}], [{1}, {0, 1}]]


def _gate(label, budget, t0, violations):
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < budget
    print(f"[{'PASS' if ok else 'FAIL'}] {label} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert not violations, violations[:10]
    assert elapsed < budget, f"{elapsed:.2f}s over budget {budget}s"


def _selections(primes):
    subsets = chain.from_iterable(
        combinations(sorted(primes), k) for k in range(len(primes) + 1))
    return [parse_selection(",".join("{%d}" % p for p in sel), SMALLEST)
            for sel in subsets]


def test_criterion_axiom_validator(corpus):
    t0 = time.perf_counter()
    bad = []
    for name in ("c2", "k2", "s3", "d4", "q8", "a4", "s4"):
        h = corpus[name]
        if not validate(h.table, h.star).valid:
            bad.append(f"{name} rejected")
    mutations = [((0, 0), {1}, "H2"), ((1, 0), {0}, "H2"),
                 ((0, 1), {0}, "UNIT"), ((1, 1), {1}, "H3")]
    for pos, value, axiom in mutations:
        table = [row[:] for row in K2_TABLE]
        table[pos[0]][pos[1]] = value
        report = validate(table, [0, 1])
        if report.valid or axiom not in {v.axiom for v in report.violations}:
            bad.append(f"mutation at {pos} missed {axiom}")
    _gate("axiom validator on fixtures and k2 mutations", 1.0, t0, bad)


def test_criterion_thin_valency_from_cayley(groups):
    t0 = time.perf_counter()
    bad = []
    for name, h in groups.items():
        text = fx.cayley_text(fx.int_table(h), name)
        ingested = cayley_to_hypergroup(text)
        if valency(ingested) != h.rank:
            bad.append(f"{name}: valency {valency(ingested)} != order {h.rank}")
    _gate("thin valency equals group order via Cayley ingestion", 10.0, t0, bad)


def test_criterion_non_rt_detection(corpus):
    t0 = time.perf_counter()
    bad = []
    k2 = corpus["k2"]
    if is_residually_thin(k2):
        bad.append("k2 reported residually thin")
    try:
        valency(k2)
        bad.append("valency(k2) did not error")
    except ValencyUndefinedError:
        pass
    _gate("non residually thin detection on k2", 1.0, t0, bad)


def test_criterion_quotient_isomorphisms(corpus):
    t0 = time.perf_counter()
    bad = []
    s3, k2, c2 = corpus["s3"], corpus["k2"], corpus["c2"]
    refl = closure(s3, [fx.involutions(s3)[0]])
    phi = isomorphic(quotient(s3, refl).quotient, k2)
    if phi is None:
        bad.append("s3 over a reflection subgroup not isomorphic to k2")
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    psi = isomorphic(quotient(s3, closure(s3, [rot])).quotient, c2)
    if psi is None:
        bad.append("s3 over the rotation subgroup not isomorphic to c2")
    _gate("quotient isomorphism witnesses", 1.0, t0, bad)


def test_criterion_valency_well_defined(corpus, group_quotients):
    # Over every thin chain from {0} to every closed subset it reaches.
    t0 = time.perf_counter()
    bad = []
    for name, h in [*corpus.items(), *group_quotients.items()]:
        for c, products in chain_products(h).items():
            if len(products) != 1:
                bad.append(f"{name}, {members(c)}: chain products {sorted(products)}")
    _gate("valency independent of the chain", 30.0, t0, bad)


def test_criterion_instance_checks_rank_at_most_8(small_corpus):
    t0 = time.perf_counter()
    bad = []
    for h in small_corpus.values():
        for check in instance_checks.ALL_CHECKS:
            bad.extend(check(h))
    _gate("quotient and valency facts, exhaustive at rank <= 8", 60.0, t0, bad)


def test_criterion_smallest_partition_agreement(corpus):
    t0 = time.perf_counter()
    bad = []
    for name, h in corpus.items():
        if not is_residually_thin(h):
            continue
        if is_sigma_solvable(h, SMALLEST) != is_solvable(h):
            bad.append(f"{name}: smallest-partition disagreement")
    _gate("smallest partition matches prime-step chains on residually thin "
          "fixtures", 30.0, t0, bad)


def test_criterion_hall_end_to_end_vs_oracle(groups):
    t0 = time.perf_counter()
    bad = []
    for name, h in groups.items():
        oracle = GroupOracle(fx.int_table(h))
        for pi in _selections(prime_factors(h.rank)):
            selected = set().union(*pi.selected) if pi.selected else set()
            report = verify_hall(h, SMALLEST, pi)
            if not report.hypotheses_hold:
                bad.append(f"{name} {pi}: hypotheses unexpectedly fail")
                continue
            want = {mask_of(s) for s in oracle.hall_subgroups(selected)}
            got = set(report.hall_subsets)
            if got != want:
                bad.append(f"{name} {pi}: enumerated {got} oracle {want}")
                continue
            if not got:
                bad.append(f"{name} {pi}: no Hall subsets found")
            if report.constructive not in got:
                bad.append(f"{name} {pi}: constructive output not in family")
            for s, tt, w in report.conjugacy_witnesses:
                if w is None:
                    bad.append(f"{name} {pi}: missing conjugacy witness")
                elif oracle.conjugate(set(members(s)), w) != frozenset(members(tt)):
                    bad.append(f"{name} {pi}: bad conjugacy witness")
            pi_subgroups = {mask_of(s) for s in oracle.pi_subgroups(selected)}
            covered = dict(report.containment_witnesses)
            if set(covered) != pi_subgroups:
                bad.append(f"{name} {pi}: Pi-subset family mismatch")
            for c, home in covered.items():
                if home is None or c & ~home:
                    bad.append(f"{name} {pi}: containment fails for "
                               f"{list(members(c))}")
    _gate("Hall conclusions against the subgroup-scan oracle", 120.0, t0, bad)


def test_criterion_order60_sharpness():
    t0 = time.perf_counter()
    bad = []
    a5 = fx.alt5().with_rank_cap(60)
    if is_sigma_solvable(a5, SMALLEST):
        bad.append("order-60 simple group reported sigma-solvable")
    pi = parse_selection("{2},{5}", SMALLEST)
    halls = hall_subsets_enumerated(a5, SMALLEST, pi)
    if halls != ():
        bad.append(f"unexpected Hall subsets {halls}")
    _gate("sharpness on the order-60 simple group", 60.0, t0, bad)


def test_criterion_radical_properties(corpus):
    t0 = time.perf_counter()
    bad = []
    for name, h in corpus.items():
        if not is_residually_thin(h):
            continue
        primes = prime_factors(valency(h))
        for pi in _selections(set(primes) | {5}):
            if not is_pi_valenced(h, SMALLEST, pi):
                continue
            rad = pi_radical(h, SMALLEST, pi)
            for u in subnormal_closed_subsets(h):
                if is_pi_number(valency_of(h, u), SMALLEST, pi) and u & ~rad:
                    bad.append(f"{name} {pi}: subnormal Pi-subset escapes")
            if (rad, h.full) not in closed_subsets(h).strongly_normal_in:
                bad.append(f"{name} {pi}: radical not strongly normal")
            if not is_thin(quotient(h, rad).quotient):
                bad.append(f"{name} {pi}: quotient over radical not thin")
    _gate("radical contains, is strongly normal, gives thin quotient",
          60.0, t0, bad)
