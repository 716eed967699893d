import importlib
import sys
from collections import Counter
from itertools import combinations, product
from math import prod

import pytest

from hypergroups import (
    FiniteHypergroup,
    PiSelection,
    HypergroupError,
    HypothesisViolationError,
    SMALLEST,
    SearchExhaustedError,
    ValencyUndefinedError,
    are_conjugate,
    closed_subsets,
    closure,
    complex_product,
    hall_subset_constructive,
    hall_subsets_enumerated,
    is_pi_number,
    is_pi_valenced,
    is_prime,
    is_residually_thin,
    is_sigma_solvable,
    is_solvable,
    mask_of,
    members,
    parse_partition,
    parse_selection,
    pi_radical,
    pi_valenced_violation,
    prime_factors,
    quotient,
    rt_chain,
    section_quotient,
    sigma_solvable_chain,
    solvability_suite,
    spans_single_class,
    star_set,
    step_orders,
    subnormal_closed_subsets,
    thin_elements,
    valency,
    valency_of,
    verify_hall,
)
from hypergroups import fixtures as fx
from hypergroups import core, hall, lattice
from hypergroups.cli import main
from hypergroups.valency import thin_sweeps

from instance_checks import is_thin
from oracles import (
    climb,
    naive_are_conjugate,
    naive_double_cosets,
    naive_hall_constructive,
    naive_pi_valenced_violation,
    naive_product,
    naive_solvability_suite,
    naive_subnormal,
    sets_of,
)

quotient_module = importlib.import_module("hypergroups.quotient")


def _sel(text, sigma=SMALLEST):
    return parse_selection(text, sigma)


def _a3(s3):
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    return closure(s3, [rot])


def test_sigma_chain_s3_smallest(corpus):
    s3 = corpus["s3"]
    chain = sigma_solvable_chain(s3, SMALLEST)
    assert chain is not None
    assert chain == (1, _a3(s3), s3.full)
    assert step_orders(s3, chain) == (3, 2)
    steps = zip(chain, chain[1:])
    for (lo, hi), order in zip(steps, step_orders(s3, chain)):
        q = section_quotient(s3, lo, hi).quotient
        assert is_thin(q) and q.rank == order
        assert spans_single_class(order, SMALLEST)


def test_sigma_chain_coarse_partition(corpus):
    s3 = corpus["s3"]
    sig = parse_partition("2,3")
    chain = sigma_solvable_chain(s3, sig)
    assert chain is not None
    assert chain == (1, s3.full)
    assert step_orders(s3, chain) == (6,)


def test_k2_never_sigma_solvable(corpus):
    k2 = corpus["k2"]
    for sig in (SMALLEST, parse_partition("2,3|5")):
        assert sigma_solvable_chain(k2, sig) is None
        assert not is_sigma_solvable(k2, sig)


def test_thin_solvable_groups_are_sigma_solvable(groups):
    for h in groups.values():
        assert is_sigma_solvable(h, SMALLEST)
        assert is_solvable(h)


def test_a5_sigma_solvability():
    a5 = fx.alt5().with_rank_cap(60)
    assert not is_sigma_solvable(a5, SMALLEST)
    assert is_sigma_solvable(a5, parse_partition("2,3,5"))
    assert not is_solvable(a5)


def test_derived_quotients_solvable(corpus):
    for name in ("d4_mod_refl", "d4_mod_center", "q8_mod_center",
                 "s3_mod_a3", "s4_mod_klein"):
        assert is_sigma_solvable(corpus[name], SMALLEST), name


def test_subnormal_closed_subsets(corpus):
    s3, d4 = corpus["s3"], corpus["d4"]
    subs = subnormal_closed_subsets(s3)
    assert set(subs) == {1, _a3(s3), s3.full}
    # 2-groups: everything subnormal
    assert set(subnormal_closed_subsets(d4)) == set(closed_subsets(d4).subsets)


def test_subnormal_closed_subsets_match_the_oracle(corpus, groups):
    # Against backward reachability over the naive normal pairs, on every
    # corpus member and every G//K of the group members, up to rank 8.
    inputs = [*corpus.values(),
              *(quotient(g, k).quotient for g in groups.values()
                for k in closed_subsets(g).subsets)]
    for h in inputs:
        if h.rank > 8:
            continue
        table, star = sets_of(h)
        oracle = {mask_of(s) for s in naive_subnormal(table, star)}
        assert set(subnormal_closed_subsets(h)) == oracle, h.name


def test_pi_valenced_thin_fixtures(groups):
    # direct evaluation of the definition over all subnormal subsets
    for h in groups.values():
        for text in ("{2}", "{3}", "{2},{3}", "all", ""):
            assert is_pi_valenced(h, SMALLEST, _sel(text)), (h.name, text)


def test_pi_valenced_everything_selection(corpus):
    every = _sel("all")
    for h in corpus.values():
        if is_residually_thin(h):
            assert is_pi_valenced(h, SMALLEST, every)


def test_pi_valenced_counterexample_rank3_quotient(corpus):
    # the non-thin block b of d4_mod_refl has b* b equal to the two thin
    # elements, of size 2, so the {3} selection fails with witness at the
    # trivial subnormal subset
    h = corpus["d4_mod_refl"]
    witness = pi_valenced_violation(h, SMALLEST, _sel("{3}"))
    assert witness is not None
    u, elem = witness
    assert u == 1
    s = complex_product(h, star_set(h, mask_of([elem])), mask_of([elem]))
    assert s & ~thin_elements(h) == 0
    assert s.bit_count() == 2
    assert is_pi_valenced(h, SMALLEST, _sel("{2}"))


def test_pi_valenced_requires_residual_thinness(corpus):
    # One refusal: the ValencyUndefinedError of valency(H), with its message.
    for scan in (is_pi_valenced, pi_radical, hall_subsets_enumerated):
        with pytest.raises(ValencyUndefinedError,
                           match="^k2 is not residually thin, valency undefined$"):
            scan(corpus["k2"], SMALLEST, _sel("{2}"))


def test_pi_radical_s3(corpus):
    s3 = corpus["s3"]
    assert pi_radical(s3, SMALLEST, _sel("{3}")) == _a3(s3)
    assert pi_radical(s3, SMALLEST, _sel("{2}")) == 1
    assert pi_radical(s3, SMALLEST, _sel("all")) == s3.full


def test_pi_radical_s4(corpus):
    s4 = corpus["s4"]
    rad2 = pi_radical(s4, SMALLEST, _sel("{2}"))
    assert rad2.bit_count() == 4  # the normal Klein subgroup
    assert pi_radical(s4, SMALLEST, _sel("{3}")) == 1
    assert pi_radical(s4, SMALLEST, _sel("{2},{3}")) == s4.full


def test_pi_radical_properties(corpus):
    for h in corpus.values():
        if not is_residually_thin(h):
            continue
        for text in ("", "{2}", "{3}", "{2},{3}", "{5}", "all"):
            pi = _sel(text)
            if not is_pi_valenced(h, SMALLEST, pi):
                continue
            rad = pi_radical(h, SMALLEST, pi)
            for u in subnormal_closed_subsets(h):
                if is_pi_number(valency_of(h, u), SMALLEST, pi):
                    assert u & ~rad == 0
            assert (rad, h.full) in closed_subsets(h).strongly_normal_in
            assert is_thin(quotient(h, rad).quotient)


def test_pi_radical_violation_outside_hypotheses(corpus):
    # d4_mod_refl is not {3}-valenced and its {3}-radical guarantees break:
    # the trivial subset is the largest {3}-subset but the quotient over it
    # is not thin.
    h = corpus["d4_mod_refl"]
    with pytest.raises(HypothesisViolationError) as info:
        pi_radical(h, SMALLEST, _sel("{3}"))
    assert info.value.diagnostics == (
        "radical is not strongly normal in the full set",
        "quotient over the radical is not thin")


def test_hall_enumeration_s3(corpus):
    s3 = corpus["s3"]
    halls2 = hall_subsets_enumerated(s3, SMALLEST, _sel("{2}"))
    assert len(halls2) == 3
    assert all(m.bit_count() == 2 for m in halls2)
    assert hall_subsets_enumerated(s3, SMALLEST, _sel("{3}")) == (_a3(s3),)
    assert hall_subsets_enumerated(s3, SMALLEST, _sel("all")) == (s3.full,)
    assert hall_subsets_enumerated(s3, SMALLEST, _sel("")) == (1,)


def test_hall_constructive_s3(corpus):
    s3 = corpus["s3"]
    got = hall_subset_constructive(s3, SMALLEST, _sel("{2}"))
    assert got in hall_subsets_enumerated(s3, SMALLEST, _sel("{2}"))
    sig = parse_partition("2,3")
    assert hall_subset_constructive(s3, sig, parse_selection("0", sig)) == s3.full


def test_hall_constructive_refuses_off_hypotheses(corpus):
    with pytest.raises(HypothesisViolationError):
        hall_subset_constructive(corpus["k2"], SMALLEST, _sel("{2}"))
    a5 = fx.alt5().with_rank_cap(60)
    with pytest.raises(HypothesisViolationError):
        hall_subset_constructive(a5, SMALLEST, _sel("{2},{5}"))


def test_are_conjugate(corpus):
    s3 = corpus["s3"]
    halls = hall_subsets_enumerated(s3, SMALLEST, _sel("{2}"))
    assert are_conjugate(s3, halls[0], halls[0]) == 0
    w = are_conjugate(s3, halls[0], halls[1])
    assert w is not None
    a3 = _a3(s3)
    assert are_conjugate(s3, a3, halls[0]) is None


def test_s4_mod_c2_conjugacy_needs_non_thin_witnesses():
    # S4 over a subgroup of order 2: rank 8, thin elements {0,1,6,7}. With
    # sigma 3|2 and Pi {2} the hypotheses hold and the Hall subsets are
    # {0,2,6}, {0,5,6} and {0,1,6,7}. The first two are swapped by the thin
    # element 1; only non-thin elements join either of them to the third.
    s4 = fx.sym4()
    q = quotient(s4, closure(s4, [3])).quotient
    assert q.rank == 8 and members(thin_elements(q)) == (0, 1, 6, 7)
    sig = parse_partition("3|2")
    rep = verify_hall(q, sig, parse_selection("{2}", sig))
    assert [members(c) for c in rep.hall_subsets] == [
        (0, 2, 6), (0, 5, 6), (0, 1, 6, 7)]
    witnesses = [w for _, _, w in rep.conjugacy_witnesses]
    assert witnesses == [1, 5, 2]
    assert [bool(thin_elements(q) >> w & 1) for w in witnesses] == [
        True, False, False]
    assert rep.hypotheses_hold and rep.conclusions_hold


def test_f21_hall_hypotheses_hold(f21):
    rep = verify_hall(f21, SMALLEST, _sel("{3}"))
    assert rep.hypotheses_hold
    assert len(rep.hall_subsets) == 7


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: are_conjugate asks for "
                   "one element that swaps S and T; no involution exists in F21")
def test_f21_hall_subsets_are_conjugate(f21):
    assert verify_hall(f21, SMALLEST, _sel("{3}")).conclusion_conjugate


def test_verify_hall_s3(corpus):
    s3 = corpus["s3"]
    rep = verify_hall(s3, SMALLEST, _sel("{2}"))
    assert rep.hypotheses_hold and rep.conclusions_hold
    assert len(rep.hall_subsets) == 3
    assert len(rep.conjugacy_witnesses) == 3
    assert all(w is not None for _, _, w in rep.conjugacy_witnesses)
    rep3 = verify_hall(s3, SMALLEST, _sel("{3}"))
    assert rep3.conclusions_hold
    assert rep3.hall_subsets == (_a3(s3),)


def test_verify_hall_k2_informational(corpus):
    rep = verify_hall(corpus["k2"], SMALLEST, _sel("{2}"))
    assert not rep.is_rt and not rep.is_sigma_solvable and not rep.is_pi_valenced
    assert rep.hall_subsets == ()
    assert not rep.conclusion_exists


def test_verify_hall_a5_sharpness():
    a5 = fx.alt5().with_rank_cap(60)
    rep = verify_hall(a5, SMALLEST, _sel("{2},{5}"))
    assert rep.is_rt
    assert not rep.is_sigma_solvable
    assert rep.hall_subsets == ()
    assert not rep.conclusion_exists


def test_no_thin_forcing_counterexamples(corpus):
    # When no nontrivial subnormal subset has selection-number valency and
    # every all-thin adjoint square has selection-number size, the whole
    # hypergroup must be thin. Checked wherever the antecedent holds.
    for h in corpus.values():
        if not is_residually_thin(h):
            continue
        for text in ("", "{2}", "{3}", "{2},{3}", "all"):
            pi = _sel(text)
            nontrivial = [u for u in subnormal_closed_subsets(h)
                          if u != 1 and is_pi_number(valency_of(h, u), SMALLEST, pi)]
            if nontrivial:
                continue
            thin = thin_elements(h)
            squares_ok = True
            for e in range(h.rank):
                s = complex_product(h, star_set(h, mask_of([e])), mask_of([e]))
                if s & ~thin == 0 and not is_pi_number(s.bit_count(), SMALLEST, pi):
                    squares_ok = False
            if squares_ok:
                assert is_thin(h), (h.name, text)


def test_pi_valence_on_two_disjoint_sides_forces_thinness(corpus, group_quotients, f21):
    """Let H be residually thin and not thin. Then some h has h*h made of
    thin elements with |h*h| >= 2. So H is Pi-valenced only for selections
    Pi whose classes hold every prime of every such |h*h|.

    The proof reads "Pi-valenced" as pi_valenced_violation does, since
    PAPER.md holds only the abstract.

    1. Take a thin chain {0} = C0 < ... < Ck = H. Let j be least with C_j
       not thin, so C_(j-1) is a closed subset of thin elements.
    2. C_(j-1) is strongly normal in C_j, so C_j//C_(j-1) is thin. Then for
       every h in C_j, the lift C h* C h C of that block's h'* h' is C =
       C_(j-1) (quotient's docstring). So h*h lies in C_(j-1) and consists
       of thin elements.
    3. Some h in C_j is not thin, so h*h != {0}, and |h*h| >= 2.
    4. U = {0} is closed and subnormal, with valency 1, a Pi-number for
       every Pi. Its blocks are the elements. So pi_valenced_violation
       asks that |h*h| be a Pi-number.

    So no such H is Pi-valenced for two disjoint selections of one
    partition: a prime of |h*h| lies in one class, which at most one of
    them holds. Checked on rt_chain's path, under three partitions, over
    every disjoint pair of nonempty selections of the valency's classes.
    No code relies on the lemma.
    """
    inputs = [*corpus.values(), *group_quotients.values(),
              fx.alt5().with_rank_cap(60), f21]
    partitions = (SMALLEST, parse_partition("2|3,5"), parse_partition("2,3|5"))
    non_thin = pairs = 0
    for h in inputs:
        chain = rt_chain(h)
        thin = thin_elements(h)
        if chain is None or thin == h.full:
            continue
        non_thin += 1
        j = next(j for j, c in enumerate(chain) if c & ~thin)
        below = chain[j - 1]
        assert not below & ~thin, h.name
        for x in members(chain[j] & ~thin):
            xx = complex_product(h, 1 << h.star[x], 1 << x)
            assert not xx & ~below and xx.bit_count() >= 2, (h.name, x)
        primes = prime_factors(valency(h))
        for sigma in partitions:
            classes = sorted({sigma.class_of(p) for p in primes}, key=min)
            selections = [frozenset(picked) for r in range(1, len(classes) + 1)
                          for picked in combinations(classes, r)]
            for a, b in combinations(selections, 2):
                if a & b:
                    continue
                pairs += 1
                assert not (is_pi_valenced(h, sigma, PiSelection(a))
                            and is_pi_valenced(h, sigma, PiSelection(b))), \
                    (h.name, str(sigma), a, b)
    # 11 residually thin inputs that are not thin, 12 disjoint pairs.
    assert (non_thin, pairs) == (11, 12)


def test_hall_systems_of_thin_inputs_exist_and_are_conjugate(corpus, groups, f21):
    """Hall systems are the sigma analogue of P. Hall's Sylow systems (P.
    Hall, On the Sylow systems of a soluble group, Proc. London Math. Soc.
    (2) 43, 1937): one Hall sigma_i-subset per class sigma_i of the
    valency's primes, pairwise permutable. On each thin input, a group,
    and each partition with at least two such classes whose Hall
    hypotheses hold for every single class, a system exists, and for any
    two systems one element h carries them member by member, h* S_i h =
    T_i. Permutability and conjugacy are checked with products on python
    sets, not with are_conjugate: a second route for the group case of the
    Hall conclusions.
    """
    partitions = (SMALLEST, parse_partition("2|3,5"), parse_partition("2,3|5"))
    cases = pairs = 0
    for h in [*_quotient_inputs(corpus, groups), f21]:
        if thin_elements(h) != h.full:
            continue
        table, star = sets_of(h)
        primes = prime_factors(valency(h))
        for sigma in partitions:
            classes = sorted({sigma.class_of(p) for p in primes}, key=min)
            pis = [PiSelection(frozenset([c])) for c in classes]
            if len(pis) < 2 or not all(
                    verify_hall(h, sigma, pi).hypotheses_hold for pi in pis):
                continue
            cases += 1
            families = [[frozenset(members(c))
                         for c in hall_subsets_enumerated(h, sigma, pi)]
                        for pi in pis]
            systems = [system for system in product(*families)
                       if all(naive_product(table, a, b) ==
                              naive_product(table, b, a)
                              for a, b in combinations(system, 2))]
            assert systems, (h.name, str(sigma))
            for a, b in combinations(systems, 2):
                pairs += 1
                assert any(all(naive_product(table, {star[x]},
                                             naive_product(table, s, {x})) == t
                               for s, t in zip(a, b))
                           for x in range(h.rank)), (h.name, str(sigma))
    # 19 (input, partition) cases, 375 pairs of systems.
    assert (cases, pairs) == (19, 375)


def test_two_class_partition_matches_smallest_on_radicals(corpus):
    # A partition into {2} and everything-else behaves like the smallest
    # partition with the {2} class selected, on every fixture valency.
    sig = parse_partition("2|3,5,7,11,13,17,19,23")
    pi_split = parse_selection("0", sig)
    pi_small = _sel("{2}")
    for h in corpus.values():
        if not is_residually_thin(h):
            continue
        if not is_pi_valenced(h, sig, pi_split):
            continue
        assert pi_radical(h, sig, pi_split) == pi_radical(h, SMALLEST, pi_small)
        assert hall_subsets_enumerated(h, sig, pi_split) == \
            hall_subsets_enumerated(h, SMALLEST, pi_small)


def test_solvability_suite_passes_on_corpus(corpus):
    for name, h in corpus.items():
        if h.rank > 8:
            continue
        for sig in (SMALLEST, parse_partition("2,3")):
            checks = solvability_suite(h, sig)
            assert all(c.passed for c in checks), \
                (name, str(sig), [c for c in checks if not c.passed])


def test_solvability_suite_counts(corpus):
    s3 = corpus["s3"]
    by_name = {c.name: c for c in solvability_suite(s3, SMALLEST)}
    assert by_name["closed_subsets_inherit_solvability"].applicable == 6
    assert by_name["smallest_partition_matches_prime_step_chains"].applicable == 1


def test_solvability_suite_matches_the_oracle(corpus, groups):
    # The suite reads each quotient H//E as a chain of H from E; the oracle
    # builds and decides every quotient. The reports agree on the corpus,
    # every G//K of the groups, and A5, under the smallest and a coarse
    # partition.
    inputs = [*corpus.values(),
              *(quotient(g, k).quotient for g in groups.values()
                for k in closed_subsets(g).subsets),
              fx.alt5().with_rank_cap(60)]
    for sig in (SMALLEST, parse_partition("2|3,5")):
        for h in inputs:
            assert solvability_suite(h, sig) == naive_solvability_suite(h, sig), \
                (h.name, str(sig))


def test_s5_sections_meet_the_hall_conclusions():
    # Every section G//K of S5 up to conjugacy: one G per class of S5's 19
    # classes of subgroups, each K <= G up to conjugation by G, read off
    # the stored automorphisms: 106 sections. Under three partitions and
    # every nonempty selection of the classes dividing the valency (none
    # where it is undefined), 219 cases, the hypotheses hold in 189, and
    # wherever they hold so do the three conclusions. The suite passes on
    # every section and partition.
    s5 = fx.sym5().with_rank_cap(120)
    subsets = closed_subsets(s5).subsets
    _, inducers, images = lattice.automorphisms(s5)
    classes = {}
    for g in subsets:
        classes.setdefault(min(lattice.orbit_images(images, g)), g)
    assert len(classes) == 19
    sections = []
    for g in classes.values():
        by_g = [j for j, hs in enumerate(inducers) if hs & g]
        under = {}
        for k in subsets:
            if not k & ~g:
                moved = tuple(lattice.orbit_images(images, k))
                under.setdefault(min(moved[j] for j in by_g), k)
        sections += [section_quotient(s5, k, g).quotient for k in under.values()]
    assert len(sections) == 106
    cases = held = 0
    for h in sections:
        for sig in (SMALLEST, parse_partition("2|3,5"), parse_partition("2,3|5")):
            assert all(c.passed for c in solvability_suite(h, sig)), (h.name, str(sig))
            if not is_residually_thin(h):
                continue
            chosen = sorted({sig.class_of(p) for p in prime_factors(valency(h))}, key=min)
            for r in range(1, len(chosen) + 1):
                for pi in combinations(chosen, r):
                    rep = verify_hall(h, sig, PiSelection(selected=frozenset(pi)))
                    cases += 1
                    held += rep.hypotheses_hold
                    assert rep.conclusions_hold or not rep.hypotheses_hold, \
                        (h.name, str(sig), sorted(map(sorted, pi)))
    assert (cases, held) == (219, 189)


def _quotient_inputs(corpus, groups):
    """The corpus, every G//K of the groups, and A5."""
    return [*corpus.values(),
            *(quotient(g, k).quotient for g in groups.values()
              for k in closed_subsets(g).subsets),
            fx.alt5().with_rank_cap(60)]


def test_quotient_chains_are_read_from_the_modulus(corpus, groups):
    # H//E has a thin chain under a rule iff H has one from E, and both
    # multiply to the same order (the correspondence proved in quotient's
    # docstring): the suite's route against the quotient built and
    # searched on its own.
    rules = (None, SMALLEST, parse_partition("2|3,5"), is_prime)
    for h in _quotient_inputs(corpus, groups):
        for e in closed_subsets(h).subsets:
            q = quotient(h, e).quotient
            for rule in rules:
                here = thin_sweeps(h, rule)[1].get(e)
                there = thin_sweeps(q, rule)[0].get(q.full)
                assert (here is None) == (there is None), (h.name, e, rule)
                if here is not None:
                    assert prod(step_orders(h, here)) == \
                        prod(step_orders(q, there)), (h.name, e, rule)


def _passes(rule, n):
    return is_prime(n) if rule is is_prime else spans_single_class(n, rule)


def test_sweeps_match_the_oracle_climb(corpus, groups, f21):
    # Every chain question of the form ({0}, C) or (E, full set) is
    # answered as the depth-first climb answers it, and every chain the
    # sweeps keep is a chain of the question asked. Step orders are counted
    # on python sets (naive_double_cosets), not read from step_orders.
    rules = (None, SMALLEST, parse_partition("2|3,5"), is_prime)
    for h in [*_quotient_inputs(corpus, groups), f21]:
        lat = closed_subsets(h)
        strong = lat.strongly_normal_in
        table, _ = sets_of(h)
        orders = {}

        def order(lo, hi):
            if (lo, hi) not in orders:
                orders[lo, hi] = len(naive_double_cosets(
                    table, members(lo), members(hi)))
            return orders[lo, hi]

        for rule in rules:
            step_ok = None if rule is None else (
                lambda lo, hi, rule=rule: _passes(rule, order(lo, hi)))
            up, down = thin_sweeps(h, rule)
            for c in lat.subsets:
                for bottom, top in ((1, c), (c, h.full)):
                    got = up.get(top) if bottom == 1 else down.get(bottom)
                    want = next(climb(h, strong, bottom, top, step_ok), None)
                    assert (got is None) == (want is None), \
                        (h.name, bottom, top, rule)
                    if got is None:
                        continue
                    assert (got[0], got[-1]) == (bottom, top)
                    assert all((lo, hi) in strong and lo != hi
                               for lo, hi in zip(got, got[1:]))
                    assert rule is None or all(
                        step_ok(lo, hi) for lo, hi in zip(got, got[1:]))
        assert set(subnormal_closed_subsets(h)) == {
            u for u in lat.subsets
            if next(climb(h, lat.normal_in, u, h.full), None)}, h.name


def test_step_orders_match_the_naive_count(corpus, groups, f21):
    # A step's order is |hi|/|lo| when hi is thin and lo strongly normal in
    # it (Lagrange), else a count of double cosets; both agree with the
    # count on python sets on every strongly normal pair, thin or not.
    kinds = Counter()
    for h in [*_quotient_inputs(corpus, groups), f21]:
        table, _ = sets_of(h)
        thin = thin_elements(h)
        for lo, hi in closed_subsets(h).strongly_normal_in:
            want = len(naive_double_cosets(table, members(lo), members(hi)))
            assert step_orders(h, (lo, hi)) == (want,), (h.name, lo, hi)
            kinds["thin" if not hi & ~thin else "not thin"] += 1
    assert kinds["thin"] and kinds["not thin"]
    # A subgroup that is not normal is counted, not divided: a reflection
    # subgroup of S3 has 2 double cosets, not 3 cosets.
    s3 = corpus["s3"]
    refl = closure(s3, [next(s for s in range(1, 6)
                             if fx.element_order(s3, s) == 2)])
    assert (refl, s3.full) not in closed_subsets(s3).strongly_normal_in
    assert step_orders(s3, (refl, s3.full)) == (2,)


def test_are_conjugate_matches_the_naive_witness(corpus, group_quotients, f21):
    # The thin witnesses read off the stored automorphisms, with the
    # non-thin elements below the least of them tested by products, give
    # the first witness in index order that testing every element by
    # products gives: on every ordered pair of closed subsets of the
    # corpus, every group quotient, A5 and F21. S4//C2's witnesses 1, 5
    # and 2, the last two not thin, are among the pairs.
    kinds = Counter()
    for h in [*corpus.values(), *group_quotients.values(),
              fx.alt5().with_rank_cap(60), f21]:
        subsets = closed_subsets(h).subsets
        thin = thin_elements(h)
        for s in subsets:
            for t in subsets:
                got = are_conjugate(h, s, t)
                assert got == naive_are_conjugate(h, s, t), (h.name, s, t)
                kinds[None if got is None else bool(thin >> got & 1)] += 1
        for s, t in ((0, 0), (0, 1), (h.full, 0)):  # no image to read
            assert are_conjugate(h, s, t) == naive_are_conjugate(h, s, t)
    assert kinds == {None: 6850, True: 1433, False: 12}


def test_are_conjugate_reads_thin_witnesses_without_products(monkeypatch):
    # A5 is thin, so every witness among its 5 Hall {2}-subsets is read
    # off the stored automorphisms: no complex product is formed.
    a5 = fx.alt5().with_rank_cap(60)
    halls = hall_subsets_enumerated(a5, SMALLEST, _sel("{2}"))
    pairs = list(combinations(halls, 2))
    assert len(pairs) == 10
    calls = []
    real = hall.complex_product

    def counting(h, p, q):
        calls.append((p, q))
        return real(h, p, q)

    monkeypatch.setattr(hall, "complex_product", counting)
    witnesses = [are_conjugate(a5, s, t) for s, t in pairs]
    assert calls == []
    monkeypatch.undo()
    assert witnesses == [naive_are_conjugate(a5, s, t) for s, t in pairs]


def test_thin_step_orders_count_no_double_cosets():
    # Every step of A5's strongly normal pairs ends in a thin subset, so
    # the smallest partition's sweeps read each step order by Lagrange and
    # store no double cosets.
    a5 = fx.alt5().with_rank_cap(60)
    thin_sweeps(a5, SMALLEST)
    assert not [k for k in a5._cache
                if isinstance(k, tuple) and k[0] == "double_cosets"]


def test_hall_constructive_matches_the_quotient_route(corpus, groups):
    # The closed subsets over the radical, scanned in H's own lattice, give
    # the Hall subset that scanning the quotient over the radical does.
    coarse = parse_partition("2|3,5")
    cases = [(SMALLEST, _sel("{2}")), (SMALLEST, _sel("{3}")),
             (coarse, _sel("0", coarse)), (coarse, _sel("1", coarse))]
    found = 0
    for h in _quotient_inputs(corpus, groups):
        for sig, pi in cases:
            try:
                got = hall_subset_constructive(h, sig, pi)
            except (HypothesisViolationError, SearchExhaustedError):
                continue
            assert got == naive_hall_constructive(h, sig, pi), (h.name, str(sig))
            found += 1
    assert found


def _outcome(scan, h, sig, pi):
    try:
        return scan(h, sig, pi)
    except HypergroupError as exc:
        return type(exc), str(exc)


def test_pi_valenced_matches_the_quotient_route(corpus, groups, f21):
    # Each block U h U read through its lift U h* U h U in H gives the
    # witness, or the error, that building H//U and reading its own table
    # gives. In the group of order 32 (50 closed subsets) some block's
    # lift leaves the union of the thin blocks, so the skip of such a
    # block is reached: without it, {2} gives a witness and {2},{3} and
    # all raise.
    coarse = parse_partition("2|3,5")
    cases = [(SMALLEST, _sel(text))
             for text in ("", "{2}", "{3}", "{5}", "{2},{3}", "all")]
    cases += [(coarse, _sel(text, coarse)) for text in ("0", "1")]
    order_32 = fx.thin_from_table(fx.group_table(
        [(3, 7, 5, 0, 6, 2, 4, 1), (6, 3, 1, 4, 2, 7, 0, 5)]), "g32")
    outcomes = []
    for h in [*_quotient_inputs(corpus, groups), f21,
              order_32.with_rank_cap(60)]:
        for sig, pi in cases:
            got = _outcome(pi_valenced_violation, h, sig, pi)
            assert got == _outcome(naive_pi_valenced_violation, h, sig, pi), \
                (h.name, str(sig), str(pi))
            outcomes.append(got)
    assert None in outcomes
    assert any(isinstance(got, tuple) and isinstance(got[0], int)
               for got in outcomes)


def test_a5_pipeline_builds_no_quotient(monkeypatch, capsys, fixtures_dir):
    # Every command reads its quotients in A5's own lattice: the suite, the
    # constructive search, the Pi-valenced check and the radical's
    # thinness. The one builder of restrictions, quotients and sections is
    # never called.
    built = []
    real = core._induced

    def counting(h, lo, hi, name):
        built.append((lo, hi))
        return real(h, lo, hi, name)

    for module in (core, quotient_module):
        monkeypatch.setattr(module, "_induced", counting)
    path = str(fixtures_dir / "a5.cayley")
    pi = ["--sigma", "smallest", "--pi", "{2}"]
    for argv in (["analyze", path], ["hall", path, *pi],
                 ["hall", path, "--constructive", *pi], ["radical", path, *pi],
                 ["verify", path, *pi]):
        main([*argv, "--rank-cap", "60", "--machine"])
    capsys.readouterr()
    assert built == []


def test_smallest_partition_agreement_on_rt_corpus(corpus):
    for h in corpus.values():
        if is_residually_thin(h):
            assert is_sigma_solvable(h, SMALLEST) == is_solvable(h)


def _fresh_s3():
    # The corpus instances keep their stored facts between tests.
    s3 = fx.sym3()
    return FiniteHypergroup(s3.table, s3.star, name="s3")


def test_chains_are_stored_once_per_rule():
    # Every chain question under a rule reads one stored pair of sweeps;
    # nothing is stored per (bottom, top) pair.
    s3 = _fresh_s3()
    verify_hall(s3, SMALLEST, _sel("{2}"))
    solvability_suite(s3, SMALLEST)
    keys = {k for k in s3._cache if isinstance(k, tuple)
            and k[0] in ("chain", "chains", "ascents")}
    assert keys == {("chains", None), ("chains", SMALLEST), ("chains", is_prime)}


def test_a5_hall_closes_and_sorts_only_in_the_lattice(monkeypatch):
    # On a fresh A5 under smallest {2}, the Hall report and the suite read
    # closedness and valencies off the stored lattice and sweeps: every
    # join and closure runs inside the enumeration (its cyclic closures
    # and extensions), and each relation's steps are sorted once, by
    # target and by source, however many rules sweep them.
    a5 = fx.alt5()
    a5 = FiniteHypergroup(a5.table, a5.star, name="a5", rank_cap=60)
    lat = closed_subsets(a5)
    enumerate_code = lattice._enumerate.__code__
    outside = []
    sorted_steps = Counter()

    def watched(fn):
        def call(*args):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not enumerate_code:
                frame = frame.f_back
            if frame is None:
                outside.append((fn.__name__, args[1:]))
            return fn(*args)
        return call

    def counting_sorted(items, **kwargs):
        items = list(items)
        sorted_steps[frozenset(items)] += 1
        return sorted(items, **kwargs)

    for module in (core, lattice):
        monkeypatch.setattr(module, "_join", watched(core._join))
        monkeypatch.setattr(module, "closure", watched(core.closure))
    monkeypatch.setattr(lattice, "sorted", counting_sorted, raising=False)
    verify_hall(a5, SMALLEST, _sel("{2}"))
    solvability_suite(a5, SMALLEST)
    assert outside == []
    steps = [frozenset((d, c) for d, c in pairs if d != c)
             for pairs in (lat.strongly_normal_in, lat.normal_in)]
    assert sorted_steps == Counter(dict.fromkeys(steps, 2))


def _suite_rows(monkeypatch, **fakes):
    with monkeypatch.context() as m:
        for name, fn in fakes.items():
            m.setattr(hall, name, fn)
        checks = solvability_suite(_fresh_s3(), SMALLEST)
    return [(c.name, c.applicable, c.violations) for c in checks]


def test_solvability_suite_reports_every_violation(monkeypatch):
    # Forced answers make each of the five checks report violations; the
    # labels, counts and order were recorded before the checks shared one
    # pattern. The suite reads a closed C as solvable when the sigma rule's
    # up sweep reaches it, and H//E when the down sweep leaves E.
    real_sweeps = hall.thin_sweeps

    def quotients_answer(solvable):
        # Every quotient is answered solvable, or none is.
        def sweeps(h, rule=None):
            up = real_sweeps(h, rule)[0]
            return up, dict.fromkeys(closed_subsets(h).subsets if solvable else ())
        return sweeps

    def only_the_top(h, rule=None):
        up, down = real_sweeps(h, rule)
        return {c: path for c, path in up.items() if c == h.full}, down

    quotients_fail = _suite_rows(monkeypatch, thin_sweeps=quotients_answer(False))
    only_quotients = _suite_rows(monkeypatch, thin_sweeps=quotients_answer(True),
                                 is_sigma_solvable=lambda h, s: False)
    no_chains_below_top = _suite_rows(monkeypatch, thin_sweeps=only_the_top)
    assert quotients_fail == [
        ("closed_subsets_inherit_solvability", 6, ()),
        ("quotients_by_normal_inherit_solvability", 3, (
            "quotient over normal [0]", "quotient over normal [0, 2, 5]",
            "quotient over normal [0, 1, 2, 3, 4, 5]")),
        ("quotients_by_subnormal_inherit_solvability", 3, (
            "quotient over subnormal [0]", "quotient over subnormal [0, 2, 5]",
            "quotient over subnormal [0, 1, 2, 3, 4, 5]")),
        ("solvable_part_and_quotient_force_solvability", 0, ()),
        ("smallest_partition_matches_prime_step_chains", 1, ()),
    ]
    assert only_quotients == [
        ("closed_subsets_inherit_solvability", 0, ()),
        ("quotients_by_normal_inherit_solvability", 0, ()),
        ("quotients_by_subnormal_inherit_solvability", 0, ()),
        ("solvable_part_and_quotient_force_solvability", 6, (
            "assembled through [0]", "assembled through [0, 1]",
            "assembled through [0, 3]", "assembled through [0, 4]",
            "assembled through [0, 2, 5]",
            "assembled through [0, 1, 2, 3, 4, 5]")),
        ("smallest_partition_matches_prime_step_chains", 1, (
            "smallest-partition solvability disagrees with prime-step chains",)),
    ]
    assert no_chains_below_top == [
        ("closed_subsets_inherit_solvability", 6, (
            "closed subset [0]", "closed subset [0, 1]", "closed subset [0, 3]",
            "closed subset [0, 4]", "closed subset [0, 2, 5]")),
        ("quotients_by_normal_inherit_solvability", 3, ()),
        ("quotients_by_subnormal_inherit_solvability", 3, ()),
        ("solvable_part_and_quotient_force_solvability", 1, ()),
        ("smallest_partition_matches_prime_step_chains", 1, ()),
    ]


def test_verify_hall_scans_pi_subsets_once(monkeypatch):
    # The closed subsets of Pi-number valency, each with its valency, are
    # one stored scan, which the Pi-valenced witness, the radical, the Hall
    # enumeration (its covalencies included) and the containment check all
    # read. s3 makes 6 calls, all in the scan, one per closed subset: the
    # constructive search looks the subset it finds up in the Hall
    # enumeration. The Pi-valenced check reads its thin closed product sets
    # off the strong normality of U in them instead.
    calls = []
    real = hall.valency_of

    def counting(h, c):
        calls.append(h.name)
        return real(h, c)

    monkeypatch.setattr(hall, "valency_of", counting)
    rep = verify_hall(_fresh_s3(), SMALLEST, _sel("{2}"))
    assert rep.hypotheses_hold and rep.conclusions_hold
    assert len(calls) == 6


def test_verify_hall_scans_pi_valence_once(monkeypatch):
    # The Pi-valenced witness is a stored fact: the constructive refusal
    # reads the one verify_hall computed. Its one compute stars each of
    # the 6 blocks of s3 over {0}, the only subnormal {2}-subset, once.
    calls = []
    real = hall.star_set

    def counting(h, b):
        calls.append(b)
        return real(h, b)

    monkeypatch.setattr(hall, "star_set", counting)
    rep = verify_hall(_fresh_s3(), SMALLEST, _sel("{2}"))
    assert rep.hypotheses_hold and rep.conclusions_hold
    assert calls == [1 << e for e in range(6)]
