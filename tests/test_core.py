import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import (
    FiniteHypergroup,
    InvalidHypergroupError,
    PreconditionError,
    RankCapError,
    StructuralError,
    are_conjugate,
    cayley_to_hypergroup,
    closed_subsets,
    closure,
    complex_product,
    double_cosets,
    is_closed,
    mask_of,
    members,
    quotient,
    section_quotient,
    star_set,
    sub_hypergroup,
    thin_elements,
    validate,
    valency_of,
)
from hypergroups import core
from hypergroups import fixtures as fx
from hypergroups.lattice import conjugations

from oracles import (
    naive_associativity_witness,
    naive_axioms,
    naive_closed_subsets,
    naive_closure,
    naive_products,
    sets_of,
)

C2_TABLE = [[{0}, {1}], [{1}, {0}]]
K2_TABLE = [[{0}, {1}], [{1}, {0, 1}]]
IDENT_STAR = [0, 1]


def _axioms(report):
    return [v.axiom for v in report.violations]


def test_c2_and_k2_are_valid():
    assert validate(C2_TABLE, IDENT_STAR).valid
    assert validate(K2_TABLE, IDENT_STAR).valid


def test_k2_broken_product_is_h3():
    bad = [[{0}, {1}], [{1}, {1}]]
    report = validate(bad, IDENT_STAR)
    assert not report.valid
    assert "H3" in _axioms(report)


@pytest.mark.parametrize("pos,value,axiom", [
    ((0, 0), {1}, "H2"),
    ((1, 0), {0}, "H2"),
    ((0, 1), {0}, "UNIT"),
    ((1, 1), {1}, "H3"),
])
def test_k2_single_entry_mutations_name_the_axiom(pos, value, axiom):
    table = [row[:] for row in K2_TABLE]
    table[pos[0]][pos[1]] = value
    report = validate(table, IDENT_STAR)
    assert not report.valid
    assert axiom in _axioms(report)


def test_every_k2_mutation_matches_naive_oracle():
    # Each of the 4 entries can be changed to 2 other nonempty subsets.
    options = [{0}, {1}, {0, 1}]
    for p in range(2):
        for q in range(2):
            for alt in options:
                if alt == K2_TABLE[p][q]:
                    continue
                table = [row[:] for row in K2_TABLE]
                table[p][q] = alt
                report = validate(table, IDENT_STAR)
                oracle = naive_axioms(table, IDENT_STAR)
                assert report.valid == (not oracle)
                assert set(_axioms(report)) <= oracle


def test_validator_agrees_with_oracle_on_corpus(corpus):
    for h in corpus.values():
        table, star = sets_of(h)
        assert naive_axioms(table, star) == set()
        assert validate(h.table, h.star).valid


def test_structural_errors_are_not_axiom_violations():
    with pytest.raises(StructuralError):
        validate([[{0}, set()], [{1}, {0}]], IDENT_STAR)
    with pytest.raises(StructuralError):
        validate([[{0}, {2}], [{1}, {0}]], IDENT_STAR)
    with pytest.raises(StructuralError):
        validate(K2_TABLE, [0])
    with pytest.raises(StructuralError):
        validate(K2_TABLE, [0, 2])
    with pytest.raises(StructuralError, match="not a set of indices"):
        validate([[{0}, None], [{1}, {0}]], IDENT_STAR)
    with pytest.raises(StructuralError, match="rank must be at least 1"):
        validate([], [])
    with pytest.raises(StructuralError, match="row 0 must have 2 entries"):
        validate([[{0}], [{1}, {0}]], IDENT_STAR)


_FAR = 8 * 10**7  # the bit of this index alone is a 10 MB int


@pytest.mark.parametrize("call, error, message", [
    (lambda s3: closure(s3, [_FAR]), PreconditionError,
     r"^subset out of range for rank 6$"),
    (lambda s3: closure(s3, [0.5]), PreconditionError,
     r"^subset is not a set of indices$"),
    (lambda s3: closure(s3, ["1"]), PreconditionError,
     r"^subset is not a set of indices$"),
    (lambda s3: validate([[{_FAR}]], [0]), StructuralError,
     r"^product entry \(0,0\) has an element outside 0\.\.0$"),
    (lambda s3: validate([[{0.5}]], [0]), StructuralError,
     r"^product entry \(0,0\) is not a set of indices$"),
    (lambda s3: validate([[{"0"}]], [0]), StructuralError,
     r"^product entry \(0,0\) is not a set of indices$"),
], ids=["closure far", "closure float", "closure str",
        "validate far", "validate float", "validate str"])
def test_index_collections_are_checked_before_any_shift(call, error, message, corpus):
    # closure's generators and validate's set entries are read as integers
    # (operator.index: no float is truncated) and range-checked before
    # their bits are made, so a far index costs no memory.
    s3 = corpus["s3"]
    tracemalloc.start()
    try:
        with pytest.raises(error, match=message):
            call(s3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_star_violation_reported():
    table = [[{0}, {1}, {2}], [{1}, {2}, {0}], [{2}, {0}, {1}]]
    report = validate(table, [0, 1, 2])  # star should swap 1 and 2 in c3
    assert not report.valid
    assert "H3" in _axioms(report)
    report2 = validate(table, [1, 2, 0])
    assert "STAR" in _axioms(report2)


def test_invalid_table_raises_on_construction():
    with pytest.raises(InvalidHypergroupError):
        FiniteHypergroup([[{0}, {1}], [{1}, {1}]], IDENT_STAR)


def test_rank_cap_copy_shares_the_table_and_not_the_store(monkeypatch):
    # with_rank_cap copies a validated instance without validating again,
    # and the copy starts with an empty store: the lattice stored under the
    # larger cap must not let a smaller cap skip its refusal.
    a5 = fx.alt5()
    calls = []
    real = core.validate

    def counting(table, star):
        calls.append(len(table))
        return real(table, star)

    monkeypatch.setattr(core, "validate", counting)
    wide = a5.with_rank_cap(60)
    assert wide.table is a5.table and wide.star is a5.star
    assert len(closed_subsets(wide).subsets) == 59
    narrow = wide.with_rank_cap(24)
    assert narrow.table is a5.table and narrow.star is a5.star
    assert calls == []
    with pytest.raises(RankCapError):
        closed_subsets(narrow)
    with pytest.raises(RankCapError):
        closed_subsets(a5)


def test_instances_compare_by_identity():
    # A copy under another cap has the same table but refuses differently,
    # so it is a different hypergroup.
    h = fx.sym3()
    assert h.with_rank_cap(h.rank_cap + 1) != h
    assert len({h, h.with_rank_cap(h.rank_cap), h}) == 2


def test_complex_product_examples(corpus):
    k2 = corpus["k2"]
    assert complex_product(k2, mask_of([1]), mask_of([1])) == mask_of([0, 1])
    s3 = corpus["s3"]
    for h in corpus.values():
        full = h.full
        assert complex_product(h, mask_of([0]), full) == full
    # thin products are singletons
    for a in range(s3.rank):
        for b in range(s3.rank):
            assert complex_product(s3, mask_of([a]), mask_of([b])).bit_count() == 1
    assert complex_product(k2, 0, mask_of([1])) == 0


def test_star_set_examples(corpus):
    k2 = corpus["k2"]
    assert star_set(k2, mask_of([0])) == 1
    assert star_set(k2, mask_of([0, 1])) == 3
    s3 = corpus["s3"]
    t = fx.involutions(s3)[0]
    assert star_set(s3, mask_of([t])) == 1 << t


def test_closure_examples(corpus):
    k2, s3 = corpus["k2"], corpus["s3"]
    assert closure(k2, []) == 1
    assert closure(k2, [1]) == 3
    t = fx.involutions(s3)[0]
    assert members(closure(s3, [t])) == (0, t)
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    assert closure(s3, [rot]).bit_count() == 3


def test_closure_minimal_against_powerset_oracle(small_corpus):
    # Exhaustive at rank <= 6: closure is closed, contains the seed, and no
    # proper closed subset of it contains the seed.
    for h in small_corpus.values():
        if h.rank > 6:
            continue
        table, star = sets_of(h)
        all_closed = naive_closed_subsets(table, star)
        for seed_mask in range(1 << h.rank):
            got = closure(h, seed_mask)
            assert is_closed(h, got)
            assert is_closed(h, seed_mask) == \
                (frozenset(members(seed_mask)) in all_closed)
            assert got | seed_mask == got
            want = set(members(seed_mask)) | {0}
            for other in all_closed:
                if want <= other:
                    assert set(members(got)) <= other
            assert frozenset(members(got)) in all_closed


def test_is_closed_examples(corpus):
    s3 = corpus["s3"]
    assert is_closed(s3, mask_of([0]))
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    a3 = closure(s3, [rot])
    assert is_closed(s3, a3)
    assert not is_closed(s3, mask_of([0, rot]))
    assert not is_closed(s3, 0)


def test_product_associative_exhaustively_at_small_rank(corpus):
    for h in corpus.values():
        if h.rank > 4:
            continue
        n = 1 << h.rank
        for p in range(n):
            for q in range(n):
                pq = complex_product(h, p, q)
                for r in range(n):
                    assert complex_product(h, pq, r) == \
                        complex_product(h, p, complex_product(h, q, r))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_associative_sampled_on_d4(data):
    h = fx.dihedral4()
    full = h.full
    p = data.draw(st.integers(0, full))
    q = data.draw(st.integers(0, full))
    r = data.draw(st.integers(0, full))
    assert complex_product(h, complex_product(h, p, q), r) == \
        complex_product(h, p, complex_product(h, q, r))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_star_reverses_products_on_d4(data):
    h = fx.dihedral4()
    full = h.full
    p = data.draw(st.integers(0, full))
    q = data.draw(st.integers(0, full))
    assert star_set(h, complex_product(h, p, q)) == \
        complex_product(h, star_set(h, q), star_set(h, p))


def test_star_reverses_products_exhaustively_small(corpus):
    for h in corpus.values():
        if h.rank > 3:
            continue
        for p in range(1 << h.rank):
            for q in range(1 << h.rank):
                assert star_set(h, complex_product(h, p, q)) == \
                    complex_product(h, star_set(h, q), star_set(h, p))


def test_sub_hypergroup(corpus):
    s3 = corpus["s3"]
    triv = sub_hypergroup(s3, mask_of([0]))
    assert triv.rank == 1
    whole = sub_hypergroup(s3, s3.full)
    assert whole.table == s3.table
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    a3 = sub_hypergroup(s3, closure(s3, [rot]))
    assert a3.rank == 3
    table, star = sets_of(a3)
    assert naive_axioms(table, star) == set()
    # cyclic of order 3: every non-identity element generates
    assert all(a3.table[s][s] != 1 << s for s in range(1, 3))
    with pytest.raises(PreconditionError):
        sub_hypergroup(s3, mask_of([0, rot]))


def test_closure_fixpoint_under_star_and_identity(corpus):
    for h in corpus.values():
        for s in range(h.rank):
            c = closure(h, [s])
            assert c & 1
            assert star_set(h, c) == c


def test_closure_matches_pair_rule(corpus, group_quotients):
    # The generator-product closure against the pair rule T -> T u T*T on
    # python sets, including non-thin quotients up to rank 24: every single
    # element, then random seeds of two or three elements.
    rng = random.Random(9_07778)
    for h in [*corpus.values(), *group_quotients.values()]:
        table, star = sets_of(h)
        seeds = [[x] for x in range(h.rank)]
        seeds += [rng.sample(range(h.rank), rng.randint(2, 3))
                  for _ in range(12) if h.rank >= 3]
        for seed in seeds:
            want = naive_closure(table, star, seed)
            assert members(closure(h, seed)) == tuple(sorted(want))


def _generating_mask(h, f):
    """A generating mask of the closed f: each member of f not yet in the
    closure of those chosen joins them."""
    gens = 0
    for y in members(f):
        if not closure(h, gens) >> y & 1:
            gens |= 1 << y
    return gens


def test_join_matches_closure_and_pair_rule(corpus, group_quotients):
    # Joining a closed F, given only a generating mask of it, with each
    # element x, against closure(F u {x}) and the pair rule on python sets:
    # every closed F of the corpus, of the group quotients (non-thin, with
    # cosets F y of unequal sizes, where the join may stop only at the full
    # set) and of A5, each distinct table once; for x in F, both give F.
    a5 = fx.alt5().with_rank_cap(60)
    tables = {(h.table, h.star): h
              for h in [*corpus.values(), *group_quotients.values(), a5]}
    for h in tables.values():
        table, star = sets_of(h)
        for f in closed_subsets(h).subsets:
            gens = _generating_mask(h, f)
            assert closure(h, gens) == f
            for x in range(h.rank):
                got = core._join(h, f, gens | 1 << x)
                assert got == closure(h, f | 1 << x)
                if not f >> x & 1:
                    assert got == mask_of(naive_closure(table, star, members(f) + (x,)))
    # On S4 and S5 a join stops once it holds more than n/p members, p the
    # least prime of [H : F]. Every orbit representative F under thin
    # conjugation (11 and 19), with every x, against all products of F's
    # generators and x, which calls no join; and against the pair rule on
    # all of S4 and on a sample of S5, where it would take seconds.
    rng = random.Random(2409_07778)
    for h, reps in ((fx.sym4(), 11), (fx.sym5().with_rank_cap(120), 19)):
        table, star = sets_of(h)
        maps = set(conjugations(h).values())
        gens_of, seen = {}, set()
        for f in closed_subsets(h).subsets:
            if f not in seen:
                seen.update(sum(a[i] for i in members(f)) for a in maps)
                gens_of[f] = _generating_mask(h, f)
        assert len(gens_of) == reps
        pairs = [(f, x) for f in gens_of for x in range(h.rank)]
        for f, x in pairs:
            got = core._join(h, f, gens_of[f] | 1 << x)
            assert got == mask_of(naive_products(
                table, star, members(gens_of[f]) + (x,)))
        for f, x in pairs if h.rank == 24 else rng.sample(pairs, 40):
            assert (core._join(h, f, gens_of[f] | 1 << x)
                    == mask_of(naive_closure(table, star, members(f) + (x,))))


def _mutated_tables(rng, h, count):
    """Copies of h's table and star with a few random defects each."""
    n = h.rank
    for _ in range(count):
        table = [list(row) for row in h.table]
        star = list(h.star)
        kind = rng.randrange(4)
        if kind == 3:
            a, b = rng.sample(range(n), 2)
            star[a], star[b] = star[b], star[a]
        for _ in range(kind):
            p, q = rng.randrange(n), rng.randrange(n)
            flipped = table[p][q] ^ (1 << rng.randrange(n))
            table[p][q] = flipped or 1 << rng.randrange(n)
        yield table, star


def _swapped_rows(rng, h, count):
    """Copies of thin h's table with up to two pairs of entries of one row
    swapped each; the copies without a swap stay thin hypergroups."""
    n = h.rank
    for _ in range(count):
        table = [list(row) for row in h.table]
        for _ in range(rng.randrange(3)):
            p = rng.randrange(n)
            q, r = rng.sample(range(n), 2)
            table[p][q], table[p][r] = table[p][r], table[p][q]
        yield table, list(h.star)


def test_validate_matches_triple_scan_on_mutated_tables(corpus, monkeypatch):
    # The row-at-a-time associativity check, and Light's test before it on
    # thin tables, must give the same report, witnesses included, as the
    # one-triple-at-a-time scan.
    rng = random.Random(2409_07778)
    cases = []
    for h in corpus.values():
        if h.rank > 1:
            cases.extend(_mutated_tables(rng, h, 60))
    thin = [h for h in [*corpus.values(), fx.alt5()]
            if h.rank > 1 and thin_elements(h) == h.full]
    assert len(thin) >= 8
    thin_cases = []
    for h in thin:
        thin_cases.extend(_swapped_rows(rng, h, 4 if h.rank > 24 else 30))
    # Every thin table of rank 2: two of them break H1 only at (0, 0, 0),
    # which Light's test sees only by checking 0 when H2 fails.
    thin_cases += [([[1 << x for x in e[:2]], [1 << x for x in e[2:]]], [0, 1])
                   for e in product(range(2), repeat=4)]
    cases += thin_cases
    got = [validate(t, s) for t, s in cases]
    monkeypatch.setattr(core, "_associativity_witness", naive_associativity_witness)
    want = [validate(t, s) for t, s in cases]
    assert got == want
    h1 = sum("H1" in _axioms(r) for r in got)
    assert 0 < h1 < len(got)
    assert any(not r.valid and "H1" not in _axioms(r) for r in got)
    thin_got = got[-len(thin_cases):]
    assert any(r.valid for r in thin_got)
    assert any("H1" in _axioms(r) for r in thin_got)
    # Light's test also runs without H2, where 0 is a generator to check.
    assert any("H2" in _axioms(r) for r in thin_got)


def _thin_defects(rng, h, count):
    """Copies of thin h's table and star with one defect each that the H3
    shortcut must notice: two star images swapped (so some s* s is not
    {0}, and star may stay an involution), star no longer an involution,
    two rows swapped, or the entry a0 swapped with ab for b != a* (both
    breaking H2, the last with every s* s still {0}); every fifth copy is
    left whole."""
    n = h.rank
    for i in range(count):
        table = [list(row) for row in h.table]
        star = list(h.star)
        a, b = rng.sample(range(1, n), 2) if n > 2 else (1, 0)
        kind = i % 5
        if kind == 1:
            star[a], star[b] = star[b], star[a]
        elif kind == 2:
            star[a] = rng.choice([x for x in range(n) if x != star[a]])
        elif kind == 3:
            table[a], table[b] = table[b], table[a]
        elif kind == 4 and b != star[a]:
            table[a][0], table[a][b] = table[a][b], table[a][0]
        yield table, star


def test_h3_shortcut_matches_the_literal_loop(corpus, monkeypatch):
    # validate skips the literal H3 loop when the table is a group with s*
    # = s^-1; its reports, witnesses included, must equal those of the loop
    # run every time.
    rng = random.Random(7_778)
    cases = []
    for h in [*corpus.values(), fx.alt5()]:
        if h.rank > 1 and thin_elements(h) == h.full:
            cases.extend(_thin_defects(rng, h, 8 if h.rank > 24 else 40))
        elif h.rank > 1:
            cases.extend(_mutated_tables(rng, h, 20))
    skipped = []
    real = core._has_inverses

    def spy(t, star, n):
        skipped.append(real(t, star, n))
        return skipped[-1]

    monkeypatch.setattr(core, "_has_inverses", spy)
    got = [validate(t, s) for t, s in cases]
    monkeypatch.setattr(core, "_has_inverses", lambda t, star, n: False)
    want = [validate(t, s) for t, s in cases]
    assert got == want  # reports compare by verdict and witnesses
    assert any(skipped) and not all(skipped)
    axioms = [set(_axioms(r)) for r in got]
    assert any(r.valid for r in got)
    assert any(a == {"H3"} for a in axioms)  # star an involution, s* s != {0}
    assert any("STAR" in a for a in axioms)
    assert any("H2" in a for a in axioms)


def test_thin_validation_never_reaches_the_adjoint_loop(monkeypatch):
    # S5 is a group with s* = s^-1, so H3 needs no literal loop.
    def refuse(t, star, n):
        raise AssertionError("literal H3 loop on a group table")

    monkeypatch.setattr(core, "_adjoint_witness", refuse)
    s5 = fx.sym5()
    assert validate(s5.table, s5.star).valid


def test_construction_normalizes_once(monkeypatch):
    # validate is the one place a table is normalized: the constructor
    # hands it the raw input and keeps the report's table and star. The
    # fixture's store may already hold the quotient, so s3 is a new instance.
    s3 = FiniteHypergroup(fx.sym3().table, fx.sym3().star)
    text = fx.cayley_text(fx.int_table(s3), "s3")
    rotations = closure(s3, [next(s for s in range(1, 6)
                                  if fx.element_order(s3, s) == 3)])
    results = {"_normalize_candidate": [], "validate": []}

    def spy(name):
        inner = getattr(core, name)

        def wrapper(*args):
            results[name].append(inner(*args))
            return results[name][-1]

        monkeypatch.setattr(core, name, wrapper)

    for name in results:
        spy(name)
    for build in (lambda: FiniteHypergroup(K2_TABLE, IDENT_STAR),
                  lambda: cayley_to_hypergroup(text),
                  lambda: quotient(s3, rotations).quotient):
        for calls in results.values():
            calls.clear()
        h = build()
        assert [len(calls) for calls in results.values()] == [1, 1]
        report = results["validate"][0]
        assert report.valid and report.table is h.table and report.star is h.star


def test_thin_validation_never_reaches_the_row_scan(monkeypatch):
    # S5's table passes Light's test, so the row scan never runs.
    def refuse(t, n):
        raise AssertionError("row scan on a thin associative table")

    monkeypatch.setattr(core, "_row_scan_witness", refuse)
    s5 = fx.sym5()
    assert validate(s5.table, s5.star).valid


def _subset_arguments():
    """(name, call) for every public function that takes a subset, one
    entry per subset argument; call(x) passes x there and valid closed
    subsets of S3 elsewhere."""
    s3 = fx.corpus()["s3"]
    n = s3.rank
    a3 = closure(s3, [next(s for s in range(1, n) if fx.element_order(s3, s) == 3)])
    return [
        ("complex_product P", lambda x: complex_product(s3, x, 1)),
        ("complex_product Q", lambda x: complex_product(s3, 1, x)),
        ("star_set", lambda x: star_set(s3, x)),
        ("closure", lambda x: closure(s3, x)),
        ("is_closed", lambda x: is_closed(s3, x)),
        ("sub_hypergroup", lambda x: sub_hypergroup(s3, x)),
        ("double_cosets", lambda x: double_cosets(s3, x)),
        ("quotient", lambda x: quotient(s3, x)),
        ("section_quotient E", lambda x: section_quotient(s3, x, s3.full)),
        ("section_quotient G", lambda x: section_quotient(s3, 1, x)),
        ("valency_of", lambda x: valency_of(s3, x)),
        ("are_conjugate S", lambda x: are_conjugate(s3, x, a3)),
        ("are_conjugate T", lambda x: are_conjugate(s3, a3, x)),
    ]


@pytest.mark.parametrize("name, call", [
    pytest.param(*case, id=case[0]) for case in _subset_arguments()])
def test_a_subset_is_a_mask_in_range(name, call, corpus):
    # Every subset argument is an int mask of elements 0..rank-1; only
    # closure also takes its generators as a collection of indices.
    rank = corpus["s3"].rank
    for bad in (-1, -2, 1 << rank, (1 << rank) | 1):
        with pytest.raises(PreconditionError):
            call(bad)
    if name == "closure":
        assert call([0]) == call(1)
        with pytest.raises(PreconditionError):
            call([0, rank])
        with pytest.raises(PreconditionError):
            call([-1])
    else:
        with pytest.raises(TypeError):
            call([0])


def test_quotient_does_not_recheck_masks(monkeypatch):
    # The product kernels check their masks inline, so building a quotient
    # of S4 checks a subset through FiniteHypergroup.subset four times: in
    # quotient, double_cosets, is_closed and closure. Coercing every
    # complex_product argument made it 145.
    s4 = fx.thin_from_table(fx.group_table([(1, 2, 3, 0), (1, 0, 2, 3)]), "s4")
    f = closure(s4, [2])  # element 2 is the transposition (1 0)
    calls = []
    real = FiniteHypergroup.subset

    def counting(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(FiniteHypergroup, "subset", counting)
    assert quotient(s4, f).quotient.rank == 7
    assert len(calls) == 4
    assert f.bit_count() == 2 and (f, s4.full) not in closed_subsets(s4).normal_in
