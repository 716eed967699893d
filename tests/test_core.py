import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergroups import (
    FiniteHypergroup,
    InvalidHypergroupError,
    PreconditionError,
    RankCapError,
    StructuralError,
    closed_subsets,
    closure,
    complex_product,
    is_closed,
    mask_of,
    members,
    star_set,
    sub_hypergroup,
    thin_elements,
    validate,
)
from hypergroups import core
from hypergroups import fixtures as fx

from oracles import (
    naive_associativity_witness,
    naive_axioms,
    naive_closed_subsets,
    naive_closure,
    sets_of,
)

C2_TABLE = [[{0}, {1}], [{1}, {0}]]
K2_TABLE = [[{0}, {1}], [{1}, {0, 1}]]
IDENT_STAR = [0, 1]


def test_c2_and_k2_are_valid():
    assert validate(C2_TABLE, IDENT_STAR).valid
    assert validate(K2_TABLE, IDENT_STAR).valid


def test_k2_broken_product_is_h3():
    bad = [[{0}, {1}], [{1}, {1}]]
    report = validate(bad, IDENT_STAR)
    assert not report.valid
    assert "H3" in report.axioms()


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
    assert axiom in report.axioms()


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
                assert set(report.axioms()) <= oracle


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


def test_star_violation_reported():
    table = [[{0}, {1}, {2}], [{1}, {2}, {0}], [{2}, {0}, {1}]]
    report = validate(table, [0, 1, 2])  # star should swap 1 and 2 in c3
    assert not report.valid
    assert "H3" in report.axioms()
    report2 = validate(table, [1, 2, 0])
    assert "STAR" in report2.axioms()


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


def test_complex_product_examples(corpus):
    k2 = corpus["k2"]
    assert complex_product(k2, [1], [1]) == mask_of([0, 1])
    s3 = corpus["s3"]
    for h in corpus.values():
        full = h.full
        assert complex_product(h, [0], full) == full
    # thin products are singletons
    for a in range(s3.rank):
        for b in range(s3.rank):
            assert complex_product(s3, [a], [b]).bit_count() == 1
    assert complex_product(k2, 0, [1]) == 0


def test_star_set_examples(corpus):
    k2 = corpus["k2"]
    assert star_set(k2, [0]) == 1
    assert star_set(k2, [0, 1]) == 3
    s3 = corpus["s3"]
    t = fx.involutions(s3)[0]
    assert star_set(s3, [t]) == 1 << t


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
    assert is_closed(s3, [0])
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
    triv = sub_hypergroup(s3, [0])
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
        sub_hypergroup(s3, [0, rot])


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
    cases += thin_cases
    got = [validate(t, s) for t, s in cases]
    monkeypatch.setattr(core, "_associativity_witness", naive_associativity_witness)
    want = [validate(t, s) for t, s in cases]
    assert got == want
    h1 = sum("H1" in r.axioms() for r in got)
    assert 0 < h1 < len(got)
    assert any(not r.valid and "H1" not in r.axioms() for r in got)
    thin_got = got[-len(thin_cases):]
    assert any(r.valid for r in thin_got)
    assert any("H1" in r.axioms() for r in thin_got)


def test_thin_validation_never_reaches_the_row_scan(monkeypatch):
    # S5's table passes Light's test, so the row scan never runs.
    def refuse(t, n):
        raise AssertionError("row scan on a thin associative table")

    monkeypatch.setattr(core, "_row_scan_witness", refuse)
    s5 = fx.sym5()
    assert validate(s5.table, s5.star).valid
