import pytest

from hypergroups import (
    InternalConsistencyError,
    RankCapError,
    closed_subsets,
    closure,
    complex_product,
    is_closed,
    mask_of,
    members,
    quotient,
    subnormal_closed_subsets,
    thin_elements,
)
from hypergroups import fixtures as fx
from hypergroups import lattice
from hypergroups.core import cached
from hypergroups.lattice import conjugations

from oracles import (
    climb,
    naive_closed_subsets,
    naive_conjugations,
    naive_extension_closed_subsets,
    naive_normal_pairs,
    naive_product,
    naive_thin_residue,
    sets_of,
)


def _a3(s3):
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    return closure(s3, [rot])


def test_rank2_lattices(corpus):
    for name in ("k2", "c2"):
        lat = closed_subsets(corpus[name])
        assert lat.subsets == (1, 3)


def test_enumeration_matches_powerset_oracle(small_corpus):
    for h in small_corpus.values():
        table, star = sets_of(h)
        oracle = {mask_of(s) for s in naive_closed_subsets(table, star)}
        assert set(closed_subsets(h).subsets) == oracle


def test_enumeration_matches_one_element_extension(group_quotients):
    # Cyclic extension against closing F with each missing element by the
    # pair rule, on every double-coset quotient of the group members.
    for h in group_quotients.values():
        table, star = sets_of(h)
        oracle = {mask_of(s) for s in naive_extension_closed_subsets(table, star)}
        assert set(closed_subsets(h).subsets) == oracle


def test_s5_lattice_counts():
    # S5 has 156 subgroups; its 570 normal pairs are all strongly normal.
    lat = closed_subsets(fx.sym5().with_rank_cap(120))
    assert len(lat.subsets) == 156
    assert len(lat.normal_in) == 570
    assert len(lat.strongly_normal_in) == 570


def _count_s5_joins(monkeypatch):
    """(closure calls, join calls) of one enumeration of S5's lattice."""
    closures, joins = [], []
    real_closure, real_join = lattice.closure, lattice._join

    def counting_closure(h, s):
        closures.append(s)
        return real_closure(h, s)

    def counting_join(h, f, s):
        joins.append((f, s))
        return real_join(h, f, s)

    monkeypatch.setattr(lattice, "closure", counting_closure)
    monkeypatch.setattr(lattice, "_join", counting_join)
    lat = closed_subsets(fx.sym5().with_rank_cap(120))
    assert len(lat.subsets) == 156
    return len(closures), len(joins)


def test_s5_enumeration_extends_one_subset_per_conjugacy_class(monkeypatch):
    # Only one closed subset per orbit under thin conjugation is extended:
    # S5's 156 subgroups fall into 19 classes, and the enumeration makes
    # 1 198 extensions where extending every subgroup made 9 680.
    closures, joins = _count_s5_joins(monkeypatch)
    assert joins < 2000


def test_s5_enumeration_extends_once_per_stabilizer_orbit(monkeypatch):
    # A representative is extended by one cyclic closure per orbit of its
    # stabilizer, and cyclic closures are closed once per orbit of
    # elements, S5's 7 conjugacy classes: 205 joins and 7 closures, where
    # one extension per cyclic closure made 1 198 closure calls.
    closures, joins = _count_s5_joins(monkeypatch)
    assert joins < 300
    assert closures == 7


def test_s5_joins_stop_by_lagrange():
    # A join in a group stops once it holds more than n/p members, p the
    # least prime of [H : F]: S5's lattice adds 1 236 cosets, where joins
    # that ran until the full set added 2 061. Each coset F y is one read
    # of column y; conjugations reads one column per generator besides.
    class CountingColumns(tuple):
        reads = 0

        def __getitem__(self, y):
            CountingColumns.reads += 1
            return tuple.__getitem__(self, y)

    s5 = fx.sym5().with_rank_cap(120)
    cached(s5, "cols", lambda: CountingColumns(zip(*s5.table)))
    assert len(closed_subsets(s5).subsets) == 156
    assert CountingColumns.reads < 1400


def test_s5_relations_come_from_the_stabilizer_pass(monkeypatch):
    # Every element of S5 is thin, so both normalizer masks of each
    # representative are the thin h whose conjugation fixes it, read off
    # the stabilizer pass: no complex product at all, where the product
    # kernel made 6 213.
    calls = []
    real = lattice.complex_product

    def counting(h, p, q):
        calls.append((p, q))
        return real(h, p, q)

    monkeypatch.setattr(lattice, "complex_product", counting)
    lat = closed_subsets(fx.sym5().with_rank_cap(120))
    assert len(lat.normal_in) == 570
    assert len(lat.strongly_normal_in) == 570
    assert calls == []


def test_a5_and_s5_orbit_counts():
    # A5 has 59 subgroups and S5 156, each reached from one member of its
    # conjugacy class.
    for h, size in ((fx.alt5().with_rank_cap(60), 59),
                    (fx.sym5().with_rank_cap(120), 156)):
        assert len(closed_subsets(h).subsets) == size


def test_thin_conjugations_are_automorphisms(corpus, group_quotients):
    # x -> h* x h for every thin h, as the lattice builds it (each image
    # a single-bit mask), checked against the table: a bijection fixing 0
    # that commutes with star and with the product.
    for h in [*corpus.values(), *group_quotients.values()]:
        table, star = sets_of(h)
        conj = conjugations(h)
        assert set(conj) == set(members(thin_elements(h)))
        for t, images in conj.items():
            assert all(m.bit_count() == 1 for m in images)
            phi = [m.bit_length() - 1 for m in images]
            assert sorted(phi) == list(range(h.rank))
            assert phi[0] == 0
            for x in range(h.rank):
                assert naive_product(table, naive_product(table, {star[t]}, {x}),
                                     {t}) == {phi[x]}
                assert phi[h.star[x]] == h.star[phi[x]]
            for p in range(h.rank):
                for q in range(h.rank):
                    image = mask_of(phi[r] for r in members(h.table[p][q]))
                    assert h.table[phi[p]][phi[q]] == image


def test_composed_conjugations_match_the_table(corpus, group_quotients):
    # Maps composed from a generating set of the thin elements against
    # every map read off the table. Q8 and D4 have a nontrivial centre, so
    # fewer distinct automorphisms than thin elements.
    for h in [*corpus.values(), *group_quotients.values(),
              fx.alt5().with_rank_cap(60), fx.sym5().with_rank_cap(120),
              fx.quaternion8(), fx.dihedral4()]:
        assert conjugations(h) == naive_conjugations(h)


def test_conjugations_refuse_a_product_of_thin_elements_not_a_singleton():
    # C4 with the product 1 . 2 broken to {0, 3} past validation: the map
    # of the generator 1 still reads as a permutation, and composing the
    # map of 1 . 2 meets the broken product, an internal error, not a
    # KeyError.
    c4 = fx.cyclic(4).with_rank_cap(4)
    rows = [list(row) for row in c4.table]
    rows[1][2] = 0b1001
    c4.table = tuple(map(tuple, rows))
    with pytest.raises(InternalConsistencyError):
        conjugations(c4)


def test_conjugations_refuse_a_generator_map_that_is_not_injective():
    # C4 with the product 2 . 1 broken to {0} past validation: every
    # element stays thin and every product a singleton, but the map of the
    # generator 1 sends both 0 and 3 to 0. It is checked when it is read
    # off the table, so no composed map is built from it.
    c4 = fx.cyclic(4).with_rank_cap(4)
    rows = [list(row) for row in c4.table]
    rows[2][1] = 0b1
    c4.table = tuple(map(tuple, rows))
    assert thin_elements(c4) == c4.full
    with pytest.raises(InternalConsistencyError):
        conjugations(c4)


def test_relations_match_the_naive_pairs(corpus, group_quotients):
    # normal_in and strongly_normal_in against the pairwise tests on python
    # sets, pair for pair, A5//K included, and S5//K for every closed K but
    # {0}: non-thin inputs up to rank 60, where most masks need products.
    s5 = fx.sym5().with_rank_cap(120)
    s5_quotients = [quotient(s5, k).quotient
                    for k in closed_subsets(s5).subsets if k != 1]
    for h in [*corpus.values(), *group_quotients.values(), *s5_quotients]:
        table, star = sets_of(h)
        lat = closed_subsets(h)
        normal, strong = naive_normal_pairs(
            table, star, [set(members(m)) for m in lat.subsets])
        assert lat.normal_in == {(mask_of(e), mask_of(f)) for e, f in normal}
        assert lat.strongly_normal_in == {(mask_of(e), mask_of(f))
                                          for e, f in strong}


def test_corpus_relations_share_each_product(monkeypatch):
    # One product E h per non-thin h and orbit representative E serves
    # both normality tests, and thin h cost none: the 15 fresh corpus
    # lattices make 96 complex products, where the per-pair kernel made 159.
    calls = []
    real = lattice.complex_product

    def counting(h, p, q):
        calls.append((p, q))
        return real(h, p, q)

    monkeypatch.setattr(lattice, "complex_product", counting)
    for h in fx.corpus().values():
        closed_subsets(h.with_rank_cap(h.rank_cap))
    assert len(calls) < 110


def test_s3_has_six_closed_subsets(corpus):
    lat = closed_subsets(corpus["s3"])
    assert len(lat.subsets) == 6
    sizes = sorted(m.bit_count() for m in lat.subsets)
    assert sizes == [1, 2, 2, 2, 3, 6]


def test_lattice_contains_bounds(corpus):
    for h in corpus.values():
        lat = closed_subsets(h)
        assert 1 in lat.subsets
        assert h.full in lat.subsets


def test_strongly_normal_implies_normal(corpus):
    for h in corpus.values():
        lat = closed_subsets(h)
        assert lat.strongly_normal_in <= lat.normal_in


def test_strongly_normal_subsets_contain_the_thin_residue(corpus):
    # E strongly normal in F implies O^theta(F) inside E; the converse
    # fails: in S3 a reflection subgroup contains O^theta(S3) = {0} but is
    # not even normal.
    for h in corpus.values():
        table, star = sets_of(h)
        lat = closed_subsets(h)
        for e, f in lat.strongly_normal_in:
            residue = naive_thin_residue(table, star, members(f))
            assert residue <= set(members(e))
    s3 = corpus["s3"]
    table, star = sets_of(s3)
    refl = closure(s3, [fx.involutions(s3)[0]])
    assert naive_thin_residue(table, star, range(s3.rank)) == {0}
    assert (refl, s3.full) not in closed_subsets(s3).normal_in


def test_normality_examples(corpus):
    s3 = corpus["s3"]
    a3 = _a3(s3)
    refl = closure(s3, [fx.involutions(s3)[0]])
    normal = closed_subsets(s3).normal_in
    assert (1, s3.full) in normal
    assert (a3, s3.full) in normal
    assert (refl, s3.full) not in normal
    # Only pairs of closed subsets, the first inside the second.
    assert (s3.full, a3) not in normal
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    assert not is_closed(s3, mask_of([0, rot]))
    assert all(mask_of([0, rot]) not in pair for pair in normal)


def test_strong_normality_examples(corpus):
    s3, k2 = corpus["s3"], corpus["k2"]
    a3 = _a3(s3)
    strong = closed_subsets(s3).strongly_normal_in
    assert (a3, a3) in strong
    assert (a3, s3.full) in strong
    k2_lat = closed_subsets(k2)
    assert (1, k2.full) not in k2_lat.strongly_normal_in
    assert (1, k2.full) in k2_lat.normal_in


def test_subnormal_examples(corpus):
    s3, d4 = corpus["s3"], corpus["d4"]
    a3 = _a3(s3)
    s3_normal = closed_subsets(s3).normal_in
    assert next(climb(s3, s3_normal, a3, a3)) == (a3,)
    refl = closure(s3, [fx.involutions(s3)[0]])
    assert next(climb(s3, s3_normal, refl, s3.full), None) is None
    assert refl not in subnormal_closed_subsets(s3)
    # every subgroup of a 2-group is subnormal
    for c in closed_subsets(d4).subsets:
        chain = next(climb(d4, closed_subsets(d4).normal_in, c, d4.full), None)
        assert chain is not None
        assert chain[0] == c and chain[-1] == d4.full
        for lo, hi in zip(chain, chain[1:]):
            assert (lo, hi) in closed_subsets(d4).normal_in


def test_product_closed_examples(corpus):
    s3 = corpus["s3"]
    a3 = _a3(s3)
    refl = closure(s3, [fx.involutions(s3)[0]])
    for c, d, want in ((1, refl, refl), (a3, refl, s3.full), (a3, a3, a3)):
        assert complex_product(s3, c, d) == want
        assert is_closed(s3, want)
    assert complex_product(s3, a3, refl) == closure(s3, members(a3 | refl))
    t1, t2 = fx.involutions(s3)[:2]
    assert not is_closed(s3, complex_product(s3, closure(s3, [t1]),
                                             closure(s3, [t2])))


def test_intersect(corpus):
    # Closed subsets are meet-closed.
    s3 = corpus["s3"]
    a3 = _a3(s3)
    refl = closure(s3, [fx.involutions(s3)[0]])
    assert a3 & refl == 1
    assert a3 & a3 == a3
    assert a3 & 1 == 1
    for h in corpus.values():
        lat = closed_subsets(h)
        for c in lat.subsets:
            for d in lat.subsets:
                assert is_closed(h, c & d)


def test_rank_cap_refusal():
    a5 = fx.alt5()
    with pytest.raises(RankCapError):
        closed_subsets(a5)
    capped = a5.with_rank_cap(60)
    assert len(closed_subsets(capped).subsets) == 59


def test_intersection_preserves_strong_normality(small_corpus):
    # For closed F, C, D with C strongly normal in D, the meet with F keeps
    # the relation: C&F strongly normal in D&F. Exhaustive over triples.
    for h in small_corpus.values():
        lat = closed_subsets(h)
        for c, d in lat.strongly_normal_in:
            for f in lat.subsets:
                assert (c & f, d & f) in lat.strongly_normal_in


def test_normal_product_preserves_strong_normality(small_corpus):
    # E normal in the full set and C strongly normal in D force EC strongly
    # normal in ED.
    for h in small_corpus.values():
        lat = closed_subsets(h)
        normals = [e for e in lat.subsets if (e, h.full) in lat.normal_in]
        for e in normals:
            for c, d in lat.strongly_normal_in:
                ec = complex_product(h, e, c)
                ed = complex_product(h, e, d)
                assert is_closed(h, ec) and is_closed(h, ed)
                assert (ec, ed) in lat.strongly_normal_in


def test_product_with_normal_preserves_subnormality(small_corpus):
    # D subnormal and E normal in the full set force ED subnormal.
    for h in small_corpus.values():
        lat = closed_subsets(h)
        normals = [e for e in lat.subsets if (e, h.full) in lat.normal_in]
        subnormal = subnormal_closed_subsets(h)
        for d in subnormal:
            for e in normals:
                ed = complex_product(h, e, d)
                assert is_closed(h, ed)
                assert ed in subnormal


def test_normal_pairs_only_relate_comparable(corpus):
    # Both relations hold mask pairs (E, F) of lattice members with E inside
    # F, and every member is related to itself.
    for h in corpus.values():
        lat = closed_subsets(h)
        for pairs in (lat.normal_in, lat.strongly_normal_in):
            for e, f in pairs:
                assert e in lat.subsets and f in lat.subsets
                assert e & ~f == 0
            assert {(m, m) for m in lat.subsets} <= pairs
