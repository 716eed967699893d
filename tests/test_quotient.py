import pytest

from hypergroups import (
    PreconditionError,
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
)
from hypergroups import fixtures as fx

from instance_checks import is_thin, isomorphic, project, union_of_blocks
from oracles import naive_quotient, sets_of


def _a3(s3):
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    return closure(s3, [rot])


def test_double_cosets_trivial_and_full(corpus):
    for h in corpus.values():
        singletons = double_cosets(h, 1)
        assert singletons == tuple(1 << e for e in range(h.rank))
        assert double_cosets(h, h.full) == (h.full,)


def test_double_cosets_s3_reflection(corpus):
    s3 = corpus["s3"]
    f = closure(s3, [fx.involutions(s3)[0]])
    blocks = double_cosets(s3, f)
    assert len(blocks) == 2
    assert blocks[0] == f
    assert blocks[1] == s3.full & ~f


def test_double_cosets_match_oracle(small_corpus):
    for h in small_corpus.values():
        table, star = sets_of(h)
        for f in closed_subsets(h).subsets:
            got = [set(members(b)) for b in double_cosets(h, f)]
            want, _, _ = naive_quotient(table, star, set(members(f)),
                                        set(range(h.rank)))
            assert got == [set(b) for b in want]


def test_quotient_table_matches_oracle(small_corpus):
    for h in small_corpus.values():
        table, star = sets_of(h)
        for f in closed_subsets(h).subsets:
            qm = quotient(h, f)
            _, qtable, qstar = naive_quotient(table, star, set(members(f)),
                                              set(range(h.rank)))
            got = [[set(members(e)) for e in row] for row in qm.quotient.table]
            assert got == qtable
            assert list(qm.quotient.star) == qstar


def test_quotient_by_trivial_is_identity_copy(corpus):
    for h in corpus.values():
        q = quotient(h, 1).quotient
        assert q.table == h.table
        assert q.star == h.star


def test_quotient_examples(corpus):
    s3, k2, c2 = corpus["s3"], corpus["k2"], corpus["c2"]
    qa = quotient(s3, _a3(s3)).quotient
    assert qa.rank == 2 and is_thin(qa)
    assert isomorphic(qa, c2) is not None
    f = closure(s3, [fx.involutions(s3)[0]])
    qr = quotient(s3, f).quotient
    phi = isomorphic(qr, k2)
    assert phi is not None
    # verify the witness by hand against both tables
    for a in range(2):
        for b in range(2):
            image = mask_of(phi[x] for x in members(qr.table[a][b]))
            assert image == k2.table[phi[a]][phi[b]]
    assert isomorphic(c2, k2) is None


def test_quotient_requires_closed(corpus):
    s3 = corpus["s3"]
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    with pytest.raises(PreconditionError):
        quotient(s3, mask_of([0, rot]))


def test_projection_and_blocks_consistent(corpus):
    for h in corpus.values():
        for f in closed_subsets(h).subsets:
            blocks = double_cosets(h, f)
            assert quotient(h, f).quotient.rank == len(blocks)
            assert blocks[0] == f
            for e in range(h.rank):
                assert sum((b >> e) & 1 for b in blocks) == 1
            assert project(blocks, f) == 1


def test_lift_round_trip_bijection(small_corpus):
    # The block map is a bijection between closed subsets of the quotient
    # and closed subsets of the base containing the modulus, inverted by
    # the union of the named blocks.
    for h in small_corpus.values():
        for f in closed_subsets(h).subsets:
            blocks = double_cosets(h, f)
            over = [e for e in closed_subsets(h).subsets if f & ~e == 0]
            q_closed = list(closed_subsets(quotient(h, f).quotient).subsets)
            assert len(over) == len(q_closed)
            for ebar in q_closed:
                e = union_of_blocks(blocks, ebar)
                assert e in over
                assert project(blocks, e) == ebar
            for e in over:
                ebar = project(blocks, e)
                assert ebar in q_closed
                assert union_of_blocks(blocks, ebar) == e


def test_lift_examples(corpus):
    d4 = corpus["d4"]
    lat = closed_subsets(d4)
    center = next(m for m in lat.subsets
                  if m.bit_count() == 2 and (m, d4.full) in lat.strongly_normal_in)
    blocks = double_cosets(d4, center)
    q = quotient(d4, center).quotient
    assert union_of_blocks(blocks, 1) == center
    assert union_of_blocks(blocks, q.full) == d4.full
    for ebar in closed_subsets(q).subsets:
        if ebar.bit_count() == 2:
            lifted = union_of_blocks(blocks, ebar)
            assert lifted.bit_count() == 4
            assert center & ~lifted == 0
            assert is_closed(d4, lifted)


def test_section_quotient_requires_e_inside_g(corpus):
    s3 = corpus["s3"]
    refl = closure(s3, [fx.involutions(s3)[0]])
    with pytest.raises(PreconditionError, match="E inside G"):
        section_quotient(s3, refl, 1)


def test_strongly_normal_iff_thin_quotient(small_corpus):
    # The chain searches read thinness of G//E off strongly_normal_in.
    for h in small_corpus.values():
        lat = closed_subsets(h)
        for f in lat.subsets:
            assert ((f, h.full) in lat.strongly_normal_in) == \
                is_thin(quotient(h, f).quotient)
        for e in lat.subsets:
            for g in lat.subsets:
                if e & ~g:
                    continue
                assert ((e, g) in lat.strongly_normal_in) == \
                    is_thin(section_quotient(h, e, g).quotient)


def test_strong_normality_descends_to_quotients(small_corpus):
    # For D <= E closed: E strongly normal in the whole iff E//D strongly
    # normal in the quotient over D.
    for h in small_corpus.values():
        lat = closed_subsets(h)
        for d in lat.subsets:
            blocks = double_cosets(h, d)
            q = quotient(h, d).quotient
            q_strong = closed_subsets(q).strongly_normal_in
            for e in lat.subsets:
                if d & ~e:
                    continue
                assert ((e, h.full) in lat.strongly_normal_in) == \
                    ((project(blocks, e), q.full) in q_strong)


def test_quotient_tower_collapses(small_corpus):
    # (H//D)//(E//D) is isomorphic to H//E when E is normal in the whole.
    for h in small_corpus.values():
        lat = closed_subsets(h)
        for e in lat.subsets:
            if (e, h.full) not in lat.normal_in:
                continue
            he = quotient(h, e).quotient
            for d in lat.subsets:
                if d & ~e:
                    continue
                ebar = project(double_cosets(h, d), e)
                tower = quotient(quotient(h, d).quotient, ebar).quotient
                assert isomorphic(tower, he) is not None


def test_product_quotient_matches_intersection_quotient(small_corpus):
    # When D normalizes E: ED//E is isomorphic to D//(E & D).
    for h in small_corpus.values():
        lat = closed_subsets(h)
        for e in lat.subsets:
            for d in lat.subsets:
                if not all(
                    complex_product(h, e, 1 << x) & ~complex_product(h, 1 << x, e) == 0
                    for x in members(d)
                ):
                    continue
                ed = complex_product(h, e, d)
                assert is_closed(h, ed)
                left = section_quotient(h, e, ed).quotient
                right = section_quotient(h, e & d, d).quotient
                assert isomorphic(left, right) is not None


def test_thin_closed_adjoint_squares(small_corpus):
    # For a thin closed T and any h with h*h inside T: h*h is closed; if h*
    # normalizes T it is strongly normal in T.
    for h in small_corpus.values():
        lat = closed_subsets(h)
        thin_closed = [t for t in lat.subsets if is_thin(sub_hypergroup(h, t))]
        for t in thin_closed:
            for e in range(h.rank):
                hh = complex_product(h, star_set(h, mask_of([e])), mask_of([e]))
                if hh & ~t:
                    continue
                assert is_closed(h, hh)
                star_e = star_set(h, mask_of([e]))
                normalizes = complex_product(h, t, star_e) & \
                    ~complex_product(h, star_e, t) == 0
                if normalizes:
                    assert (hh, t) in lat.strongly_normal_in


def test_isomorphic_identity_and_cap(corpus):
    s3 = corpus["s3"]
    assert isomorphic(s3, s3) == tuple(range(6))
    d4, q8 = corpus["d4"], corpus["q8"]
    assert isomorphic(d4, q8) is None
    a4 = corpus["a4"]
    assert isomorphic(a4, a4) == tuple(range(12))


def test_isomorphic_detects_relabeling():
    d4 = fx.dihedral4()
    # relabel by a permutation fixing 0
    perm = (0, 3, 1, 2, 6, 7, 5, 4)
    inv = [0] * 8
    for i, p in enumerate(perm):
        inv[p] = i
    table = tuple(
        tuple(mask_of(perm[x] for x in members(d4.table[inv[a]][inv[b]]))
              for b in range(8))
        for a in range(8))
    star = tuple(perm[d4.star[inv[i]]] for i in range(8))
    from hypergroups import FiniteHypergroup
    relabeled = FiniteHypergroup(table, star, name="d4r")
    phi = isomorphic(d4, relabeled)
    assert phi is not None
    for a in range(8):
        for b in range(8):
            assert mask_of(phi[x] for x in members(d4.table[a][b])) == \
                relabeled.table[phi[a]][phi[b]]
