from itertools import islice
from math import prod

import pytest

from hypergroups import (
    PreconditionError,
    RankCapError,
    ValencyUndefinedError,
    closed_subsets,
    closure,
    complex_product,
    is_closed,
    is_residually_thin,
    load_any,
    mask_of,
    quotient,
    rt_chain,
    section_quotient,
    step_orders,
    sub_hypergroup,
    subnormal_closed_subsets,
    thin_elements,
    valency,
    valency_of,
)
from hypergroups import fixtures as fx

from instance_checks import is_thin
from oracles import chain_products, chain_types, climb, naive_rt_chains, sets_of


def _rt_chains(h, limit):
    """Up to limit residually thin chains, in the order climb yields them."""
    paths = climb(h, closed_subsets(h).strongly_normal_in, 1, h.full)
    return list(islice(paths, limit))


def test_thin_elements_examples(corpus):
    c2, k2 = corpus["c2"], corpus["k2"]
    assert thin_elements(c2) == c2.full
    assert thin_elements(k2) == 1
    assert thin_elements(corpus["s3_mod_refl"]) == 1


def test_is_thin_examples(corpus):
    assert is_thin(corpus["s3"])
    assert not is_thin(corpus["k2"])
    assert is_thin(corpus["s3_mod_a3"])
    assert not is_thin(corpus["d4_mod_refl"])


def test_rt_chain_thin_case(corpus):
    for name in ("c2", "s3", "d4", "q8", "a4", "s4"):
        h = corpus[name]
        chain = rt_chain(h)
        assert chain is not None
        assert chain[0] == 1
        assert chain[-1] == h.full
        for lo, hi in zip(chain, chain[1:]):
            assert is_thin(section_quotient(h, lo, hi).quotient)


def test_k2_is_not_residually_thin(corpus):
    k2 = corpus["k2"]
    assert rt_chain(k2) is None
    assert not is_residually_thin(k2)
    with pytest.raises(ValencyUndefinedError):
        valency(k2)


def test_thin_valency_equals_order(corpus):
    for name in ("c2", "s3", "d4", "q8", "a4", "s4"):
        h = corpus[name]
        assert valency(h) == h.rank


def test_trivial_valency():
    assert valency(fx.trivial()) == 1


def test_quotient_valency_example(corpus):
    # s4 over its normal Klein subgroup: thin of order 24/4 = 6.
    q = corpus["s4_mod_klein"]
    assert is_thin(q)
    assert valency(q) == 6


def test_derived_quotient_valencies(corpus):
    assert valency(corpus["d4_mod_refl"]) == 4
    assert valency(corpus["d4_mod_center"]) == 4
    assert valency(corpus["q8_mod_center"]) == 4
    assert valency(corpus["s3_mod_a3"]) == 2


def test_valency_of_examples(corpus):
    s3 = corpus["s3"]
    rot = next(s for s in range(1, 6) if fx.element_order(s3, s) == 3)
    a3 = closure(s3, [rot])
    assert valency_of(s3, 1) == 1
    assert valency_of(s3, s3.full) == 6
    assert valency_of(s3, a3) == 3
    with pytest.raises(PreconditionError, match="closed subset"):
        valency_of(s3, mask_of([0, rot]))


def test_valency_of_refusals_keep_their_precedence(fixtures_dir):
    # A mask that is not closed is refused before the hypergroup is asked
    # for its valency or its lattice: k2 is not residually thin, and S4
    # under a rank cap of 3 refuses its lattice, yet a non-closed mask of
    # either is a PreconditionError; a closed one meets the refusal.
    k2 = load_any((fixtures_dir / "k2.hg").read_text())
    s4 = load_any((fixtures_dir / "s4.cayley").read_text()).with_rank_cap(3)
    cases = [(k2, 2, PreconditionError, "closed subset"),
             (k2, k2.full, ValencyUndefinedError, "not residually thin"),
             (s4, 6, PreconditionError, "closed subset"),
             (s4, 1, RankCapError, "exceeds the lattice cap"),
             (k2, 1 << 2, PreconditionError, "out of range"),
             (s4, -1, PreconditionError, "out of range")]
    for h, mask, error, message in cases:
        with pytest.raises(error, match=message):
            valency_of(h, mask)


def test_subset_valency_divides(corpus):
    for h in corpus.values():
        if not is_residually_thin(h):
            continue
        v = valency(h)
        for c in closed_subsets(h).subsets:
            assert v % valency_of(h, c) == 0


def test_all_rt_chains_counts_match_oracle(small_corpus):
    for name, h in small_corpus.items():
        if h.rank > 6:
            continue
        table, star = sets_of(h)
        oracle = {tuple(mask_of(s) for s in chain)
                  for chain in naive_rt_chains(table, star)}
        got = set(_rt_chains(h, limit=1000))
        assert got == oracle, name


def test_all_rt_chains_start_with_rt_chain(corpus):
    # The sweep's chain to the full set, the one rt_chain (and so valency)
    # reads, is the first chain the oracle climb yields on the corpus.
    for name, h in corpus.items():
        if is_residually_thin(h):
            assert _rt_chains(h, 1)[0] == rt_chain(h), name


def test_s3_chains_frozen():
    # Oracle-computed: exactly two residually thin chains in s3, the
    # one-step chain and the one through the rotation subgroup. Chains
    # through reflection subgroups cannot complete because the quotient of
    # s3 over a reflection subgroup is not thin.
    s3 = fx.sym3()
    chains = _rt_chains(s3, limit=100)
    assert len(chains) == 2
    products = {prod(step_orders(s3, c)) for c in chains}
    assert products == {6}
    lengths = sorted(len(step_orders(s3, c)) for c in chains)
    assert lengths == [1, 2]


def test_chain_order_product_independent(corpus, group_quotients):
    # Over every thin chain from {0}, not a sample: each closed subset that
    # a chain reaches has one step-order product, and valency_of reads it.
    # On residually thin input every closed subset is reached.
    for name, h in [*corpus.items(), *group_quotients.items()]:
        products = chain_products(h)
        assert all(len(p) == 1 for p in products.values()), name
        if not is_residually_thin(h):
            continue
        assert products.keys() == set(closed_subsets(h).subsets), name
        assert {c: valency_of(h, c) for c in products} == \
            {c: p.pop() for c, p in products.items()}, name
        assert valency_of(h, h.full) == valency(h), name


def test_prime_step_chains_have_one_composition_type(corpus, group_quotients, f21):
    # Every prime-step chain from {0} to a closed C has the same multiset
    # of prime step orders, as Jordan-Hoelder gives for solvable groups. Its
    # product is then C's one step-order product. A second type would make
    # the number of prime steps in each class of sigma depend on the chain.
    inputs = [*corpus.items(), *group_quotients.items(), ("f21", f21)]
    typed = 0
    for name, h in inputs:
        types = chain_types(h)
        assert all(len(t) == 1 for t in types.values()), name
        products = chain_products(h)
        assert all({prod(ty) for ty in t} == products[c] for c, t in types.items()), name
        typed += not is_thin(h) and len(types.get(h.full, ())) == 1
    assert typed >= 10


def test_valency_multiplicative_over_subnormal_quotients(corpus):
    # For subnormal closed D: valency of the quotient times valency of D
    # equals the ambient valency, and the quotient stays residually thin.
    for h in corpus.values():
        if not is_residually_thin(h):
            continue
        for d in subnormal_closed_subsets(h):
            q = quotient(h, d).quotient
            assert is_residually_thin(q)
            assert valency(q) * valency_of(h, d) == valency(h)


def test_valency_multiplicative_over_products(corpus):
    # With C normal in the whole: product and intersection valencies
    # multiply like orders.
    for h in corpus.values():
        if not is_residually_thin(h) or h.rank > 8:
            continue
        lat = closed_subsets(h)
        for c in lat.subsets:
            if (c, h.full) not in lat.normal_in:
                continue
            for d in lat.subsets:
                cd = complex_product(h, c, d)
                assert is_closed(h, cd)
                assert valency_of(h, cd) * valency_of(h, c & d) == \
                    valency_of(h, c) * valency_of(h, d)


def test_closed_subsets_inherit_residual_thinness(corpus):
    for h in corpus.values():
        if not is_residually_thin(h):
            continue
        for c in closed_subsets(h).subsets:
            sub = sub_hypergroup(h, c)
            assert is_residually_thin(sub)
            assert valency_of(h, c) == valency(sub)


def test_thin_iff_valency_equals_rank(corpus):
    for h in corpus.values():
        if not is_residually_thin(h):
            continue
        assert is_thin(h) == (valency(h) == h.rank)


def test_non_rt_quotients(corpus):
    # Quotients over non-subnormal closed subsets may fail to be
    # residually thin; these two concrete ones do.
    assert not is_residually_thin(corpus["s3_mod_refl"])
    assert not is_residually_thin(corpus["s4_mod_transposition"])
