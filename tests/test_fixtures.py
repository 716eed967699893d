from hypergroups import closed_subsets, mask_of, valency
from hypergroups import fixtures as fx

from instance_checks import is_thin
from oracles import GroupOracle, naive_axioms, sets_of


def test_group_fixture_orders(groups):
    orders = {name: h.rank for name, h in groups.items()}
    assert orders == {"c2": 2, "s3": 6, "d4": 8, "q8": 8, "a4": 12, "s4": 24}


def test_every_fixture_satisfies_axioms(corpus):
    for h in corpus.values():
        table, star = sets_of(h)
        assert naive_axioms(table, star) == set()


def test_thin_fixture_subgroup_counts_match_oracle(groups):
    # closed subsets of a thin hypergroup are exactly the subgroups
    expected = {"c2": 2, "s3": 6, "d4": 10, "q8": 6, "a4": 10, "s4": 30}
    for name, h in groups.items():
        oracle = GroupOracle(fx.int_table(h))
        subgroups = {mask_of(s) for s in oracle.subgroups()}
        assert len(subgroups) == expected[name]
        assert set(closed_subsets(h).subsets) == subgroups


def test_a5_subgroup_count_matches_oracle():
    a5 = fx.alt5().with_rank_cap(60)
    oracle = GroupOracle(fx.int_table(a5))
    subgroups = {mask_of(s) for s in oracle.subgroups()}
    assert len(subgroups) == 59
    assert set(closed_subsets(a5).subsets) == subgroups


def test_quaternion_table_is_a_group():
    t = fx.quaternion_table()
    # closed under inverses, associative, identity 0; non-abelian of order 8
    assert naive_axioms([[{t[a][b]} for b in range(8)] for a in range(8)],
                        [row.index(0) for row in t]) == set()
    assert any(t[a][b] != t[b][a] for a in range(8) for b in range(8))
    # distinct from the dihedral fixture: only one involution here
    assert len(fx.involutions(fx.quaternion8())) == 1
    assert len(fx.involutions(fx.dihedral4())) == 5


def test_derived_quotient_shapes(corpus):
    assert corpus["s3_mod_refl"].rank == 2
    assert not is_thin(corpus["s3_mod_refl"])
    assert corpus["s3_mod_a3"].rank == 2
    assert is_thin(corpus["s3_mod_a3"])
    assert corpus["d4_mod_refl"].rank == 3
    assert corpus["d4_mod_center"].rank == 4
    assert corpus["q8_mod_center"].rank == 4
    assert corpus["s4_mod_klein"].rank == 6
    assert corpus["s4_mod_transposition"].rank == 7
    assert valency(corpus["s4_mod_klein"]) == 6
