"""Answers do not depend on the labels of the elements.

Orbit representatives, greedy generating sets, the first hit of a sweep
and the least witness of a search all read elements in index order. A
relabeling that fixes the identity is an isomorphism, so every answer of
the relabeled table must be the original answer carried through it. Witness
values are first hits in index order and may change; whether a witness
exists may not.
"""

import random
from itertools import combinations

import pytest

from hypergroups import (
    SMALLEST,
    FiniteHypergroup,
    PiSelection,
    bits,
    closed_subsets,
    is_residually_thin,
    mask_of,
    parse_partition,
    prime_factors,
    quotient,
    solvability_suite,
    valency,
    valency_of,
    verify_hall,
)
from hypergroups import fixtures as fx

PARTITIONS = (SMALLEST, *map(parse_partition, ("2|3,5", "2,3|5", "3|2,5")))


def _relabel(h, perm):
    """The table of h with each element x renamed perm[x], perm[0] = 0,
    and the map it induces on masks."""
    def move(m):
        return mask_of(perm[x] for x in bits(m))

    n = h.rank
    table = [[0] * n for _ in range(n)]
    star = [0] * n
    for p in range(n):
        star[perm[p]] = perm[h.star[p]]
        for q in range(n):
            table[perm[p]][perm[q]] = move(h.table[p][q])
    return FiniteHypergroup(table, star, name=h.name, rank_cap=h.rank_cap), move


def _selections(h, sigma):
    """Every nonempty selection of the classes of sigma that divide the
    valency; selecting everything where the valency is undefined."""
    if not is_residually_thin(h):
        return [PiSelection(everything=True)]
    classes = sorted({sigma.class_of(p) for p in prime_factors(valency(h))}, key=min)
    return [PiSelection(selected=frozenset(chosen))
            for k in range(1, len(classes) + 1)
            for chosen in combinations(classes, k)]


def _answers(h, move=lambda m: m):
    """Every compared answer of h, each subset carried through move."""
    lat = closed_subsets(h)
    out = {
        "lattice": set(map(move, lat.subsets)),
        "normal": {(move(a), move(b)) for a, b in lat.normal_in},
        "strongly normal": {(move(a), move(b)) for a, b in lat.strongly_normal_in},
        "residually thin": is_residually_thin(h),
    }
    if out["residually thin"]:
        out["valencies"] = {move(c): valency_of(h, c) for c in lat.subsets}
    for sigma in PARTITIONS:
        out[sigma] = all(c.passed for c in solvability_suite(h, sigma))
        for pi in _selections(h, sigma):
            rep = verify_hall(h, sigma, pi)
            out[sigma, pi] = (
                rep.is_rt, rep.is_sigma_solvable, rep.is_pi_valenced,
                rep.conclusion_exists, rep.conclusion_conjugate,
                rep.conclusion_containment,
                set(map(move, rep.hall_subsets)),
                None if rep.radical is None else move(rep.radical),
                {frozenset((move(s), move(t))): w is not None
                 for s, t, w in rep.conjugacy_witnesses})
    return out


@pytest.fixture(scope="module")
def inputs(corpus, groups, f21):
    """The 15 fixtures, every G//K of the group corpus, A5 and F21."""
    return [*corpus.values(), fx.alt5().with_rank_cap(60), f21,
            *(quotient(g, k).quotient for g in groups.values()
              for k in closed_subsets(g).subsets)]


def test_answers_follow_a_relabeling(inputs):
    # Each input under one random relabeling of a fixed seed.
    rng = random.Random(2409)
    assert len(inputs) == 81
    for h in inputs:
        perm = [0, *rng.sample(range(1, h.rank), h.rank - 1)]
        image, move = _relabel(h, perm)
        assert _answers(image) == _answers(h, move), h.name


def test_answers_follow_the_star_onto_the_opposite_table(inputs):
    # The star map is an isomorphism from H onto its opposite, p o q = q p,
    # since (p q)* = q* p*.
    for h in inputs:
        opposite = FiniteHypergroup(tuple(zip(*h.table)), h.star, name=h.name,
                                    rank_cap=h.rank_cap)
        image, move = _relabel(h, h.star)
        assert (image.table, image.star) == (opposite.table, opposite.star), h.name
        assert _answers(opposite) == _answers(h, move), h.name
