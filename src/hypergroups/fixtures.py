"""Canonical structures used by the tests, the CLI examples and the docs.

Groups are built as permutation closures from generators (identity first,
breadth-first, so element indexing is deterministic) and turned into thin
hypergroups. The derived quotients give small non-thin hypergroups.
"""

from __future__ import annotations

from functools import lru_cache

from .core import FiniteHypergroup, closure
from .formats import thin_from_table
from .lattice import closed_subsets
from .quotient import quotient


def _perm_mul(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def group_table(generators) -> list[list[int]]:
    """Cayley table (ints) of the group generated by permutation tuples."""
    ident = tuple(range(len(generators[0])))
    elems = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        g = queue.pop(0)
        for h in generators:
            f = _perm_mul(g, h)
            if f not in index:
                index[f] = len(elems)
                elems.append(f)
                queue.append(f)
    return [[index[_perm_mul(a, b)] for b in elems] for a in elems]


def cayley_text(table, name: str) -> str:
    """Cayley-format document for an integer table, symbols 0..n-1."""
    lines = [f"group {name}", f"order {len(table)}"]
    lines.extend(" ".join(map(str, row)) for row in table)
    return "\n".join(lines) + "\n"


_QUATERNION_UNITS = (
    ((0, 0), (1, 0), (2, 0), (3, 0)),
    ((1, 0), (0, 1), (3, 0), (2, 1)),
    ((2, 0), (3, 1), (0, 1), (1, 0)),
    ((3, 0), (2, 0), (1, 1), (0, 1)),
)


def quaternion_table() -> list[list[int]]:
    """Order 8: elements 2u+s encode unit u in (1,i,j,k) with sign s."""
    def mul(x, y):
        u1, s1 = divmod(x, 2)
        u2, s2 = divmod(y, 2)
        u3, extra = _QUATERNION_UNITS[u1][u2]
        return 2 * u3 + (s1 ^ s2 ^ extra)

    return [[mul(x, y) for y in range(8)] for x in range(8)]


@lru_cache(maxsize=None)
def trivial() -> FiniteHypergroup:
    return FiniteHypergroup(((1,),), (0,), name="trivial")


@lru_cache(maxsize=None)
def k2() -> FiniteHypergroup:
    """Rank 2 with 1 . 1 = {0, 1}: the smallest non-thin hypergroup."""
    return FiniteHypergroup(((1, 2), (2, 3)), (0, 1), name="k2")


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteHypergroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return thin_from_table(table, f"c{n}")


@lru_cache(maxsize=None)
def sym3() -> FiniteHypergroup:
    return thin_from_table(group_table([(1, 0, 2), (1, 2, 0)]), "s3")


@lru_cache(maxsize=None)
def dihedral4() -> FiniteHypergroup:
    """Symmetries of the square, order 8."""
    return thin_from_table(group_table([(1, 2, 3, 0), (0, 3, 2, 1)]), "d4")


@lru_cache(maxsize=None)
def quaternion8() -> FiniteHypergroup:
    return thin_from_table(quaternion_table(), "q8")


@lru_cache(maxsize=None)
def alt4() -> FiniteHypergroup:
    return thin_from_table(group_table([(1, 2, 0, 3), (1, 0, 3, 2)]), "a4")


@lru_cache(maxsize=None)
def sym4() -> FiniteHypergroup:
    return thin_from_table(group_table([(1, 2, 3, 0), (1, 0, 2, 3)]), "s4")


@lru_cache(maxsize=None)
def alt5() -> FiniteHypergroup:
    return thin_from_table(group_table([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]), "a5")


@lru_cache(maxsize=None)
def sym5() -> FiniteHypergroup:
    """Order 120; its lattice needs an explicit rank cap of 120."""
    return thin_from_table(group_table([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]), "s5")


def int_table(H: FiniteHypergroup) -> list[list[int]]:
    """Integer Cayley table of a thin hypergroup (all products singletons)."""
    out = []
    for row in H.table:
        out.append([entry.bit_length() - 1 for entry in row])
    return out


def element_order(H: FiniteHypergroup, s: int) -> int:
    """Multiplicative order of an element of a thin hypergroup."""
    t = int_table(H)
    x = s
    k = 1
    while x != 0:
        x = t[x][s]
        k += 1
    return k


def involutions(H: FiniteHypergroup) -> list[int]:
    """Non-identity elements with s . s = {identity}."""
    return [s for s in range(1, H.rank) if H.table[s][s] == 1]


def _center(H: FiniteHypergroup) -> int:
    mask = 0
    for s in range(H.rank):
        if all(H.table[s][t] == H.table[t][s] for t in range(H.rank)):
            mask |= 1 << s
    return mask


def _quotient_by(H, f, name):
    q = quotient(H, f).quotient
    return FiniteHypergroup(q.table, q.star, name=name, rank_cap=q.rank_cap)


@lru_cache(maxsize=None)
def s3_mod_reflection() -> FiniteHypergroup:
    """Quotient of s3 over a reflection subgroup; isomorphic to k2."""
    h = sym3()
    f = closure(h, {involutions(h)[0]})
    return _quotient_by(h, f, "s3_mod_refl")


@lru_cache(maxsize=None)
def s3_mod_a3() -> FiniteHypergroup:
    h = sym3()
    rot = next(s for s in range(1, h.rank) if element_order(h, s) == 3)
    return _quotient_by(h, closure(h, {rot}), "s3_mod_a3")


@lru_cache(maxsize=None)
def d4_mod_center() -> FiniteHypergroup:
    h = dihedral4()
    return _quotient_by(h, _center(h), "d4_mod_center")


@lru_cache(maxsize=None)
def d4_mod_reflection() -> FiniteHypergroup:
    """Rank 3, non-thin, residually thin with valency 4."""
    h = dihedral4()
    center = _center(h)
    refl = next(s for s in involutions(h) if not (center >> s) & 1)
    return _quotient_by(h, closure(h, {refl}), "d4_mod_refl")


@lru_cache(maxsize=None)
def q8_mod_center() -> FiniteHypergroup:
    h = quaternion8()
    return _quotient_by(h, _center(h), "q8_mod_center")


@lru_cache(maxsize=None)
def s4_mod_klein() -> FiniteHypergroup:
    """Quotient over the normal Klein four subgroup; a thin rank-6 group."""
    h = sym4()
    normal = closed_subsets(h).normal_in
    for a in involutions(h):
        for b in involutions(h):
            if a >= b or h.table[a][b] != h.table[b][a]:
                continue
            f = closure(h, {a, b})
            if f.bit_count() == 4 and (f, h.full) in normal:
                return _quotient_by(h, f, "s4_mod_klein")
    raise LookupError("no normal Klein subgroup found")


@lru_cache(maxsize=None)
def s4_mod_transposition() -> FiniteHypergroup:
    """Rank 7 double-coset quotient over a non-normal order-2 subgroup."""
    h = sym4()
    normal = closed_subsets(h).normal_in
    for s in involutions(h):
        f = closure(h, {s})
        if (f, h.full) not in normal:
            q = _quotient_by(h, f, "s4_mod_transposition")
            if q.rank == 7:
                return q
    raise LookupError("no transposition-like subgroup found")


def corpus() -> dict[str, FiniteHypergroup]:
    """The standard desk-scale collection, without the order-60 outlier."""
    return {
        "trivial": trivial(),
        "c2": cyclic(2),
        "k2": k2(),
        "s3": sym3(),
        "d4": dihedral4(),
        "q8": quaternion8(),
        "a4": alt4(),
        "s4": sym4(),
        "s3_mod_refl": s3_mod_reflection(),
        "s3_mod_a3": s3_mod_a3(),
        "d4_mod_center": d4_mod_center(),
        "d4_mod_refl": d4_mod_reflection(),
        "q8_mod_center": q8_mod_center(),
        "s4_mod_klein": s4_mod_klein(),
        "s4_mod_transposition": s4_mod_transposition(),
    }


def group_corpus() -> dict[str, FiniteHypergroup]:
    """The thin members, all of group order at most 24."""
    return {
        "c2": cyclic(2),
        "s3": sym3(),
        "d4": dihedral4(),
        "q8": quaternion8(),
        "a4": alt4(),
        "s4": sym4(),
    }
