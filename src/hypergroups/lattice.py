"""Closed-subset lattice, its normality relations and the chain search over them."""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bits, mask_of, subset_key
from .core import (
    FiniteHypergroup,
    cached,
    closure,
    complex_product,
    is_closed,
    thin_elements,
)
from .errors import InternalConsistencyError, PreconditionError, RankCapError


@dataclass(frozen=True)
class ClosedSubsetLattice:
    """All closed subsets of a hypergroup, with the pairwise relations.

    subsets is canonically ordered (by size, then member list) and always
    contains the identity subset and the full set. normal_in holds the mask
    pairs (E, F) of closed subsets with E contained and normal in F, where
    normality of E in F means E h is inside h E for every h in F;
    strongly_normal_in is the sub-relation with h* E h inside E instead.
    Both relations include the reflexive pairs (E, E), which always hold.
    """

    subsets: tuple[int, ...]
    normal_in: frozenset[tuple[int, int]]
    strongly_normal_in: frozenset[tuple[int, int]]


def _normality(H, E, F) -> tuple[bool, bool]:
    """(E normal in F, E strongly normal in F), forming each E h once for
    both tests; each test stops at its first failing h."""
    normal = strong = True
    for h in bits(F):
        hm = 1 << h
        eh = complex_product(H, E, hm)
        normal = normal and not eh & ~complex_product(H, hm, E)
        strong = strong and not complex_product(H, 1 << H.star[h], eh) & ~E
        if not (normal or strong):
            break
    if strong and not normal:
        raise InternalConsistencyError("strong normality without normality")
    return normal, strong


def closed_subsets(H: FiniteHypergroup) -> ClosedSubsetLattice:
    """Enumerate every closed subset and the normality relations.

    Cyclic extension instead of a powerset sweep: the distinct closures of
    single elements are computed once, each with one representative.
    Starting from the identity subset, a depth-first stack extends a closed
    F by every such closure not already inside F, closing F's generators
    together with the representative. Every closed subset is the closure of
    its members, so it is reached one cyclic closure at a time.

    Only one closed subset per orbit under conjugation by thin elements is
    extended; the rest of its orbit is its image under the permutations of
    conjugations(H). This is exact. Let h be thin, so h*h = {0}. Then
    h*(hx) = {x} for every x, so the n sets hx are pairwise disjoint and
    nonempty subsets of the n elements, hence singletons. 0 lies in hh* by
    H3, so hh* = {0} and h* is thin as well; applying star, xh is a
    singleton too. So phi(x) = h*xh is a permutation, with inverse
    x -> hxh*, and by H1 and (pq)* = q*p* it satisfies phi(p)phi(q) =
    phi(pq) and phi(p*) = phi(p)*: an automorphism, which preserves
    closedness, normality and strong normality. Every orbit
    is reached: if G = closure(F u cyc(x)) and F' = phi(F) is the
    representative that gets extended, then closure(F' u cyc(phi(x))) =
    phi(G), and cyc(phi(x)) = phi(cyc(x)) is one of the distinct cyclic
    closures. The relations are likewise tested only for pairs (E, F) with
    E a representative; each hit (E, F) gives (phi(E), phi(F)) for every
    member phi(E) of E's orbit, one phi per member, so every pair of the
    lattice is visited exactly once.

    Refuses above the instance's rank cap, where an exhaustive enumeration
    is no longer guaranteed to be affordable.
    """
    return cached(H, "lattice", lambda: _enumerate(H))


def conjugations(H: FiniteHypergroup) -> dict[int, tuple[int, ...]]:
    """The permutation x -> h* x h of the elements, for every thin h.

    Read from the table; each product the proof in closed_subsets says is a
    singleton is checked to be one.
    """
    def element(m):
        if m.bit_count() != 1:
            raise InternalConsistencyError(
                "conjugation by a thin element is not a permutation")
        return m.bit_length() - 1

    t = H.table
    return {h: tuple(element(t[element(hx)][h]) for hx in t[H.star[h]])
            for h in bits(thin_elements(H))}


def _image(perm: tuple[int, ...], mask: int) -> int:
    return mask_of(map(perm.__getitem__, bits(mask)))


def _enumerate(H: FiniteHypergroup) -> ClosedSubsetLattice:
    if H.rank > H.rank_cap:
        raise RankCapError(
            f"rank {H.rank} exceeds the lattice cap {H.rank_cap}; "
            "raise the cap explicitly to proceed")
    # The distinct automorphisms, the identity (h = 0) first.
    perms = tuple(dict.fromkeys(conjugations(H).values()))
    rep_of: dict[int, tuple[int, tuple[int, ...]]] = {}

    def add_orbit(g):
        # Each member of g's orbit -> (g, a permutation carrying g onto it).
        for p in perms:
            rep_of.setdefault(_image(p, g), (g, p))

    cyclic: dict[int, int] = {}
    for x in range(1, H.rank):
        cyclic.setdefault(closure(H, 1 << x), x)
    gens = {1: 0}  # representative -> a generating mask; {0} needs none
    add_orbit(1)
    stack = [1]
    while stack:
        f = stack.pop()
        for c, x in cyclic.items():
            if c & ~f:
                g_gens = gens[f] | 1 << x
                g = closure(H, g_gens)
                if g not in rep_of:
                    gens[g] = g_gens
                    add_orbit(g)
                    stack.append(g)
    subsets = tuple(sorted(rep_of, key=subset_key))
    orbits: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for m, (rep, p) in rep_of.items():
        orbits.setdefault(rep, []).append((m, p))

    normal = set()
    strong = set()
    for e, orbit in orbits.items():
        for f in subsets:
            if e & ~f:
                continue
            is_normal_pair, is_strong_pair = _normality(H, e, f)
            if not is_normal_pair:
                continue
            for m, p in orbit:
                pair = (m, _image(p, f))
                normal.add(pair)
                if is_strong_pair:
                    strong.add(pair)
    return ClosedSubsetLattice(subsets=subsets,
                               normal_in=frozenset(normal),
                               strongly_normal_in=frozenset(strong))


def _require_closed_pair(H, E, F, op):
    em = H.subset(E)
    fm = H.subset(F)
    if not is_closed(H, em) or not is_closed(H, fm):
        raise PreconditionError(f"{op} requires closed subsets")
    if em & ~fm:
        raise PreconditionError(f"{op} requires the first subset inside the second")
    return em, fm


def is_normal(H: FiniteHypergroup, E, F) -> bool:
    """E h inside h E for every h in F, with E contained in F, both closed."""
    return _normality(H, *_require_closed_pair(H, E, F, "is_normal"))[0]


def is_strongly_normal(H: FiniteHypergroup, E, F) -> bool:
    """h* E h inside E for every h in F, with E contained in F, both closed."""
    return _normality(H, *_require_closed_pair(H, E, F, "is_strongly_normal"))[1]


def climb(H: FiniteHypergroup, pairs, bottom: int, top: int, step_ok=None):
    """Every chain bottom = C0 < ... < Ck = top along a lattice relation.

    pairs is closed_subsets(H).normal_in or .strongly_normal_in; every step
    is in it and, when step_ok is given, passes step_ok(Ci, Ci+1). Yields
    mask tuples depth first, larger extensions before smaller (ties by
    member list), so the one-step chain comes first whenever allowed;
    subsets from which the top is unreachable are memoized as dead. For one
    chain, take next(climb(...), None).
    """
    def ascents():
        up = {m: [] for m in closed_subsets(H).subsets}
        for e, f in sorted(pairs, key=lambda p: (-p[1].bit_count(),
                                                 subset_key(p[1])[1])):
            if e != f:
                up[e].append(f)
        return up

    up = cached(H, ("ascents", pairs), ascents)
    dead: set[int] = set()

    def walk(f: int):
        if f == top:
            yield (f,)
            return
        if f in dead:
            return
        found = False
        for g in up[f]:
            if not g & ~top and (step_ok is None or step_ok(f, g)):
                for tail in walk(g):
                    found = True
                    yield (f,) + tail
        if not found:
            dead.add(f)

    yield from walk(bottom)
