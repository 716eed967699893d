"""Closed-subset lattice, its normality relations and the chain sweeps over them."""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bits, members, subset_key
from .core import (
    FiniteHypergroup,
    _join,
    cached,
    closure,
    complex_product,
    thin_elements,
)
from .errors import InternalConsistencyError, RankCapError


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
    """The permutation phi_h: x -> h* x h of the elements, for every thin
    h, held as the single-bit mask of each image.

    Only the maps of a greedy generating set of the thin elements are read
    from the table: the least thin element not yet reached joins it. For
    such a g, g* x must be a singleton for every x, and the map must take
    the n elements to n distinct ones (perm[g]): so it is a permutation.
    Every other map is composed: each time a generator joins, the thin
    elements reached so far are walked breadth first, each multiplied on
    the left by every generator. For thin h and k, kh is a thin singleton:
    (kh)*(kh) = h*k*kh = h*{0}h = {0}, by (pq)* = q*p* and H1, and then kh
    is a singleton as the proof in closed_subsets says. And phi_kh(x) = h*k*
    x kh = phi_h(phi_k(x)), so phi_kh is phi_h read at phi_k's images. A
    product kh that is not a singleton raises InternalConsistencyError.
    Every map returned is a permutation, by induction on the order in which
    maps are made: phi_0 is the identity, a generator's map is checked, and
    a composed map is phi_h, made before it, read at the images of a
    generator's map perm[k], a composition of two permutations.
    """
    n = H.rank
    t = H.table
    index = {1 << i: i for i in range(n)}
    cols = cached(H, "cols", lambda: tuple(zip(*t)))
    thin = thin_elements(H)
    conj = {0: tuple(1 << i for i in range(n))}
    perm: dict[int, tuple[int, ...]] = {}  # generator k -> phi_k on elements
    try:
        for g in bits(thin):
            if g in conj:
                continue
            conj[g] = tuple(map(cols[g].__getitem__,
                                map(index.__getitem__, t[H.star[g]])))
            perm[g] = tuple(map(index.__getitem__, conj[g]))
            if len(set(perm[g])) < n:
                break
            reached = list(conj)
            for h in reached:
                for k in perm:
                    kh = index[t[k][h]]
                    if kh not in conj:
                        conj[kh] = tuple(map(conj[h].__getitem__, perm[k]))
                        reached.append(kh)
        else:
            if len(conj) == thin.bit_count():
                return {h: conj[h] for h in bits(thin)}
    except KeyError:  # some g* x or some kh is not a singleton
        pass
    raise InternalConsistencyError(
        "conjugation by a thin element is not a permutation")


def _image(auto: tuple[int, ...], elems) -> int:
    """Mask of the images of elems under auto, held as the single-bit
    mask of each element's image; the bits are distinct, so their sum is
    their union."""
    return sum(map(auto.__getitem__, elems))


def _enumerate(H: FiniteHypergroup) -> ClosedSubsetLattice:
    """The lattice of closed_subsets, by orbits, and its two relations.

    Extension by stabilizer orbits: a representative F is extended by one
    cyclic closure c per orbit of its stabilizer {phi : phi(F) = F} among
    the thin conjugations. If phi(F) = F, then closure(F u phi(c)) =
    phi(closure(F u c)), which lies in the orbit that closure(F u c) does,
    so the other members of c's orbit reach no new orbit. See A. Hulpke,
    Computing subgroups invariant under a set of automorphisms, J. Symb.
    Comput. 27, 1999. The extension is _join from the larger of F and c,
    as F's generating mask with x generates both.

    Orbits from one transposed table: images[x] holds phi(x) for every
    distinct automorphism phi, in one order, so the images of F under all
    of them are the entrywise unions (sums, the bits being distinct) of
    the rows images[x], x in F, one row per member. They are F's orbit,
    and the stabilizer is the phi whose image is F itself. The phi(c) are
    read the same way, from the cyclic closure of x: its image is the
    cyclic closure of phi(x).

    Normality from two masks per representative E: N(E) holds the h with
    E h inside h E, S(E) the h with h* E h inside E, and E is normal
    (strongly normal) in F iff F lies in N(E) (in S(E)). For thin h, x ->
    hx and x -> xh are injective, so E h, h E and h* E h have |E| members
    and each containment is an equality; E h = h E iff h* E h = E
    (multiply by h* or by h on the left, as h* h = h h* = {0}, and use H1).
    So the thin part of both masks is the h with phi_h(E) = E, read off the
    stabilizer pass. Each non-thin h forms E h once for both tests. S(E)
    lies in N(E): 0 lies in h h* by H3, so by H1 E h is inside h h* E h =
    h (h* E h), inside h E when h is in S(E).
    """
    if H.rank > H.rank_cap:
        raise RankCapError(
            f"rank {H.rank} exceeds the lattice cap {H.rank_cap}; "
            "raise the cap explicitly to proceed")
    # The distinct automorphisms, the identity (h = 0) first, each with the
    # mask of the thin h that induce it; images[x][j] = autos[j][x].
    induced: dict[tuple[int, ...], int] = {}
    for h, a in conjugations(H).items():
        induced[a] = induced.get(a, 0) | 1 << h
    autos = tuple(induced)
    inducers = tuple(induced.values())
    images = tuple(zip(*autos))
    non_thin = members(H.full & ~thin_elements(H))
    rep_of: dict[int, tuple[int, tuple[int, ...]]] = {}
    stabilizer: dict[int, list[int]] = {}  # representative -> fixers' j
    masks: dict[int, tuple[int, int]] = {}  # representative -> (N, S)

    def images_of(m):
        # m's image under each automorphism, in the order of autos.
        return map(sum, zip(*map(images.__getitem__, bits(m))))

    def add_orbit(g):
        # Each member of g's orbit -> (g, an automorphism carrying g onto
        # it); the automorphisms that fix g are kept as its stabilizer,
        # and their h join both masks.
        fixing = stabilizer[g] = []
        n_mask = 0
        for j, m in enumerate(images_of(g)):
            if m == g:
                fixing.append(j)
                n_mask |= inducers[j]
            elif m not in rep_of:
                rep_of[m] = (g, autos[j])
        rep_of[g] = (g, autos[0])
        s_mask = n_mask
        for h in non_thin:
            gh = complex_product(H, g, 1 << h)
            is_normal = not gh & ~complex_product(H, 1 << h, g)
            is_strong = not complex_product(H, 1 << H.star[h], gh) & ~g
            if is_strong and not is_normal:
                raise InternalConsistencyError(
                    "strong normality without normality")
            n_mask |= is_normal << h
            s_mask |= is_strong << h
        masks[g] = (n_mask, s_mask)

    # Element bit -> its cyclic closure, closed once per orbit of elements,
    # as phi(closure(x)) = closure(phi(x)); then each distinct cyclic
    # closure -> its least generator.
    cyclic_of: dict[int, int] = {}
    for x in range(H.rank):
        if 1 << x not in cyclic_of:
            cyclic_of.update(zip(images[x], images_of(closure(H, 1 << x))))
    cyclic: dict[int, int] = {}
    for x in range(1, H.rank):
        cyclic.setdefault(cyclic_of[1 << x], x)
    gens = {1: 0}  # representative -> a generating mask; {0} needs none
    add_orbit(1)
    stack = [1]
    while stack:
        f = stack.pop()
        covered = set()
        for c, x in cyclic.items():
            if c in covered or not c & ~f:
                continue
            covered.update(map(cyclic_of.__getitem__,
                               map(images[x].__getitem__, stabilizer[f])))
            g_gens = gens[f] | 1 << x
            g = _join(H, max(f, c, key=int.bit_count), g_gens)
            if g not in rep_of:
                gens[g] = g_gens
                add_orbit(g)
                stack.append(g)
    subsets = tuple(sorted(rep_of, key=subset_key))
    orbits: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for m, (rep, a) in rep_of.items():
        orbits.setdefault(rep, []).append((m, a))

    normal = set()
    strong = set()
    for f in subsets:
        elems = members(f)
        for e, orbit in orbits.items():
            if e & ~f or f & ~masks[e][0]:
                continue
            is_strong_pair = not f & ~masks[e][1]
            for m, b in orbit:
                pair = (m, _image(b, elems))
                normal.add(pair)
                if is_strong_pair:
                    strong.add(pair)
    return ClosedSubsetLattice(
        subsets=subsets, normal_in=frozenset(normal),
        strongly_normal_in=frozenset(strong))


def positions(H: FiniteHypergroup) -> dict[int, int]:
    """Each closed subset -> its place in the lattice order, stored."""
    return cached(H, "positions", lambda: {
        m: i for i, m in enumerate(closed_subsets(H).subsets)})


def sweeps(H: FiniteHypergroup, pairs, step_ok=None):
    """(up, down): one chain per closed subset along a lattice relation.

    A step D < C is a pair of pairs (normal_in or strongly_normal_in), D !=
    C, passing step_ok(D, C), asked only when the step would settle an
    unsettled end from a settled one. Steps go to later subsets of the
    size-sorted lattice, so taken by target, or backward by source, they
    read only settled ends; both orders are sorted once per relation and
    stored. up maps each C that {0} reaches to ({0}, ..., C) through the
    first D in lattice order, down each E that reaches the full set to (E,
    ..., full set) through the last F, the full set first.
    """
    def sort():
        at = positions(H)
        steps = [(d, c) for d, c in pairs if d != c]
        return (sorted(steps, key=lambda p: (at[p[1]], at[p[0]])),
                sorted(steps, key=lambda p: (at[p[0]], at[p[1]]), reverse=True))

    by_target, by_source = cached(H, ("steps", pairs), sort)
    up = {1: (1,)}
    for d, c in by_target:
        if c not in up and d in up and (step_ok is None or step_ok(d, c)):
            up[c] = up[d] + (c,)
    down = {H.full: (H.full,)}
    for e, f in by_source:
        if e not in down and f in down and (step_ok is None or step_ok(e, f)):
            down[e] = (e,) + down[f]
    return up, down
