"""Finite hypergroups as multiplication tables of subsets.

A finite hypergroup here is a set {0..n-1} with a product table whose entry
(p, q) is a nonempty subset of {0..n-1}, a star involution, and element 0 as
the identity. The product of subsets P, Q is the union of the entries over
p in P, q in Q. Three axioms are enforced:

  H1   set associativity: (pq)r = p(qr) for all elements p, q, r
  H2   right identity: s . 1 = {s} for every s (1 is element 0)
  H3   adjoint law: r in pq implies q in p*r and p in rq*

The left identity law 1 . s = {s} is checked separately and reported as a
UNIT violation when it fails while H2 holds; it is not folded into H2.
Subsets are int bitmasks throughout (see bitset), products are supports
only, there are no structure constants.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain
from operator import index, itemgetter, or_
from typing import NamedTuple

from .bitset import bits, full_mask, mask_of, members
from .errors import (
    InternalConsistencyError,
    InvalidHypergroupError,
    PreconditionError,
    StructuralError,
)

DEFAULT_RANK_CAP = 24

AXIOM_ORDER = ("H1", "H2", "H3", "STAR", "UNIT")


class Violation(NamedTuple):
    axiom: str
    witness: tuple[int, int, int]


@dataclass(frozen=True)
class ValidationReport:
    """Verdict of validate, with the normalized table and star it checked,
    which FiniteHypergroup stores; reports compare and print by verdict."""

    valid: bool
    violations: tuple[Violation, ...]
    table: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    star: tuple[int, ...] = field(compare=False, repr=False)


def _index_mask(indices, rank: int) -> int:
    """Mask of a collection of indices, each read through operator.index (a
    TypeError if it is not an integer). An index outside 0..rank-1 sets bit
    rank instead, so no shift passes rank and the caller's range check
    refuses the mask."""
    m = 0
    for x in indices:
        i = index(x)
        m |= 1 << (i if 0 <= i < rank else rank)
    return m


def _entry_mask(entry, rank: int, p: int, q: int) -> int:
    try:
        m = entry if isinstance(entry, int) else _index_mask(entry, rank)
    except TypeError as exc:
        raise StructuralError(f"product entry ({p},{q}) is not a set of indices") from exc
    if m < 0 or m >> rank:
        raise StructuralError(f"product entry ({p},{q}) has an element outside 0..{rank - 1}")
    if m == 0:
        raise StructuralError(f"empty product set at ({p},{q})")
    return m


def _normalize_candidate(table, star):
    rank = len(table)
    if rank < 1:
        raise StructuralError("rank must be at least 1")
    star_t = tuple(int(s) for s in star)
    if len(star_t) != rank:
        raise StructuralError(f"star must list {rank} images, got {len(star_t)}")
    if any(s < 0 or s >= rank for s in star_t):
        raise StructuralError("star image out of range")
    rows = []
    for p, row in enumerate(table):
        row = tuple(row)
        if len(row) != rank:
            raise StructuralError(f"table row {p} must have {rank} entries, got {len(row)}")
        plain = set(map(type, row)) == {int} and min(row) > 0 and not max(row) >> rank
        rows.append(row if plain else tuple(
            _entry_mask(row[q], rank, p, q) for q in range(rank)))
    return tuple(rows), star_t, rank


def validate(table, star) -> ValidationReport:
    """Check a raw candidate (table of subsets, star map) against the axioms.

    Returns a report listing, for every violated axiom, the first witness
    triple in scan order. Structural defects (wrong shapes, out-of-range
    indices, empty product sets) raise StructuralError instead of being
    reported as axiom violations. The one place a table is normalized.
    """
    t, star_t, n = _normalize_candidate(table, star)
    found: dict[str, tuple[int, int, int]] = {}  # axiom -> first witness

    # STAR: involution with star(0) = 0.
    if star_t[0] != 0:
        found["STAR"] = (0, star_t[0], 0)
    for s in range(n):
        if star_t[star_t[s]] != s:
            found.setdefault("STAR", (s, star_t[s], star_t[star_t[s]]))
            break

    for s in range(n):
        if t[s][0] != 1 << s:
            found["H2"] = (s, 0, s)
            break
    for s in range(n):
        if t[0][s] != 1 << s:
            found["UNIT"] = (0, s, s)
            break

    h1 = _associativity_witness(t, n)
    if h1 is not None:
        found["H1"] = h1

    if found or not _has_inverses(t, star_t, n):
        h3 = _adjoint_witness(t, star_t, n)
        if h3 is not None:
            found["H3"] = h3

    violations = tuple(
        Violation(ax, found[ax]) for ax in AXIOM_ORDER if ax in found
    )
    return ValidationReport(valid=not violations, violations=violations,
                            table=t, star=star_t)


def _has_inverses(t, star_t, n):
    """True iff s* s = {0} for every s. With STAR, H2, UNIT and H1, the
    table is then a group with s* = s^-1 and H3 holds, so validate skips
    _adjoint_witness, which would find nothing. Proof: s s* = {0} too, as
    s** = s. For r in pq, p* r lies in p*(pq) = (p* p)q = 0q = {q}, so p* r
    = {q} and pq = p(p* r) = (p p*)r = {r}; then r q* = (pq)q* = p(q q*) =
    {p}. So q is in p* r, p is in r q*, and 0 is in s* s.
    """
    return all(t[star_t[s]][s] == 1 for s in range(n))


def _adjoint_witness(t, star_t, n):
    """First H3 witness, or None: the first (p, q, r) in scan order with r
    in pq and q not in p* r or p not in r q*, else the first (s*, s, 0) with
    the identity not in s* s, a consequence checked explicitly."""
    for p in range(n):
        sp = star_t[p]
        for q in range(n):
            sq = star_t[q]
            for r in bits(t[p][q]):
                if not (t[sp][r] >> q) & 1 or not (t[r][sq] >> p) & 1:
                    return (p, q, r)
    for s in range(n):
        if not t[star_t[s]][s] & 1:
            return (star_t[s], s, 0)
    return None


def _or_rows(a, b):
    return tuple(map(or_, a, b))


class _Unions(dict):
    """Mask -> entrywise union of vectors[y] over y in mask, filled on first lookup."""

    def __init__(self, vectors):
        self.vectors = vectors

    def __missing__(self, mask):
        out = self[mask] = reduce(_or_rows, map(self.vectors.__getitem__, bits(mask)))
        return out


def _associativity_witness(t, n):
    """First (p, q, r) in scan order with (pq)r != p(qr), or None.

    A thin table, every entry a singleton, is first checked by Light's
    test (_thin_associative); the row scan runs only for tables that are
    not thin or that fail it, so the witness is always the scan's first.
    """
    if _thin_associative(t, n):
        return None
    return _row_scan_witness(t, n)


def _thin_associative(t, n):
    """True iff every entry of t is a singleton and H1 holds, by Light's
    associativity test.

    A thin t is a magma on 0..n-1. Let A be the set of a with (xy)a =
    x(ya) for all x, y. A is closed under products: for a, b in A, (xy)(ab)
    = ((xy)a)b = (x(ya))b = x((ya)b) = x(y(ab)), each step an instance of a
    in A or of b in A. So if A contains a set G whose products reach every
    element, A is everything and H1 holds. G is read from the table, not
    assumed: the least element not yet reached joins G until the products
    ((g1 g2) g3)... of members of G, and of 0 when it starts in A, reach
    all n. If x0 = x for every x (H2, read here off the table), 0 is in A
    unchecked, as (xy)0 = xy = x(y0); otherwise 0 joins G like any other
    element. Each member of G costs two lookups per pair (x, y), where the
    scan compares a whole row per pair. The argument needs ab to be one
    element; it does not carry over to tables that are not thin. See A. H.
    Clifford & G. B. Preston, The Algebraic Theory of Semigroups I, 1961.
    """
    # Entries are nonempty, so t is thin iff its bit counts sum to n n.
    if sum(map(int.bit_count, chain.from_iterable(t))) != n * n:
        return False
    # x is named x + 1 = (1 << x).bit_length() here: e[x][y + 1] = xy + 1
    e = [(0, *map(int.bit_length, row)) for row in t]
    h2 = [row[1] for row in e] == list(range(1, n + 1))
    gens, seen = [], [0] if h2 else []
    reached = bytearray(n)
    reached[0] = h2
    for g in range(n):
        if reached[g]:
            continue
        work = [(a, g) for a in seen]
        gens.append(g)
        reached[g] = 1
        seen.append(g)
        work += [(g, h) for h in gens]
        while work:
            a, h = work.pop()
            b = e[a][h + 1] - 1
            if not reached[b]:
                reached[b] = 1
                seen.append(b)
                work += [(b, k) for k in gens]
    products = [itemgetter(*row[1:]) for row in e]  # (v[xy + 1] for y)
    for a in gens:
        col = (0, *(row[a + 1] for row in e))  # col[z + 1] = za + 1
        right = itemgetter(*col[1:])  # (v[ya + 1] for y)
        # (xy)a against x(ya), row by row over x
        if any(xy(col) != right(row) for xy, row in zip(products, e)):
            return False
    return True


def _row_scan_witness(t, n):
    """First (p, q, r) in scan order with (pq)r != p(qr), or None.

    Compares whole rows over r. The row of (pq)r is the union of the rows
    t[x] for x in pq; the row of p(qr) holds, for each r, the union of
    t[p][y] over y in qr. Unions of rows and of columns are memoized per
    distinct mask, and for one q, zip turns the column unions of the masks
    t[q][r] into the rows of p(qr) for every p at once. Every pair (p, q)
    is compared until one fails; after that only smaller p are, which keeps
    the witness the first in scan order.
    """
    rows = _Unions(t)
    cols = _Unions(tuple(zip(*t)))
    found = None
    limit = n
    for q in range(n):
        for p, right in zip(range(limit), zip(*map(cols.__getitem__, t[q]))):
            if rows[t[p][q]] != right:
                found = (p, q, right)
                limit = p
                break
    if found is None:
        return None
    p, q, right = found
    left = rows[t[p][q]]
    return (p, q, next(r for r in range(n) if left[r] != right[r]))


class FiniteHypergroup:
    """Immutable hypergroup on elements 0..rank-1, identity 0.

    Every instance is validated: a table that breaks an axiom raises
    InvalidHypergroupError with the report. All operations on hypergroups
    in this package are pure functions; instances may be shared freely
    between workers. Instances compare and hash by identity, as two with
    one table may differ in name or rank cap. Every derived fact
    (sub-hypergroups, quotients, the closed-subset lattice, chains, ...) is
    kept after first computation in the instance's one store, read and
    written only through cached().
    """

    __slots__ = ("rank", "star", "table", "name", "rank_cap", "_cache")

    def __init__(self, table, star, *, name: str = "H",
                 rank_cap: int = DEFAULT_RANK_CAP):
        report = validate(table, star)
        if not report.valid:
            raise InvalidHypergroupError(report)
        self.rank = len(report.star)
        self.star = report.star
        self.table = report.table
        self.name = name
        self.rank_cap = rank_cap
        self._cache: dict = {}

    @property
    def full(self) -> int:
        return full_mask(self.rank)

    def with_rank_cap(self, cap: int) -> "FiniteHypergroup":
        """Copy sharing the validated table, with a different lattice refusal
        threshold and an empty store: a lattice stored under another cap
        must not skip this cap's refusal."""
        h = copy(self)
        h.rank_cap = cap
        h._cache = {}
        return h

    def subset(self, m: int) -> int:
        """m, checked to be a mask of 0..rank-1 (m >> rank is nonzero if m < 0)."""
        if m >> self.rank:
            raise PreconditionError(f"subset out of range for rank {self.rank}")
        return m

    def __repr__(self):
        return f"FiniteHypergroup({self.name!r}, rank={self.rank})"


def cached(H: FiniteHypergroup, key, compute):
    """The fact of H stored under key (a name, or a name and the arguments
    the fact depends on), from compute() on first use. The one store of
    derived facts; a compute() that raises stores nothing.
    """
    store = H._cache
    if key not in store:
        store[key] = compute()
    return store[key]


def thin_elements(H: FiniteHypergroup) -> int:
    """Mask of elements s with s* s = {identity}."""
    return cached(H, "thin", lambda: mask_of(
        s for s in range(H.rank) if H.table[H.star[s]][s] == 1))


def complex_product(H: FiniteHypergroup, P: int, Q: int) -> int:
    """Union of the table entries over p in P, q in Q, both masks checked
    inline as in FiniteHypergroup.subset. Empty if either is."""
    if (P | Q) >> H.rank:
        raise PreconditionError(f"subset out of range for rank {H.rank}")
    out = 0
    t = H.table
    for p in bits(P):
        row = t[p]
        m = Q
        while m:
            low = m & -m
            out |= row[low.bit_length() - 1]
            m ^= low
    return out


def star_set(H: FiniteHypergroup, S: int) -> int:
    """Image of a mask under the star involution."""
    if S >> H.rank:
        raise PreconditionError(f"subset out of range for rank {H.rank}")
    out = 0
    star = H.star
    for s in bits(S):
        out |= 1 << star[s]
    return out


def closure(H: FiniteHypergroup, S) -> int:
    """Smallest closed subset containing S and the identity.

    S is a mask or, here alone in the package, a collection of indices.
    Computed as _join({0}, S): the set of all products of generators.
    """
    try:
        seed = H.subset(S if isinstance(S, int) else _index_mask(S, H.rank))
    except TypeError as exc:
        raise PreconditionError("subset is not a set of indices") from exc
    return _join(H, 1, seed)


def _join(H: FiniteHypergroup, F: int, S: int) -> int:
    """Smallest closed subset containing the closed F and the mask S, where
    S holds a generating set of F ({0} needs none).

    Built coset by coset from F, as Dimino's algorithm extends a subgroup
    (G. Butler, Fundamental Algorithms for Permutation Groups, LNCS 559,
    1991). The sets F y partition H: y is in F y, as 0 is in F, and x in
    F y gives y in F* x = F x by H3, so F x lies in F (F y) = (F F) y = F y
    and F y in F x alike. From the representative 0 (F 0 = F), each
    representative r is multiplied by every s in S and S*, and each product
    element y not yet reached brings its whole coset F y, one column read
    per member of F, and becomes a representative. At the end G, the union
    of the cosets F r, has r s inside G for every representative r and
    generator s, so G s lies in F G = G, as F (F r) = F r; so G is closed
    under right multiplication by every product of generators, and
    contains all of them. G lies in that set W of products, as S generates
    F and each F y lies in F W = W. W is the closure of S and F: W
    contains S, every closed subset containing S contains W, W W lies in W
    by H1, and W* = W as (pq)* = q*p*, from H3 (r in pq gives p in rq*,
    then q* in r*p, then r* in q*p*). Each coset costs |F| column reads
    and each representative one table read per generator.

    Stops early, by Lagrange's theorem, once the cosets reached hold more
    members than any closed subset other than H that contains F (the bound
    of _lagrange_bounds for |F|): the join is then H, which is always
    closed. When H is thin it is a group: every entry is a singleton, H1
    is associativity, 0 the identity and h* the inverse of h, as h* h =
    {0}. A closed subset is then a subgroup, so the join W contains the
    subgroup F, and |W| = [W : F] |F| with [W : F] dividing [H : F] = m,
    as [H : F] = [H : W] [W : F]. If W is not H, [W : F] is a divisor of m
    below m, so at most m/p for the least prime p of m, and |W| is at most
    m |F| / p = n/p for n = |H|. Every member reached lies in W, so once
    more than n/p are reached, W = H. Otherwise the bound is n - 1: the
    join stops at the full set, and no earlier.
    """
    full = H.full
    t = H.table
    gens = tuple(bits((S | star_set(H, S)) & ~1))
    base = F != 1 and members(F & ~1)  # 0 y = {y}, by UNIT
    cols = base and cached(H, "cols", lambda: tuple(zip(*t)))
    bound = cached(H, "join_bounds", lambda: _lagrange_bounds(
        H.rank, thin_elements(H) == full))[F.bit_count()]
    mask = F
    reps = [0]
    for r in reps:
        row = t[r]
        for s in gens:
            add = row[s] & ~mask
            while add:
                low = add & -add
                y = low.bit_length() - 1
                mask |= reduce(or_, map(cols[y].__getitem__, base), low) if base else low
                if mask.bit_count() > bound:
                    return full
                reps.append(y)
                add &= ~mask
    return mask


@lru_cache(maxsize=None)
def _lagrange_bounds(n: int, thin: bool) -> tuple[int, ...]:
    """|F| -> the bound of _join for H of rank n: n/p for the least prime
    p of n/|F| when H is thin and |F| a proper divisor of n, else n - 1."""
    return tuple(n // next(p for p in range(2, n + 1) if n // k % p == 0)
                 if thin and 0 < k < n and n % k == 0 else n - 1
                 for k in range(n + 1))


def is_closed(H: FiniteHypergroup, S) -> bool:
    """True iff S is nonempty and star(a) . b lies in S for all a, b in S.

    closure(S) is the least closed subset containing S and the identity, so
    it equals S iff S is closed; the empty set's closure is {0}.
    """
    m = H.subset(S)
    return cached(H, ("is_closed", m), lambda: closure(H, m) == m)


def sub_hypergroup(H: FiniteHypergroup, F) -> FiniteHypergroup:
    """Restriction of the table to a closed subset, re-indexed from 0.

    Elements keep their relative order, so element i of the result is the
    i-th smallest member of F. Products of members of F stay inside F (a
    closed F is star-closed, so a . b = (a*)* . b lies in F), and every
    axiom survives restriction.
    """
    fm = H.subset(F)
    if not is_closed(H, fm):
        raise PreconditionError("sub_hypergroup requires a closed subset")
    return cached(H, ("sub", fm), lambda: _build_sub(H, fm))


def _build_sub(H: FiniteHypergroup, fm: int) -> FiniteHypergroup:
    elems = members(fm)
    pos = {e: i for i, e in enumerate(elems)}
    star = tuple(pos[H.star[e]] for e in elems)
    table = []
    for a in elems:
        row = []
        for b in elems:
            row.append(mask_of(pos[x] for x in bits(H.table[a][b])))
        table.append(tuple(row))
    name = f"{H.name}[{','.join(map(str, elems))}]"
    return FiniteHypergroup(tuple(table), star, name=name, rank_cap=H.rank_cap)


def restrict_subset(F, S) -> int:
    """Re-index a subset S of a closed F into sub_hypergroup coordinates."""
    out = 0
    for i, e in enumerate(bits(F)):
        if (S >> e) & 1:
            out |= 1 << i
    return out


def double_cosets_in(H: FiniteHypergroup, lo: int, hi: int) -> tuple[int, ...]:
    """Double cosets lo h lo for h in hi, closed lo <= hi, in H's coordinates.

    Blocks come out ordered by smallest member, so lo itself is first.
    Stored, as their number is the order of a chain step lo < hi.
    """
    def compute():
        blocks = []
        covered = 0
        for h in bits(hi):
            if (covered >> h) & 1:
                continue
            block = complex_product(H, lo, complex_product(H, 1 << h, lo))
            if block & covered:
                raise InternalConsistencyError("double cosets failed to partition")
            blocks.append(block)
            covered |= block
        return tuple(blocks)

    return cached(H, ("double_cosets", lo, hi), compute)
