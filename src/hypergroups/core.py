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
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import itemgetter, or_
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
    valid: bool
    violations: tuple[Violation, ...]

    def axioms(self) -> tuple[str, ...]:
        return tuple(v.axiom for v in self.violations)


def _entry_mask(entry, rank: int, p: int, q: int) -> int:
    if isinstance(entry, int):
        m = entry
    else:
        try:
            m = mask_of(int(x) for x in entry)
        except (TypeError, ValueError) as exc:
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
        row = list(row)
        if len(row) != rank:
            raise StructuralError(f"table row {p} must have {rank} entries, got {len(row)}")
        rows.append(tuple(_entry_mask(row[q], rank, p, q) for q in range(rank)))
    return tuple(rows), star_t, rank


def validate(table, star) -> ValidationReport:
    """Check a raw candidate (table of subsets, star map) against the axioms.

    Returns a report listing, for every violated axiom, the first witness
    triple in scan order. Structural defects (wrong shapes, out-of-range
    indices, empty product sets) raise StructuralError instead of being
    reported as axiom violations.
    """
    t, star_t, n = _normalize_candidate(table, star)
    found: dict[str, tuple[int, int, int]] = {}

    def record(axiom, witness):
        if axiom not in found:
            found[axiom] = witness

    # STAR: involution with star(0) = 0.
    if star_t[0] != 0:
        record("STAR", (0, star_t[0], 0))
    for s in range(n):
        if star_t[star_t[s]] != s:
            record("STAR", (s, star_t[s], star_t[star_t[s]]))
            break

    for s in range(n):
        if t[s][0] != 1 << s:
            record("H2", (s, 0, s))
            break
    for s in range(n):
        if t[0][s] != 1 << s:
            record("UNIT", (0, s, s))
            break

    h1 = _associativity_witness(t, n)
    if h1 is not None:
        record("H1", h1)

    # H3, literal form over all triples with r in pq.
    for p in range(n):
        sp = star_t[p]
        for q in range(n):
            sq = star_t[q]
            prod = t[p][q]
            ok = True
            for r in bits(prod):
                if not (t[sp][r] >> q) & 1 or not (t[r][sq] >> p) & 1:
                    record("H3", (p, q, r))
                    ok = False
                    break
            if not ok:
                break
        else:
            continue
        break
    # H3 consequence checked explicitly: the identity sits in s*s.
    if "H3" not in found:
        for s in range(n):
            if not t[star_t[s]][s] & 1:
                record("H3", (star_t[s], s, 0))
                break

    violations = tuple(
        Violation(ax, found[ax]) for ax in AXIOM_ORDER if ax in found
    )
    return ValidationReport(valid=not violations, violations=violations)


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
    ((g1 g2) g3)... of members of G reach all n, so 0 is checked like any
    other member and H2 is not relied on. Each member of G costs two lookups
    per pair (x, y), where the scan compares a whole row per pair. The
    argument needs ab to be one element; it does not carry over to tables
    that are not thin. See A. H. Clifford & G. B. Preston, The
    Algebraic Theory of Semigroups I, 1961.
    """
    index = {1 << i: i for i in range(n)}
    e = []  # e[x][y] = xy as an element
    for row in t:
        e.append(tuple(map(index.get, row)))
        if None in e[-1]:
            return False
    if n == 1:  # t is [[{0}]]; itemgetter below needs two indices
        return True
    gens, seen = [], []
    reached = bytearray(n)
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
            b = e[a][h]
            if not reached[b]:
                reached[b] = 1
                seen.append(b)
                work += [(b, k) for k in gens]
    flat = tuple(chain.from_iterable(e))  # flat[x n + y] = xy
    for a in gens:
        col = tuple(row[a] for row in e)  # col[z] = za
        # (xy)a against x(ya), row by row over x
        if (tuple(map(col.__getitem__, flat))
                != tuple(chain.from_iterable(map(itemgetter(*col), e)))):
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
    between workers. Every derived fact (sub-hypergroups, quotients, the
    closed-subset lattice, chains, ...) is kept after first computation in
    the instance's one store, read and written only through cached().
    """

    __slots__ = ("rank", "star", "table", "name", "rank_cap", "_cache")

    def __init__(self, table, star, *, name: str = "H",
                 rank_cap: int = DEFAULT_RANK_CAP):
        t, star_t, n = _normalize_candidate(table, star)
        report = validate(t, star_t)
        if not report.valid:
            raise InvalidHypergroupError(report)
        self.rank = n
        self.star = star_t
        self.table = t
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

    def subset(self, spec) -> int:
        """Coerce an int bitmask or an iterable of element indices to a mask."""
        if isinstance(spec, int):
            m = spec
        else:
            m = mask_of(int(x) for x in spec)
        if m < 0 or m >> self.rank:
            raise PreconditionError(f"subset out of range for rank {self.rank}")
        return m

    def __eq__(self, other):
        return (isinstance(other, FiniteHypergroup)
                and self.star == other.star and self.table == other.table)

    def __hash__(self):
        return hash((self.star, self.table))

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


def complex_product(H: FiniteHypergroup, P, Q) -> int:
    """Union of the table entries over p in P, q in Q. Empty if either is."""
    pm = H.subset(P)
    qm = H.subset(Q)
    out = 0
    t = H.table
    for p in bits(pm):
        row = t[p]
        m = qm
        while m:
            low = m & -m
            out |= row[low.bit_length() - 1]
            m ^= low
    return out


def star_set(H: FiniteHypergroup, S) -> int:
    """Image of a subset under the star involution."""
    out = 0
    star = H.star
    for s in bits(H.subset(S)):
        out |= 1 << star[s]
    return out


def closure(H: FiniteHypergroup, S) -> int:
    """Smallest closed subset containing S and the identity.

    Computed as the set W of all products of generators: starting from the
    identity, every new member is multiplied on the right by s and s* for
    each s in S. W contains S, and every closed subset containing S contains
    W. W is closed: W . W lies in W by associativity (H1), and W* = W because
    (pq)* = q*p*, which follows from the adjoint law (H3): r in pq gives
    p in rq*, then q* in r*p, then r* in q*p*. So star(a) . b lies in W for
    all a, b in W. Each member costs one table read per generator, not one
    per member. Stops early once the full set is reached, which is always
    closed.
    """
    t = H.table
    full = H.full
    seed = H.subset(S)
    gens = tuple(bits((seed | star_set(H, seed)) & ~1))
    mask = 1
    queue = [1]  # masks of members not yet multiplied out
    while queue:
        m = queue.pop()
        while m:
            low = m & -m
            m ^= low
            row = t[low.bit_length() - 1]
            for g in gens:
                add = row[g] & ~mask
                if add:
                    mask |= add
                    if mask == full:
                        return full
                    queue.append(add)
    return mask


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


@dataclass(frozen=True)
class Chain:
    """An ascending chain of closed subsets of base, with its step data.

    step_orders[i] is the number of double cosets of subsets[i] inside
    subsets[i+1], counted in base's own coordinates. A chain witnessing
    residual thinness starts at the identity subset and has every step
    quotient thin.
    """

    base: FiniteHypergroup
    subsets: tuple[int, ...]

    @cached_property
    def step_orders(self) -> tuple[int, ...]:
        return tuple(len(double_cosets_in(self.base, lo, hi))
                     for lo, hi in zip(self.subsets, self.subsets[1:]))

    @property
    def order_product(self) -> int:
        out = 1
        for k in self.step_orders:
            out *= k
        return out

    def __len__(self) -> int:
        return len(self.subsets) - 1
