"""Independent brute-force oracles used to freeze expected values.

Everything here works on plain python sets and integer Cayley tables, not
on the package's bitmask representation, and recomputes results by direct
enumeration so the main code paths are checked against a second route. The
seven exceptions are naive_parse_document, which is the native reader
with its per-token checks, reading lines and integers through the
package's own helpers, naive_conjugations, which reads every conjugation map
off the package's bitmask table, climb, which searches the package's own
lattice relations depth first for chains, chain_products, which runs over
the package's strongly normal pairs, naive_solvability_suite, which
asks the package's own sigma-solvability test about every quotient and
sub-hypergroup separately, naive_hall_constructive, which searches the
quotient over the Pi-radical in that quotient's own lattice, and
naive_pi_valenced_violation, which reads each quotient over a subnormal
Pi-subset in its own table.
"""

from __future__ import annotations

from itertools import combinations, product


# ---------------------------------------------------------------------------
# axiom checking on tables of python sets

def naive_axioms(table, star) -> set[str]:
    """Violated axiom ids for a candidate (table of sets, star list)."""
    n = len(table)
    bad = set()
    if star[0] != 0 or any(star[star[s]] != s for s in range(n)):
        bad.add("STAR")
    for s in range(n):
        if table[s][0] != {s}:
            bad.add("H2")
        if table[0][s] != {s}:
            bad.add("UNIT")
    for p, q, r in product(range(n), repeat=3):
        left = set().union(*(table[x][r] for x in table[p][q]))
        right = set().union(*(table[p][y] for y in table[q][r]))
        if left != right:
            bad.add("H1")
    for p, q in product(range(n), repeat=2):
        for r in table[p][q]:
            if q not in table[star[p]][r] or p not in table[r][star[q]]:
                bad.add("H3")
    for s in range(n):
        if 0 not in table[star[s]][s]:
            bad.add("H3")
    return bad


def naive_associativity_witness(t, n):
    """First (p, q, r) in scan order with (pq)r != p(qr), or None.

    One triple at a time on a table of bitmasks: the scan the package's
    row-at-a-time check must agree with, witness for witness.
    """
    rng = range(n)
    for p in rng:
        rowp = t[p]
        for q in rng:
            pq = rowp[q]
            rowq = t[q]
            for r in rng:
                left = 0
                m = pq
                while m:
                    low = m & -m
                    left |= t[low.bit_length() - 1][r]
                    m ^= low
                right = 0
                m = rowq[r]
                while m:
                    low = m & -m
                    right |= rowp[low.bit_length() - 1]
                    m ^= low
                if left != right:
                    return (p, q, r)
    return None


def naive_cayley_read(text: str):
    """(table of masks, star) of a Cayley document, or its ParseError.

    The Cayley reader's checks one symbol at a time, in the reader's order:
    header, order line, row count, row lengths, distinct first row, unknown
    symbols row by row, the identity row and column, then row i and column
    i of the Latin square for each i in turn, and associativity, reported
    at the line of the witness's first element.
    Lines break only at \\n,
    \\r\\n and \\r, the breaks that open() reads.
    """
    from hypergroups.errors import ParseError

    lines = []
    breaks = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(breaks.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ParseError("empty document", 1)
    lineno, head = lines[0]
    key = head.split(None, 1)[0]
    if key != "group":
        raise ParseError(f"expected 'group <name>' header, got {key!r}", lineno)
    if len(lines) < 2 or lines[1][1].split()[0] != "order":
        raise ParseError("expected 'order <n>' line", lines[0][0] + 1)
    lineno, line = lines[1]
    toks = line.split()
    if len(toks) != 2:
        raise ParseError("order line needs one integer", lineno)
    try:
        n = int(toks[1])
    except ValueError:
        raise ParseError(f"expected order, got {toks[1]!r}", lineno) from None
    if n < 1:
        raise ParseError("order must be positive", lineno)
    rows = lines[2:]
    if len(rows) != n:
        raise ParseError(f"expected {n} table rows, got {len(rows)}",
                         rows[-1][0] if rows else lineno)
    grid = []
    for lineno, line in rows:
        cells = line.split()
        if len(cells) != n:
            raise ParseError(f"expected {n} symbols in row, got {len(cells)}",
                             lineno)
        grid.append(cells)
    symbols = grid[0]
    if len(set(symbols)) != n:
        raise ParseError("first row must list n distinct symbols", rows[0][0])
    pos = {s: i for i, s in enumerate(symbols)}
    table = []
    for (lineno, _), syms in zip(rows, grid):
        for sym in syms:
            if sym not in pos:
                raise ParseError(f"unknown symbol {sym!r}", lineno)
        table.append([pos[sym] for sym in syms])
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise ParseError(
                "first symbol is not an identity: row/column mismatch at "
                f"position {i}", rows[0][0])
    for i in range(n):
        if sorted(table[i]) != list(range(n)):
            raise ParseError(f"not a Latin square: repeated symbol in row {i}",
                             rows[i][0])
        col = sorted(table[r][i] for r in range(n))
        if col != list(range(n)):
            raise ParseError(f"not a Latin square: repeated symbol in column {i}",
                             rows[0][0])
    masks = tuple(tuple(1 << x for x in row) for row in table)
    witness = naive_associativity_witness(masks, n)
    if witness is not None:
        a, b, c = witness
        raise ParseError(
            f"not associative at ({symbols[a]},{symbols[b]},{symbols[c]})",
            rows[a][0])
    return masks, tuple(row.index(0) for row in table)


def naive_parse_document(text: str):
    """The validated hypergroup of a native document, or its error, read
    with every check on every line, one member token at a time, entries
    collected by (p, q). Lines come from the package's own
    _meaningful_lines, so line numbering is shared, not re-derived.
    """
    from hypergroups.bitset import bits, mask_of
    from hypergroups.core import FiniteHypergroup
    from hypergroups.errors import ParseError
    from hypergroups.formats import _header, _int, _meaningful_lines

    lines = list(_meaningful_lines(text))
    name = _header(lines, "hypergroup", "H")
    rank = None
    star = None
    identity = 0
    identity_line = lines[0][0]
    entries: dict[tuple[int, int], int] = {}
    headers = set()
    for lineno, line in lines[1:]:
        toks = line.split()
        key = toks[0]
        if key in headers:
            raise ParseError(f"duplicate {key} line", lineno)
        if key in ("rank", "identity", "star"):
            headers.add(key)
        if key == "rank":
            if len(toks) != 2:
                raise ParseError("rank line needs one integer", lineno)
            rank = _int(toks[1], lineno, "rank")
            if rank < 1:
                raise ParseError("rank must be positive", lineno)
        elif key == "identity":
            if len(toks) != 2:
                raise ParseError("identity line needs one index", lineno)
            identity = _int(toks[1], lineno, "identity index")
            identity_line = lineno
        elif key == "star":
            if rank is None:
                raise ParseError("star line before rank", lineno)
            if len(toks) != rank + 1:
                raise ParseError(f"star line needs {rank} indices", lineno)
            star = tuple(_int(t, lineno, "star index") for t in toks[1:])
            if any(not 0 <= x < rank for x in star):
                raise ParseError("star index out of range", lineno)
        elif key.lstrip("-").isdigit():
            if rank is None:
                raise ParseError("table entry before rank", lineno)
            if ":" not in toks:
                raise ParseError("table entry needs 'p q : members'", lineno)
            sep = toks.index(":")
            if sep != 2:
                raise ParseError("table entry needs exactly two indices before ':'",
                                 lineno)
            p = _int(toks[0], lineno, "row index")
            q = _int(toks[1], lineno, "column index")
            if not (0 <= p < rank and 0 <= q < rank):
                raise ParseError(f"entry indices ({p},{q}) out of range", lineno)
            mem = [_int(t, lineno, "member index") for t in toks[3:]]
            if not mem:
                raise ParseError(f"empty product set at ({p},{q})", lineno)
            if any(x < 0 or x >= rank for x in mem):
                raise ParseError(f"product member out of range at ({p},{q})", lineno)
            if (p, q) in entries:
                raise ParseError(f"duplicate table entry ({p},{q})", lineno)
            entries[(p, q)] = mask_of(mem)
        else:
            raise ParseError(f"unrecognized line {key!r}", lineno)
    if rank is None:
        raise ParseError("missing rank line", lines[-1][0])
    if star is None:
        raise ParseError("missing star line", lines[-1][0])
    if not (0 <= identity < rank):
        raise ParseError("identity index out of range", identity_line)
    missing = next(((p, q) for p in range(rank) for q in range(rank)
                    if (p, q) not in entries), None)
    if missing is not None:
        raise ParseError(f"missing table entry {missing}", lines[-1][0])
    table = tuple(tuple(entries[(p, q)] for q in range(rank))
                  for p in range(rank))
    if identity != 0:
        # Swap 0 and the declared identity index; the swap is its own inverse.
        perm = list(range(rank))
        perm[0], perm[identity] = identity, 0
        star = tuple(perm[star[perm[i]]] for i in range(rank))
        table = tuple(
            tuple(mask_of(perm[x] for x in bits(table[perm[p]][perm[q]]))
                  for q in range(rank))
            for p in range(rank))
    return FiniteHypergroup(table, star, name=name)


def naive_scheme_supports(mat) -> tuple[tuple[int, ...], ...]:
    """Support table of a relation matrix over every triple of points:
    relation k lies in p q iff some x, y, z has x y in p, y z in q and
    x z in k."""
    r = max(max(row) for row in mat) + 1
    table = [[0] * r for _ in range(r)]
    for row_x in mat:
        for y, p in enumerate(row_x):
            for z, k in enumerate(row_x):
                table[p][mat[y][z]] |= 1 << k
    return tuple(map(tuple, table))


def sets_of(H):
    """Package hypergroup -> (table of python sets, star list)."""
    from hypergroups import members
    table = [[set(members(H.table[p][q])) for q in range(H.rank)]
             for p in range(H.rank)]
    return table, list(H.star)


# ---------------------------------------------------------------------------
# closed subsets by powerset sweep

def naive_closure(table, star, seed) -> frozenset[int]:
    t = set(seed) | {0}
    while True:
        grown = set(t)
        for a in t:
            for b in t:
                grown |= table[star[a]][b]
        if grown == t:
            return frozenset(t)
        t = grown


def naive_products(table, star, seed) -> frozenset[int]:
    """Every product of members of seed and their stars, from 0: each
    element reached is multiplied on the right by every generator, one
    element at a time, with no cosets and no early stop. This set is the
    closure (core._join's docstring proves it); naive_closure is the pair
    rule."""
    gens = set(seed) | {star[s] for s in seed}
    out = {0}
    todo = [0]
    for r in todo:
        for s in gens:
            for y in table[r][s] - out:
                out.add(y)
                todo.append(y)
    return frozenset(out)


def naive_closed_subsets(table, star) -> set[frozenset[int]]:
    n = len(table)
    out = set()
    elems = range(n)
    for k in range(n + 1):
        for seed in combinations(elems, k):
            out.add(naive_closure(table, star, seed))
    return out


def naive_extension_closed_subsets(table, star) -> set[frozenset[int]]:
    """Closed subsets by one-element extension: close F with each missing
    element, from the identity subset until nothing new appears."""
    n = len(table)
    found = {naive_closure(table, star, ())}
    frontier = list(found)
    while frontier:
        f = frontier.pop()
        for x in range(n):
            if x not in f:
                g = naive_closure(table, star, f | {x})
                if g not in found:
                    found.add(g)
                    frontier.append(g)
    return found


def naive_conjugations(H):
    """The permutation x -> h* x h of the elements, for every thin h, held
    as the single-bit mask of each image, each map read off the table.

    Read from the table: h* x must be a singleton, and the images, n
    nonempty masks, must be pairwise disjoint (their sum is their union)
    with union the full set, so each is a singleton and they permute the
    elements.
    """
    from functools import reduce
    from operator import or_

    from hypergroups import InternalConsistencyError, bits, thin_elements

    index = {1 << i: i for i in range(H.rank)}.__getitem__
    cols = tuple(zip(*H.table))
    try:
        conj = {h: tuple(map(cols[h].__getitem__, map(index, H.table[H.star[h]])))
                for h in bits(thin_elements(H))}
        if all(sum(a) == reduce(or_, a) == H.full for a in conj.values()):
            return conj
    except KeyError:  # some h* x is not a singleton
        pass
    raise InternalConsistencyError(
        "conjugation by a thin element is not a permutation")


# ---------------------------------------------------------------------------
# double cosets, quotients and section thinness on python sets

def naive_product(table, P, Q) -> set[int]:
    out = set()
    for p in P:
        for q in Q:
            out |= table[p][q]
    return out


def naive_normal_pairs(table, star, subsets):
    """(normal, strongly normal) pairs (E, F) of frozensets, over the given
    python sets, with E inside F and, for every h in F, E h inside h E,
    respectively h* E h inside E."""
    normal = set()
    strong = set()
    for e in map(frozenset, subsets):
        for f in map(frozenset, subsets):
            if not e <= f:
                continue
            if all(naive_product(table, e, {h}) <= naive_product(table, {h}, e)
                   for h in f):
                normal.add((e, f))
            if all(naive_product(table, {star[h]}, naive_product(table, e, {h})) <= e
                   for h in f):
                strong.add((e, f))
    return normal, strong


def naive_subnormal(table, star) -> set[frozenset[int]]:
    """Closed subsets joined to the full set by a chain of normal steps:
    backward reachability from the full set over naive_normal_pairs."""
    normal, _ = naive_normal_pairs(table, star, naive_closed_subsets(table, star))
    reached = {frozenset(range(len(table)))}
    grew = True
    while grew:
        grew = False
        for e, f in normal:
            if f in reached and e not in reached:
                reached.add(e)
                grew = True
    return reached


def naive_thin_residue(table, star, F) -> frozenset[int]:
    """O^theta(F): the closure of the union of h* h over h in F."""
    return naive_closure(table, star,
                         set().union(*(table[star[h]][h] for h in F)))


def naive_double_cosets(table, F, universe) -> list[frozenset[int]]:
    blocks = []
    covered = set()
    for h in sorted(universe):
        if h in covered:
            continue
        blk = frozenset(naive_product(table, F, naive_product(table, {h}, F)))
        blocks.append(blk)
        covered |= blk
    return blocks


def naive_quotient(table, star, F, universe):
    """(block list, block product table, block star) over the given universe."""
    blocks = naive_double_cosets(table, F, universe)
    where = {}
    for i, blk in enumerate(blocks):
        for e in blk:
            where[e] = i
    reps = [min(blk) for blk in blocks]
    k = len(blocks)
    qtable = [[None] * k for _ in range(k)]
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            afb = naive_product(table, {a}, naive_product(table, F, {b}))
            qtable[i][j] = {where[x] for x in afb}
    qstar = [where[star[r]] for r in reps]
    return blocks, qtable, qstar


def naive_section_thin(table, star, E, G) -> bool:
    """Is the quotient of G over E (inside G) thin?"""
    _, qtable, qstar = naive_quotient(table, star, set(E), set(G))
    return all(qtable[qstar[i]][i] == {0} for i in range(len(qtable)))


def naive_rt_chains(table, star) -> list[tuple[frozenset[int], ...]]:
    """Every ascending chain of closed subsets from {0} to the full set
    whose step quotients are all thin."""
    n = len(table)
    closed = sorted(naive_closed_subsets(table, star),
                    key=lambda s: (len(s), sorted(s)))
    full = frozenset(range(n))
    chains = []

    def extend(chain):
        top = chain[-1]
        if top == full:
            chains.append(tuple(chain))
            return
        for g in closed:
            if top < g and naive_section_thin(table, star, top, g):
                extend(chain + [g])

    extend([frozenset({0})])
    return chains


def climb(H, pairs, bottom: int, top: int, step_ok=None):
    """Every chain bottom = C0 < ... < Ck = top along a lattice relation.

    pairs is closed_subsets(H).normal_in or .strongly_normal_in; every step
    is in it and, when step_ok is given, passes step_ok(Ci, Ci+1). Yields
    mask tuples depth first, larger extensions before smaller (ties by
    member list), so the one-step chain comes first whenever allowed;
    subsets from which the top is unreachable are memoized as dead. For one
    chain, take next(climb(...), None). The second route for
    lattice.sweeps.
    """
    from hypergroups import closed_subsets, subset_key

    up = {m: [] for m in closed_subsets(H).subsets}
    for e, f in sorted(pairs, key=lambda p: (-p[1].bit_count(),
                                             subset_key(p[1])[1])):
        if e != f:
            up[e].append(f)
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


def chain_products(H) -> dict[int, set[int]]:
    """Each closed C that a thin chain ({0}, ..., C) reaches -> the set of
    the step-order products of all such chains.

    A dynamic programme over the strongly normal pairs of the package's
    lattice, in its size-sorted order, so every D below C is settled first:
    the products at C are those at each reached D, times the number of
    double cosets of D in C, counted on python sets. The valency of C is
    independent of the chain iff its set has one member. The exhaustive
    second route for valency and valency_of.
    """
    from hypergroups import closed_subsets, members

    table, _ = sets_of(H)
    lat = closed_subsets(H)
    below: dict[int, list[int]] = {}
    for d, c in lat.strongly_normal_in:
        if d != c:
            below.setdefault(c, []).append(d)
    products = {1: {1}}
    for c in lat.subsets:
        for d in below.get(c, ()):
            if d in products:
                k = len(naive_double_cosets(table, members(d), members(c)))
                products.setdefault(c, set()).update(p * k for p in products[d])
    return products


# ---------------------------------------------------------------------------
# the solvability suite, every instance decided on its own

def naive_solvability_suite(H, sigma):
    """The report solvability_suite must give, with nothing carried: the
    quotient over every closed subset is built and decided, whether or not
    a check reads it, and a closed subset is decided as a sub-hypergroup
    rather than by a chain in H's own lattice."""
    from hypergroups import (
        SMALLEST,
        SolvabilitySuiteReport,
        SuiteCheck,
        closed_subsets,
        is_residually_thin,
        is_sigma_solvable,
        is_solvable,
        members,
        quotient,
        sub_hypergroup,
        subnormal_closed_subsets,
    )

    lat = closed_subsets(H)
    solvable = is_sigma_solvable(H, sigma)
    part = {c: is_sigma_solvable(sub_hypergroup(H, c), sigma)
            for c in lat.subsets}
    over = {e: is_sigma_solvable(quotient(H, e).quotient, sigma)
            for e in lat.subsets}
    subnormal = subnormal_closed_subsets(H)
    every = lat.subsets if solvable else ()

    def check(name, cases):
        return SuiteCheck(name, len(cases),
                          tuple(label for label, ok in cases if not ok))

    return SolvabilitySuiteReport((
        check("closed_subsets_inherit_solvability",
              [(f"closed subset {list(members(c))}", part[c]) for c in every]),
        check("quotients_by_normal_inherit_solvability",
              [(f"quotient over normal {list(members(e))}", over[e])
               for e in every if (e, H.full) in lat.normal_in]),
        check("quotients_by_subnormal_inherit_solvability",
              [(f"quotient over subnormal {list(members(d))}", over[d])
               for d in every if d in subnormal]),
        check("solvable_part_and_quotient_force_solvability",
              [(f"assembled through {list(members(e))}", solvable)
               for e in lat.subsets if part[e] and over[e]]),
        check("smallest_partition_matches_prime_step_chains",
              [("smallest-partition solvability disagrees with prime-step chains",
                is_sigma_solvable(H, SMALLEST) == is_solvable(H))]
              if is_residually_thin(H) else []),
    ))


def naive_hall_constructive(H, sigma, pi):
    """The constructive Hall subset by the quotient route: build the
    quotient over the Pi-radical, take the first closed subset of its own
    lattice with Pi-number size and complement-number index, and return
    the union of its blocks; None when there is none."""
    from hypergroups import (
        closed_subsets,
        double_cosets,
        is_pi_complement_number,
        is_pi_number,
        members,
        pi_radical,
        quotient,
    )

    radical = pi_radical(H, sigma, pi)
    blocks = double_cosets(H, radical)
    q = quotient(H, radical).quotient
    for c in closed_subsets(q).subsets:
        size = c.bit_count()
        if is_pi_number(size, sigma, pi) and \
                is_pi_complement_number(q.rank // size, sigma, pi):
            return sum(blocks[i] for i in members(c))
    return None


def naive_pi_valenced_violation(H, sigma, pi):
    """The Pi-valenced witness by the quotient route: build H//U for each
    subnormal closed Pi-subset U, and read its thin elements, its block
    products b* b and the valency of each thin closed one in H//U."""
    from hypergroups import (
        InternalConsistencyError,
        bits,
        closed_subsets,
        double_cosets,
        is_closed,
        is_pi_number,
        quotient,
        subnormal_closed_subsets,
        thin_elements,
        valency_of,
    )

    subnormal = subnormal_closed_subsets(H)
    pi_subsets = [c for c in closed_subsets(H).subsets
                  if is_pi_number(valency_of(H, c), sigma, pi)]
    for u in pi_subsets:
        if u not in subnormal:
            continue
        blocks = double_cosets(H, u)
        q = quotient(H, u).quotient
        thin = thin_elements(q)
        for b in range(q.rank):
            s = q.table[q.star[b]][b]
            if s & ~thin:
                continue
            if not is_pi_number(s.bit_count(), sigma, pi):
                return (u, next(bits(blocks[b])))
            if is_closed(q, s) and valency_of(q, s) != s.bit_count():
                raise InternalConsistencyError(
                    "thin closed product set with valency differing from size")
    return None


# ---------------------------------------------------------------------------
# group-theoretic oracle over integer Cayley tables

def trial_prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


class GroupOracle:
    """Subgroup and Hall facts recomputed directly from a Cayley table."""

    def __init__(self, table):
        self.table = table
        self.n = len(table)
        self.inv = [row.index(0) for row in table]

    def generate(self, seed) -> frozenset[int]:
        t = self.table
        got = set(seed) | {0}
        frontier = list(got)
        while frontier:
            a = frontier.pop()
            for b in list(got):
                for c in (t[a][b], t[b][a], self.inv[a]):
                    if c not in got:
                        got.add(c)
                        frontier.append(c)
        return frozenset(got)

    def subgroups(self) -> list[frozenset[int]]:
        found = {self.generate(())}
        grew = True
        while grew:
            grew = False
            for s in list(found):
                for g in range(self.n):
                    if g in s:
                        continue
                    t = self.generate(set(s) | {g})
                    if t not in found:
                        found.add(t)
                        grew = True
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def conjugate(self, S, h) -> frozenset[int]:
        t = self.table
        return frozenset(t[t[h][s]][self.inv[h]] for s in S)

    def conjugacy_witness(self, S, T) -> int | None:
        for h in range(self.n):
            if self.conjugate(S, h) == frozenset(T):
                return h
        return None

    def hall_subgroups(self, selected_primes: set[int]) -> list[frozenset[int]]:
        """Subgroups whose order uses only selected primes and whose index
        uses none of them. With the all-singletons partition this is the
        Hall property for the selection."""
        out = []
        for s in self.subgroups():
            order_primes = trial_prime_factors(len(s))
            index_primes = trial_prime_factors(self.n // len(s))
            if order_primes <= selected_primes and \
                    not (index_primes & selected_primes):
                out.append(s)
        return out

    def pi_subgroups(self, selected_primes: set[int]) -> list[frozenset[int]]:
        return [s for s in self.subgroups()
                if trial_prime_factors(len(s)) <= selected_primes]
