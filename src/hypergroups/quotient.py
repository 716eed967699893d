"""Double cosets, quotient hypergroups, subset lifting and isomorphism."""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bits, mask_of, members
from .core import (
    FiniteHypergroup,
    cached,
    complex_product,
    double_cosets_in,
    is_closed,
    restrict_subset,
    sub_hypergroup,
)
from .errors import (
    InternalConsistencyError,
    InvalidHypergroupError,
    PreconditionError,
    RankCapError,
)

ISO_DEFAULT_RANK_CAP = 8


def double_cosets(H: FiniteHypergroup, F) -> tuple[int, ...]:
    """Partition of the elements into the sets F h F, for F closed.

    Blocks come out ordered by smallest member, so the block containing the
    identity (which is F itself) is first.
    """
    fm = H.subset(F)
    if not is_closed(H, fm):
        raise PreconditionError("double_cosets requires a closed subset")
    return double_cosets_in(H, fm, H.full)


@dataclass(frozen=True, eq=False)
class QuotientMap:
    """A hypergroup quotient by a closed subset, with its projection.

    blocks[i] is the i-th double coset (ordered by smallest member), the
    quotient is a hypergroup on the block indices, and projection[e] is the
    block index of element e. Block 0 is the modulus itself and is the
    identity of the quotient.
    """

    base: FiniteHypergroup
    modulus: int
    blocks: tuple[int, ...]
    quotient: FiniteHypergroup
    projection: tuple[int, ...]

    def project_set(self, S) -> int:
        out = 0
        for e in bits(self.base.subset(S)):
            out |= 1 << self.projection[e]
        return out


def quotient(H: FiniteHypergroup, F) -> QuotientMap:
    """Quotient of H over a closed subset F.

    The product of two blocks is the set of blocks met by a F b for block
    representatives a and b. The induced table is re-validated defensively;
    a failure indicates an implementation bug, not a property of the input.
    """
    fm = H.subset(F)
    return cached(H, ("quotient", fm), lambda: _build_quotient(H, fm))


def _build_quotient(H: FiniteHypergroup, fm: int) -> QuotientMap:
    blocks = double_cosets(H, fm)
    k = len(blocks)
    proj = [0] * H.rank
    for i, block in enumerate(blocks):
        for e in bits(block):
            proj[e] = i
    reps = [next(bits(b)) for b in blocks]
    table = []
    for a in reps:
        a_f = complex_product(H, 1 << a, fm)
        row = []
        for b in reps:
            afb = complex_product(H, a_f, 1 << b)
            row.append(mask_of(proj[x] for x in bits(afb)))
        table.append(tuple(row))
    qstar = tuple(proj[H.star[r]] for r in reps)
    name = f"{H.name}//[{','.join(map(str, members(fm)))}]"
    try:
        q = FiniteHypergroup(tuple(table), qstar, name=name,
                             rank_cap=H.rank_cap, check=True)
    except InvalidHypergroupError as exc:
        raise InternalConsistencyError(
            f"induced quotient table failed validation: {exc}") from exc
    return QuotientMap(base=H, modulus=fm, blocks=blocks, quotient=q,
                       projection=tuple(proj))


def lift(Q: QuotientMap, E_bar) -> int:
    """Union of the blocks named by a closed subset of the quotient.

    Inverse direction of the bijection between closed subsets of the
    quotient and closed subsets of the base containing the modulus.
    """
    bm = Q.quotient.subset(E_bar)
    if not is_closed(Q.quotient, bm):
        raise PreconditionError("lift requires a closed subset of the quotient")
    out = 0
    for i in bits(bm):
        out |= Q.blocks[i]
    if not is_closed(Q.base, out):
        raise InternalConsistencyError("lift of a closed subset is not closed")
    return out


def section_quotient(H: FiniteHypergroup, E, G) -> QuotientMap:
    """Quotient G//E computed inside the sub-hypergroup on G, for E <= G closed."""
    em = H.subset(E)
    gm = H.subset(G)
    if em & ~gm:
        raise PreconditionError("section_quotient requires E inside G")
    sub = sub_hypergroup(H, gm)
    return quotient(sub, restrict_subset(gm, em))


def _element_profile(H: FiniteHypergroup, s: int):
    t = H.table
    row_sizes = sorted(t[s][q].bit_count() for q in range(H.rank))
    col_sizes = sorted(t[q][s].bit_count() for q in range(H.rank))
    return (
        H.star[s] == s,
        t[s][s].bit_count(),
        t[H.star[s]][s].bit_count(),
        bool(t[s][s] & 1),
        tuple(row_sizes),
        tuple(col_sizes),
    )


def isomorphic(A: FiniteHypergroup, B: FiniteHypergroup,
               rank_cap: int = ISO_DEFAULT_RANK_CAP) -> tuple[int, ...] | None:
    """Search for a table isomorphism, returned as an image permutation.

    The witness maps 0 to 0, commutes with star, and carries every product
    set onto the corresponding product set. Backtracking assigns images in
    index order, pruned by per-element profiles (star fixedness and product
    size multisets). Exhaustive for ranks up to rank_cap; larger equal
    ranks are refused rather than answered heuristically.
    """
    if A.rank != B.rank:
        return None
    n = A.rank
    if n > rank_cap:
        raise RankCapError(
            f"isomorphism search capped at rank {rank_cap}, got {n}")
    prof_a = [_element_profile(A, s) for s in range(n)]
    prof_b = [_element_profile(B, s) for s in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return None
    candidates = [[w for w in range(n) if prof_b[w] == prof_a[v]] for v in range(n)]

    ta, tb = A.table, B.table
    img = [-1] * n
    used = [False] * n

    def consistent(k: int) -> bool:
        fk = img[k]
        sk = A.star[k]
        if img[sk] != -1 and img[sk] != B.star[fk]:
            return False
        for i in range(k + 1):
            if img[i] == -1:
                continue
            for p, q in ((i, k), (k, i), (k, k)):
                src = ta[p][q]
                dst = tb[img[p]][img[q]]
                if src.bit_count() != dst.bit_count():
                    return False
                for x in bits(src):
                    if img[x] != -1 and not (dst >> img[x]) & 1:
                        return False
        return True

    def assign(k: int) -> bool:
        if k == n:
            return True
        for w in candidates[k]:
            if used[w]:
                continue
            img[k] = w
            used[w] = True
            if consistent(k) and assign(k + 1):
                return True
            img[k] = -1
            used[w] = False
        return False

    img[0] = 0
    used[0] = True
    if not assign(1):
        return None
    # Full verification of the found witness.
    phi = tuple(img)
    for a in range(n):
        if phi[A.star[a]] != B.star[phi[a]]:
            raise InternalConsistencyError("isomorphism witness fails star check")
        for b in range(n):
            if mask_of(phi[x] for x in bits(ta[a][b])) != tb[phi[a]][phi[b]]:
                raise InternalConsistencyError("isomorphism witness fails product check")
    return phi
