"""Exhaustive per-fixture instance checks of the quotient and valency facts.

Each function scans every applicable tuple of closed subsets of one
hypergroup and returns a list of violation descriptions (empty = clean).
Used by the acceptance suite over the whole rank-at-most-8 corpus. The
isomorphism search the quotient checks compare tables with lives here too.
"""

from __future__ import annotations

from hypergroups import (
    InternalConsistencyError,
    bits,
    closed_subsets,
    complex_product,
    double_cosets,
    is_closed,
    is_residually_thin,
    mask_of,
    members,
    quotient,
    section_quotient,
    star_set,
    sub_hypergroup,
    subnormal_closed_subsets,
    thin_elements,
    valency,
    valency_of,
)


def is_thin(H) -> bool:
    """True iff every element is thin; a thin hypergroup is a group table."""
    if thin_elements(H) != H.full:
        return False
    for row in H.table:
        for entry in row:
            if entry.bit_count() != 1:
                raise InternalConsistencyError(
                    "thin hypergroup with a non-singleton product")
    return True


def _element_profile(H, s: int):
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


def isomorphic(A, B) -> tuple[int, ...] | None:
    """Search for a table isomorphism, returned as an image permutation.

    The witness maps 0 to 0, commutes with star, and carries every product
    set onto the corresponding product set. Backtracking assigns images in
    index order, pruned by per-element profiles (star fixedness and product
    size multisets). Exhaustive, so meant for small ranks.
    """
    if A.rank != B.rank:
        return None
    n = A.rank
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
        assert phi[A.star[a]] == B.star[phi[a]], "witness fails star check"
        for b in range(n):
            image = mask_of(phi[x] for x in bits(ta[a][b]))
            assert image == tb[phi[a]][phi[b]], "witness fails product check"
    return phi


def project(blocks, s) -> int:
    """Mask of the blocks, a double_cosets tuple, that meet the subset s:
    a subset of the quotient on those block indices."""
    return sum(1 << i for i, block in enumerate(blocks) if block & s)


def union_of_blocks(blocks, ebar) -> int:
    """Union of the blocks, a double_cosets tuple, that the quotient subset
    ebar names: the inverse of project on closed subsets."""
    return sum(blocks[i] for i in members(ebar))


def _normalizes(h, d, e) -> bool:
    """Every element of d normalizes e: e x inside x e."""
    return all(
        complex_product(h, e, 1 << x) & ~complex_product(h, 1 << x, e) == 0
        for x in members(d))


def strongly_normal_iff_thin_quotient(h):
    out = []
    lat = closed_subsets(h)
    for f in lat.subsets:
        if ((f, h.full) in lat.strongly_normal_in) != is_thin(quotient(h, f).quotient):
            out.append(f"{h.name}: subset {list(members(f))}")
    return out


def strong_normality_descends_to_quotients(h):
    out = []
    lat = closed_subsets(h)
    for d in lat.subsets:
        blocks = double_cosets(h, d)
        q = quotient(h, d).quotient
        q_strong = closed_subsets(q).strongly_normal_in
        for e in lat.subsets:
            if d & ~e:
                continue
            if ((e, h.full) in lat.strongly_normal_in) != \
                    ((project(blocks, e), q.full) in q_strong):
                out.append(f"{h.name}: pair {list(members(d))}, {list(members(e))}")
    return out


def subsets_inherit_residual_thinness(h):
    out = []
    if not is_residually_thin(h):
        return out
    v = valency(h)
    for d in closed_subsets(h).subsets:
        sub = sub_hypergroup(h, d)
        if not is_residually_thin(sub):
            out.append(f"{h.name}: subset {list(members(d))} not residually thin")
        elif v % valency(sub):
            out.append(f"{h.name}: valency of {list(members(d))} does not divide")
    return out


def subnormal_quotient_valency_product(h):
    out = []
    if not is_residually_thin(h):
        return out
    for d in subnormal_closed_subsets(h):
        q = quotient(h, d).quotient
        if not is_residually_thin(q):
            out.append(f"{h.name}: quotient over {list(members(d))} not residually thin")
        elif valency(q) * valency_of(h, d) != valency(h):
            out.append(f"{h.name}: valency product fails for {list(members(d))}")
    return out


def normal_product_valency_identity(h):
    out = []
    if not is_residually_thin(h):
        return out
    lat = closed_subsets(h)
    for c in lat.subsets:
        if (c, h.full) not in lat.normal_in:
            continue
        for d in lat.subsets:
            cd = complex_product(h, c, d)
            meet = c & d
            if not is_closed(h, cd) or not is_closed(h, meet):
                out.append(f"{h.name}: product or meet not closed")
                continue
            if valency_of(h, cd) * valency_of(h, meet) != \
                    valency_of(h, c) * valency_of(h, d):
                out.append(f"{h.name}: product valency identity fails "
                           f"({list(members(c))}, {list(members(d))})")
    return out


def closed_subset_bijection(h):
    out = []
    lat = closed_subsets(h)
    for f in lat.subsets:
        blocks = double_cosets(h, f)
        over = [e for e in lat.subsets if f & ~e == 0]
        q_closed = list(closed_subsets(quotient(h, f).quotient).subsets)
        if len(over) != len(q_closed):
            out.append(f"{h.name}: count mismatch over {list(members(f))}")
            continue
        for e in over:
            ebar = project(blocks, e)
            if ebar not in q_closed or union_of_blocks(blocks, ebar) != e:
                out.append(f"{h.name}: round trip fails at {list(members(e))}")
    return out


def quotient_tower_isomorphism(h):
    out = []
    lat = closed_subsets(h)
    for e in lat.subsets:
        if (e, h.full) not in lat.normal_in:
            continue
        he = quotient(h, e).quotient
        for d in lat.subsets:
            if d & ~e:
                continue
            tower = quotient(quotient(h, d).quotient,
                             project(double_cosets(h, d), e)).quotient
            if isomorphic(tower, he) is None:
                out.append(f"{h.name}: tower fails ({list(members(d))}, "
                           f"{list(members(e))})")
    return out


def product_intersection_isomorphism(h):
    out = []
    lat = closed_subsets(h)
    for e in lat.subsets:
        for d in lat.subsets:
            if not _normalizes(h, d, e):
                continue
            ed = complex_product(h, e, d)
            if not is_closed(h, ed):
                out.append(f"{h.name}: product {list(members(ed))} not closed")
                continue
            left = section_quotient(h, e, ed).quotient
            right = section_quotient(h, e & d, d).quotient
            if isomorphic(left, right) is None:
                out.append(f"{h.name}: section isomorphism fails "
                           f"({list(members(e))}, {list(members(d))})")
    return out


def thin_adjoint_squares(h):
    out = []
    lat = closed_subsets(h)
    thin_closed = [t for t in lat.subsets if is_thin(sub_hypergroup(h, t))]
    for t in thin_closed:
        for e in range(h.rank):
            star_e = star_set(h, mask_of([e]))
            hh = complex_product(h, star_e, mask_of([e]))
            if hh & ~t:
                continue
            if not is_closed(h, hh):
                out.append(f"{h.name}: adjoint square of {e} not closed in "
                           f"{list(members(t))}")
                continue
            normalizes = complex_product(h, t, star_e) & \
                ~complex_product(h, star_e, t) == 0
            if normalizes and (hh, t) not in lat.strongly_normal_in:
                out.append(f"{h.name}: adjoint square of {e} not strongly "
                           f"normal in {list(members(t))}")
    return out


def product_with_normal_is_subnormal(h):
    out = []
    lat = closed_subsets(h)
    normals = [e for e in lat.subsets if (e, h.full) in lat.normal_in]
    subnormal = subnormal_closed_subsets(h)
    for d in subnormal:
        for e in normals:
            ed = complex_product(h, e, d)
            if not is_closed(h, ed):
                out.append(f"{h.name}: product {list(members(ed))} not closed")
            elif ed not in subnormal:
                out.append(f"{h.name}: product {list(members(ed))} not subnormal")
    return out


def meet_preserves_strong_normality(h):
    out = []
    lat = closed_subsets(h)
    for c, d in lat.strongly_normal_in:
        for f in lat.subsets:
            if (c & f, d & f) not in lat.strongly_normal_in:
                out.append(f"{h.name}: meet with {list(members(f))} breaks "
                           f"({list(members(c))}, {list(members(d))})")
    return out


def normal_product_preserves_strong_normality(h):
    out = []
    lat = closed_subsets(h)
    normals = [e for e in lat.subsets if (e, h.full) in lat.normal_in]
    for e in normals:
        for c, d in lat.strongly_normal_in:
            ec = complex_product(h, e, c)
            ed = complex_product(h, e, d)
            if not is_closed(h, ec) or not is_closed(h, ed):
                out.append(f"{h.name}: product with {list(members(e))} not closed")
            elif (ec, ed) not in lat.strongly_normal_in:
                out.append(f"{h.name}: product with {list(members(e))} breaks "
                           f"({list(members(c))}, {list(members(d))})")
    return out


ALL_CHECKS = (
    strongly_normal_iff_thin_quotient,
    strong_normality_descends_to_quotients,
    subsets_inherit_residual_thinness,
    subnormal_quotient_valency_product,
    normal_product_valency_identity,
    closed_subset_bijection,
    quotient_tower_isomorphism,
    product_intersection_isomorphism,
    thin_adjoint_squares,
    product_with_normal_is_subnormal,
    meet_preserves_strong_normality,
    normal_product_preserves_strong_normality,
)
