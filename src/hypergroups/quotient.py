"""Double cosets, quotient hypergroups and section quotients."""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import mask_of, members
from .core import FiniteHypergroup, _induced, _sub_name, cached, double_cosets_in, is_closed
from .errors import PreconditionError


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
    """A hypergroup quotient by a closed subset F, on the indices of the
    blocks double_cosets(H, F); block 0 is F, the identity."""

    quotient: FiniteHypergroup


def quotient(H: FiniteHypergroup, F) -> QuotientMap:
    """Quotient of H over a closed subset F.

    The product of two blocks is the set of blocks met by a F b for block
    representatives a and b, built by core._induced.

    The lattice of H//F is read in H's own lattice, from F upward (the
    correspondence theorem; P.-H. Zieschang, Theory of Association
    Schemes, 2005, ch. 4). The closed subsets of H//F are the sets of
    blocks inside a closed D containing F, and D is their union. The union
    of the blocks a set S meets is F S F, so the product of the blocks
    F a F and F b F lifts to F a F b F. Let D' and G' be closed in H//F,
    lifting to D and G, and h' = F h F a block inside G'. Then h'* D' h'
    lifts to F h* F D F h F = F h* D h F, as F D F = D, and this lies in D
    iff h* D h does. So D' is strongly normal in G' (a thin step) iff D is
    in G. The blocks D' h' D' lift to the sets D h D, so both steps have
    the same order. Hence H//F has a thin chain from its identity whose
    step orders pass a rule iff H has one from F, with the same orders:
    valency.thin_sweeps' down map at F. The block h' is thin iff h'* h' is
    the identity block, iff its lift F h* F h F is F; h'* h' is the set of
    blocks that F h* F h F meets. H//F is thin iff F is strongly normal in
    H: the case D = F, G = H above, as {F} is strongly normal in H//F iff
    every h'* h' is {F}. Likewise a closed G' of thin blocks, such as a
    closed h'* h' of thin blocks, has {F} strongly normal in it, so F is
    strongly normal in its lift G, and the one step F < G has as many
    double cosets as G' has blocks, the valency of the thin G'.
    """
    fm = H.subset(F)

    def build():
        double_cosets(H, fm)  # refuses an F that is not closed
        return QuotientMap(_induced(H, fm, H.full, _quotient_name(H.name, fm)))

    return cached(H, ("quotient", fm), build)


def _quotient_name(name: str, fm: int) -> str:
    """The name of a quotient by fm of the hypergroup called name."""
    return f"{name}//[{','.join(map(str, members(fm)))}]"


def section_quotient(H: FiniteHypergroup, E, G) -> QuotientMap:
    """Quotient G//E of the sub-hypergroup on G, for E <= G closed, read in
    H: the blocks E g E for g in G keep their order when G is re-indexed
    from 0, so the table is the same. Named as the quotient of
    sub_hypergroup(H, G) by E re-indexed into it."""
    em = H.subset(E)
    gm = H.subset(G)
    if em & ~gm:
        raise PreconditionError("section_quotient requires E inside G")

    def build():
        if not (is_closed(H, gm) and is_closed(H, em)):
            raise PreconditionError("section_quotient requires closed subsets")
        inner = mask_of(i for i, e in enumerate(members(gm)) if em >> e & 1)
        name = _quotient_name(_sub_name(H, gm), inner)
        return QuotientMap(_induced(H, em, gm, name))

    return cached(H, ("section", em, gm), build)
