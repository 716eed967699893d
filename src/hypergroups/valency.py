"""Thin elements, residually thin chains and valencies.

A residually thin chain climbs from the identity subset to the whole set
with every step quotient thin. A step quotient hi//lo is thin exactly when
lo is strongly normal in hi, so chains are searched over the lattice's
strongly_normal_in relation, and the valency of a closed subset C is read
off a chain from the identity up to C in the same lattice.
"""

from __future__ import annotations

from .core import Chain, FiniteHypergroup, is_closed
from .errors import InternalConsistencyError, PreconditionError, ValencyUndefinedError
from .lattice import climb, closed_subsets


def thin_elements(H: FiniteHypergroup) -> int:
    """Mask of elements s with s* s = {identity}."""
    if "thin" not in H._cache:
        out = 0
        for s in range(H.rank):
            if H.table[H.star[s]][s] == 1:
                out |= 1 << s
        H._cache["thin"] = out
    return H._cache["thin"]


def is_thin(H: FiniteHypergroup) -> bool:
    """True iff every element is thin; a thin hypergroup is a group table."""
    if thin_elements(H) != H.full:
        return False
    for row in H.table:
        for entry in row:
            if entry.bit_count() != 1:
                raise InternalConsistencyError(
                    "thin hypergroup with a non-singleton product")
    return True


def rt_chain(H: FiniteHypergroup) -> Chain | None:
    """A chain from {0} to the full set with every step quotient thin.

    Present iff the hypergroup is residually thin; None after an exhaustive
    search of the closed-subset lattice fails.
    """
    if "rt_chain" not in H._cache:
        path = climb(H, closed_subsets(H).strongly_normal_in, 1, H.full)
        H._cache["rt_chain"] = Chain(H, path) if path else None
    return H._cache["rt_chain"]


def is_residually_thin(H: FiniteHypergroup) -> bool:
    return rt_chain(H) is not None


def valency(H: FiniteHypergroup) -> int:
    """Product of the step quotient orders of a residually thin chain.

    Independent of the chain chosen (a property the test suite checks over
    all chains); computed from the first chain found. Undefined, and an
    error, when the hypergroup is not residually thin.
    """
    chain = rt_chain(H)
    if chain is None:
        raise ValencyUndefinedError(
            f"{H.name} is not residually thin, valency undefined")
    return chain.order_product


def valency_of(H: FiniteHypergroup, C) -> int:
    """Valency of a closed subset, as a hypergroup in its own right.

    Read off a residually thin chain from the identity up to C in H's own
    lattice. Defined whenever the ambient hypergroup is residually thin,
    because closed subsets inherit residual thinness; the result always
    divides the ambient valency, and a failure of either guarantee is an
    internal error.
    """
    cm = H.subset(C)
    if not is_closed(H, cm):
        raise PreconditionError("valency_of requires a closed subset")
    if rt_chain(H) is None:
        raise ValencyUndefinedError(
            f"{H.name} is not residually thin, valency undefined")
    memo = H._cache.setdefault("valencies", {})
    if cm not in memo:
        path = climb(H, closed_subsets(H).strongly_normal_in, 1, cm)
        if path is None:
            raise InternalConsistencyError(
                "closed subset of a residually thin hypergroup must be residually thin")
        v = Chain(H, path).order_product
        if valency(H) % v:
            raise InternalConsistencyError("subset valency does not divide the ambient one")
        memo[cm] = v
    return memo[cm]


def all_rt_chains(H: FiniteHypergroup, limit: int) -> list[Chain]:
    """Up to limit residually thin chains, in lexicographic subset order.

    Exhaustive backtracking over the lattice's strongly_normal_in relation;
    extensions are tried in canonical subset order so the output order is
    reproducible.
    """
    lat = closed_subsets(H)
    strong = lat.strongly_normal_in
    full = H.full
    out: list[Chain] = []

    def walk(prefix: list[int]) -> bool:
        if len(out) >= limit:
            return False
        f = prefix[-1]
        if f == full:
            out.append(Chain(H, tuple(prefix)))
            return len(out) < limit
        i = lat.index[f]
        for j, g in enumerate(lat.subsets):
            if i != j and (i, j) in strong:
                if not walk(prefix + [g]):
                    return False
        return True

    walk([1])
    return out
