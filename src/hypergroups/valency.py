"""Residually thin chains and valencies.

Every chain here comes from one search, lattice.climb over the strongly
normal pairs: closed subsets from a closed bottom, the identity subset
unless a caller names another, up to a closed top, each step quotient thin
(lo is strongly normal in hi). thin_chain takes the first whose step
orders pass a rule. To the full set it witnesses residual thinness, to a
closed C its step orders multiply to the valency of C, and its rules give
hall's sigma-solvable and solvable chains."""

from __future__ import annotations

from .core import (
    Chain,
    FiniteHypergroup,
    cached,
    double_cosets_in,
    is_closed,
)
from .errors import InternalConsistencyError, PreconditionError, ValencyUndefinedError
from .lattice import climb, closed_subsets
from .sigma import is_prime, spans_single_class


def thin_chain(H: FiniteHypergroup, top: int, rule=None,
               bottom: int = 1) -> Chain | None:
    """Chain bottom = C0 < ... < Ck = top with thin steps, or None.

    rule restricts the step orders, the numbers of double cosets of Ci in
    Ci+1: None admits every order, a PrimePartition the orders whose prime
    divisors lie in one of its classes, and is_prime the prime orders. None
    is returned only after an exhaustive search. From a closed bottom E
    to the full set it is a chain of H//E from its identity (see
    quotient). Memoized per (bottom, top, rule).
    """
    def order_ok(lo, hi):
        n = len(double_cosets_in(H, lo, hi))
        return is_prime(n) if rule is is_prime else spans_single_class(n, rule)

    def compute():
        path = next(climb(H, closed_subsets(H).strongly_normal_in, bottom, top,
                          None if rule is None else order_ok), None)
        return Chain(H, path) if path else None

    return cached(H, ("chain", bottom, top, rule), compute)


def rt_chain(H: FiniteHypergroup) -> Chain | None:
    """A chain from {0} to the full set with every step quotient thin.

    Present iff the hypergroup is residually thin; None after an exhaustive
    search of the closed-subset lattice fails.
    """
    return thin_chain(H, H.full)


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
    ambient = valency(H)
    chain = thin_chain(H, cm)
    if chain is None:
        raise InternalConsistencyError(
            "closed subset of a residually thin hypergroup must be residually thin")
    if ambient % chain.order_product:
        raise InternalConsistencyError("subset valency does not divide the ambient one")
    return chain.order_product
