"""Residually thin chains and valencies.

Every chain here is read off lattice.sweeps over the strongly normal pairs,
one pair of sweeps per rule: closed subsets from the identity subset up
to a closed top, or from a closed bottom up to the full set, each step
quotient thin (lo is strongly normal in hi) and each step order passing
the rule. To the full set a chain witnesses residual thinness, to a
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
from .lattice import closed_subsets, sweeps
from .sigma import is_prime, spans_single_class


def thin_chain(H: FiniteHypergroup, top: int, rule=None,
               bottom: int = 1) -> Chain | None:
    """Chain bottom = C0 < ... < Ck = top with thin steps, or None.

    rule restricts the step orders, the numbers of double cosets of Ci in
    Ci+1: None admits every order, a PrimePartition the orders whose prime
    divisors lie in one of its classes, and is_prime the prime orders. None
    means no such chain exists. Both ends must be closed, and one must be
    an end of the lattice: bottom the identity subset or top the full set.
    From a closed bottom E to the full set it is a chain of H//E from its
    identity (see quotient). Both sweeps are stored once per rule.
    """
    def order_ok(lo, hi):
        n = len(double_cosets_in(H, lo, hi))
        return is_prime(n) if rule is is_prime else spans_single_class(n, rule)

    step_ok = None if rule is None else order_ok

    def chains():
        lattice = closed_subsets(H)
        return sweeps(H, lattice.strongly_normal_in, step_ok) + (lattice.subsets,)

    up, down, subsets = cached(H, ("chains", rule), chains)
    if H.subset(top) not in subsets or H.subset(bottom) not in subsets:
        raise PreconditionError("thin_chain requires closed ends")
    if bottom != 1 and top != H.full:
        raise PreconditionError(
            "thin_chain needs the identity subset as bottom or the full set as top")
    path = up.get(top) if bottom == 1 else down.get(bottom)
    return Chain(H, path) if path else None


def rt_chain(H: FiniteHypergroup) -> Chain | None:
    """A chain from {0} to the full set with every step quotient thin.

    Present iff the hypergroup is residually thin; None when the forward
    sweep of the closed-subset lattice does not reach the full set.
    """
    return thin_chain(H, H.full)


def is_residually_thin(H: FiniteHypergroup) -> bool:
    return rt_chain(H) is not None


def valency(H: FiniteHypergroup) -> int:
    """Product of the step quotient orders of a residually thin chain.

    Independent of the chain chosen, which the test suite checks over all
    chains and no proof here records; read off one chain, the one the
    forward sweep keeps. Undefined, and an error, when the hypergroup is
    not residually thin.
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
