"""Residually thin chains and valencies, read off the sweeps of the
strongly normal pairs (lattice.sweeps), one pair of sweeps per rule. To
the full set a chain witnesses residual thinness, to a closed C its step
orders multiply to the valency of C, and its rules give hall's
sigma-solvable and solvable chains."""

from __future__ import annotations

from math import prod

from .core import (
    FiniteHypergroup,
    cached,
    double_cosets_in,
    is_closed,
)
from .errors import (
    HypergroupError,
    InternalConsistencyError,
    PreconditionError,
    ValencyUndefinedError,
)
from .lattice import closed_subsets, sweeps
from .sigma import is_prime, spans_single_class


def thin_sweeps(H: FiniteHypergroup, rule=None) -> tuple[dict, dict]:
    """(up, down) of lattice.sweeps over the strongly normal pairs, stored
    per rule: None admits every step order (the number of double cosets of
    lo in hi), a PrimePartition the orders whose prime divisors lie in one
    of its classes, and is_prime the prime orders."""
    def order_ok(lo, hi):
        n = len(double_cosets_in(H, lo, hi))
        return is_prime(n) if rule is is_prime else spans_single_class(n, rule)

    step_ok = None if rule is None else order_ok
    return cached(H, ("chains", rule), lambda: sweeps(
        H, closed_subsets(H).strongly_normal_in, step_ok))


def step_orders(H: FiniteHypergroup, path) -> tuple[int, ...]:
    """The number of double cosets of lo in hi for each step lo < hi of
    path, an ascending chain of closed subsets: the orders of its step
    quotients, whose product is a valency along a thin chain from {0}."""
    return tuple(len(double_cosets_in(H, lo, hi)) for lo, hi in zip(path, path[1:]))


def rt_chain(H: FiniteHypergroup) -> tuple[int, ...] | None:
    """The forward sweep's chain ({0}, ..., full set) of masks, each step
    strongly normal with a thin step quotient; present iff the hypergroup
    is residually thin, None otherwise.
    """
    return thin_sweeps(H)[0].get(H.full)


def is_residually_thin(H: FiniteHypergroup) -> bool:
    return rt_chain(H) is not None


def valency(H: FiniteHypergroup) -> int:
    """Product of the step quotient orders of a residually thin chain, the
    one the forward sweep keeps. Independent of the chain chosen, which no
    proof here records; the test suite checks it over every chain of every
    input it reads. Undefined, and an error, when H is not residually thin.
    """
    chain = rt_chain(H)
    if chain is None:
        raise ValencyUndefinedError(
            f"{H.name} is not residually thin, valency undefined")
    return prod(step_orders(H, chain))


def valency_of(H: FiniteHypergroup, C) -> int:
    """Valency of a closed subset, as a hypergroup in its own right: the
    product of the step orders of the forward sweep's chain from {0} to C.
    Defined whenever H is residually thin, as closed subsets inherit
    residual thinness, and it divides H's valency; a failure of either
    guarantee is an internal error. A mask that is not closed is refused
    before any refusal of H, and closedness is tested only on a miss.
    """
    cm = H.subset(C)
    refusal = path = None
    try:
        ambient = valency(H)
        path = thin_sweeps(H)[0].get(cm)
    except HypergroupError as exc:
        refusal = exc
    if path is None and not is_closed(H, cm):
        raise PreconditionError("valency_of requires a closed subset")
    if refusal is not None:
        raise refusal
    if path is None:
        raise InternalConsistencyError(
            "closed subset of a residually thin hypergroup must be residually thin")
    n = prod(step_orders(H, path))
    if ambient % n:
        raise InternalConsistencyError("subset valency does not divide the ambient one")
    return n
