"""Partitions of the primes and class selections, with their arithmetic.

A partition splits the set of all primes into disjoint classes; textual
form "2,3|5|7", or "smallest" for the all-singletons partition. Primes not
covered by any explicit class implicitly get fresh singleton classes, so a
finite description always yields a partition of all primes. A selection
picks some of the classes; a positive integer is a selection-number when
every prime dividing it lies in a selected class, and a complement-number
when none does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from math import gcd

from .errors import PartitionSyntaxError
from .formats import integer


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of 1 <= n < PRIME_TEST_BOUND, ascending.

    The factor 2 is stripped; then every cofactor that is_prime rejects is
    split by Pollard's rho. Refused at the bound, where is_prime is no
    longer exact.
    """
    if n < 1:
        raise ValueError("prime_factors needs a positive integer")
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"prime_factors needs n below {PRIME_TEST_BOUND}")
    out = set()
    if n % 2 == 0:
        out.add(2)
        n >>= (n & -n).bit_length() - 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho_divisor(m)
            stack += [d, m // d]
    return tuple(sorted(out))


def _rho_divisor(n: int) -> int:
    """A proper divisor of an odd composite n: Pollard's rho with Floyd's
    cycle finding, the next constant of x^2 + c whenever a cycle closes
    without one."""
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d


# is_prime is exact below this bound (Sorenson and Webster, 2015); prime
# literals of a partition or selection are refused at or above it.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 primes as bases, deterministic."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if p >= PRIME_TEST_BOUND:
        raise PartitionSyntaxError(
            f"{p} is too large: primality is decided below {PRIME_TEST_BOUND}")
    if not is_prime(p):
        raise PartitionSyntaxError(f"{p} is not prime")


@dataclass(frozen=True)
class PrimePartition:
    """Disjoint nonempty classes of primes; uncovered primes are implicit
    singleton classes."""

    classes: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise PartitionSyntaxError("empty prime class")
            for p in cls:
                _require_prime(p)
                if p in seen:
                    raise PartitionSyntaxError(f"prime {p} appears in two classes")
                seen.add(p)

    def class_of(self, p: int) -> frozenset[int]:
        for cls in self.classes:
            if p in cls:
                return cls
        return frozenset((p,))

    def __str__(self):
        if not self.classes:
            return "smallest"
        return "|".join(",".join(map(str, sorted(c))) for c in self.classes)


SMALLEST = PrimePartition(())


@dataclass(frozen=True)
class PiSelection:
    """A chosen set of classes of a partition.

    selected holds the classes themselves (explicit ones, or implicit
    singletons picked literally); everything selects all classes at once,
    which no finite listing could.
    """

    selected: frozenset[frozenset[int]] = frozenset()
    everything: bool = False


def is_pi_number(n: int, sigma: PrimePartition, pi: PiSelection) -> bool:
    """Every prime divisor of n lies in a selected class; true for n = 1."""
    if pi.everything:
        return n >= 1
    return all(sigma.class_of(p) in pi.selected for p in prime_factors(n))


def is_pi_complement_number(n: int, sigma: PrimePartition, pi: PiSelection) -> bool:
    """No prime divisor of n lies in a selected class; true for n = 1."""
    if pi.everything:
        return n == 1
    return all(sigma.class_of(p) not in pi.selected for p in prime_factors(n))


def spans_single_class(n: int, sigma: PrimePartition) -> bool:
    """All prime divisors of n fall in one class of the partition; n = 1 counts."""
    classes = {sigma.class_of(p) for p in prime_factors(n)}
    return len(classes) <= 1


def _distinct(primes: list[int], chunk: str) -> frozenset[int]:
    """The primes of one class; a repeat, which the set would drop, is refused."""
    for i, p in enumerate(primes):
        if p in primes[:i]:
            raise PartitionSyntaxError(f"prime {p} repeated in {chunk!r}")
    return frozenset(primes)


def parse_partition(text: str) -> PrimePartition:
    """Parse "2,3|5|7" style class lists, each prime listed once, or the
    keyword "smallest"."""
    text = text.strip()
    if text == "smallest":
        return SMALLEST
    if not text:
        raise PartitionSyntaxError("empty partition text")
    classes = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise PartitionSyntaxError("empty class in partition text")
        try:
            primes = [integer(tok) for tok in chunk.split(",")]
        except ValueError as exc:
            raise PartitionSyntaxError(f"bad prime list {chunk!r}") from exc
        classes.append(_distinct(primes, chunk))
    return PrimePartition(tuple(classes))


def parse_selection(text: str, sigma: PrimePartition) -> PiSelection:
    """Parse a class selection against a partition.

    Accepted forms: "all" (or "all-classes"); zero-based explicit class
    indices "0,2"; literal classes "{2},{5}", each of which must be exactly
    a class of the partition (explicit or implicit singleton), separated
    by "," or "|" with spaces allowed on either side. The empty string
    selects nothing.
    """
    text = text.strip()
    if text in ("all", "all-classes"):
        return PiSelection(everything=True)
    if not text:
        return PiSelection()
    if text.startswith("{"):
        chunks = [c.strip() for c in re.sub(r"}\s*,", "}|", text).split("|")]
        picked = set()
        for chunk in chunks:
            if not (chunk.startswith("{") and chunk.endswith("}")):
                raise PartitionSyntaxError(f"bad class literal {chunk!r}")
            try:
                listed = [integer(tok) for tok in chunk[1:-1].split(",")]
            except ValueError as exc:
                raise PartitionSyntaxError(f"bad class literal {chunk!r}") from exc
            primes = _distinct(listed, chunk)
            for p in primes:
                _require_prime(p)
            cls = sigma.class_of(min(primes))
            if cls != primes:
                raise PartitionSyntaxError(
                    f"{chunk} is not a class of the partition {sigma}")
            picked.add(cls)
        return PiSelection(selected=frozenset(picked))
    try:
        indices = [integer(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise PartitionSyntaxError(f"bad class selection {text!r}") from exc
    if not sigma.classes:
        raise PartitionSyntaxError(
            "index selection needs explicit classes; the smallest partition "
            "has none, use literal classes like {2},{5}")
    picked = set()
    for i in indices:
        if i < 0 or i >= len(sigma.classes):
            raise PartitionSyntaxError(f"class index {i} out of range")
        picked.add(sigma.classes[i])
    return PiSelection(selected=frozenset(picked))
