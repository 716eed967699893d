"""Sigma-solvability, the Pi-radical, and Hall Pi-subset machinery.

Everything here works over a fixed prime partition sigma and a selection Pi
of its classes. A hypergroup is sigma-solvable when a chain of closed
subsets rises from the identity to the full set with every step quotient
thin and every step order inside a single class. A closed subset is a
Pi-subset when its valency is a Pi-number, and a Hall Pi-subset when
additionally the ambient valency divided by its own is a complement number.

The Pi-subsets, the Pi-valenced witness and the Pi-radical are stored
facts of the hypergroup, one per (sigma, Pi), so a Hall report finds each
once. Input that is not residually thin is refused in one place:
valency(H) raises ValencyUndefinedError, which the Pi-subset scan reaches.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

from .bitset import bits, mask_of, subset_key
from .core import (
    FiniteHypergroup,
    cached,
    complex_product,
    double_cosets_in,
    star_set,
    thin_elements,
)
from .errors import (
    HypothesisViolationError,
    InternalConsistencyError,
    SearchExhaustedError,
)
from .lattice import (
    automorphisms,
    closed_subsets,
    orbit_images,
    positions,
    sweeps,
)
from .sigma import (
    PiSelection,
    PrimePartition,
    SMALLEST,
    is_pi_complement_number,
    is_pi_number,
    is_prime,
)
from .valency import (
    rt_chain,
    thin_sweeps,
    valency,
    valency_of,
)


def sigma_solvable_chain(H: FiniteHypergroup,
                         sigma: PrimePartition) -> tuple[int, ...] | None:
    """The forward sweep's chain ({0}, ..., full set) of masks witnessing
    sigma-solvability, or None when no such chain exists.

    Each step quotient must be thin and each step order must have all its
    prime divisors in one class; different steps may use different classes.
    """
    return thin_sweeps(H, sigma)[0].get(H.full)


def is_sigma_solvable(H: FiniteHypergroup, sigma: PrimePartition) -> bool:
    return sigma_solvable_chain(H, sigma) is not None


def is_solvable(H: FiniteHypergroup) -> bool:
    """A chain with thin step quotients of prime order exists.

    This is the strictest chain notion used here; with the smallest
    partition it characterises the residually thin sigma-solvable case.
    """
    return H.full in thin_sweeps(H, is_prime)[0]


def subnormal_closed_subsets(H: FiniteHypergroup) -> tuple[int, ...]:
    """Closed subsets joined to the full set by a stepwise-normal chain."""
    def compute():
        lat = closed_subsets(H)
        down = sweeps(H, lat.normal_in)[1]
        return tuple(u for u in lat.subsets if u in down)

    return cached(H, "subnormal", compute)


def _pi_subsets(H: FiniteHypergroup, sigma: PrimePartition,
                pi: PiSelection) -> dict[int, int]:
    """The closed subsets of Pi-number valency, each with its valency, in
    lattice order from {0}; stored per (sigma, Pi)."""
    def compute():
        found = {}
        for c in closed_subsets(H).subsets:
            n = valency_of(H, c)
            if is_pi_number(n, sigma, pi):
                found[c] = n
        return found

    return cached(H, ("pi_subsets", sigma, pi), compute)


def pi_valenced_violation(H: FiniteHypergroup, sigma: PrimePartition,
                          pi: PiSelection) -> tuple[int, int] | None:
    """First witness (U, h) breaking the Pi-valenced condition, else None.

    For each subnormal closed U of Pi-number valency and each block b of
    the quotient over U, the product b* b must have Pi-number size whenever
    it consists of thin elements. When such a product set is itself closed
    (a member of the lattice), U must be strongly normal in its lift, which
    makes its valency its size (see quotient), or an internal error is
    raised. Each b = U h U is read in H through the lift U h* U h U of
    b* b. Stored per (sigma, Pi).
    """
    def compute():
        subnormal = subnormal_closed_subsets(H)
        for u in _pi_subsets(H, sigma, pi):
            if u not in subnormal:
                continue
            blocks = double_cosets_in(H, u, H.full)
            lifts = [complex_product(H, star_set(H, b), b) for b in blocks]
            thin = sum(b for b, s in zip(blocks, lifts) if s == u)
            for b, s in zip(blocks, lifts):
                if s & ~thin:
                    continue
                size = sum(1 for c in blocks if c & s)
                if not is_pi_number(size, sigma, pi):
                    return (u, next(bits(b)))
                if s in positions(H) and \
                        (u, s) not in closed_subsets(H).strongly_normal_in:
                    raise InternalConsistencyError(
                        "thin closed product set with valency differing from size")
        return None

    return cached(H, ("pi_valenced", sigma, pi), compute)


def is_pi_valenced(H: FiniteHypergroup, sigma: PrimePartition,
                   pi: PiSelection) -> bool:
    return pi_valenced_violation(H, sigma, pi) is None


def pi_radical(H: FiniteHypergroup, sigma: PrimePartition,
               pi: PiSelection) -> int:
    """The largest subnormal closed subset of Pi-number valency.

    Guaranteed properties, each asserted and surfaced as a hypothesis
    violation when broken (which can only happen outside the residually
    thin Pi-valenced regime): it contains every subnormal closed Pi-subset,
    it is strongly normal in the full set, and the quotient over it is
    thin, which holds iff it is strongly normal (see quotient), so one
    test answers both. Stored per (sigma, Pi) once the guarantees hold.
    """
    def compute():
        subnormal = subnormal_closed_subsets(H)
        candidates = [u for u in _pi_subsets(H, sigma, pi) if u in subnormal]
        best = max(candidates, key=lambda m: m.bit_count())
        problems = []
        stragglers = [u for u in candidates if u & ~best]
        if stragglers:
            problems.append(
                "no unique maximum: subnormal Pi-subset "
                f"{list(bits(stragglers[0]))} escapes {list(bits(best))}")
        if (best, H.full) not in closed_subsets(H).strongly_normal_in:
            problems += ["radical is not strongly normal in the full set",
                         "quotient over the radical is not thin"]
        if problems:
            raise HypothesisViolationError(
                "Pi-radical guarantees failed", tuple(problems))
        return best

    return cached(H, ("pi_radical", sigma, pi), compute)


def hall_subsets_enumerated(H: FiniteHypergroup, sigma: PrimePartition,
                            pi: PiSelection) -> tuple[int, ...]:
    """All closed C with Pi-number valency and complement-number covalency."""
    n_h = valency(H)
    return tuple(c for c, n in _pi_subsets(H, sigma, pi).items()
                 if is_pi_complement_number(n_h // n, sigma, pi))


def hall_subset_constructive(H: FiniteHypergroup, sigma: PrimePartition,
                             pi: PiSelection) -> int:
    """Build a Hall Pi-subset through the radical.

    Route: the quotient over the Pi-radical R is a thin, sigma-solvable
    hypergroup, hence a group; scan its subgroups exhaustively for a Hall
    Pi-subgroup, in H's own lattice (see quotient): each closed C over R
    is the subgroup named by the mask of the blocks of H//R it holds,
    scanned in H//R's lattice order. Refuses with diagnostics when the
    stored hypothesis facts fail. A missing Hall subgroup in the quotient
    group or a C that is not a Hall Pi-subset, which the guaranteed regime
    excludes, raises SearchExhaustedError; verify_hall keeps it as
    constructive_note, and `hall --constructive` prints that and exits 1.
    pi_radical has checked that R is strongly normal, so the quotient is
    thin (see quotient).
    """
    if rt_chain(H) is None:
        raise HypothesisViolationError("constructive Hall search refused",
                                       ("not residually thin",))
    problems = []
    if not is_sigma_solvable(H, sigma):
        problems.append("not sigma-solvable")
    if not is_pi_valenced(H, sigma, pi):
        problems.append("not Pi-valenced")
    if problems:
        raise HypothesisViolationError("constructive Hall search refused",
                                       tuple(problems))
    r = pi_radical(H, sigma, pi)
    blocks = double_cosets_in(H, r, H.full)
    n_q = len(blocks)
    named = {c: mask_of(i for i, b in enumerate(blocks) if b & c)
             for c in closed_subsets(H).subsets if not r & ~c}
    for c in sorted(named, key=lambda c: subset_key(named[c])):
        size = named[c].bit_count()
        if n_q % size:
            raise InternalConsistencyError("subgroup order must divide")
        if is_pi_number(size, sigma, pi) and \
                is_pi_complement_number(n_q // size, sigma, pi):
            if c not in hall_subsets_enumerated(H, sigma, pi):
                raise SearchExhaustedError(
                    "subset found is not a Hall Pi-subset")
            return c
    raise SearchExhaustedError(
        "no Hall Pi-subgroup in the thin quotient; input outside the "
        "guaranteed regime")


def are_conjugate(H: FiniteHypergroup, S, T) -> int | None:
    """The first element h with h S h* inside T and h T h* inside S, if any.

    Any element h may witness, thin or not. PAPER.md holds only the
    paper's abstract, so which notion of conjugacy the paper proves is not
    recorded in this repository; this mutual-containment notion is the one
    the Hall report checks.

    Thin h are tested all at once on the stored automorphisms. For thin h,
    h* is thin and h x h* is the one element phi_h*(x) (see closed_subsets),
    so h S h* = phi_h*(S), and h witnesses iff phi_h* carries S into T and
    T into S. A permutation that does so carries S onto T and T onto S, as
    |S| <= |T| <= |S|, and so does its inverse phi_h. So the thin witnesses
    are the inducers of the automorphisms that carry S into T and T into S,
    whose images are read off the transposed table, as lattice._enumerate
    reads orbits. Only the non-thin h below the least of them are tested
    by products, in index order. An empty S or T has no image to read: h S
    h* is empty iff S is, so then 0 witnesses iff both are empty.
    """
    sm = H.subset(S)
    tm = H.subset(T)
    if not sm or not tm:
        return 0 if sm == tm else None
    _, inducers, images = automorphisms(H)
    found = 0  # the thin witnesses
    for inducing, s_j, t_j in zip(inducers, orbit_images(images, sm),
                                  orbit_images(images, tm)):
        if not s_j & ~tm and not t_j & ~sm:
            found |= inducing
    least = found & -found
    for h in bits((least - 1 if found else H.full) & ~thin_elements(H)):
        hm = 1 << h
        hsm = 1 << H.star[h]
        if complex_product(H, hm, complex_product(H, sm, hsm)) & ~tm:
            continue
        if complex_product(H, hm, complex_product(H, tm, hsm)) & ~sm:
            continue
        return h
    return least.bit_length() - 1 if found else None


@dataclass(frozen=True)
class HallReport:
    """Verification record for the three Hall conclusions.

    The hypothesis flags say whether the input is residually thin,
    sigma-solvable and Pi-valenced. The conclusions are evaluated
    regardless, as far as they are computable, so the report stays useful
    for probing sharpness: existence (the enumerated Hall family is
    nonempty and contains the constructed one), pairwise conjugacy with
    witnesses, and containment of every closed Pi-subset in some Hall
    Pi-subset.
    """

    is_rt: bool
    is_sigma_solvable: bool
    is_pi_valenced: bool
    radical: int | None
    hall_subsets: tuple[int, ...]
    constructive: int | None
    constructive_note: str | None
    conjugacy_witnesses: tuple[tuple[int, int, int | None], ...]
    containment_witnesses: tuple[tuple[int, int | None], ...]
    conclusion_exists: bool
    conclusion_conjugate: bool
    conclusion_containment: bool

    @property
    def hypotheses_hold(self) -> bool:
        return self.is_rt and self.is_sigma_solvable and self.is_pi_valenced

    @property
    def conclusions_hold(self) -> bool:
        return (self.conclusion_exists and self.conclusion_conjugate
                and self.conclusion_containment)


def verify_hall(H: FiniteHypergroup, sigma: PrimePartition,
                pi: PiSelection) -> HallReport:
    """Evaluate the Hall existence, conjugacy and containment conclusions.

    Never raises on hypothesis failure; whatever still holds is recorded.
    """
    rt = rt_chain(H) is not None
    solv = is_sigma_solvable(H, sigma)
    valenced = rt and is_pi_valenced(H, sigma, pi)

    radical = None
    halls: tuple[int, ...] = ()
    constructive = None
    constructive_note = None
    conj: list[tuple[int, int, int | None]] = []
    contain: list[tuple[int, int | None]] = []

    if rt:
        halls = hall_subsets_enumerated(H, sigma, pi)
        with suppress(HypothesisViolationError):
            radical = pi_radical(H, sigma, pi)
        try:
            constructive = hall_subset_constructive(H, sigma, pi)
        except (HypothesisViolationError, SearchExhaustedError) as exc:
            constructive_note = str(exc)
        for i, s in enumerate(halls):
            for t in halls[i + 1:]:
                conj.append((s, t, are_conjugate(H, s, t)))
        for c in _pi_subsets(H, sigma, pi):
            home = next((hs for hs in halls if not c & ~hs), None)
            contain.append((c, home))

    exists = bool(halls) and (constructive is None or constructive in halls)
    conjugate = all(w is not None for _, _, w in conj)
    containment = all(home is not None for _, home in contain)

    return HallReport(
        is_rt=rt,
        is_sigma_solvable=solv,
        is_pi_valenced=valenced,
        radical=radical,
        hall_subsets=halls,
        constructive=constructive,
        constructive_note=constructive_note,
        conjugacy_witnesses=tuple(conj),
        containment_witnesses=tuple(contain),
        conclusion_exists=exists,
        conclusion_conjugate=conjugate,
        conclusion_containment=containment,
    )


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    applicable: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def solvability_suite(H: FiniteHypergroup,
                      sigma: PrimePartition) -> tuple[SuiteCheck, ...]:
    """Instance checks of the closure properties of sigma-solvability.

    Checked on the given hypergroup: closed subsets inherit solvability;
    quotients over normal and over subnormal closed subsets inherit it; a
    closed subset together with a solvable quotient forces the whole to be
    solvable; and under the smallest partition, residually thin
    sigma-solvability coincides with the prime-step chain notion.

    A closed C is sigma-solvable iff the sigma rule's up sweep reaches it,
    and H//E iff H has a sigma-chain from E to the full set (see quotient),
    iff the down sweep leaves E (thin_sweeps); no quotient is built.
    """
    lat = closed_subsets(H)
    h_solv = is_sigma_solvable(H, sigma)
    solv_lat = lat.subsets if h_solv else ()
    up, down = thin_sweeps(H, sigma)

    def check(name, cases):
        # Every (label, ok) case is an applicable instance; a case that is
        # not ok is a violation under its label.
        cases = list(cases)
        return SuiteCheck(name, len(cases),
                          tuple(label for label, ok in cases if not ok))

    return (
        check("closed_subsets_inherit_solvability",
              ((f"closed subset {list(bits(c))}", c in up) for c in solv_lat)),
        check("quotients_by_normal_inherit_solvability",
              ((f"quotient over normal {list(bits(e))}", e in down)
               for e in solv_lat if (e, H.full) in lat.normal_in)),
        check("quotients_by_subnormal_inherit_solvability",
              ((f"quotient over subnormal {list(bits(d))}", d in down)
               for d in (subnormal_closed_subsets(H) if h_solv else ()))),
        check("solvable_part_and_quotient_force_solvability",
              ((f"assembled through {list(bits(e))}", h_solv)
               for e in lat.subsets if e in up and e in down)),
        check("smallest_partition_matches_prime_step_chains",
              [("smallest-partition solvability disagrees with prime-step chains",
                is_sigma_solvable(H, SMALLEST) == is_solvable(H))]
              if rt_chain(H) is not None else ()),
    )
