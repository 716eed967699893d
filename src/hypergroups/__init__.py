"""Finite hypergroups from multiplication tables.

Core objects: FiniteHypergroup (validated table with a star involution),
bitmask subsets, closed-subset lattices with normality relations,
double-coset quotients, residually thin chains and valencies, prime
partition arithmetic, and Hall Pi-subset search and verification.
"""

from .bitset import bits, full_mask, mask_of, members, subset_key
from .core import (
    DEFAULT_RANK_CAP,
    FiniteHypergroup,
    ValidationReport,
    Violation,
    closure,
    complex_product,
    is_closed,
    restrict_subset,
    star_set,
    sub_hypergroup,
    thin_elements,
    validate,
)
from .errors import (
    HypergroupError,
    HypothesisViolationError,
    InternalConsistencyError,
    InvalidHypergroupError,
    ParseError,
    PartitionSyntaxError,
    PreconditionError,
    RankCapError,
    SearchExhaustedError,
    StructuralError,
    ValencyUndefinedError,
)
from .formats import (
    cayley_to_hypergroup,
    detect_format,
    load_any,
    parse_document,
    scheme_to_hypergroup,
    serialize_hypergroup,
)
from .hall import (
    HallReport,
    SolvabilitySuiteReport,
    SuiteCheck,
    are_conjugate,
    hall_subset_constructive,
    hall_subsets_enumerated,
    is_pi_valenced,
    is_sigma_solvable,
    is_solvable,
    pi_radical,
    pi_valenced_violation,
    sigma_solvable_chain,
    solvability_suite,
    subnormal_closed_subsets,
    verify_hall,
)
from .lattice import ClosedSubsetLattice, closed_subsets
from .quotient import (
    QuotientMap,
    double_cosets,
    quotient,
    section_quotient,
)
from .sigma import (
    PiSelection,
    PrimePartition,
    SMALLEST,
    is_pi_complement_number,
    is_pi_number,
    is_prime,
    parse_partition,
    parse_selection,
    prime_factors,
    spans_single_class,
)
from .valency import (
    is_residually_thin,
    rt_chain,
    step_orders,
    valency,
    valency_of,
)

__version__ = "0.1.0"
