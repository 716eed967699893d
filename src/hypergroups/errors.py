"""Exception hierarchy for the hypergroups package."""

from __future__ import annotations


class HypergroupError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(HypergroupError):
    """Malformed raw input: wrong shapes, indices out of range, empty products.

    Distinct from axiom violations, which are reported through ValidationReport.
    """


class InvalidHypergroupError(HypergroupError):
    """A candidate table failed axiom validation."""

    def __init__(self, report):
        self.report = report
        broken = ", ".join(sorted({v.axiom for v in report.violations}))
        super().__init__(f"table is not a hypergroup (violated: {broken})")


class PreconditionError(HypergroupError):
    """An argument does not satisfy the operation's contract."""


class RankCapError(HypergroupError):
    """Refusal: the operation needs exhaustive lattice work above the rank cap."""


class ValencyUndefinedError(HypergroupError):
    """The hypergroup is not residually thin, so its valency is undefined."""


class HypothesisViolationError(HypergroupError):
    """A guaranteed property failed, meaning the input sits outside the
    hypotheses under which the guarantee holds. Carries diagnostics."""

    def __init__(self, message: str, diagnostics: tuple[str, ...] = ()):
        self.diagnostics = diagnostics
        detail = "; ".join(diagnostics)
        super().__init__(message + (f" [{detail}]" if detail else ""))


class SearchExhaustedError(HypergroupError):
    """An object guaranteed to exist was not found: a bug, or input outside
    the guaranteed regime. verify_hall reports it as constructive_note."""


class InternalConsistencyError(HypergroupError):
    """An internal invariant broke; indicates an implementation bug."""


class ParseError(HypergroupError):
    """Syntax error in a document, with 1-based line position."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"{message} (line {line})")


class PartitionSyntaxError(HypergroupError):
    """Bad textual syntax for a prime partition or class selection."""
