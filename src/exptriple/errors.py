"""Exception types shared across the package."""

from __future__ import annotations


class InternalInvariantError(RuntimeError):
    """A structural fact the library relies on failed to hold.

    Raised when data that every genuine solution must satisfy (for example
    the two-smallest-valuations-agree rule) is violated, which means either
    a bug or deliberately unverified input.
    """


class ProportionalityError(ValueError):
    """Exponent vectors of the named prime pair are not proportional."""

    def __init__(self, p: int, q: int) -> None:
        self.primes = (p, q)
        super().__init__(
            f"exponent vectors of primes {p} and {q} are not proportional"
        )


class FamilyConstraintError(ValueError):
    """Family parameters violate one or more defining constraints."""

    def __init__(self, family: str, violations: list[str]) -> None:
        self.family = family
        self.violations = list(violations)
        joined = "; ".join(violations)
        super().__init__(f"family {family} parameters rejected: {joined}")


class UsageError(ValueError):
    """The caller asked for something the interface does not offer.

    Covers malformed command lines, out-of-range configuration values,
    and bad environment overrides.  Maps to exit code 1 in the CLI.
    """


class InputDataError(ValueError):
    """An input file or data stream could not be used.

    Covers unreadable equation files, inputs whose every line was
    rejected, and checkpoint paths that cannot be read or written.  Maps
    to exit code 2 in the CLI.
    """
