"""Per-prime classification of solutions.

For a shared prime p, a solution falls into one of four shapes according
to which of the three valuations alpha*x, beta*y, gamma*z stands alone:
tag A when the a-term dominates, B when the b-term does, C when the
c-term does, O when all three agree.  The two smallest always agree for a
genuine solution; anything else is a hard invariant failure.

The enumerate command prints the tags, and the search asserts that each
pair it verifies is Type A, then Type B, at every shared prime.  The
paper restricts the tags further: a prime carries at most one Type-O
solution, a prime that dominates another forces Type A, and a prime
carrying a Type-C solution carries nothing else.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalInvariantError
from .solve import Solution
from .triple import Triple


class TypeProfile(NamedTuple):
    """Tags of one solution at every shared prime of its triple."""

    by_prime: dict[int, str]

    def tag(self, p: int) -> str:
        return self.by_prime[p]


def _lenient_tag(compared: tuple[int, int, int]) -> str | None:
    av, bv, cv = compared
    if av == bv == cv:
        return "O"
    if av > bv == cv:
        return "A"
    if bv > av == cv:
        return "B"
    if cv > av == bv:
        return "C"
    return None


def type_profile(t: Triple, s: Solution) -> TypeProfile:
    """Classify a verified solution at every shared prime.

    Raises InternalInvariantError when the two smallest of the three
    valuations differ at some prime, which cannot happen for data that
    actually solves the equation.
    """
    common, exponents = t.common_primes, t.exponents
    if not common:
        raise ValueError(f"{t} has no prime shared by all three bases")
    x, y, z = s
    by_prime = {}
    for p in common:
        ea, eb, ec = exponents[p]
        compared = (ea * x, eb * y, ec * z)
        tag = _lenient_tag(compared)
        if tag is None:
            raise InternalInvariantError(
                f"at prime {p} the valuations {compared} have no equal smallest pair"
            )
        by_prime[p] = tag
    return TypeProfile(by_prime)

