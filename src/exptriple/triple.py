"""Base triples (a, b, c) and their shared-prime structure.

A triple splits each base into the part supported on the primes common to
all three values and the part coprime to those primes.  When the exponent
vectors of a subset of the common primes are proportional, that subset can
be rewritten as a single common power g.  Only acceptance criterion 7
reads that collapse, to place a catalogue row in the direct-search box.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import NamedTuple

from .arith import factorize
from .errors import InternalInvariantError, ProportionalityError


class Triple(NamedTuple):
    """A validated base triple with its shared-prime decomposition.

    common_primes holds every prime dividing all of a, b and c, which are
    the primes of gcd(a, b, c), sorted ascending.  exponents maps each of
    those primes p to the exponent triple (exponent in a, in b, in c).
    a1, b1, c1 are the greatest divisors of a, b, c not divisible by any
    common prime.  The bases themselves are never factored.
    """

    a: int
    b: int
    c: int
    common_primes: tuple[int, ...]
    exponents: dict[int, tuple[int, int, int]]
    a1: int
    b1: int
    c1: int

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"

    @property
    def has_shared_prime(self) -> bool:
        return bool(self.common_primes)


def _peel(n: int, p: int) -> tuple[int, int]:
    """The exponent of p in n and the part of n that p does not divide.

    The first eight powers come off one division at a time.  A longer run
    goes on dividing by p, p^2, p^4, ..., p^(2^(K-1)) while they divide;
    once p^(2^K) does not, the exponent left is below 2^K, and the same
    powers from the largest down, each tried once, take off its binary
    digits.  An exponent e then costs O(log e) divisions instead of e.
    """
    e = 0
    while e < 8 and n % p == 0:
        n //= p
        e += 1
    if e < 8:
        return e, n
    powers = []
    q = p
    while n % q == 0:
        n //= q
        e += 1 << len(powers)
        powers.append(q)
        q *= q
    for k in reversed(range(len(powers))):
        if n % powers[k] == 0:
            n //= powers[k]
            e += 1 << k
    return e, n


# Distinct gcd(a, b, c) values whose primes _gcd_primes keeps.
_GCD_MEMO = 1024


@lru_cache(maxsize=_GCD_MEMO)
def _gcd_primes(d: int) -> tuple[int, ...]:
    # factorize is looked up at each call, so a replaced factorize is the one
    # called; a call that raises caches nothing
    return factorize(d).primes


def build_triple(a: int, b: int, c: int) -> Triple:
    """Populate the shared-prime fields from gcd(a, b, c).

    Only gcd(a, b, c) is factored; each of its primes is then divided out
    of a, b and c, which gives the exponent triples and a1, b1, c1.  A gcd
    of 1 is never factored: the triple has no common prime.  A grid of
    triples repeats few gcds: gcd(a, b, c) is at most min(a, b), so a grid
    with a, b <= B has at most B - 1 distinct gcds above 1.  _gcd_primes
    keeps the primes of the _GCD_MEMO most recently used distinct gcds,
    so a gcd is factored once while it stays among them.
    """
    if min(a, b, c) < 2:
        name, v = next((n, v) for n, v in (("a", a), ("b", b), ("c", c)) if v < 2)
        raise ValueError(f"base {name} must be at least 2, got {v}")
    if (d := math.gcd(a, b, c)) == 1:
        return Triple(a, b, c, (), {}, a, b, c)
    common = _gcd_primes(d)
    exponents = {}
    a1, b1, c1 = a, b, c
    for p in common:
        ea, a1 = _peel(a1, p)
        eb, b1 = _peel(b1, p)
        ec, c1 = _peel(c1, p)
        exponents[p] = (ea, eb, ec)
    return Triple(a, b, c, common, exponents, a1, b1, c1)


class GDecomposition(NamedTuple):
    """A proportional subset of the common primes collapsed to one base g.

    g carries each prime of the subset to its primitive exponent, so the
    subset part of a is exactly g**a_exp, of b is g**b_exp, of c is
    g**c_exp.  residual lists the untouched common primes with their
    exponent triples.
    """

    primes: tuple[int, ...]
    g: int
    a_exp: int
    b_exp: int
    c_exp: int
    residual: tuple[tuple[int, tuple[int, int, int]], ...]


def _proportional(u: tuple[int, int, int], v: tuple[int, int, int]) -> bool:
    # cross-multiplied, exact in integers
    return u[0] * v[1] == v[0] * u[1] and u[0] * v[2] == v[0] * u[2]


def g_decomposition(t: Triple, subset: frozenset[int] | set[int]) -> GDecomposition:
    """Collapse a proportional subset of the shared primes to one base.

    The subset must be nonempty and the exponent triples of its primes
    must be pairwise proportional; otherwise the offending prime pair is
    reported.  The result exponents are the componentwise gcds over the
    subset and g is the product of the primes raised to their primitive
    weights, so g**a_exp recomposes the subset part of a exactly.
    """
    primes = tuple(sorted(subset))
    if not primes:
        raise ValueError("the prime subset must be nonempty")
    for p in primes:
        if p not in t.exponents:
            raise ValueError(f"{p} is not a prime shared by all three bases of {t}")
    pivot = t.exponents[primes[0]]
    for p in primes[1:]:
        if not _proportional(pivot, t.exponents[p]):
            raise ProportionalityError(primes[0], p)
    a_exps = [t.exponents[p][0] for p in primes]
    h = reduce(math.gcd, a_exps)
    weights = [e // h for e in a_exps]
    j = reduce(math.gcd, (t.exponents[p][1] for p in primes))
    m = reduce(math.gcd, (t.exponents[p][2] for p in primes))
    for p, w in zip(primes, weights):
        ea, eb, ec = t.exponents[p]
        if (ea, eb, ec) != (h * w, j * w, m * w):
            raise InternalInvariantError(
                f"componentwise gcds fail to recompose the exponents of {p}"
            )
    g = math.prod(p**w for p, w in zip(primes, weights))
    residual = tuple((p, t.exponents[p]) for p in t.common_primes if p not in subset)
    return GDecomposition(primes, g, h, j, m, residual)

