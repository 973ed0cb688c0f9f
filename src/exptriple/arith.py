"""Exact integer arithmetic primitives.

Factorization (trial division + Miller-Rabin + a perfect-power test +
Brent's rho), valuations, perfect-power detection, and the order/valuation
functions that only acceptance criterion 6 reads.  Everything works on
plain Python ints, no floating point is ever trusted for a final answer.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

from .errors import InputDataError

_TRIAL_LIMIT = 10_000

# Steps of Brent's rho (see _brent_rho) that one factorize call may take.
_RHO_STEPS = 1 << 21

# Witness set is deterministic for n < 3_317_044_064_679_887_385_961_981
# (about 2^81).  The extra witnesses push reliable coverage far past the
# 512-bit inputs this package ever sees.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _primes_up_to(limit: int) -> list[int]:
    """The primes p <= limit, ascending, by a sieve of Eratosthenes."""
    if limit < 2:
        return []
    mark = bytearray([1]) * (limit + 1)
    mark[0] = mark[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i in range(limit + 1) if mark[i]]


@functools.cache
def _small_primes() -> tuple[int, ...]:
    return tuple(_primes_up_to(_TRIAL_LIMIT))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for the sizes used here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        if a >= n:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng: random.Random, budget: int) -> tuple[int, int]:
    """A nontrivial factor of composite n (Brent's cycle variant) and the budget left.

    One step is one map y -> y*y + c.  Returns (1, budget) as soon as the
    next block of steps would overrun the budget, before running it.
    """
    if n % 2 == 0:
        return 2, budget
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if r > budget:
                return 1, budget
            budget -= r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                block = min(m, r - k)
                if block > budget:
                    return 1, budget
                budget -= block
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            # back up from ys one step at a time, within the block just run
            g = 1
            while g == 1:
                budget -= 1
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, budget


class Factored(NamedTuple):
    """An integer together with its complete prime factorization.

    factors is a tuple of (prime, exponent) pairs sorted by prime, and the
    product of prime**exponent recomposes value exactly.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int) -> Factored:
    """Complete factorization of a positive integer.

    Trial division below a fixed bound.  When it stops at a prime p with
    p*p above the cofactor, every smaller prime is divided out, so the
    cofactor is 1 or a prime and is recorded as it is.  A cofactor left
    after the whole table is split by deterministic Miller-Rabin, a
    perfect-power test and Brent's rho.  Rho takes about sqrt(p) steps to
    split off the least prime p of a cofactor, and one call gets 2^21
    steps in all (_RHO_STEPS; about 0.7 s on a 125-bit cofactor).  So
    it splits off least primes of up to about 36 bits and mostly gives
    up from about 40 bits on: a cofactor with two prime factors that
    large is out of reach, and factorize then raises InputDataError
    naming n instead of running on.  factorize(1) has no factors.
    """
    if n < 1:
        raise ValueError(f"factorize requires a positive integer, got {n}")
    original = n
    found: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            if n > 1:
                found[n] = 1
            # n exceeds every prime tried, so the keys are already ascending
            return Factored(original, tuple(found.items()))
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    if n > 1:
        rng = random.Random(n)
        budget = _RHO_STEPS
        stack = [(n, 1)]
        while stack:
            m, k = stack.pop()
            if is_prime(m):
                found[m] = found.get(m, 0) + k
                continue
            # rho needs about sqrt(p) steps to split p^e for a large prime p,
            # so every composite is first tried as a perfect power
            powers = perfect_powers(m, m.bit_length())
            if powers:
                root, e = powers[-1]
                stack.append((root, k * e))
                continue
            d, budget = _brent_rho(m, rng, budget)
            if d == 1:
                bits = original.bit_length()
                named = original if bits <= 1000 else f"a {bits}-bit integer"
                raise InputDataError(
                    f"cannot factor {named}: {_RHO_STEPS} steps of Brent's rho "
                    f"split no factor off its {m.bit_length()}-bit cofactor"
                )
            stack.append((d, k))
            stack.append((m // d, k))
    return Factored(original, tuple(sorted(found.items())))


def valuation(p: int, n: int) -> int:
    """Exact exponent of the prime p in n (n nonzero)."""
    if not is_prime(p):
        raise ValueError(f"valuation base {p} is not prime")
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def two_adic(n: int) -> int:
    """Exponent of 2 in n, fast path (n nonzero)."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    return (n & -n).bit_length() - 1


def as_power_of(base: int, n: int) -> int | None:
    """The exponent e >= 1 with base**e == n, or None.

    Exact repeated division; no floating point.
    """
    if base < 2:
        raise ValueError(f"power base must be at least 2, got {base}")
    if n < 1:
        return None
    e = 0
    while n > 1 and n % base == 0:
        n //= base
        e += 1
    return e if n == 1 and e >= 1 else None


def introot(n: int, k: int) -> int:
    """Floor of the k-th root of n, exact.

    Up to 100 bits a float seed is corrected by exact powering, a step or
    two at most; larger n take integer Newton iteration from above.
    """
    if n < 0 or k < 1:
        raise ValueError("introot requires n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    bits = n.bit_length()
    if bits <= k:
        return 1
    if bits <= 100:
        r = int(n ** (1.0 / k))
        while r**k > n:
            r -= 1
        while (r + 1) ** k <= n:
            r += 1
        return r
    x = 1 << -(-bits // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def residue_table(p: int, m: int) -> bytes:
    """Byte i is 1 exactly when i is a p-th power residue modulo m."""
    admitted = bytearray(m)
    for r in range(m):
        admitted[pow(r, p, m)] = 1
    return bytes(admitted)


# Residue sieves in front of root extraction (after the GMP manual's
# perfect-square test): a p-th power must be a p-th power residue modulo
# every listed m; larger primes go straight to the root.  The later moduli
# matter for the search's sums g^w * a1^x + b1^y, whose residues modulo
# 64, 63 or 121 follow the parts: on the catalogue box, fifth-power root
# extractions in one cell fell from about 5,000 with 121 alone to 54.  With
# these chains, and the sums g^w * a1^x + b1 rooted by interval instead
# (search._search_unit), the box makes 479 perfect_powers calls at exp_max
# 6 and 853 at exp_max 7; 293 and 599 of them find no root.
POWER_SIEVES: dict[int, tuple[tuple[int, bytes], ...]] = {
    p: tuple((m, residue_table(p, m)) for m in moduli)
    for p, moduli in (
        (2, (64, 63, 65, 11, 17, 19, 23)),
        (3, (63, 91, 37, 19, 31, 43)),
        (5, (121, 31, 41, 61, 71, 101)),
        (7, (49, 29, 43, 71, 127)),
    )
}


def _prime_root(n: int, p: int) -> int | None:
    """The integer r with r**p == n for a prime p, or None."""
    r = introot(n, p)
    return r if r**p == n else None


def perfect_powers(n: int, max_exp: int) -> list[tuple[int, int]]:
    """All (r, e) with r**e == n, r >= 2 and 2 <= e <= max_exp, by ascending e.

    Roots are extracted for prime exponents only, each behind its residue
    sieve; a composite exponent comes from recursing on a root, so
    n = r**2 with r = s**2 also yields (s, 4).
    """
    top = min(max_exp, n.bit_length() - 1)
    if top < 2:
        return []
    primes = _small_primes() if top <= _TRIAL_LIMIT else range(2, top + 1)
    found: dict[int, int] = {}
    for p in primes:
        if p > top:
            break
        if top > _TRIAL_LIMIT and not is_prime(p):
            continue
        for m, admitted in POWER_SIEVES.get(p, ()):
            if not admitted[n % m]:
                break
        else:
            r = _prime_root(n, p)
            if r is not None:
                found[p] = r
                for s, e in perfect_powers(r, max_exp // p):
                    found[p * e] = s
    return [(found[e], e) for e in sorted(found)] if found else []


def power_representations(n: int) -> list[tuple[int, int]]:
    """All pairs (base, e) with base**e == n and e >= 1, exponent 1 included.

    Pairs come by ascending exponent, and n = 1 yields only the
    degenerate pair (1, 1).
    """
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    if n == 1:
        return [(1, 1)]
    return [(n, 1)] + perfect_powers(n, n.bit_length())


def least_index(R: int, S: int, M: int, eps: int, cap: int = 10**6) -> int | None:
    """Least t >= 1 with M dividing R**t - (-1)**eps * S**t.

    Returns None when no such t exists up to the cap; the caller can tell
    that apart from bad arguments, which raise ValueError.  A prime of M
    dividing R or S leaves no index.  Otherwise t is the least t >= 1 with
    q**t == (-1)**eps mod M for q = R * S**-1, found by baby-step
    giant-step over [1, min(cap, M)], since q has order below M: that is
    O(sqrt(min(cap, M))) products modulo M and no factoring, so a modulus
    that factorize cannot split is answered all the same.
    """
    if R <= S or S < 1:
        raise ValueError("need R > S >= 1")
    if math.gcd(R, S) != 1:
        raise ValueError("R and S must be coprime")
    if M < 1:
        raise ValueError("modulus must be positive")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if cap < 1:
        raise ValueError("cap must be positive")
    if M == 1:
        return 1
    if math.gcd(R * S, M) > 1:
        # a prime of M dividing S (or R) would divide R**t (or S**t) too
        return None
    q = R * pow(S, -1, M) % M
    # the least s >= 0 with q**s == (-1)**eps * q**-1 gives t = s + 1
    target = (1 if eps == 0 else M - 1) * pow(q, -1, M) % M
    span = min(cap, M)
    step = math.isqrt(span - 1) + 1
    baby: dict[int, int] = {}
    qj = 1
    for j in range(step):
        baby.setdefault(qj, j)
        qj = qj * q % M
    giant = pow(q, -step, M)
    for i in range(0, span, step):
        j = baby.get(target)
        if j is not None:
            t = i + j + 1
            return t if t <= cap else None
        target = target * giant % M
    return None


def lte_odd(R: int, S: int, p: int, n1: int, n2: int) -> tuple[int, int, bool]:
    """Valuation growth of R**n - S**n at an odd prime p along n1 | n2.

    Returns (v1, v2, divides) where p**v1 and p**v2 exactly divide the n1
    and n2 values and divides reports whether p**(v2 - v1) divides n2/n1.
    Requires gcd(R, S) = 1, R > S, p odd, and p**v1 > 2.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if R <= S or S < 1 or math.gcd(R, S) != 1:
        raise ValueError("need coprime R > S >= 1")
    if n1 < 1 or n2 % n1 != 0:
        raise ValueError("need n1 >= 1 dividing n2")
    v1 = valuation(p, R**n1 - S**n1)
    if p**v1 <= 2:
        raise ValueError(f"p^v1 = {p**v1} <= 2: the growth rule does not apply")
    v2 = valuation(p, R**n2 - S**n2)
    divides = (n2 // n1) % p ** (v2 - v1) == 0
    return v1, v2, divides


def two_adic_profile(R: int, S: int, n1: int, n2: int) -> tuple[int, int]:
    """Exact 2-adic valuations of R**n2 - S**n2 and R**n2 + S**n2.

    Closed form for odd coprime R > S and n1 | n2: an odd ratio n2/n1
    carries the valuations of the n1 values over unchanged, an even ratio
    sends the minus valuation to max(t, u) + v and the plus valuation to 1,
    where 2**v exactly divides n2/n1.
    """
    if R % 2 == 0 or S % 2 == 0:
        raise ValueError("R and S must both be odd")
    if R <= S or S < 1 or math.gcd(R, S) != 1:
        raise ValueError("need coprime R > S >= 1")
    if n1 < 1 or n2 % n1 != 0:
        raise ValueError("need n1 >= 1 dividing n2")
    t = two_adic(R**n1 - S**n1)
    u = two_adic(R**n1 + S**n1)
    v = two_adic(n2 // n1)
    if v == 0:
        return t, u
    return max(t, u) + v, 1


def prime_support_subset(m: int, n: int) -> bool:
    """True iff every prime dividing m also divides n.

    One modular power: no prime divides m more than m.bit_length() times,
    so m divides n**m.bit_length() exactly when each of its primes divides
    n.  solve._merge skips a walk on it, and same_prime_set_scan pairs
    values by it.
    """
    if m < 1 or n < 1:
        raise ValueError("need positive integers")
    return pow(n, m.bit_length(), m) == 0


def same_prime_set_scan(R: int, S: int, nmax: int, sign: int) -> list[tuple[int, int]]:
    """Index pairs n1 < n2 <= nmax where R**n2 -/+ S**n2 has no new primes.

    sign = -1 scans differences, sign = +1 scans sums.  A pair (n1, n2) is
    reported when every prime of the n2 value already divides the n1 value.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    if R <= S or S < 1 or math.gcd(R, S) != 1:
        raise ValueError("need coprime R > S >= 1")
    if nmax < 2:
        return []
    values = [R**n + sign * S**n for n in range(1, nmax + 1)]
    hits = []
    for i, v1 in enumerate(values):
        for j in range(i + 1, len(values)):
            if prime_support_subset(values[j], v1):
                hits.append((i + 1, j + 1))
    return hits
