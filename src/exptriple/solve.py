"""Bounded enumeration of solutions to a^x + b^y = c^z.

Solutions found below an explicit bit bound are grouped into equivalence
classes (two solutions are the same class when their term multisets
{a^x, b^y} coincide), which is what the class count N counts.  The module
also recognizes the handful of base shapes that admit more than two
solutions, all of which live among powers of two and their neighbours.

Enumeration takes one of three paths, each exact and complete below the
bound.  A triple with a prime dividing exactly two bases has no solution
and returns after three gcds.  A triple with a prime p dividing all three
bases is split on p's valuations: two of v_p(a^x), v_p(b^y), v_p(c^z) are
equal and no larger than the third.  Each case is a sequence in one step
k, c^z - a^x, c^z - b^y or a^x + b^y, merged against a running power of
the third base in O(K + Z) steps with no table.  A walk that can hold no
hit is skipped: a difference u^k - v^k with u <= v is never positive, and
a third base too large against u and v for p's valuations never meets
the sequence.  Only pairwise-coprime bases, such as (3, 5, 2), keep the
O(X * Z) double loop over (x, z).
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

from .arith import as_power_of, two_adic
from .triple import Triple


class Solution(NamedTuple):
    """One exponent triple (x, y, z), all positive."""

    x: int
    y: int
    z: int

    def key(self) -> tuple[int, int, int]:
        # canonical output order
        return (self.z, self.x, self.y)


def make_solution(t: Triple, x: int, y: int, z: int) -> Solution:
    """Build a solution after checking it exactly against the triple."""
    if x < 1 or y < 1 or z < 1:
        raise ValueError(f"exponents must be positive, got {(x, y, z)}")
    if t.a**x + t.b**y != t.c**z:
        raise ValueError(f"({x}, {y}, {z}) does not solve {t.a}^x + {t.b}^y = {t.c}^z")
    return Solution(x, y, z)


def term_multiset(t: Triple, s: Solution) -> tuple[int, int]:
    """The two left-hand terms of the solution, as a sorted pair."""
    ax, by = t.a**s.x, t.b**s.y
    return (ax, by) if ax <= by else (by, ax)


def correspond(t1: Triple, s1: Solution, t2: Triple, s2: Solution) -> bool:
    """Whether two solutions produce the same multiset of left-hand terms.

    The triples may coincide or differ; equal term multisets are what ties
    a solution of one triple to a solution of another.
    """
    return term_multiset(t1, s1) == term_multiset(t2, s2)


class SolutionSet(NamedTuple):
    """All solutions of a triple below a bit bound, with their classes.

    solutions is sorted by (z, x, y).  classes partitions it by term
    multiset; each class is sorted the same way and classes are ordered by
    their minimal member.  bound_too_small records that c itself did not
    fit below the bound, in which case nothing was enumerated.
    """

    triple: Triple
    max_bits: int
    solutions: tuple[Solution, ...]
    classes: tuple[tuple[Solution, ...], ...]
    bound_too_small: bool = False

    @property
    def raw_count(self) -> int:
        return len(self.solutions)


def count_N(sset: SolutionSet) -> int:
    """The class count N for the enumerated triple."""
    return len(sset.classes)


def _powers_below(base: int, limit: int) -> list[int]:
    """base, base**2, ... up to the last power below limit."""
    out = []
    v = base
    while v < limit:
        out.append(v)
        v *= base
    return out


def _exponent_of_power(powers: list[int]) -> dict[int, int]:
    return {v: i for i, v in enumerate(powers, start=1)}


def _coprime_double_loop(t: Triple, limit: int) -> list[Solution]:
    """Solutions of pairwise-coprime bases, by walking (x, z) pairs."""
    a_powers = _powers_below(t.a, limit)
    b_power_of = _exponent_of_power(_powers_below(t.b, limit))
    found = []
    cz, z = t.c, 1
    while cz < limit:
        for x, ax in enumerate(a_powers, start=1):
            if ax >= cz:
                break
            y = b_power_of.get(cz - ax)
            if y is not None:
                found.append(Solution(x, y, z))
        cz *= t.c
        z += 1
    return found


def _power_exceeds(base: int, m: int, x: int, n: int, strict: bool, cap: int) -> bool:
    """Whether base**m > x**n, or base**m >= x**n when not strict.

    Bit lengths decide when the two powers lie in disjoint ranges
    [2^(m*(len-1)), 2^(m*len)).  Otherwise the powers are formed, with m
    and n divided by their gcd, unless one would be longer than cap bits;
    the answer is then False.
    """
    lb, lx = base.bit_length(), x.bit_length()
    if m * (lb - 1) >= n * lx:
        return True
    if m * lb <= n * (lx - 1):
        return False
    h = math.gcd(m, n)
    m, n = m // h, n // h
    if max(m * lb, n * lx) > cap:
        return False
    lhs, rhs = base**m, x**n
    return lhs > rhs or (not strict and lhs == rhs)


def _merge(
    u_base: int, e_u: int, v_base: int, e_v: int, sign: int, base: int, e_w: int, limit: int
) -> list[tuple[int, int, int]]:
    """Every (i, j, e) with u_base^i + sign * v_base^j = base^e, i*e_u = j*e_v
    and c^z below limit, where c^z is u_base^i for sign -1, else the sum.

    The term is u^k + sign * v^k for u = u_base^(e_v/g), v = v_base^(e_u/g)
    and g = gcd(e_u, e_v), which increases with k once u > v.

    e_u, e_v and e_w are the exponents of one prime p in u_base, v_base and
    base.  The walk is skipped when base is too large for any hit.  Let
    L = du*e_u = e_u*e_v/g, so u^k and v^k both have p-adic valuation k*L
    and their sum or difference has at least that.  A hit base^e therefore
    has e*e_w >= k*L, and base^(k*L) <= (base^e)^e_w.  For a difference
    base^e < u^k, which gives base^L < u^e_w.  For a sum base^e <=
    2*max(u, v)^k <= (2*max(u, v))^k, which gives base^L <=
    (2*max(u, v))^e_w.  So base^L >= u^e_w skips a difference walk and
    base^L > (2*max(u, v))^e_w skips a sum walk.  Bit lengths decide most
    of these tests.  The exact powers are formed only when bit lengths
    cannot decide, and only up to twice the bits of limit, the size of the
    walk's own products; past that the walk runs, which is always correct.

    Neither boundary changes an output.  A difference hit has
    base^L < u^e_w strictly, so none sits at equality.  A sum hit with
    base^L > max(u, v)^e_w has e*e_w = k*L: otherwise e*e_w >= k*L + 1, and
    base^(k*L + 1) <= (base^e)^e_w <= 2^e_w * max(u, v)^(k*e_w)
    < 2^e_w * base^(k*L) would give base < 2^e_w, although p^e_w divides
    base.  All three valuations of a^x + b^y = c^z are then equal, so the
    difference walk of c^z - a^x = b^y finds the same solution.  That is
    why neither >= for > in the sum's test nor dropping its factor 2 can
    change a result.
    """
    g = math.gcd(e_u, e_v)
    du, dv = e_v // g, e_u // g
    bits = limit.bit_length() - 1
    if du * (u_base.bit_length() - 1) >= bits or dv * (v_base.bit_length() - 1) >= bits:
        return []  # u or v is at least limit, and then so is every c^z; neither is formed
    u, v = u_base**du, v_base**dv
    if sign < 0:
        if u <= v or _power_exceeds(base, du * e_u, u, e_w, False, 2 * bits):
            return []  # the difference is never positive, or base^L >= u^e_w
    elif _power_exceeds(base, du * e_u, 2 * max(u, v), e_w, True, 2 * bits):
        return []  # base^L > (2*max(u, v))^e_w
    out, uk, vk, k = [], u, v, 1
    power, e = base, 1
    while True:
        term = uk + sign * vk
        if (uk if sign < 0 else term) >= limit:
            return out
        while power < term:
            power *= base
            e += 1
        if power == term:
            out.append((k * du, k * dv, e))
        uk, vk, k = uk * u, vk * v, k + 1


def _valuation_split(t: Triple, limit: int) -> list[Solution]:
    """Solutions of a triple with a shared prime, one valuation case at a time.

    For the smallest shared prime p with exponents (e_a, e_b, e_c), two of
    v_p(a^x) = x*e_a, v_p(b^y) = y*e_b and v_p(c^z) = z*e_c are equal and
    no larger than the third: c^z - a^x = b^y, c^z - b^y = a^x or
    a^x + b^y = c^z is then one merge walk.
    """
    e_a, e_b, e_c = t.exponents[t.common_primes[0]]
    a, b, c = t.a, t.b, t.c
    found = {Solution(x, y, z) for z, x, y in _merge(c, e_c, a, e_a, -1, b, e_b, limit)}
    found.update(Solution(x, y, z) for z, y, x in _merge(c, e_c, b, e_b, -1, a, e_a, limit))
    found.update(Solution(x, y, z) for x, y, z in _merge(a, e_a, b, e_b, 1, c, e_c, limit))
    return list(found)


def enumerate_solutions(t: Triple, max_bits: int) -> SolutionSet:
    """Find every solution with c^z below 2**max_bits.

    Three paths, each complete below the stated bound; the result makes no
    claim above it.  Write X, Y, Z for the numbers of powers of a, b, c
    below the bound.

    - Early exit.  A prime dividing exactly two of a, b, c divides exactly
      two of the three terms, so nothing can solve the triple.  These are
      the triples where two of a1, b1, c1 share a factor; they cost three
      gcds.
    - Valuation split, when a prime p divides all three bases.  Of the
      p-adic valuations of a^x, b^y and c^z the two smallest are equal, so
      x*e_a = z*e_c, y*e_b = z*e_c or x*e_a = y*e_b for p's exponents
      (e_a, e_b, e_c).  Each case is a sequence in k that increases:
      c^z - a^x = u^k - v^k for u = c^(e_a/g), v = a^(e_c/g) and
      g = gcd(e_a, e_c), c^z - b^y likewise, a^x + b^y = u^k + v^k for
      u = a^(e_b/g), v = b^(e_a/g) and g = gcd(e_a, e_b).  It is walked
      next to a running power of the third base, advanced while below
      the term, and stops when c^z reaches the bound.  A case is skipped
      before its walk when it can hold no hit: a difference with u <= v
      is never positive, and a third base w with p-exponent e_w and
      w^L >= u^e_w (difference) or w^L > (2*max(u, v))^e_w (sum), for
      L = v_p(u), is too large for p's valuations (see _merge).  The test
      compares bit lengths and forms no number longer than twice the
      bound.  The cases can overlap, so hits are collected in a set.  Cost
      O(K + Z) steps per case with no table: K values of k and the Z
      powers of c (X or Y for a or b).  A triple whose walks find nothing
      returns before any sorting or grouping.
    - Pairwise-coprime bases, such as (3, 5, 2): for each z, walk the
      powers of a below c^z and look the difference up among the powers
      of b.  Cost O(X * Z) lookups.
    """
    if max_bits < 1:
        raise ValueError("max_bits must be positive")
    limit = 1 << max_bits
    if t.c >= limit:
        warnings.warn(
            f"base c = {t.c} does not fit below 2^{max_bits}; nothing enumerated",
            stacklevel=2,
        )
        return SolutionSet(t, max_bits, (), (), bound_too_small=True)
    if math.gcd(t.a1, t.b1) > 1 or math.gcd(t.a1, t.c1) > 1 or math.gcd(t.b1, t.c1) > 1:
        return SolutionSet(t, max_bits, (), ())
    found = _valuation_split(t, limit) if t.common_primes else _coprime_double_loop(t, limit)
    if not found:
        return SolutionSet(t, max_bits, (), ())
    found.sort(key=Solution.key)
    by_terms: dict[tuple[int, int], list[Solution]] = {}
    for s in found:
        by_terms.setdefault(term_multiset(t, s), []).append(s)
    classes = tuple(
        tuple(cl) for cl in sorted(by_terms.values(), key=lambda cl: cl[0].key())
    )
    return SolutionSet(t, max_bits, tuple(found), classes)


class SpecialShape(NamedTuple):
    """A matched many-solution base shape with its parameters.

    tags: "coprime-352" for {3,5} against 2; "two-two" for (2, 2, 2^e*3);
    "two-eight" for {2,8} against 2^(3t)*3; "mersenne-pair" for a = b one
    below a power of two with c twice a power of a; "all-two-powers" when
    every base is a power of two and the exponents allow solutions.
    predicted is the complete solution list for the finite shapes and
    empty for "all-two-powers", whose solutions form an infinite sequence.
    """

    tag: str
    params: dict[str, int]
    predicted: tuple[Solution, ...]


def detect_special_case(t: Triple) -> SpecialShape | None:
    """Match a triple against the shapes with more than two solutions."""
    a, b, c = t.a, t.b, t.c
    if {a, b} == {3, 5} and c == 2:
        if a == 3:
            pred = (Solution(1, 1, 3), Solution(3, 1, 5), Solution(1, 3, 7))
        else:
            pred = (Solution(1, 1, 3), Solution(1, 3, 5), Solution(3, 1, 7))
        return SpecialShape("coprime-352", {}, pred)
    if a == 2 and b == 2:
        e = two_adic(c)
        if e >= 1 and c >> e == 3:
            pred = (
                Solution(e + 1, e, 1),
                Solution(e, e + 1, 1),
                Solution(2 * e + 3, 2 * e, 2),
                Solution(2 * e, 2 * e + 3, 2),
            )
            return SpecialShape("two-two", {"gamma": e}, pred)
    if {a, b} == {2, 8}:
        e = two_adic(c)
        if e >= 3 and e % 3 == 0 and c >> e == 3:
            s = e // 3
            pred = (
                Solution(3 * s + 1, s, 1),
                Solution(6 * s + 3, 2 * s, 2),
                Solution(6 * s, 2 * s + 1, 2),
            )
            if a == 8:
                pred = tuple(Solution(p.y, p.x, p.z) for p in pred)
            pred = tuple(sorted(pred, key=Solution.key))
            return SpecialShape("two-eight", {"t": s, "swapped": int(a == 8)}, pred)
    if a == b and a >= 3:
        k = as_power_of(2, a + 1)
        if k is not None and c % 2 == 0:
            e = as_power_of(a, c // 2) if c // 2 > 1 else None
            if e is not None:
                pred = (
                    Solution(e, e, 1),
                    Solution(k * e, k * e + 1, k),
                    Solution(k * e + 1, k * e, k),
                )
                pred = tuple(sorted(pred, key=Solution.key))
                return SpecialShape("mersenne-pair", {"k": k, "gamma": e}, pred)
    u, v, w = as_power_of(2, a), as_power_of(2, b), as_power_of(2, c)
    if u is not None and v is not None and w is not None and math.gcd(u * v, w) == 1:
        return SpecialShape("all-two-powers", {"u": u, "v": v, "w": w}, ())
    return None


def power_of_two_solutions(u: int, v: int, w: int, t_max: int) -> list[Solution]:
    """Parametric solutions of 2^(ux) + 2^(vy) = 2^(wz) up to a step bound.

    Both left terms must be the equal power 2^(tL) for L = lcm(u, v), and
    the step t must satisfy tL = -1 mod w; every emitted solution is
    verified by substitution.
    """
    if u < 1 or v < 1 or w < 1 or t_max < 1:
        raise ValueError("need positive u, v, w, t_max")
    if math.gcd(u * v, w) != 1:
        raise ValueError(f"gcd(uv, w) = {math.gcd(u * v, w)} leaves no solutions")
    g = math.gcd(u, v)
    big_l = u // g * v
    out = []
    for step in range(1, t_max + 1):
        if (step * big_l + 1) % w:
            continue
        x, y, z = step * v // g, step * u // g, (step * big_l + 1) // w
        if (1 << u * x) + (1 << v * y) != 1 << w * z:
            raise AssertionError("parametric power-of-two solution failed to verify")
        out.append(Solution(x, y, z))
    return out
