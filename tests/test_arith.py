"""Tests for the integer arithmetic layer.

The factorization oracle here is plain bounded trial division, written
before the fast implementation and kept independent of it.
"""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exptriple.arith as arith_module
from exptriple.arith import (
    POWER_SIEVES,
    Factored,
    as_power_of,
    factorize,
    introot,
    is_prime,
    least_index,
    lte_odd,
    perfect_powers,
    power_representations,
    prime_support_subset,
    same_prime_set_scan,
    two_adic,
    two_adic_profile,
    valuation,
)
from exptriple.errors import InputDataError


def oracle_factorize(n: int) -> list[tuple[int, int]]:
    # Unbounded trial division: too slow for real work, perfect as a check.
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


class TestFactorize:
    def test_small_values(self):
        for n in range(1, 2000):
            assert factorize(n).factors == tuple(oracle_factorize(n))

    def test_known_values(self):
        assert factorize(1).factors == ()
        assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
        assert factorize(78405).factors == ((3, 1), (5, 1), (5227, 1))
        assert factorize(24304930).factors == ((2, 1), (5, 1), (13, 1), (31, 1), (37, 1), (163, 1))
        assert factorize(7857).factors == ((3, 4), (97, 1))

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-12)

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        real = getattr(arith_module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(arith_module, name, counted)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 7, 97, 9_973, 10_007, 99_991, 49, 9_973**2, 2 * 9_973**2])
    def test_cofactor_below_the_break_needs_no_primality_test(self, monkeypatch, n):
        # trial division stops at p with p*p > n (or runs out with n = 1),
        # so whatever is left is 1 or a prime
        primality = self._count_calls(monkeypatch, "is_prime")
        assert factorize(n).factors == tuple(oracle_factorize(n))
        assert primality == []

    def test_prime_just_above_the_table_square(self, monkeypatch):
        n = 100_000_007
        assert arith_module._TRIAL_LIMIT**2 < n and oracle_factorize(n) == [(n, 1)]
        primality = self._count_calls(monkeypatch, "is_prime")
        assert factorize(n).factors == ((n, 1),)
        assert primality == [(n,)]

    def test_product_of_primes_above_the_table_goes_through_rho(self, monkeypatch):
        n = 10_007 * 10_009
        rho = self._count_calls(monkeypatch, "_brent_rho")
        assert factorize(n).factors == tuple(oracle_factorize(n)) == ((10_007, 1), (10_009, 1))
        assert len(rho) == 1

    @pytest.mark.parametrize("n, factors", [
        ((2**61 - 1) ** 2, ((2**61 - 1, 2),)),
        ((2**61 - 1) ** 3, ((2**61 - 1, 3),)),
        ((2**61 - 1) ** 2 * (2**31 - 1), ((2**31 - 1, 1), (2**61 - 1, 2))),
    ])
    def test_powers_of_a_large_prime_never_reach_rho(self, monkeypatch, n, factors):
        # rho needs about 2^30 steps to split a power of p = 2^61 - 1, so no
        # composite handed to it may be a perfect power
        real = arith_module._brent_rho

        def checked(m, rng, budget):
            assert perfect_powers(m, m.bit_length()) == [], m
            return real(m, rng, budget)

        monkeypatch.setattr(arith_module, "_brent_rho", checked)
        assert factorize(n).factors == factors

    def test_a_36_bit_least_prime_splits_within_the_rho_budget(self):
        p, q = 2**36 - 5, 2**61 - 1
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_two_large_primes_exhaust_the_rho_budget(self):
        # rho needs about 2^30 steps to split off p = 2^61 - 1
        n = (2**61 - 1) * (2**64 - 59)
        with pytest.raises(InputDataError, match=f"^cannot factor {n}: 2097152 steps"):
            factorize(n)

    @pytest.mark.parametrize("n, named", [
        (10_007 * 10_009, "100160063"),
        (10_007 * 10_009 * (2**1279 - 1), "a 1306-bit integer"),
    ])
    def test_an_exhausted_budget_names_the_number(self, monkeypatch, n, named):
        monkeypatch.setattr(arith_module, "_RHO_STEPS", 8)
        with pytest.raises(InputDataError) as caught:
            factorize(n)
        assert str(caught.value).startswith(f"cannot factor {named}: 8 steps of Brent's rho")

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=200)
    def test_recomposition(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
        assert all(e >= 1 for _, e in f.factors)
        assert list(f.primes) == sorted(f.primes)
        assert all(is_prime(p) for p in f.primes)


class TestIsPrime:
    def test_agrees_with_oracle(self):
        for n in range(0, 5000):
            assert is_prime(n) == oracle_is_prime(n)

    def test_witness_values(self):
        assert is_prime(5227)
        assert is_prime(4931)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)
        # strong pseudoprime to base 2, composite
        assert not is_prime(3215031751)

    def test_sieve_agrees_with_is_prime(self):
        assert arith_module._primes_up_to(20_000) == [n for n in range(20_001) if is_prime(n)]
        assert arith_module._primes_up_to(1) == []
        assert arith_module._primes_up_to(2) == [2]


class TestDerivedFunctions:
    def test_valuation(self):
        assert valuation(2, 40) == 3
        assert valuation(5, 40) == 1
        assert valuation(7, 40) == 0
        assert valuation(3, -27) == 3
        with pytest.raises(ValueError):
            valuation(4, 12)
        with pytest.raises(ValueError):
            valuation(2, 0)

    def test_two_adic(self):
        assert two_adic(40) == 3
        assert two_adic(7) == 0
        assert two_adic(-16) == 4

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200)
    def test_two_adic_matches_valuation(self, n):
        assert two_adic(n) == valuation(2, n)


class TestPowers:
    def test_as_power_of(self):
        assert as_power_of(2, 8) == 3
        assert as_power_of(3, 3) == 1
        assert as_power_of(2, 12) is None
        assert as_power_of(10, 1) is None
        assert as_power_of(6, 216) == 3
        with pytest.raises(ValueError):
            as_power_of(1, 8)

    def test_introot(self):
        assert introot(0, 5) == 0
        assert introot(1, 3) == 1
        assert introot(26, 3) == 2
        assert introot(27, 3) == 3
        assert introot(28, 3) == 3
        assert introot(10**18, 2) == 10**9
        assert introot(2**300 - 1, 3) == 2**100 - 1

    def test_introot_at_exact_powers(self):
        # the float seed below 100 bits may land a step off either way
        for k in range(3, 9):
            top = introot(2**100, k)
            for r in (2, 3, 1000, top - 1, top, top + 1):
                assert introot(r**k, k) == r
                assert introot(r**k - 1, k) == r - 1
                assert introot(r**k + 1, k) == r

    @given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=40))
    @settings(max_examples=300)
    def test_introot_is_floor(self, n, k):
        r = introot(n, k)
        assert r**k <= n < (r + 1) ** k

    def test_power_representations(self):
        assert power_representations(1) == [(1, 1)]
        assert power_representations(7) == [(7, 1)]
        assert power_representations(64) == [(64, 1), (8, 2), (4, 3), (2, 6)]
        assert power_representations(729) == [(729, 1), (27, 2), (9, 3), (3, 6)]

    @given(st.integers(min_value=2, max_value=50), st.integers(min_value=1, max_value=12))
    @settings(max_examples=200)
    def test_power_representations_complete(self, b, e):
        n = b**e
        reps = power_representations(n)
        assert all(base**exp == n for base, exp in reps)
        assert (n, 1) in reps
        assert (b, e) in reps


class TestPerfectPowers:
    def test_exhaustive_small(self):
        # oracle: every r**e below the limit, listed by direct powering
        limit = 5000
        want: dict[int, list[tuple[int, int]]] = {}
        for e in range(2, 7):
            r = 2
            while r**e < limit:
                want.setdefault(r**e, []).append((r, e))
                r += 1
        for n in range(2, limit):
            assert perfect_powers(n, 6) == want.get(n, []), n

    def test_large_exact_powers(self):
        base = 10**13 + 7
        for e in (2, 3, 5):
            assert (base, e) in perfect_powers(base**e, 6)

    def test_large_near_miss(self):
        base = 10**13 + 7
        assert perfect_powers(base**3 + 1, 6) == []

    def test_composite_exponents_by_recursion(self):
        assert perfect_powers(3**12, 12) == [
            (729, 2), (81, 3), (27, 4), (9, 6), (3, 12),
        ]
        assert perfect_powers(3**12, 5) == [(729, 2), (81, 3), (27, 4)]

    def test_sieves_admit_every_power_residue(self):
        for p, sieve in POWER_SIEVES.items():
            for m, admitted in sieve:
                for r in range(m):
                    assert admitted[pow(r, p, m)], (p, m, r)


def scan_least_index(R: int, S: int, M: int, eps: int, cap: int) -> int | None:
    # oracle: the first t in 1..cap with R^t == (-1)^eps * S^t mod M
    sign = 1 if eps == 0 else -1
    rt = st_ = 1
    for t in range(1, cap + 1):
        rt, st_ = rt * R % M, st_ * S % M
        if (rt - sign * st_) % M == 0:
            return t
    return None


class TestLeastIndex:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=2 * 10**4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scan(self, s, delta, m, eps, cap):
        r = s + delta
        if math.gcd(r, s) != 1:
            return
        assert least_index(r, s, m, eps, cap=cap) == scan_least_index(r, s, m, eps, cap)

    def test_unfactorable_modulus(self):
        # factorize gives up on M, two Mersenne primes of 61 and 89 bits;
        # the index of 2 is the lcm of their orders 61 and 89, and the
        # order 5429 is odd, so 2^t = -1 never holds
        m = (2**61 - 1) * (2**89 - 1)
        assert least_index(2, 1, m, 0) == 61 * 89 == scan_least_index(2, 1, m, 0, 6000)
        assert least_index(2, 1, m, 1, cap=6000) is None
        assert scan_least_index(2, 1, m, 1, 6000) is None
        assert least_index(2, 1, m, 0, cap=61 * 89 - 1) is None

    def test_large_prime_modulus_is_fast(self):
        # the scan took about 0.3 s to walk the whole default cap of 10^6
        start = time.perf_counter()
        assert least_index(3, 2, 10**9 + 7, 1) is None
        assert time.perf_counter() - start < 0.01

    def test_frozen_examples(self):
        # oracle: brute scan of R^t -/+ S^t mod M by hand for tiny cases
        assert least_index(2, 1, 7, 0) == 3  # 2^3 - 1 = 7
        assert least_index(3, 1, 8, 0) == 2  # 3^2 - 1 = 8
        assert least_index(2, 1, 3, 1) == 1  # 2 + 1 = 3
        assert least_index(19, 3, 2, 0) == 1  # 19 - 3 = 16
        assert least_index(19, 3, 16, 0) == 1
        assert least_index(19, 3, 32, 0) == 2  # 19^2 - 3^2 = 352 = 2^5 * 11
        assert least_index(5, 2, 7, 1) == 1  # 5 + 2 = 7
        assert least_index(5, 2, 7, 0) == 2  # 25 - 4 = 21

    def test_modulus_one(self):
        assert least_index(5, 2, 1, 0) == 1

    def test_cap_exhaustion(self):
        # 6^t - 1 mod 4 is 1 then 3, 3, ... so no index exists at all
        assert least_index(6, 1, 4, 0, cap=100) is None
        # the true index is 256 (the order of 3 mod 2^10), beyond this cap
        assert least_index(3, 1, 1024, 0, cap=100) is None
        assert least_index(3, 1, 1024, 0) == 256

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            least_index(2, 2, 5, 0)
        with pytest.raises(ValueError):
            least_index(6, 3, 5, 0)
        with pytest.raises(ValueError):
            least_index(3, 1, 0, 0)
        with pytest.raises(ValueError):
            least_index(3, 1, 5, 2)
        with pytest.raises(ValueError):
            least_index(3, 1, 5, 0, cap=0)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=300)
    def test_hit_structure(self, s, delta, m, eps):
        # hits are exactly the multiples of the least index (minus case) or
        # exactly its odd multiples (plus case)
        r = s + delta
        if math.gcd(r, s) != 1:
            return
        t0 = least_index(r, s, m, eps, cap=500)
        if t0 is None:
            return
        sign = 1 if eps == 0 else -1
        for t in range(1, 6 * t0 + 1):
            hit = (pow(r, t, m) - sign * pow(s, t, m)) % m == 0
            if eps == 0:
                assert hit == (t % t0 == 0)
            elif m > 2:
                assert hit == (t % t0 == 0 and (t // t0) % 2 == 1)
            else:
                # mod 2 the signs coincide, so every index past the first hits
                assert hit


class TestLteOdd:
    def test_frozen_examples(self):
        # 10 - 1 = 9 = 3^2, 10^3 - 1 = 999 = 3^3 * 37
        assert lte_odd(10, 1, 3, 1, 3) == (2, 3, True)
        # 4 - 1 = 3, 4^3 - 1 = 63 = 3^2 * 7
        assert lte_odd(4, 1, 3, 1, 3) == (1, 2, True)
        # 6 - 1 = 5, 6^5 - 1 = 7775 = 5^2 * 311
        assert lte_odd(6, 1, 5, 1, 5) == (1, 2, True)

    def test_rejects_small_v1(self):
        # 3 - 1 = 2: p = 5 does not divide it
        with pytest.raises(ValueError):
            lte_odd(3, 1, 5, 1, 5)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lte_odd(10, 1, 2, 1, 2)
        with pytest.raises(ValueError):
            lte_odd(10, 1, 9, 1, 3)
        with pytest.raises(ValueError):
            lte_odd(10, 1, 3, 2, 3)

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.sampled_from([3, 5, 7, 11, 13]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=300)
    def test_growth_rule_always_holds(self, s, delta, p, n1, ratio):
        r = s + delta
        if math.gcd(r, s) != 1:
            return
        if r**n1 - s**n1 <= 2 or (r**n1 - s**n1) % p != 0:
            return
        v1, v2, divides = lte_odd(r, s, p, n1, n1 * ratio)
        assert divides
        assert v2 == v1 + valuation(p, ratio)


class TestTwoAdicProfile:
    def test_frozen_examples(self):
        assert two_adic_profile(3, 1, 1, 3) == (1, 2)
        assert two_adic_profile(3, 1, 1, 2) == (3, 1)
        assert two_adic_profile(5, 3, 1, 4) == (5, 1)
        assert two_adic_profile(7, 1, 1, 1) == (1, 3)
        assert two_adic_profile(7, 1, 2, 4) == (5, 1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            two_adic_profile(4, 1, 1, 2)
        with pytest.raises(ValueError):
            two_adic_profile(9, 3, 1, 2)
        with pytest.raises(ValueError):
            two_adic_profile(7, 5, 2, 3)

    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=300)
    def test_matches_direct_valuation(self, shalf, dhalf, n1, ratio):
        s = 2 * shalf + 1
        r = s + 2 * dhalf
        if math.gcd(r, s) != 1:
            return
        n2 = n1 * ratio
        minus, plus = two_adic_profile(r, s, n1, n2)
        assert minus == two_adic(r**n2 - s**n2)
        assert plus == two_adic(r**n2 + s**n2)


class TestPrimeSupport:
    def test_examples(self):
        assert prime_support_subset(8, 2)
        assert prime_support_subset(12, 6)
        assert not prime_support_subset(12, 2)
        assert prime_support_subset(1, 7)
        assert not prime_support_subset(7, 1)
        assert prime_support_subset(2**40 * 3**20, 6)

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300)
    def test_matches_factorization(self, m, n):
        expected = set(factorize(m).primes) <= set(factorize(n).primes)
        assert prime_support_subset(m, n) == expected


class TestSamePrimeSetScan:
    def test_difference_hits_match_oracle(self):
        # independent oracle over a small box using factorization directly
        for r in range(2, 12):
            for s in range(1, r):
                if math.gcd(r, s) != 1:
                    continue
                expected = []
                vals = [r**n - s**n for n in range(1, 7)]
                for i in range(6):
                    for j in range(i + 1, 6):
                        if set(factorize(vals[j]).primes) <= set(factorize(vals[i]).primes):
                            expected.append((i + 1, j + 1))
                assert same_prime_set_scan(r, s, 6, -1) == expected

    def test_known_difference_pair(self):
        # 3^2 - 1 = 8 shares its lone prime with 3 - 1 = 2
        assert (1, 2) in same_prime_set_scan(3, 1, 4, -1)
        assert (1, 2) in same_prime_set_scan(5, 3, 4, -1)

    def test_known_sum_pair(self):
        # 2^3 + 1 = 9 shares its lone prime with 2 + 1 = 3
        assert (1, 3) in same_prime_set_scan(2, 1, 4, 1)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            same_prime_set_scan(3, 1, 4, 0)
