"""Tests for the shared-prime structure of base triples."""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exptriple import triple as triple_module
from exptriple.errors import ProportionalityError
from exptriple.triple import build_triple, g_decomposition

# 10,007, 100,000,007 and 2^61 - 1 lie above the trial-division table
_POOL = (2, 3, 5, 7, 10_007, 100_000_007, 2**61 - 1)


def _trial_factors(n):
    """Exponent of every pool prime in n, by trial division over the pool."""
    found = {}
    for p in _POOL:
        while n % p == 0:
            n //= p
            found[p] = found.get(p, 0) + 1
    assert n == 1
    return found


def _pool_product(exps):
    return math.prod(p**e for p, e in zip(_POOL, exps))


_EXPS = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(_POOL))


class TestBuildTriple:
    def test_single_shared_prime(self):
        t = build_triple(3, 6, 15)
        assert t.common_primes == (3,)
        assert t.exponents == {3: (1, 1, 1)}
        assert (t.a1, t.b1, t.c1) == (1, 2, 5)

    def test_prime_power_tower(self):
        t = build_triple(7, 49, 98)
        assert t.common_primes == (7,)
        assert t.exponents == {7: (1, 2, 2)}
        assert (t.a1, t.b1, t.c1) == (1, 1, 2)

    def test_two_shared_primes(self):
        t = build_triple(30, 70, 4930)
        assert t.common_primes == (2, 5)
        assert t.exponents == {2: (1, 1, 1), 5: (1, 1, 1)}
        assert (t.a1, t.b1, t.c1) == (3, 7, 493)

    def test_coprime_pair_allowed(self):
        t = build_triple(3, 5, 2)
        assert t.common_primes == ()
        assert not t.has_shared_prime
        assert (t.a1, t.b1, t.c1) == (3, 5, 2)

    def test_shared_by_two_but_not_three(self):
        # 2 divides a and b but not c, so it is not a common prime
        t = build_triple(2, 6, 9)
        assert t.common_primes == ()
        assert (t.a1, t.b1, t.c1) == (2, 6, 9)

    @pytest.mark.parametrize("abc", [(4, 6, 9), (10, 15, 7)])
    def test_gcd_of_one_is_not_factored(self, monkeypatch, abc):
        # each triple has a prime of two bases, but none of all three
        calls = []
        monkeypatch.setattr(triple_module, "factorize", lambda n: calls.append(n))
        t = build_triple(*abc)
        assert calls == []
        assert t.common_primes == ()
        assert t.exponents == {}
        assert (t.a1, t.b1, t.c1) == abc

    def test_rejects_small_bases(self):
        with pytest.raises(ValueError):
            build_triple(1, 6, 15)
        with pytest.raises(ValueError):
            build_triple(3, 0, 15)
        with pytest.raises(ValueError):
            build_triple(3, 6, -15)

    @given(
        st.integers(min_value=2, max_value=10**6),
        st.integers(min_value=2, max_value=10**6),
        st.integers(min_value=2, max_value=10**6),
    )
    @settings(max_examples=300)
    def test_recomposition(self, a, b, c):
        t = build_triple(a, b, c)
        pa = math.prod(p**e[0] for p, e in t.exponents.items())
        pb = math.prod(p**e[1] for p, e in t.exponents.items())
        pc = math.prod(p**e[2] for p, e in t.exponents.items())
        assert t.a1 * pa == a
        assert t.b1 * pb == b
        assert t.c1 * pc == c
        shared = math.prod(t.common_primes)
        assert math.gcd(t.a1 * t.b1 * t.c1, shared) == 1
        assert all(e[0] >= 1 and e[1] >= 1 and e[2] >= 1 for e in t.exponents.values())
        assert list(t.common_primes) == sorted(t.common_primes)

    @given(_EXPS, _EXPS, _EXPS)
    @example((1, 0, 0, 0, 1, 0, 2), (0, 1, 0, 0, 2, 0, 2), (0, 0, 1, 0, 1, 0, 3))
    @example((0, 1, 0, 0, 2, 0, 0), (0, 0, 1, 1, 2, 0, 0), (1, 0, 0, 0, 3, 0, 0))
    @example((1, 0, 0, 0, 0, 1, 0), (1, 1, 0, 0, 0, 2, 0), (0, 0, 1, 0, 0, 1, 0))
    @example((1, 0, 0, 0, 0, 1, 1), (1, 0, 0, 0, 0, 2, 0), (0, 0, 1, 0, 0, 1, 1))
    @example((2, 1, 0, 0, 1, 3, 1), (1, 1, 0, 0, 1, 1, 1), (3, 0, 1, 0, 2, 2, 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_trial_division_reference(self, ea, eb, ec):
        # the examples put every base above 10^8, the square of the trial
        # limit; all share 10,007 or 100,000,007 with unequal exponents,
        # the first also a square or cube of 2^61 - 1, and in the last
        # three a prime divides exactly two bases
        a, b, c = _pool_product(ea), _pool_product(eb), _pool_product(ec)
        if min(a, b, c) < 2:
            return
        fa, fb, fc = _trial_factors(a), _trial_factors(b), _trial_factors(c)
        common = sorted(fa.keys() & fb.keys() & fc.keys())
        t = build_triple(a, b, c)
        assert t.common_primes == tuple(common)
        assert t.exponents == {p: (fa[p], fb[p], fc[p]) for p in common}
        assert t.a1 == a // math.prod(p ** fa[p] for p in common)
        assert t.b1 == b // math.prod(p ** fb[p] for p in common)
        assert t.c1 == c // math.prod(p ** fc[p] for p in common)


def _plain_peel(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


class TestPeel:
    def test_every_exponent_around_the_switch(self):
        # single divisions up to the eighth, then every doubling walk up to 2^6
        for p in (2, 3, 10_007):
            for e in range(70):
                for cofactor in (1, 5, p + 1):
                    n = p**e * cofactor
                    assert triple_module._peel(n, p) == _plain_peel(n, p) == (e, cofactor)

    @given(
        st.sampled_from((2, 3, 5, 7)),
        st.integers(min_value=0, max_value=20_000),
        st.integers(min_value=1, max_value=10**6),
    )
    @example(2, 20_000, 1)
    @example(3, 2**14 - 1, 2)
    @example(2, 2**14, 3)
    @settings(max_examples=30, deadline=None)
    def test_matches_the_plain_loop(self, p, e, cofactor):
        # the cofactor may hold p too, which the plain loop counts as well
        n = p**e * cofactor
        assert triple_module._peel(n, p) == _plain_peel(n, p)

    @pytest.mark.parametrize(
        "p, exponents, parts",
        [(2, (1, 19991, 19990), (1, 5, 3)), (3, (1, 20000, 19000), (1, 2, 5))],
    )
    def test_long_runs_take_few_divisions(self, p, exponents, parts):
        # the bound separates the doubling walk (about 2 ms) from one division per
        # exponent (0.14 and 0.21 s)
        bases = [p**e * part for e, part in zip(exponents, parts)]
        start = time.perf_counter()
        t = build_triple(*bases)
        assert time.perf_counter() - start < 0.05
        assert t.exponents == {p: exponents}
        assert (t.a1, t.b1, t.c1) == parts


class TestGDecomposition:
    def test_all_exponents_one(self):
        t = build_triple(30, 70, 4930)
        d = g_decomposition(t, {2, 5})
        assert d.g == 10
        assert (d.a_exp, d.b_exp, d.c_exp) == (1, 1, 1)
        assert d.residual == ()

    def test_single_prime(self):
        t = build_triple(7, 49, 98)
        d = g_decomposition(t, {7})
        assert d.g == 7
        assert (d.a_exp, d.b_exp, d.c_exp) == (1, 2, 2)

    def test_single_prime_with_weights(self):
        t = build_triple(4, 8, 32)
        d = g_decomposition(t, {2})
        assert d.g == 2
        assert (d.a_exp, d.b_exp, d.c_exp) == (2, 3, 5)

    def test_weighted_two_primes(self):
        # a = (2*3^2)^2, b = (2*3^2)^3, c = (2*3^2)^1 * 5: exponent vectors
        # (2,3,1) and (4,6,2) are proportional with weights 1 and 2
        t = build_triple(324, 5832, 90)
        d = g_decomposition(t, {2, 3})
        assert d.g == 18
        assert (d.a_exp, d.b_exp, d.c_exp) == (2, 3, 1)
        assert d.residual == ()

    def test_subset_of_common_primes(self):
        # 2 and 5 share direction, 3 does not; decompose {2,5} only
        t = build_triple(2 * 3 * 5, 2 * 9 * 5, 2 * 3 * 5 * 7)
        d = g_decomposition(t, {2, 5})
        assert d.g == 10
        assert (d.a_exp, d.b_exp, d.c_exp) == (1, 1, 1)
        assert d.residual == ((3, (1, 2, 1)),)

    def test_rejects_disproportional_pair(self):
        # directions (1,2,3) for 2 and (1,2,2) for 3
        t = build_triple(2 * 3, 4 * 9, 8 * 9)
        with pytest.raises(ProportionalityError) as e:
            g_decomposition(t, {2, 3})
        assert e.value.primes == (2, 3)

    def test_rejects_empty_or_foreign(self):
        t = build_triple(3, 6, 15)
        with pytest.raises(ValueError):
            g_decomposition(t, set())
        with pytest.raises(ValueError):
            g_decomposition(t, {5})

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=200)
    def test_recomposition_from_proportional_input(self, ea, eb, ec, w2, w3):
        # build a triple whose primes 2 and 3 have weights w2, w3 on a
        # shared direction (ea, eb, ec); 5 pads the c side
        a = 2 ** (ea * w2) * 3 ** (ea * w3)
        b = 2 ** (eb * w2) * 3 ** (eb * w3)
        c = 2 ** (ec * w2) * 3 ** (ec * w3) * 5
        t = build_triple(a, b, c)
        d = g_decomposition(t, {2, 3})
        assert d.g ** d.a_exp * t.a1 == a
        assert d.g ** d.b_exp * t.b1 == b
        assert d.g ** d.c_exp * t.c1 * math.prod(p ** e[2] for p, e in d.residual) == c
        assert math.gcd(d.a_exp, math.gcd(d.b_exp, d.c_exp)) == math.gcd(
            ea, math.gcd(eb, ec)
        ) * math.gcd(w2, w3)


class TestMaximalClasses:
    @given(
        st.integers(min_value=2, max_value=10**5),
        st.integers(min_value=2, max_value=10**5),
        st.integers(min_value=2, max_value=10**5),
    )
    @settings(max_examples=200)
    def test_classes_partition_and_are_maximal(self, a, b, c):
        # bucket the shared primes by primitive exponent direction
        t = build_triple(a, b, c)
        buckets: dict[tuple[int, int, int], set[int]] = {}
        for p, (ea, eb, ec) in t.exponents.items():
            d = math.gcd(ea, eb, ec)
            buckets.setdefault((ea // d, eb // d, ec // d), set()).add(p)
        classes = list(buckets.values())
        flat = sorted(p for cl in classes for p in cl)
        assert flat == list(t.common_primes)
        # every class decomposes cleanly
        for cl in classes:
            g_decomposition(t, cl)
        # merging any two classes must fail
        for i in range(len(classes)):
            for k in range(i + 1, len(classes)):
                with pytest.raises(ProportionalityError):
                    g_decomposition(t, classes[i] | classes[k])
