"""Tests for per-prime solution classification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exptriple.classify import type_profile
from exptriple.errors import InternalInvariantError
from exptriple.solve import Solution, enumerate_solutions, make_solution
from exptriple.triple import build_triple


class TestTypeProfile:
    def test_type_a(self):
        t = build_triple(3, 6, 15)
        assert type_profile(t, make_solution(t, 2, 1, 1)).tag(3) == "A"

    def test_type_b(self):
        t = build_triple(3, 6, 15)
        assert type_profile(t, make_solution(t, 2, 3, 2)).tag(3) == "B"

    def test_type_o(self):
        t = build_triple(7, 49, 98)
        # 7^2 + 49 = 98: the valuations at 7 are (2, 2, 2)
        assert type_profile(t, make_solution(t, 2, 1, 1)).by_prime == {7: "O"}

    def test_type_c(self):
        t = build_triple(6, 3, 3)
        assert type_profile(t, make_solution(t, 1, 1, 2)).tag(3) == "C"

    def test_requires_shared_prime(self):
        t = build_triple(3, 5, 2)
        with pytest.raises(ValueError):
            type_profile(t, make_solution(t, 1, 1, 3))

    def test_fake_solution_fails_hard(self):
        # (1,2,1) has valuations 1 < 2 < 2 at 3 but 2 > 1 = 1 at 2 for
        # (12,18,36); pick one where no two smallest agree
        t = build_triple(12, 18, 36)
        with pytest.raises(InternalInvariantError):
            type_profile(t, Solution(1, 2, 1))

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=250, deadline=None)
    def test_every_real_solution_has_a_tag(self, a, b, c):
        t = build_triple(a, b, c)
        if not t.common_primes:
            return
        for s in enumerate_solutions(t, 48).solutions:
            profile = type_profile(t, s)
            for p in t.common_primes:
                assert profile.tag(p) in ("A", "B", "C", "O")


def _type_o_counts(t, sols):
    return {p: sum(type_profile(t, s).tag(p) == "O" for s in sols) for p in t.common_primes}


class TestDominanceScreen:
    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=250, deadline=None)
    def test_real_solution_sets_screen_clean(self, a, b, c):
        # a prime p that outweighs another shared prime q in both the a/b
        # and a/c exponent ratios makes every solution Type A at p
        t = build_triple(a, b, c)
        if not t.common_primes:
            return
        sols = enumerate_solutions(t, 48).solutions
        for p in t.common_primes:
            ea_p, eb_p, ec_p = t.exponents[p]
            if any(
                ea_p * eb_q > ea_q * eb_p and ea_p * ec_q > ea_q * ec_p
                for q, (ea_q, eb_q, ec_q) in t.exponents.items()
                if q != p
            ):
                assert all(type_profile(t, s).tag(p) == "A" for s in sols)


class TestTypeOCensus:
    def test_known_counts(self):
        for abc, counts in (((7, 49, 98), {7: 1}), ((3, 6, 15), {3: 0}), ((19, 38, 57), {19: 1})):
            t = build_triple(*abc)
            assert _type_o_counts(t, enumerate_solutions(t, 64).solutions) == counts

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=250, deadline=None)
    def test_census_never_exceeds_one(self, a, b, c):
        # no shared prime carries two Type-O solutions
        t = build_triple(a, b, c)
        if not t.common_primes:
            return
        counts = _type_o_counts(t, enumerate_solutions(t, 48).solutions)
        assert all(v <= 1 for v in counts.values())


class TestCrossTypeExclusion:
    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=250, deadline=None)
    def test_no_prime_mixes_type_c_with_others(self, a, b, c):
        # a prime carrying a Type-C solution carries nothing else
        t = build_triple(a, b, c)
        if not t.common_primes:
            return
        sols = enumerate_solutions(t, 48).solutions
        for p in t.common_primes:
            tags = [type_profile(t, s).tag(p) for s in sols]
            if "C" in tags:
                assert set(tags) == {"C"}
