"""Tests for bounded solution enumeration and the class count."""

from __future__ import annotations

import math
import time
import warnings

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exptriple import solve as solve_module
from exptriple.catalog import KNOWN_ANOMALOUS_ROWS
from exptriple.solve import (
    Solution,
    SolutionSet,
    correspond,
    count_N,
    detect_special_case,
    enumerate_solutions,
    make_solution,
    power_of_two_solutions,
    term_multiset,
)
from exptriple.triple import build_triple


def naive_solutions(a: int, b: int, c: int, max_bits: int) -> set[tuple[int, int, int]]:
    # independent oracle: double loop over (x, y), recognize c powers by
    # repeated division
    limit = 1 << max_bits
    out = set()
    ax, x = a, 1
    while ax + b < limit:
        by, y = b, 1
        while ax + by < limit:
            s = ax + by
            z = 0
            while s > 1 and s % c == 0:
                s //= c
                z += 1
            if s == 1 and z >= 1:
                out.add((x, y, z))
            by *= b
            y += 1
        ax *= a
        x += 1
    return out


def sol_tuples(sset) -> list[tuple[int, int, int]]:
    return [(s.x, s.y, s.z) for s in sset.solutions]


def _reference_enumerate(t, max_bits: int) -> SolutionSet:
    """Reference enumeration: for every z, every power of a below c^z."""
    limit = 1 << max_bits
    if t.c >= limit:
        return SolutionSet(t, max_bits, (), (), bound_too_small=True)
    a_powers = []
    ax = t.a
    while ax < limit:
        a_powers.append(ax)
        ax *= t.a
    b_power_of = {}
    by, y = t.b, 1
    while by < limit:
        b_power_of[by] = y
        by *= t.b
        y += 1
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
    found.sort(key=Solution.key)
    by_terms: dict[tuple[int, int], list[Solution]] = {}
    for s in found:
        by_terms.setdefault(term_multiset(t, s), []).append(s)
    classes = tuple(
        tuple(cl) for cl in sorted(by_terms.values(), key=lambda cl: cl[0].key())
    )
    return SolutionSet(t, max_bits, tuple(found), classes)


def assert_matches_reference(a: int, b: int, c: int, *bounds: int) -> None:
    t = build_triple(a, b, c)
    for max_bits in bounds:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = enumerate_solutions(t, max_bits)
        assert got == _reference_enumerate(t, max_bits), (a, b, c, max_bits)


class TestEnumerate:
    def test_three_five_two(self):
        sset = enumerate_solutions(build_triple(3, 5, 2), 64)
        assert sol_tuples(sset) == [(1, 1, 3), (3, 1, 5), (1, 3, 7)]

    def test_seven_tower(self):
        sset = enumerate_solutions(build_triple(7, 49, 98), 64)
        assert sol_tuples(sset) == [(2, 1, 1), (7, 3, 3)]

    def test_two_88_six(self):
        sset = enumerate_solutions(build_triple(2, 88, 6), 64)
        assert sol_tuples(sset) == [(7, 1, 3), (5, 2, 5)]

    def test_sorted_by_z_x_y(self):
        sset = enumerate_solutions(build_triple(2, 2, 6), 64)
        assert sol_tuples(sset) == [(1, 2, 1), (2, 1, 1), (2, 5, 2), (5, 2, 2)]

    def test_bound_too_small_warns(self):
        t = build_triple(3, 5, 2**41)
        with pytest.warns(UserWarning):
            sset = enumerate_solutions(t, 40)
        assert sset.bound_too_small
        assert sset.solutions == ()

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            enumerate_solutions(build_triple(3, 5, 2), 0)

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=8, max_value=40),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_naive_oracle(self, a, b, c, max_bits):
        t = build_triple(a, b, c)
        sset = enumerate_solutions(t, max_bits)
        assert set(sol_tuples(sset)) == naive_solutions(a, b, c, max_bits)
        for s in sset.solutions:
            assert a**s.x + b**s.y == c**s.z


_PARTS = (1, 2, 3, 5, 7, 9, 11, 13, 15, 25, 35, 49)


class TestMatchesReferenceLoop:
    """Solutions, classes and their order equal the double loop's."""

    def test_exhaustive_small(self):
        for a in range(2, 25):
            for b in range(2, 25):
                for c in range(2, 97):
                    assert_matches_reference(a, b, c, 64)

    def test_every_small_bound(self):
        # small bounds put solutions on the last power of a base below
        # the bound, where the walks stop
        for a in range(2, 13):
            for b in range(2, 13):
                for c in range(2, 49):
                    assert_matches_reference(a, b, c, *range(1, 17))

    @given(
        st.sampled_from((2, 3, 5, 6, 10)),
        st.tuples(*(st.integers(min_value=1, max_value=5),) * 3),
        st.tuples(*(st.integers(min_value=0, max_value=3),) * 3),
        st.tuples(*(st.sampled_from(_PARTS),) * 3),
        st.booleans(),
        st.none() | st.tuples(*(st.integers(min_value=1, max_value=3),) * 2),
        st.integers(min_value=8, max_value=160),
    )
    @settings(max_examples=400, deadline=None)
    def test_built_shared_prime_triples(
        self, g, g_exps, q_exps, parts, equal_ab, sum_exps, max_bits
    ):
        # a = g^alpha*a1 and so on; a positive exponent triple of 7 makes
        # a second shared prime whose exponents need not be proportional
        # to g's.  With sum_exps = (x, y), c = a^x + b^y, so the triple
        # has at least the solution (x, y, 1).
        (alpha, beta, gamma), (qa, qb, qc), (a1, b1, c1) = g_exps, q_exps, parts
        a, b, c = g**alpha * 7**qa * a1, g**beta * 7**qb * b1, g**gamma * 7**qc * c1
        if equal_ab:
            b = a
        if sum_exps is not None:
            c = a ** sum_exps[0] + b ** sum_exps[1]
        assert_matches_reference(a, b, c, max_bits)

    def test_two_shared_primes_with_unproportional_exponents(self):
        for a, b, c in ((18, 12, 1944), (12, 18, 42), (6, 6, 12), (12, 18, 12**2 + 18)):
            assert len(build_triple(a, b, c).common_primes) == 2
            assert_matches_reference(a, b, c, 200)

    @given(
        st.sampled_from((2, 3, 5)),
        st.tuples(*(st.integers(min_value=1, max_value=4),) * 3),
        st.sampled_from(_PARTS),
        st.sampled_from(_PARTS),
        st.sampled_from((1, 3, 5, 7)),
        st.none() | st.tuples(*(st.integers(min_value=1, max_value=3),) * 2),
        st.integers(min_value=8, max_value=160),
    )
    @example(2, (1, 1, 2), 3, 5, 1, None, 64)  # 6 + 10 = 4^2, both differences skipped
    @settings(max_examples=200, deadline=None)
    def test_skipped_difference_walk(self, p, exps, a1, b1, c1, plant, max_bits):
        # c^(e_a/g) <= a^(e_c/g) for the least shared prime, so no
        # c^z - a^x with x*e_a = z*e_c is positive and that walk is
        # skipped; with plant = (x, z), b = c^z - a^x has the solution
        # (x, 1, z), which one of the other two walks finds
        a, b, c = p ** exps[0] * a1, p ** exps[1] * b1, p ** exps[2] * c1
        if plant is not None and c ** plant[1] - a ** plant[0] >= 2:
            b = c ** plant[1] - a ** plant[0]
        t = build_triple(a, b, c)
        e_a, _, e_c = t.exponents[t.common_primes[0]]
        g = math.gcd(e_a, e_c)
        assume(c ** (e_a // g) <= a ** (e_c // g))
        assert_matches_reference(a, b, c, max_bits)

    def test_large_exponent_of_the_shared_prime(self):
        # c^(e_a) would have about 93 million bits; it is never formed
        a, b, c = 2**10_000 * 3, 14, 2 * 5**4000
        assert_matches_reference(a, b, c, 20_000)


# planted triples on which the size test skips at least one walk
_SIZE_SKIPPED = ((2, 2, 6), (2, 4, 6), (2, 34, 6), (2, 6, 40))


class TestSizeTest:
    """The walks that _merge skips for their third base's size hold no hit."""

    @given(
        st.sampled_from((2, 3, 5)),
        st.tuples(*(st.integers(min_value=1, max_value=4),) * 3),
        st.tuples(*(st.sampled_from(_PARTS),) * 3),
        st.booleans(),
        st.tuples(*(st.integers(min_value=1, max_value=4),) * 2),
        st.integers(min_value=8, max_value=160),
    )
    @example(2, (1, 1, 1), (1, 1, 1), True, (1, 2), 64)  # (2, 2, 6)
    @example(2, (1, 1, 1), (1, 1, 3), False, (1, 1), 64)  # (2, 4, 6)
    @example(2, (1, 1, 1), (1, 1, 3), False, (1, 2), 64)  # (2, 34, 6)
    @example(2, (1, 1, 1), (1, 3, 1), True, (2, 2), 64)  # (2, 6, 40)
    @settings(max_examples=300, deadline=None)
    def test_planted_solutions(self, p, exps, parts, is_sum, plant, max_bits):
        # a = p^alpha*a1 and so on.  A sum plants c = a^i + b^j with the
        # solution (i, j, 1); a difference plants b = c^j - a^i with the
        # solution (i, 1, j).
        (alpha, beta, gamma), (a1, b1, c1), (i, j) = exps, parts, plant
        a, b, c = p**alpha * a1, p**beta * b1, p**gamma * c1
        planted = None
        if is_sum:
            c, planted = a**i + b**j, (i, j, 1)
        elif c**j - a**i >= 2:
            b, planted = c**j - a**i, (i, 1, j)
        assert_matches_reference(a, b, c, max_bits)
        if planted is not None and c ** planted[2] < 1 << max_bits:
            sset = enumerate_solutions(build_triple(a, b, c), max_bits)
            assert planted in sol_tuples(sset)

    @pytest.mark.parametrize("abc", _SIZE_SKIPPED)
    def test_examples_skip_a_walk(self, monkeypatch, abc):
        original, verdicts = solve_module._power_exceeds, []

        def recording(*args):
            verdicts.append(original(*args))
            return verdicts[-1]

        monkeypatch.setattr(solve_module, "_power_exceeds", recording)
        t = build_triple(*abc)
        sset = enumerate_solutions(t, 64)
        assert True in verdicts and sset.solutions
        assert sset == _reference_enumerate(t, 64)

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=12),
        st.booleans(),
    )
    @example(4, 1, 2, 2, False)  # 4^1 = 2^2, decided only by the exact powers
    @example(4, 1, 2, 2, True)
    @settings(max_examples=300)
    def test_power_comparison_is_exact(self, base, m, x, n, strict):
        want = base**m > x**n or (not strict and base**m == x**n)
        assert solve_module._power_exceeds(base, m, x, n, strict, 10**6) == want

    def test_undecided_long_powers_are_not_formed(self):
        # 3^1000 > 2^1584, which bit lengths cannot decide; the reduced
        # powers 3^125 and 2^198 are formed only when the cap allows
        assert solve_module._power_exceeds(3, 1000, 2, 1584, True, 10**6)
        assert not solve_module._power_exceeds(3, 1000, 2, 1584, True, 300)

    def test_huge_third_base_is_never_powered(self):
        # b^1000 would have about 10^9 bits; bit lengths skip that walk
        t = build_triple(2**1000 * 7, 2 * 3**600_000, 10)
        start = time.perf_counter()
        assert enumerate_solutions(t, 20_000).solutions == ()
        assert time.perf_counter() - start < 1

    def test_close_long_powers_are_never_formed(self):
        # b^19990 against c^19991 is undecided by bit lengths, and each has
        # about 4 * 10^8 bits: past the cap the difference walk runs instead
        t = build_triple(2, 2**19991 * 5, 2**19990 * 3)
        start = time.perf_counter()
        assert enumerate_solutions(t, 20_000).solutions == ()
        assert time.perf_counter() - start < 1


@pytest.fixture
def screen_verdicts(monkeypatch):
    """The verdict of every prime_support_subset(m, n) call solve makes."""
    original, verdicts = solve_module.prime_support_subset, {}

    def recording(m, n):
        verdicts[m, n] = original(m, n)
        return verdicts[m, n]

    monkeypatch.setattr(solve_module, "prime_support_subset", recording)
    return verdicts


class TestPrimeScreen:
    """The walks that _merge skips for a prime their third base lacks hold no hit."""

    @given(
        st.sampled_from((2, 3, 5)),
        st.tuples(*(st.integers(min_value=1, max_value=3),) * 3),
        st.tuples(*(st.sampled_from(_PARTS),) * 3),
        st.booleans(),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=8, max_value=160),
    )
    @example(5, (1, 1, 1), (1, 2, 1), True, 2, 64)  # (5, 10, 125): sum class s = 1
    @example(2, (1, 1, 1), (1, 3, 11), False, 1, 64)  # (2, 20, 22): the c - a walk has u + v = 24
    @example(2, (1, 1, 1), (1, 5, 3), True, 4, 64)  # (2, 10, 10016): sum class s = 2
    @settings(max_examples=300, deadline=None)
    def test_planted_on_a_walk(self, p, exps, parts, is_sum, k, max_bits):
        # a = p^alpha*a1 and so on.  The plant sits at step k of one walk:
        # a sum c = a^x + b^y with x*alpha = y*beta, or a difference
        # b = c^z - a^x with x*alpha = z*gamma.  An even k puts it past the
        # first class of a sum walk.
        (alpha, beta, gamma), (a1, b1, c1) = exps, parts
        a, b, c = p**alpha * a1, p**beta * b1, p**gamma * c1
        planted = None
        if is_sum:
            h = math.gcd(alpha, beta)
            x, y = k * beta // h, k * alpha // h
            c, planted = a**x + b**y, (x, y, 1)
        else:
            h = math.gcd(alpha, gamma)
            x, z = k * gamma // h, k * alpha // h
            if c**z - a**x >= 2:
                b, planted = c**z - a**x, (x, 1, z)
        assert_matches_reference(a, b, c, max_bits)
        if planted is not None and c ** planted[2] < 1 << max_bits:
            sset = enumerate_solutions(build_triple(a, b, c), max_bits)
            assert planted in sol_tuples(sset)

    @pytest.mark.parametrize(
        "abc, screened",
        [
            # c - a walk: u - v = 22 - 2 = 20 has 5, which 6 lacks;
            # 2^4 + 6 = 22 comes from the c - b walk
            ((2, 6, 22), [(20, 6)]),
            # c - a walk: u - v = 44 - 2^2 = 40 has 5; 2^3 + 6^2 = 44
            # comes from the c - b walk
            ((2, 6, 44), [(40, 6)]),
            # sum walk: the first terms 2 + 10, 2^2 + 10^2, 2^4 + 10^4, 2^8 +
            # 10^8 and 2^16 + 10^16 of its five classes below 2^64 each have
            # a prime 14 lacks; 2^2 + 10 = 14 comes from the c - b walk
            ((2, 10, 14), [(2 ** (1 << s) + 10 ** (1 << s), 14) for s in range(5)]),
        ],
        ids=["(2, 6, 22)", "(2, 6, 44)", "(2, 10, 14)"],
    )
    def test_examples_skip_a_walk(self, screen_verdicts, abc, screened):
        t = build_triple(*abc)
        sset = enumerate_solutions(t, 64)
        assert [screen_verdicts.get(mn) for mn in screened] == [False] * len(screened)
        assert sset.solutions
        assert sset == _reference_enumerate(t, 64)

    def test_five_ten_five(self, screen_verdicts):
        # u + v = 15 has the prime 3, but u^2 + v^2 = 125 = 5^3: only the
        # sum walk's class of even k finds 5^2 + 10^2 = 5^3
        t = build_triple(5, 10, 5)
        sset = enumerate_solutions(t, 64)
        assert sol_tuples(sset) == [(2, 2, 3)]
        assert screen_verdicts[15, 5] is False and screen_verdicts[125, 5] is True
        assert sset == _reference_enumerate(t, 64)


class TestEarlyExit:
    @pytest.mark.parametrize("abc", [(6, 10, 15), (4, 6, 9), (2, 6, 3)])
    def test_prime_of_exactly_two_bases(self, abc):
        t = build_triple(*abc)
        sset = enumerate_solutions(t, 64)
        assert sset.solutions == () and sset.classes == ()
        assert not sset.bound_too_small
        assert naive_solutions(*abc, 64) == set()


class TestReach:
    """Known solutions come back unchanged at a bound of 10,000 bits, and
    exactly when c^z lies below the bound."""

    def test_two_two_six(self):
        sset = enumerate_solutions(build_triple(2, 2, 6), 10_000)
        assert sol_tuples(sset) == [(1, 2, 1), (2, 1, 1), (2, 5, 2), (5, 2, 2)]

    @pytest.mark.parametrize("row", KNOWN_ANOMALOUS_ROWS, ids=lambda r: str(r[:3]))
    def test_catalogue_rows(self, row):
        a, b, c, x1, y1, z1, x2, y2, z2 = row
        sset = enumerate_solutions(build_triple(a, b, c), 10_000)
        assert set(sol_tuples(sset)) == {(x1, y1, z1), (x2, y2, z2)}
        assert count_N(sset) == 2

    @pytest.mark.parametrize(
        "case",
        [
            ((2, 2, 6), [(1, 2, 1), (2, 1, 1), (2, 5, 2), (5, 2, 2)]),
            ((3, 3, 6), [(1, 1, 1), (2, 3, 2), (3, 2, 2)]),
        ]
        + [(row[:3], [row[3:6], row[6:]]) for row in KNOWN_ANOMALOUS_ROWS],
        ids=lambda case: str(case[0]),
    )
    def test_bound_edge(self, case):
        # c^z has n bits: it lies below 2^n but not below 2^(n - 1).  In
        # (3, 3, 6) the difference 36 - 9 = 27 is below 2^5 while 36 is not
        (a, b, c), solutions = case
        t = build_triple(a, b, c)
        for x, y, z in solutions:
            n = (c**z).bit_length()
            assert (x, y, z) in sol_tuples(enumerate_solutions(t, n))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                assert (x, y, z) not in sol_tuples(enumerate_solutions(t, n - 1))


class TestMakeSolution:
    def test_accepts_valid(self):
        t = build_triple(3, 6, 15)
        s = make_solution(t, 2, 1, 1)
        assert (s.x, s.y, s.z) == (2, 1, 1)

    def test_rejects_invalid(self):
        t = build_triple(3, 6, 15)
        with pytest.raises(ValueError):
            make_solution(t, 1, 1, 1)
        with pytest.raises(ValueError):
            make_solution(t, 0, 1, 1)


class TestCorrespond:
    def test_swap_within_triple(self):
        t = build_triple(7, 7, 98)
        assert correspond(t, make_solution(t, 6, 7, 3), t, make_solution(t, 7, 6, 3))

    def test_across_triples(self):
        t1 = build_triple(7, 7, 98)
        t2 = build_triple(7, 49, 98)
        assert correspond(t1, make_solution(t1, 6, 7, 3), t2, make_solution(t2, 7, 3, 3))

    def test_negative(self):
        t = build_triple(3, 6, 15)
        assert not correspond(t, make_solution(t, 2, 1, 1), t, make_solution(t, 2, 3, 2))

    def test_term_multiset_sorted(self):
        t = build_triple(3, 6, 15)
        assert term_multiset(t, Solution(2, 1, 1)) == (6, 9)
        assert term_multiset(t, Solution(2, 3, 2)) == (9, 216)


class TestCountN:
    def test_coprime_exception(self):
        assert count_N(enumerate_solutions(build_triple(3, 5, 2), 64)) == 3

    def test_classes_merge_swapped_terms(self):
        sset = enumerate_solutions(build_triple(7, 7, 98), 64)
        assert sset.raw_count == 3
        assert count_N(sset) == 2

    def test_two_two_six(self):
        sset = enumerate_solutions(build_triple(2, 2, 6), 64)
        assert sset.raw_count == 4
        assert count_N(sset) == 2

    def test_swap_dedup_distinct_bases(self):
        sset = enumerate_solutions(build_triple(3, 6, 15), 64)
        assert sset.raw_count == 2
        assert count_N(sset) == 2

    def test_class_members_share_terms(self):
        sset = enumerate_solutions(build_triple(2, 2, 12), 64)
        for cl in sset.classes:
            keys = {term_multiset(sset.triple, s) for s in cl}
            assert len(keys) == 1


class TestDetectSpecialCase:
    def test_coprime_352(self):
        for a, b in ((3, 5), (5, 3)):
            shape = detect_special_case(build_triple(a, b, 2))
            assert shape is not None and shape.tag == "coprime-352"
            got = enumerate_solutions(build_triple(a, b, 2), 64)
            assert got.solutions == shape.predicted

    def test_two_two(self):
        shape = detect_special_case(build_triple(2, 2, 12))
        assert shape is not None
        assert shape.tag == "two-two"
        assert shape.params == {"gamma": 2}
        got = enumerate_solutions(build_triple(2, 2, 12), 64)
        assert set(got.solutions) == set(shape.predicted)

    def test_two_eight(self):
        shape = detect_special_case(build_triple(2, 8, 24))
        assert shape is not None
        assert shape.tag == "two-eight"
        assert shape.params == {"t": 1, "swapped": 0}
        assert {(s.x, s.y, s.z) for s in shape.predicted} == {(4, 1, 1), (9, 2, 2), (6, 3, 2)}
        got = enumerate_solutions(build_triple(2, 8, 24), 64)
        assert got.solutions == shape.predicted

    def test_two_eight_swapped(self):
        shape = detect_special_case(build_triple(8, 2, 24))
        assert shape is not None
        assert shape.tag == "two-eight"
        assert shape.params == {"t": 1, "swapped": 1}
        got = enumerate_solutions(build_triple(8, 2, 24), 64)
        assert got.solutions == shape.predicted

    def test_mersenne_pair(self):
        shape = detect_special_case(build_triple(3, 3, 6))
        assert shape is not None
        assert shape.tag == "mersenne-pair"
        assert shape.params == {"k": 2, "gamma": 1}
        assert {(s.x, s.y, s.z) for s in shape.predicted} == {(1, 1, 1), (3, 2, 2), (2, 3, 2)}
        got = enumerate_solutions(build_triple(3, 3, 6), 64)
        assert got.solutions == shape.predicted

    def test_mersenne_pair_seven(self):
        shape = detect_special_case(build_triple(7, 7, 14))
        assert shape is not None
        assert shape.tag == "mersenne-pair"
        assert shape.params == {"k": 3, "gamma": 1}
        got = enumerate_solutions(build_triple(7, 7, 14), 80)
        assert got.solutions == shape.predicted

    def test_all_two_powers(self):
        shape = detect_special_case(build_triple(4, 8, 32))
        assert shape is not None
        assert shape.tag == "all-two-powers"
        assert shape.params == {"u": 2, "v": 3, "w": 5}
        assert shape.predicted == ()

    def test_two_power_bases_without_solutions(self):
        # gcd(uv, w) > 1 leaves no solutions, so the shape does not fire
        assert detect_special_case(build_triple(4, 4, 16)) is None
        assert count_N(enumerate_solutions(build_triple(4, 4, 16), 64)) == 0

    def test_ordinary_triples_do_not_fire(self):
        for abc in ((3, 6, 15), (2, 88, 6), (2, 8, 6), (2, 4, 12), (7, 49, 98)):
            assert detect_special_case(build_triple(*abc)) is None

    def test_predictions_verify(self):
        for abc in ((2, 2, 6), (2, 2, 48), (2, 8, 192), (3, 3, 18), (15, 15, 30)):
            t = build_triple(*abc)
            shape = detect_special_case(t)
            assert shape is not None
            for s in shape.predicted:
                make_solution(t, s.x, s.y, s.z)


class TestPowerOfTwoSolutions:
    def test_equal_exponents(self):
        got = power_of_two_solutions(1, 1, 1, 3)
        assert [(s.x, s.y, s.z) for s in got] == [(1, 1, 2), (2, 2, 3), (3, 3, 4)]

    def test_two_three_five(self):
        got = power_of_two_solutions(2, 3, 5, 4)
        assert [(s.x, s.y, s.z) for s in got] == [(12, 8, 5)]

    def test_one_two_three(self):
        got = power_of_two_solutions(1, 2, 3, 6)
        assert [(s.x, s.y, s.z) for s in got] == [(2, 1, 1), (8, 4, 3)]

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            power_of_two_solutions(2, 3, 6, 4)

    def test_agrees_with_enumeration(self):
        t = build_triple(4, 8, 32)
        got = enumerate_solutions(t, 40)
        assert sol_tuples(got) == [(12, 8, 5)]
        assert got.solutions == tuple(power_of_two_solutions(2, 3, 5, 4))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=200)
    def test_each_solution_substitutes(self, u, v, w, t_max):
        if math.gcd(u * v, w) != 1:
            return
        for s in power_of_two_solutions(u, v, w, t_max):
            assert (1 << u * s.x) + (1 << v * s.y) == 1 << w * s.z
