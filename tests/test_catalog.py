"""Tests for the catalog of confirmed sporadic two-solution records."""

import math

from exptriple.arith import factorize
from exptriple.catalog import (
    KNOWN_ANOMALOUS,
    KNOWN_ANOMALOUS_ROWS,
    SEARCHED_RADICAL_BOUND,
    is_known_anomalous,
)
from exptriple.families import classify_nine, in_family, make_nine_tuple


def _radical(n):
    return math.prod(factorize(n).primes)


class TestCatalogRows:
    def test_count(self):
        assert len(KNOWN_ANOMALOUS_ROWS) == 10
        assert len(KNOWN_ANOMALOUS) == 10

    def test_rows_validate(self):
        # make_nine_tuple checks both substitutions exactly
        for row in KNOWN_ANOMALOUS_ROWS:
            nine = make_nine_tuple(*row)
            assert nine.as_tuple() == row

    def test_rows_classify_anomalous(self):
        for nine in KNOWN_ANOMALOUS:
            assert in_family(nine) is None
            assert classify_nine(nine).kind == "anomalous"
            assert not nine.solutions_correspond()

    def test_radical_bound(self):
        assert SEARCHED_RADICAL_BOUND == 10**7

    def test_radicals_of_the_coprime_equations(self):
        # each solution divided by the common factor of its two terms
        triple_radicals = []
        for row in KNOWN_ANOMALOUS_ROWS:
            a, b, c = row[:3]
            for x, y, z in (row[3:6], row[6:9]):
                shared = math.gcd(a**x, b**y)
                A, B, C = a**x // shared, b**y // shared, c**z // shared
                assert A + B == C and math.gcd(A, B) == 1
                assert C < SEARCHED_RADICAL_BOUND
                assert _radical(C) < SEARCHED_RADICAL_BOUND
                assert _radical(A * B * C) == _radical(a * b * c)
                triple_radicals.append(_radical(A * B * C))
        assert triple_radicals[::2] == triple_radicals[1::2]
        assert triple_radicals[::2] == [
            114, 66, 30, 582, 30, 770, 1_097_670, 2310, 103_530,
            35_946_991_470,
        ]
        assert max(triple_radicals) > SEARCHED_RADICAL_BOUND


class TestMembership:
    def test_rows_are_members(self):
        for nine in KNOWN_ANOMALOUS:
            assert is_known_anomalous(nine)

    def test_solution_order_does_not_matter(self):
        a, b, c, x1, y1, z1, x2, y2, z2 = KNOWN_ANOMALOUS_ROWS[0]
        flipped = make_nine_tuple(a, b, c, x2, y2, z2, x1, y1, z1)
        assert is_known_anomalous(flipped)

    def test_power_base_variants_are_members(self):
        # 9 = 3**2 hides (3, 6, 15); 4900 = 70**2 hides (30, 70, 4930)
        assert is_known_anomalous(make_nine_tuple(6, 9, 15, 1, 1, 1, 3, 1, 2))
        assert is_known_anomalous(
            make_nine_tuple(30, 4900, 4930, 1, 1, 1, 5, 1, 2)
        )

    def test_non_member(self):
        family_member = make_nine_tuple(7, 49, 98, 2, 1, 1, 7, 3, 3)
        assert not is_known_anomalous(family_member)
