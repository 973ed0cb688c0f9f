"""Tests for equation ingestion, identity pairing, and the anomalous-pair search."""

import itertools
import json
import math
import random
import warnings
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exptriple.acceptance import _box_rows, _grid_iii, _grid_iv, _row_fits_box
from exptriple.arith import factorize, introot, is_prime, perfect_powers, radical
from exptriple.catalog import KNOWN_ANOMALOUS_ROWS, is_known_anomalous
from exptriple.config import SearchBounds
from exptriple.errors import InternalInvariantError, UsageError
from exptriple.families import canonical_nine, classify_nine, gen_family, make_nine_tuple
import exptriple.search as search_module
from exptriple.search import (
    OVERSIZE_BITS,
    EquationRecord,
    Identity,
    SolvedSystem,
    _cell_patterns,
    _exponent_plan,
    _search_unit,
    decompose,
    direct_search,
    generate_equations,
    ingest_equations,
    make_equation,
    pair_and_solve,
    reconstruct_and_verify,
    run_pipeline,
)

# ---------------------------------------------------------------------------
# equation records
# ---------------------------------------------------------------------------


class TestMakeEquation:
    def test_valid(self):
        rec = make_equation(16, 3, 19)
        assert (rec.A, rec.B, rec.C) == (16, 3, 19)
        assert rec.fa.value == 16 and rec.fb.value == 3

    def test_str(self):
        assert str(make_equation(16, 3, 19)) == "16 + 3 = 19"

    def test_sum_mismatch(self):
        with pytest.raises(ValueError, match="17 \\+ 3 is 20, not 19"):
            make_equation(17, 3, 19)

    def test_shared_factor(self):
        with pytest.raises(ValueError, match="share the factor 2"):
            make_equation(4, 6, 10)

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            make_equation(0, 3, 3)
        with pytest.raises(ValueError):
            make_equation(5, -2, 3)


class TestIngest:
    def test_clean_lines(self):
        report = ingest_equations(["16 3 19", "1 8 9"])
        assert [r.as_tuple() for r in report.records] == [(16, 3, 19), (1, 8, 9)]
        assert report.diagnostics == ()
        assert report.rejected == 0

    def test_comments_and_blanks(self):
        report = ingest_equations(
            ["# header", "", "   ", "16 3 19  # trailing note"]
        )
        assert [r.as_tuple() for r in report.records] == [(16, 3, 19)]
        assert report.rejected == 0

    def test_bad_token_count(self):
        report = ingest_equations(["16 3"])
        assert report.records == ()
        assert report.rejected == 1
        lineno, message = report.diagnostics[0]
        assert lineno == 1
        assert "expected three integers, got 2 token(s)" in message

    def test_non_integer(self):
        report = ingest_equations(["16 three 19"])
        lineno, message = report.diagnostics[0]
        assert lineno == 1
        assert "not an integer line" in message

    def test_arithmetic_rejects_keep_line_numbers(self):
        report = ingest_equations(["16 3 19", "17 3 19", "4 6 10"])
        assert len(report.records) == 1
        assert [lineno for lineno, _ in report.diagnostics] == [2, 3]
        assert "is 20, not 19" in report.diagnostics[0][1]
        assert "share the factor 2" in report.diagnostics[1][1]

    def test_summary_counts(self):
        report = ingest_equations(["16 3 19", "bad"])
        assert "1" in report.summary()


class TestGenerateEquations:
    def test_tiny_box(self):
        got = [r.as_tuple() for r in generate_equations(6, 10)]
        assert got == [(1, 1, 2), (1, 2, 3), (1, 3, 4), (1, 8, 9)]

    def test_contains_known_identity(self):
        got = {r.as_tuple() for r in generate_equations(30, 100)}
        assert (5, 27, 32) in got

    def test_height_bound_is_exact(self):
        assert (3, 125, 128) not in {
            r.as_tuple() for r in generate_equations(30, 100)
        }
        assert (3, 125, 128) in {
            r.as_tuple() for r in generate_equations(30, 130)
        }

    def test_invariants(self):
        records = generate_equations(30, 300)
        keys = [(r.C, r.A) for r in records]
        assert keys == sorted(keys)
        for r in records:
            assert r.A + r.B == r.C
            assert r.A <= r.B
            assert math.gcd(r.A, r.B) == 1
            assert radical(r.A * r.B * r.C) <= 30

    def test_bad_bounds(self):
        with pytest.raises(UsageError):
            generate_equations(5, 100)
        with pytest.raises(UsageError):
            generate_equations(30, 1)


def _quadratic_generate(rad_bound, height_bound):
    """Reference generator: every pair of radical-bounded values is tried."""
    # a prime above height_bound divides no value up to it
    primes = [p for p in range(2, min(rad_bound, height_bound) + 1) if is_prime(p)]
    radical_of = {1: 1}

    def extend(idx, value, kernel):
        for i in range(idx, len(primes)):
            p = primes[i]
            if kernel * p > rad_bound or value * p > height_bound:
                continue
            k = kernel * p
            v = value * p
            while v <= height_bound:
                radical_of[v] = k
                extend(i + 1, v, k)
                v *= p

    extend(0, 1, 1)
    values = sorted(radical_of)

    found = []
    for C in values:
        if C < 2:
            continue
        rc = radical_of[C]
        for A in values:
            if 2 * A > C:
                break
            ra = radical_of[A]
            if ra * rc > rad_bound:
                continue
            B = C - A
            rb = radical_of.get(B)
            if rb is None or ra * rb * rc > rad_bound:
                continue
            if math.gcd(A, B) != 1:
                continue
            found.append((A, B, C))
    return found


class TestGeneratorMatchesQuadraticScan:
    @given(
        rad_bound=st.integers(min_value=6, max_value=400),
        height_bound=st.integers(min_value=2, max_value=5000),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_list_in_the_same_order(self, rad_bound, height_bound):
        got = [r.as_tuple() for r in generate_equations(rad_bound, height_bound)]
        assert got == _quadratic_generate(rad_bound, height_bound)

    def test_many_radical_groups(self):
        got = [r.as_tuple() for r in generate_equations(300, 10**5)]
        assert len(got) > 100
        assert got == _quadratic_generate(300, 10**5)


class TestGeneratorPairBound:
    """The walked pairs have a radical product t with t**3 <= rad_bound**2."""

    @pytest.mark.parametrize("rad_bound", [7, 8, 9, 26, 27, 28, 63, 64, 65, 999, 1000, 1001])
    def test_both_sides_of_a_perfect_cube(self, rad_bound):
        got = [r.as_tuple() for r in generate_equations(rad_bound, 3000)]
        assert got == _quadratic_generate(rad_bound, 3000)

    @given(
        rad_bound=st.integers(min_value=600, max_value=10**5),
        height_bound=st.integers(min_value=2, max_value=600),
    )
    @example(rad_bound=10**5, height_bound=600)
    @settings(max_examples=15, deadline=None)
    def test_radical_bound_above_the_height_bound(self, rad_bound, height_bound):
        got = [r.as_tuple() for r in generate_equations(rad_bound, height_bound)]
        assert got == _quadratic_generate(rad_bound, height_bound)


# ---------------------------------------------------------------------------
# decomposition into identities
# ---------------------------------------------------------------------------


def _terms(identity):
    """The carried term, the other term and c1^z of an identity."""
    a_term = 1 if identity.x is None else identity.a1**identity.x
    b_term = identity.b1**identity.y
    carried = identity.g**identity.w
    if identity.carrier == "a":
        return carried * a_term, b_term, identity.c1**identity.z
    return carried * b_term, a_term, identity.c1**identity.z


def _mirror(identity):
    """The identity with its carried term moved to the other slot."""
    s = identity
    return Identity(
        "b" if s.carrier == "a" else "a", s.g, s.w,
        s.b1, None if s.b1 == 1 else s.y, s.a1, 1 if s.x is None else s.x, s.c1, s.z,
    )


class TestDecompose:
    def test_left_prime_power_carrier(self):
        identities = decompose(make_equation(16, 3, 19))
        assert sorted(str(s) for s in identities) == [
            "16^1 + 3^1 * 1^1 = 19^1",
            "2^4 + 3^1 * 1^1 = 19^1",
            "2^4 + 3^1 = 19^1",
            "3^1 + 16^1 = 19^1",
            "3^1 + 2^4 * 1^1 = 19^1",
            "3^1 + 2^4 = 19^1",
            "3^1 + 4^2 = 19^1",
            "4^2 + 3^1 * 1^1 = 19^1",
        ]
        lefts = [str(s) for s in identities if s.carrier == "a" and s.g == 2]
        assert lefts == ["2^4 + 3^1 = 19^1"]

    def test_right_composite_carrier(self):
        identities = decompose(make_equation(1, 18, 19))
        rendered = {str(s) for s in identities if s.carrier == "b"}
        assert "1 + 2^1 * 3^2 = 19^1" in rendered
        assert len(rendered) == 4

    def test_right_power_interplay(self):
        rendered = {str(s) for s in decompose(make_equation(1, 8, 9))}
        assert "1 + 2^3 * 1^1 = 3^2" in rendered

    def test_unit_carrier_gives_nothing(self):
        assert decompose(make_equation(1, 1, 2)) == []

    def test_only_the_non_unit_term_carries(self):
        identities = decompose(make_equation(8, 1, 9))
        assert sorted(str(s) for s in identities) == [
            "1 + 2^3 * 1^1 = 3^2",
            "1 + 2^3 * 1^1 = 9^1",
            "2^3 + 1^1 = 3^2",
            "2^3 + 1^1 = 9^1",
        ]
        assert all(_terms(s)[:2] == (8, 1) for s in identities)
        assert {s.carrier for s in identities} == {"a", "b"}

    def test_field_assignment(self):
        (shape,) = [
            s for s in decompose(make_equation(16, 3, 19)) if s.carrier == "a" and s.g == 2
        ]
        assert isinstance(shape, Identity)
        assert (shape.g, shape.w, shape.a1, shape.b1, shape.c1) == (
            2,
            4,
            1,
            3,
            19,
        )
        assert shape.x is None

    def test_every_shape_checks_out(self):
        for rec in generate_equations(30, 500):
            identities = decompose(rec)
            for identity in identities:
                carried, other, c_term = _terms(identity)
                assert carried + other == c_term == rec.C
                assert {carried, other} == {rec.A, rec.B}
            # each combination comes in both slots
            assert Counter(identities) == Counter(map(_mirror, identities))


class TestShapeValidation:
    def test_carrier_must_name_a_term(self):
        with pytest.raises(ValueError, match="carrier"):
            Identity("c", 2, 4, 1, None, 3, 1, 19, 1)

    def test_marker_required_for_unit_base(self):
        with pytest.raises(ValueError):
            Identity("a", 2, 4, 1, 1, 3, 1, 19, 1)

    def test_marker_forbidden_for_real_base(self):
        with pytest.raises(ValueError):
            Identity("a", 2, 1, 3, None, 5, 1, 11, 1)

    def test_identity_must_hold(self):
        with pytest.raises(ValueError, match="does not hold"):
            Identity("a", 2, 4, 1, None, 3, 1, 23, 1)
        with pytest.raises(ValueError, match="does not hold"):
            Identity("b", 2, 1, 1, None, 3, 2, 23, 1)

    def test_coprimality(self):
        with pytest.raises(ValueError, match="share the factor"):
            Identity("a", 2, 1, 3, 2, 9, 1, 27, 1)
        with pytest.raises(ValueError, match="g and b1 share the factor 2"):
            Identity("b", 2, 1, 3, 1, 4, 1, 11, 1)

    def test_nonpositive_exponent(self):
        with pytest.raises(ValueError, match="exponent w must be positive"):
            Identity("b", 2, 0, 1, None, 3, 1, 7, 1)

    def test_unit_second_base_keeps_literal_exponent(self):
        shape = Identity("a", 2, 3, 3, 1, 1, 1, 5, 2)
        assert shape.b1 == 1 and shape.y == 1
        assert str(shape) == "2^3 * 3^1 + 1^1 = 5^2"

    def test_each_carrier_renders_its_own_side(self):
        assert str(Identity("a", 3, 2, 2, 3, 5, 1, 77, 1)) == "3^2 * 2^3 + 5^1 = 77^1"
        assert str(Identity("b", 3, 1, 2, 1, 5, 2, 77, 1)) == "2^1 + 3^1 * 5^2 = 77^1"
        assert str(Identity("b", 2, 1, 1, None, 3, 2, 19, 1)) == "1 + 2^1 * 3^2 = 19^1"


# ---------------------------------------------------------------------------
# pairing and the exponent system
# ---------------------------------------------------------------------------


def _pair(left, right):
    system, reason = pair_and_solve(left, right)
    assert reason is None, reason
    return system


class TestPairAndSolve:
    def test_unit_left_base(self):
        # reconstructs a = 2, b = 6, c = 38
        system = _pair(
            Identity("a", 2, 4, 1, None, 3, 1, 19, 1),
            Identity("b", 2, 1, 1, None, 3, 2, 19, 1),
        )
        assert system == SolvedSystem(alpha=1, beta=1, gamma=1, x1=5, x2=1)

    def test_unit_left_base_higher_power(self):
        # reconstructs a = 3, b = 6, c = 15
        system = _pair(
            Identity("a", 3, 1, 1, None, 2, 1, 5, 1),
            Identity("b", 3, 1, 1, None, 2, 3, 5, 2),
        )
        assert system == SolvedSystem(alpha=1, beta=1, gamma=1, x1=2, x2=2)

    def test_real_left_base(self):
        # reconstructs a = 6, b = 15, c = 231
        system = _pair(
            Identity("a", 3, 2, 2, 3, 5, 1, 77, 1),
            Identity("b", 3, 1, 2, 1, 5, 2, 77, 1),
        )
        assert system == SolvedSystem(alpha=1, beta=1, gamma=1, x1=3, x2=1)

    def test_beta_above_one(self):
        # reconstructs a = 2, b = 88, c = 6
        system = _pair(
            Identity("a", 2, 4, 1, None, 11, 1, 3, 3),
            Identity("b", 2, 1, 1, None, 11, 2, 3, 5),
        )
        assert system == SolvedSystem(alpha=1, beta=3, gamma=1, x1=7, x2=5)

    def test_degenerate_denominator(self):
        system, reason = pair_and_solve(
            Identity("a", 2, 3, 3, 1, 1, 1, 5, 2),
            Identity("b", 2, 4, 3, 2, 1, 1, 5, 2),
        )
        assert system is None and reason == "degenerate-denominator"

    def test_nonpositive_gamma(self):
        system, reason = pair_and_solve(
            Identity("a", 2, 1, 1, None, 3, 1, 5, 1),
            Identity("b", 2, 3, 1, None, 3, 1, 5, 2),
        )
        assert system is None and reason == "nonpositive-gamma"

    def test_non_integral_gamma(self):
        system, reason = pair_and_solve(
            Identity("a", 5, 2, 1, None, 2, 1, 3, 3),
            Identity("b", 5, 1, 1, None, 2, 4, 3, 4),
        )
        assert system is None and reason == "non-integral-gamma"

    def test_non_integral_beta(self):
        system, reason = pair_and_solve(
            Identity("a", 2, 5, 7, 2, 5, 2, 1593, 1),
            Identity("b", 2, 1, 7, 3, 5, 4, 1593, 1),
        )
        assert system is None and reason == "non-integral-beta"

    def test_gamma_mismatch(self):
        system, reason = pair_and_solve(
            Identity("a", 2, 1, 3, 3, 5, 1, 59, 1),
            Identity("b", 2, 1, 3, 2, 5, 2, 59, 1),
        )
        assert system is None and reason == "gamma-mismatch"

    def test_key_mismatch(self):
        with pytest.raises(ValueError, match="share"):
            pair_and_solve(
                Identity("a", 2, 4, 1, None, 3, 1, 19, 1),
                Identity("b", 2, 1, 1, None, 11, 2, 3, 5),
            )

    def test_same_carrier_rejected(self):
        left = Identity("a", 2, 4, 1, None, 3, 1, 19, 1)
        right = Identity("b", 2, 1, 1, None, 3, 2, 19, 1)
        with pytest.raises(ValueError, match="carrier 'a' then carrier 'b'"):
            pair_and_solve(left, left)
        with pytest.raises(ValueError, match="carrier 'a' then carrier 'b'"):
            pair_and_solve(right, right)

    def test_swapped_argument_order_rejected(self):
        left = Identity("a", 2, 4, 1, None, 3, 1, 19, 1)
        right = Identity("b", 2, 1, 1, None, 3, 2, 19, 1)
        assert pair_and_solve(left, right)[0] is not None
        with pytest.raises(ValueError, match="got 'b' then 'a'"):
            pair_and_solve(right, left)

    def test_pure_power_pair_rejected(self):
        with pytest.raises(ValueError, match="carries no content"):
            pair_and_solve(
                Identity("a", 2, 1, 1, None, 1, 1, 3, 1),
                Identity("b", 2, 3, 1, None, 1, 1, 3, 2),
            )


class TestSolvedSystem:
    def test_positivity(self):
        with pytest.raises(ValueError):
            SolvedSystem(alpha=0, beta=1, gamma=1, x1=1, x2=1)
        with pytest.raises(ValueError):
            SolvedSystem(alpha=1, beta=1, gamma=-1, x1=1, x2=1)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


class TestReconstruct:
    def _verify(self, left, right, max_bits=128):
        system = _pair(left, right)
        return reconstruct_and_verify(left, right, system, max_bits)

    def test_two_six_thirtyeight(self):
        result = self._verify(
            Identity("a", 2, 4, 1, None, 3, 1, 19, 1),
            Identity("b", 2, 1, 1, None, 3, 2, 19, 1),
        )
        assert result.bases == (2, 6, 38)
        assert result.reason is None
        assert classify_nine(result.nine).kind == "anomalous"
        assert canonical_nine(result.nine).as_tuple() == (
            2, 6, 38, 1, 2, 1, 5, 1, 1,
        )

    def test_three_six_fifteen(self):
        result = self._verify(
            Identity("a", 3, 1, 1, None, 2, 1, 5, 1),
            Identity("b", 3, 1, 1, None, 2, 3, 5, 2),
        )
        assert result.bases == (3, 6, 15)
        assert result.reason is None
        assert canonical_nine(result.nine).as_tuple() == (
            3, 6, 15, 2, 1, 1, 2, 3, 2,
        )

    def test_small_bit_budget_is_extended(self):
        # the verification bound grows to cover the reconstructed terms
        result = self._verify(
            Identity("a", 2, 4, 1, None, 11, 1, 3, 3),
            Identity("b", 2, 1, 1, None, 11, 2, 3, 5),
            max_bits=8,
        )
        assert result.bases == (2, 88, 6)
        assert result.reason is None

    # the (3, 6, 15) pair; its larger solution has c^z = 15^2, 4 * 2 = 8 bits
    LEFT_15 = Identity("a", 3, 1, 1, None, 2, 1, 5, 1)
    RIGHT_15 = Identity("b", 3, 1, 1, None, 2, 3, 5, 2)

    def test_candidate_at_the_size_limit_is_verified(self, monkeypatch):
        monkeypatch.setattr(search_module, "OVERSIZE_BITS", 8)
        result = self._verify(self.LEFT_15, self.RIGHT_15)
        assert result.reason is None
        assert classify_nine(result.nine).kind == "anomalous"
        monkeypatch.setattr(search_module, "OVERSIZE_BITS", 7)
        assert self._verify(self.LEFT_15, self.RIGHT_15).reason == "oversize"

    def test_candidate_above_the_size_limit_is_oversize(self, monkeypatch):
        # gamma scales c = 3^gamma * 5; take the first gamma whose c^2
        # exceeds the limit.  No system of this pair has such a gamma, so
        # the check of its exponent equations is waived.
        monkeypatch.setattr(SolvedSystem, "solves", lambda self, left, right: True)

        def size(gamma):
            return (3**gamma * 5).bit_length() * 2

        gamma = int((OVERSIZE_BITS / 2 - 3) / math.log2(3)) - 2
        assert size(gamma) <= OVERSIZE_BITS
        while size(gamma) <= OVERSIZE_BITS:
            gamma += 1
        system = SolvedSystem(alpha=1, beta=1, gamma=gamma, x1=1, x2=2)
        result = reconstruct_and_verify(self.LEFT_15, self.RIGHT_15, system, 128)
        assert result.reason == "oversize"
        assert result.bases[2] == 3**gamma * 5

    def test_inconsistent_system_with_huge_bases_raises_invariant_error(self):
        # c = 2^190000 * 19 has about 57,000 digits, far more than str()
        # converts, yet fits the size limit since both solutions have z = 1
        left = Identity("a", 2, 4, 1, None, 3, 1, 19, 1)
        right = Identity("b", 2, 1, 1, None, 3, 2, 19, 1)
        system = SolvedSystem(alpha=1, beta=1, gamma=190_000, x1=5, x2=1)
        with pytest.raises(InternalInvariantError) as info:
            reconstruct_and_verify(left, right, system, 128)
        message = str(info.value)
        assert "(5, 1, 1)" in message
        assert "g^190000 * 19" in message
        assert len(message) < 200

    def test_pure_power_pair_is_rejected_before_reconstruction(self):
        left = Identity("a", 2, 1, 1, None, 1, 1, 3, 1)
        right = Identity("b", 2, 3, 1, None, 1, 1, 3, 2)
        system = SolvedSystem(alpha=1, beta=1, gamma=1, x1=2, x2=1)
        with pytest.raises(ValueError, match="carries no content"):
            reconstruct_and_verify(left, right, system, 128)

    def test_system_that_breaks_an_exponent_equation_raises(self):
        # gamma = 2 fits y1 * beta = z1 * gamma but not y2 * beta = z2 * gamma + w2
        system = SolvedSystem(alpha=1, beta=2, gamma=2, x1=3, x2=4)
        with pytest.raises(InternalInvariantError, match="do not satisfy the exponent equations"):
            reconstruct_and_verify(self.LEFT_15, self.RIGHT_15, system, 128)

    def test_system_with_other_exponents_of_a_real_left_base_raises(self):
        # (1, 1, 1, 2, 3) satisfies the four equations of 2 * 3 + 5 = 11 and
        # 3^4 + 2 * 5^4 = 11^3, but a1 = 3 carries x1 = 1 and x2 = 4 there
        left = Identity("a", 2, 1, 3, 1, 5, 1, 11, 1)
        right = Identity("b", 2, 1, 3, 4, 5, 4, 11, 3)
        system = SolvedSystem(alpha=1, beta=1, gamma=1, x1=2, x2=3)
        with pytest.raises(InternalInvariantError, match="do not satisfy the exponent equations"):
            reconstruct_and_verify(left, right, system, 128)


# ---------------------------------------------------------------------------
# the family lemma of reconstruct_and_verify
# ---------------------------------------------------------------------------


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _type_of(valuations):
    """The tag of one solution at one prime, from the valuations of its terms."""
    least = min(valuations)
    above = [tag for tag, v in zip("ABC", valuations) if v > least]
    assert len(above) <= 1, valuations
    return above[0] if above else "O"


def _primitive_root(n, primes):
    # n is a product of powers of primes
    exps = {p: _valuation(n, p) for p in primes}
    k = math.gcd(*exps.values())
    return math.prod(p ** (e // k) for p, e in exps.items())


def test_only_pure_power_family_members_have_the_split_of_a_verified_pair():
    # A verified pair is Type A then Type B at every shared prime, and a
    # nine-tuple is a family member when its two term multisets are a
    # generated member's.  Read each member's terms as (a-term, b-term) in
    # every way: both solution orders, both base orders, and each cross
    # assignment, where a^x1 and a^x2 are an a-term and a b-term of the
    # member, that has one base a and one base b.
    members = [("I", {"u": u, "h": h}) for u in range(1, 8) for h in range(2, 9)]
    members += [("II", {"t": t}) for t in range(1, 7)]
    members += [("III", params) for params in _grid_iii()]
    members += [("IV", params) for params in _grid_iv()]
    assert len(members) == 832
    crossed, split = set(), set()
    for tag, params in members:
        member = gen_family(tag, params)
        name = (tag, tuple(sorted(params.items())))
        primes = {p for n in (member.a, member.b, member.c) for p, _ in factorize(n).factors}
        sols = [((member.a**s.x, member.b**s.y), member.c**s.z) for s in (member.s1, member.s2)]
        for (terms1, c_term1), (terms2, c_term2) in (sols, sols[::-1]):
            for i, j in itertools.product((0, 1), repeat=2):
                a_term1, b_term1 = terms1[i], terms1[1 - i]
                a_term2, b_term2 = terms2[j], terms2[1 - j]
                four = (a_term1, b_term1, a_term2, b_term2)
                shared = [p for p in primes if a_term1 % p == b_term1 % p == c_term1 % p == 0]
                if i != j:
                    if (_primitive_root(a_term1, primes) != _primitive_root(a_term2, primes)
                            or _primitive_root(b_term1, primes) != _primitive_root(b_term2, primes)):
                        continue
                    crossed.add(name)
                    # all four terms are powers of the shared primes: a1 = b1 = 1
                    assert all(math.prod(p ** _valuation(n, p) for p in shared) == n
                               for n in four)
                tags = (
                    {_type_of((_valuation(a_term1, p), _valuation(b_term1, p),
                               _valuation(c_term1, p))) for p in shared},
                    {_type_of((_valuation(a_term2, p), _valuation(b_term2, p),
                               _valuation(c_term2, p))) for p in shared},
                )
                if tags == ({"A"}, {"B"}):
                    assert i != j
                    split.add(name)
    assert len(crossed) == 77
    assert sorted(split) == [("I", (("h", 2), ("u", u))) for u in range(1, 8)]


def test_every_solved_system_is_type_a_then_type_b_at_every_prime_of_g(monkeypatch):
    solved = []

    def recording(left, right):
        system, why = pair_and_solve(left, right)
        if system is not None:
            solved.append((left, right, system))
        return system, why

    monkeypatch.setattr(search_module, "pair_and_solve", recording)
    direct_search(SearchBounds(g_max=10, a1_max=5, b1_max=500, exp_max=6))
    n_direct = len(solved)
    run_pipeline(generate_equations(1000, 10**6))
    assert (n_direct, len(solved) - n_direct) == (13, 7)
    for left, right, s in solved:
        g = left.g
        bases = (g**s.alpha * left.a1, g**s.beta * left.b1, g**s.gamma * left.c1)
        for p, _ in factorize(g).factors:
            va, vb, vc = (_valuation(n, p) for n in bases)
            assert _type_of((va * s.x1, vb * left.y, vc * left.z)) == "A"
            assert _type_of((va * s.x2, vb * right.y, vc * right.z)) == "B"


@pytest.fixture
def family_verdict(monkeypatch):
    verdict = classify_nine(gen_family("I", {"u": 1, "h": 2}))
    assert verdict.kind == "family"
    monkeypatch.setattr(search_module, "classify_nine", lambda nine: verdict)


class TestFamilyVerdictRaises:
    MESSAGE = "not an anomalous Type A / Type B pair"

    def test_run_pipeline(self, family_verdict):
        records = ingest_equations(["16 3 19", "1 18 19"]).records
        with pytest.raises(InternalInvariantError, match=self.MESSAGE):
            run_pipeline(records)

    def test_direct_search(self, family_verdict):
        # the box of (2, 6, 38): 2^4 + 3 = 19 and 1 + 2 * 3^2 = 19
        bounds = SearchBounds(a1_max=1, g_max=2, b1_max=3, exp_max=4)
        with pytest.raises(InternalInvariantError, match=self.MESSAGE):
            direct_search(bounds=bounds, workers=1)


# ---------------------------------------------------------------------------
# the paired pipeline
# ---------------------------------------------------------------------------


class TestRunPipeline:
    def test_recovers_known_cases_from_equations(self):
        report = ingest_equations(
            [
                "16 3 19",  # both reduced sides of a = 2, b = 6, c = 38
                "1 18 19",
                "3 2 5",  # both reduced sides of a = 3, b = 6, c = 15
                "1 24 25",
            ]
        )
        outcome = run_pipeline(report.records)
        got = {n.as_tuple() for n in outcome.anomalous}
        assert (2, 6, 38, 1, 2, 1, 5, 1, 1) in got
        assert (3, 6, 15, 2, 1, 1, 2, 3, 2) in got
        assert outcome.family == ()
        assert outcome.stats["records"] == 4
        assert outcome.stats["systems"] >= 2

    def test_duplicate_records_collapse(self):
        report = ingest_equations(["16 3 19", "1 18 19", "16 3 19"])
        outcome = run_pipeline(report.records)
        assert outcome.stats["records"] == 2

    def test_pure_power_keys_are_skipped(self):
        report = ingest_equations(["8 1 9", "1 8 9"])
        outcome = run_pipeline(report.records)
        assert outcome.anomalous == ()
        assert outcome.stats["pairs_skipped"] >= 1

    def test_generated_box_yields_only_known_rows(self):
        outcome = run_pipeline(generate_equations(40, 3000))
        known = {
            canonical_nine(make_nine_tuple(*row)).as_tuple()
            for row in KNOWN_ANOMALOUS_ROWS
        }
        got = {n.as_tuple() for n in outcome.anomalous}
        assert got <= known
        assert (3, 6, 15, 2, 1, 1, 2, 3, 2) in got

    def test_identities_are_built_only_for_paired_keys(self, monkeypatch):
        built = Counter()
        validate = Identity.__post_init__

        def counting(identity):
            built[identity.carrier] += 1
            validate(identity)

        monkeypatch.setattr(Identity, "__post_init__", counting)
        outcome = run_pipeline(generate_equations(1000, 10**6))
        assert outcome.stats["shapes_53"] + outcome.stats["shapes_54"] == 6306
        assert built == {"a": 302, "b": 302}

    def test_order_and_duplicates_do_not_change_the_outcome(self):
        records = generate_equations(1000, 10**6)
        want = run_pipeline(records)
        rng = random.Random(7)
        for _ in range(2):
            shuffled = records + rng.sample(records, 100)
            rng.shuffle(shuffled)
            assert run_pipeline(shuffled) == want

    def test_generated_bounds_recall_exactly_rows_one_to_six(self):
        outcome = run_pipeline(generate_equations(1000, 10**6))
        want = [
            canonical_nine(make_nine_tuple(*row)).as_tuple()
            for row in KNOWN_ANOMALOUS_ROWS[:6]
        ]
        assert [row[:3] for row in KNOWN_ANOMALOUS_ROWS[:6]] == [
            (2, 6, 38), (2, 88, 6), (3, 6, 15),
            (3, 6, 7857), (3, 1215, 6), (5, 275, 280),
        ]
        assert [n.as_tuple() for n in outcome.anomalous] == sorted(want)
        assert outcome.family == ()
        assert outcome.stats == {
            "records": 354,
            "shapes_53": 3153,
            "shapes_54": 3153,
            "pairs_skipped": 136,
            "pair_keys": 276,
            "pairs": 330,
            "systems": 7,
            "reason:nonpositive-gamma": 181,
            "reason:degenerate-denominator": 124,
            "reason:non-integral-gamma": 17,
            "reason:gamma-mismatch": 1,
            "anomalous": 6,
        }


# ---------------------------------------------------------------------------
# the direct boxed search
# ---------------------------------------------------------------------------

TINY_BOX = SearchBounds(a1_max=6, g_max=6, b1_max=60, exp_max=5)

TINY_BOX_ROWS = [
    (2, 6, 38, 1, 2, 1, 5, 1, 1),
    (2, 88, 6, 7, 1, 3, 5, 2, 5),
    (3, 6, 15, 2, 1, 1, 2, 3, 2),
    (3, 6, 7857, 4, 5, 1, 8, 4, 1),
    (3, 1215, 6, 4, 1, 4, 8, 1, 5),
    (5, 275, 280, 1, 1, 1, 7, 1, 2),
    (6, 15, 231, 1, 2, 1, 3, 1, 1),
]

TINY_BOX_HEADER = {"version": 1, "box": [6, 6, 60, 5], "max_bits": 128}
TINY_BOX_CELLS = 17


def _journal(path):
    """The header and the cell lines of a journal, each line parsed."""
    header, *cells = (json.loads(line) for line in path.read_text().splitlines())
    return header, cells


def _rows_of(cells):
    return sorted(
        {canonical_nine(make_nine_tuple(*row)).as_tuple() for _, _, rows in cells for row in rows}
    )


def _tiny_rows(path):
    return [n.as_tuple() for n in direct_search(bounds=TINY_BOX, checkpoint=str(path))]


class _Crash(Exception):
    pass


class _Scanner:
    """Stands in for the cell scan: records each cell, crashes after `limit` cells."""

    def __init__(self):
        self.cells = []
        self.limit = None

    def __call__(self, task):
        if len(self.cells) == self.limit:
            raise _Crash
        self.cells.append(task[:2])
        return _search_unit(task)


@pytest.fixture
def scanned(monkeypatch):
    scanner = _Scanner()
    monkeypatch.setattr(search_module, "_search_unit", scanner)
    return scanner


class TestDirectSearch:
    def test_tiny_box(self):
        rows = [n.as_tuple() for n in direct_search(bounds=TINY_BOX)]
        assert rows == TINY_BOX_ROWS

    def test_tiny_box_rows_are_the_catalogue_rows_in_the_box(self):
        assert _box_rows(TINY_BOX) == set(TINY_BOX_ROWS)

    def test_all_rows_are_known(self):
        for nine in direct_search(bounds=TINY_BOX):
            assert is_known_anomalous(nine)

    def test_worker_count_does_not_change_output(self):
        serial = [n.as_tuple() for n in direct_search(bounds=TINY_BOX, workers=1)]
        pooled = [n.as_tuple() for n in direct_search(bounds=TINY_BOX, workers=3)]
        assert serial == pooled

    def test_bad_worker_count(self):
        with pytest.raises(UsageError):
            direct_search(bounds=TINY_BOX, workers=0)

    @pytest.mark.parametrize("exp_max", [1, 2])
    def test_boxes_with_the_smallest_exponents_find_nothing(self, exp_max):
        # exp_max 1 plans no pattern at all, and with exp_max 2 every planned
        # carrier "b" pattern has y2 = 2, so a unit b1 has no carrier "b" sum
        bounds = SearchBounds(a1_max=6, g_max=6, b1_max=60, exp_max=exp_max)
        assert direct_search(bounds=bounds) == []

    def test_checkpoint_roundtrip(self, tmp_path, scanned):
        path = tmp_path / "state.jsonl"
        assert _tiny_rows(path) == TINY_BOX_ROWS
        header, cells = _journal(path)
        assert header == TINY_BOX_HEADER
        assert len(cells) == TINY_BOX_CELLS == len(scanned.cells)
        assert [tuple(cell[:2]) for cell in cells] == scanned.cells
        assert _rows_of(cells) == TINY_BOX_ROWS

        # a finished journal resumes to the same answer without work
        written = path.read_bytes()
        scanned.cells.clear()
        assert _tiny_rows(path) == TINY_BOX_ROWS
        assert scanned.cells == []
        assert path.read_bytes() == written

    def test_partial_checkpoint_resumes(self, tmp_path, scanned):
        path = tmp_path / "state.jsonl"
        _tiny_rows(path)
        header, cells = _journal(path)

        # drop the lines of both cells that find (3, 6, 15): (3, 1) finds
        # it as (3, 6, 15) and (3, 2) as (6, 9, 15), which canonicalizes to it
        target = (3, 6, 15, 2, 1, 1, 2, 3, 2)
        kept = [cell for cell in cells if cell[:2] not in ([3, 1], [3, 2])]
        assert len(kept) == TINY_BOX_CELLS - 2
        assert target not in _rows_of(kept)
        path.write_text("".join(json.dumps(line) + "\n" for line in [header, *kept]))

        scanned.cells.clear()
        rows = _tiny_rows(path)
        assert target in rows
        assert rows == TINY_BOX_ROWS
        assert scanned.cells == [(3, 1), (3, 2)]
        _, resumed = _journal(path)
        assert resumed[:-2] == kept
        assert [cell[:2] for cell in resumed[-2:]] == [[3, 1], [3, 2]]
        assert _rows_of(resumed) == TINY_BOX_ROWS

    def test_stale_checkpoint_is_discarded(self, tmp_path):
        path = tmp_path / "state.jsonl"
        stale = dict(TINY_BOX_HEADER, box=[1, 2, 3, 4], max_bits=1)
        path.write_text(json.dumps(stale) + "\n" + json.dumps([2, 1, [[9] * 9]]) + "\n")
        with pytest.warns(UserWarning, match="another box or bit bound"):
            rows = _tiny_rows(path)
        assert rows == TINY_BOX_ROWS
        header, cells = _journal(path)
        assert header == TINY_BOX_HEADER
        assert len(cells) == TINY_BOX_CELLS


class TestCheckpointJournal:
    def test_old_single_document_checkpoint_is_discarded(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({
            "box": [6, 6, 60, 5],
            "max_bits": 128,
            "done": [[2, 1]],
            "rows": [[9, 9, 9, 9, 9, 9, 9, 9, 9]],
        }))
        with pytest.warns(UserWarning, match="not a version 1 checkpoint journal"):
            rows = _tiny_rows(path)
        assert rows == TINY_BOX_ROWS
        assert _journal(path)[0] == TINY_BOX_HEADER

    def test_corrupt_middle_line_discards_the_journal(self, tmp_path):
        path = tmp_path / "state.jsonl"
        _tiny_rows(path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "not json\n"
        path.write_text("".join(lines))
        with pytest.warns(UserWarning, match="corrupt at line 4"):
            rows = _tiny_rows(path)
        assert rows == TINY_BOX_ROWS
        assert len(_journal(path)[1]) == TINY_BOX_CELLS

    @pytest.mark.parametrize("tear", ["no-newline", "unparsable"])
    def test_torn_last_line_is_recomputed(self, tmp_path, scanned, tear):
        path = tmp_path / "state.jsonl"
        _tiny_rows(path)
        text = path.read_text()
        last_start = text.rstrip("\n").rfind("\n") + 1
        torn_cell = tuple(json.loads(text[last_start:])[:2])
        torn = text[:last_start] + (
            text[last_start:-5] if tear == "no-newline" else "[2, 1, [[\n"
        )
        path.write_text(torn)

        scanned.cells.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a torn tail is no reason to warn
            rows = _tiny_rows(path)
        assert rows == TINY_BOX_ROWS
        assert scanned.cells == [torn_cell]
        assert path.read_text() == text

    def test_journal_resumes_twice_in_a_row(self, tmp_path, scanned):
        path = tmp_path / "state.jsonl"
        scanned.limit = 4
        with pytest.raises(_Crash):
            _tiny_rows(path)
        assert len(_journal(path)[1]) == 4

        # the first resume crashes too, after six more cells
        scanned.limit = 10
        with pytest.raises(_Crash):
            _tiny_rows(path)
        assert len(_journal(path)[1]) == 10

        scanned.limit = None
        assert _tiny_rows(path) == TINY_BOX_ROWS
        assert len(scanned.cells) == TINY_BOX_CELLS
        assert len(set(scanned.cells)) == TINY_BOX_CELLS
        header, cells = _journal(path)
        assert header == TINY_BOX_HEADER
        assert [tuple(cell[:2]) for cell in cells] == scanned.cells


# ---------------------------------------------------------------------------
# the streaming cell scan against the two-sided bucket scan
# ---------------------------------------------------------------------------


def _naive_roots(n, exp_cap):
    return [
        (r, e)
        for e in range(2, exp_cap + 1)
        for r in (introot(n, e),)
        if r >= 2 and r**e == n
    ]


def _bucket_scan(g, a1, bounds, max_bits, tried=None):
    """Reference cell scan: every sum on both sides is root-tested and
    bucketed by (b1, c1), then the shared buckets are paired.  The dict
    tried, if given, maps each pair handed to pair_and_solve to its
    system, None when the pair is rejected."""
    exp_max = bounds.exp_max
    g_pows = [g**w for w in range(exp_max + 1)]
    if a1 == 1:
        lefts = [(w, None, g_pows[w]) for w in range(1, exp_max + 1)]
        pures = [(None, 1)]
    else:
        a_pows = [a1**x for x in range(exp_max + 1)]
        lefts = [
            (w, x, g_pows[w] * a_pows[x])
            for w in range(1, exp_max + 1)
            for x in range(1, exp_max + 1)
        ]
        pures = [(x, a_pows[x]) for x in range(1, exp_max + 1)]

    second_bases = []
    for b1 in range(1, bounds.b1_max + 1):
        if b1 == 1:
            if a1 > 1:
                second_bases.append((1, [1, 1]))
            continue
        if math.gcd(b1, g) != 1 or math.gcd(b1, a1) != 1:
            continue
        second_bases.append((b1, [b1**y for y in range(exp_max + 1)]))

    bucket53 = {}
    for w1, x1, left in lefts:
        for b1, b_pows in second_bases:
            for y1 in range(1, (1 if b1 == 1 else exp_max) + 1):
                total = left + b_pows[y1]
                for root, e in [(total, 1)] + _naive_roots(total, exp_max):
                    bucket53.setdefault((b1, root), []).append((w1, x1, y1, e))

    bucket54 = {}
    for x2, pure in pures:
        for b1, b_pows in second_bases:
            for w2 in range(1, exp_max + 1):
                for y2 in range(1, (1 if b1 == 1 else exp_max) + 1):
                    total = pure + g_pows[w2] * b_pows[y2]
                    for root, e in [(total, 1)] + _naive_roots(total, exp_max):
                        bucket54.setdefault((b1, root), []).append((x2, w2, y2, e))

    rows = set()
    for b1, c1 in bucket53.keys() & bucket54.keys():
        for w1, x1, y1, z1 in bucket53[(b1, c1)]:
            left = Identity("a", g, w1, a1, x1, b1, y1, c1, z1)
            for x2, w2, y2, z2 in bucket54[(b1, c1)]:
                right = Identity("b", g, w2, a1, x2, b1, y2, c1, z2)
                system, _ = pair_and_solve(left, right)
                if tried is not None:
                    tried[left, right] = system
                if system is None:
                    continue
                result = reconstruct_and_verify(left, right, system, max_bits)
                if result.reason is None:
                    assert classify_nine(result.nine).kind == "anomalous"
                    rows.add(result.nine.as_tuple())
    return sorted(rows)


class TestCellScan:
    @given(
        g=st.integers(min_value=2, max_value=12),
        a1=st.integers(min_value=1, max_value=12),
        b1_max=st.integers(min_value=1, max_value=40),
        # from exp_max 7 on, a planned z1 = 7 has no inline sieve
        exp_max=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bucket_scan(self, g, a1, b1_max, exp_max):
        assume(math.gcd(g, a1) == 1)
        bounds = SearchBounds(a1_max=a1, g_max=g, b1_max=b1_max, exp_max=exp_max)
        assert _search_unit((g, a1, bounds, 128)) == _bucket_scan(g, a1, bounds, 128)

    def test_cells_with_rows_match_bucket_scan(self):
        bounds = SearchBounds(a1_max=5, g_max=5, b1_max=40, exp_max=5)
        for g, a1 in ((2, 1), (3, 1), (3, 2), (5, 1)):
            got = _search_unit((g, a1, bounds, 128))
            assert got
            assert got == _bucket_scan(g, a1, bounds, 128)

    # cells whose b1 runs 24 past the retirement floor 2^(exp_max - 2),
    # unit and non-unit past exp_max 6; each cell from exp_max 3 on yields rows
    @pytest.mark.parametrize(
        ("exp_max", "g", "a1", "n_rows"),
        [(2, 3, 2, 0), (3, 3, 2, 2), (4, 3, 1, 1), (5, 10, 7, 1), (6, 10, 3, 1), (7, 3, 1, 3),
         (7, 10, 3, 2), (8, 2, 1, 2), (8, 10, 3, 2)],
    )
    def test_cells_past_the_retirement_floor_match_bucket_scan(self, exp_max, g, a1, n_rows):
        bounds = SearchBounds(a1_max=a1, g_max=g, b1_max=2**exp_max // 4 + 24, exp_max=exp_max)
        got = _search_unit((g, a1, bounds, 128))
        assert len(got) == n_rows
        assert got == _bucket_scan(g, a1, bounds, 128)

    # b1 = 1 with a1 > 1, unit a1, residues of 3^x2 that collide modulo
    # g * b1 = 2 (b1 = 1), a power that is two carrier "b" sums (3, 2, 40, 7),
    # a residue that two a1^x2 share where the larger x2 meets (4, 3, 40, 7),
    # a row found at both b1 = 7 and b1 = 49 (10, 3, 50, 6), and a planned
    # z1 whose least prime is 7, 3 + 5^3 = 2^7 beside 1 + 3 * 5 = 2^4 (3, 1, 8, 7)
    @pytest.mark.parametrize(
        ("g", "a1", "b1_max", "exp_max", "n_solved"),
        [(3, 2, 20, 5, 2), (3, 1, 30, 5, 3), (2, 3, 12, 6, 0), (3, 2, 40, 7, 2),
         (4, 3, 40, 7, 0), (2, 1, 40, 7, 2), (10, 3, 50, 6, 2), (3, 1, 8, 7, 3)],
    )
    def test_pairs_what_bucket_scan_pairs(self, monkeypatch, g, a1, b1_max, exp_max, n_solved):
        # rows hide rejected candidates and a row met twice;
        # the pairs handed to pair_and_solve show every match the cell made
        calls, solved = [], set()

        def recording(left, right):
            calls.append((left, right))
            system, why = pair_and_solve(left, right)
            if system is not None:
                solved.add((left, right))
            return system, why

        monkeypatch.setattr(search_module, "pair_and_solve", recording)
        bounds = SearchBounds(a1_max=a1, g_max=g, b1_max=b1_max, exp_max=exp_max)
        _search_unit((g, a1, bounds, 128))
        tried = {}
        _bucket_scan(g, a1, bounds, 128, tried)

        left_plan, right_plan = _exponent_plan(exp_max, a1 == 1)
        zs_of, rights = dict(left_plan), set(right_plan)

        def formed(left, right):
            # both patterns planned, and the left one not retired at its b1
            A = g**left.w * (1 if left.x is None else a1**left.x)
            return ((left.z, right.z) in zs_of.get((left.w, left.x, left.y), ())
                    and (right.x, right.w, right.y) in rights
                    and (left.b1 < 2**exp_max // 4 or left.b1**left.y < A))

        assert len(calls) == len(set(calls))
        assert set(calls) == {pair for pair in tried if formed(*pair)}
        assert len(solved) == n_solved
        assert solved == {pair for pair, system in tried.items() if system is not None}


def _accepted_pairs(exp_max):
    """Every tuple (w1, x1, y1, z1, x2, w2, y2, z2) for which positive
    integers alpha, beta, gamma solve

        y1 * beta = z1 * gamma           y2 * beta = z2 * gamma + w2
        x1 * alpha = z1 * gamma + w1     x2 * alpha = z2 * gamma
    """
    exps = range(1, exp_max + 1)
    for w1, x1, y1, z1, x2, w2, y2, z2 in itertools.product(exps, repeat=8):
        # the two beta equations fix gamma: (y2 * z1 - z2 * y1) * gamma = w2 * y1
        den = y2 * z1 - z2 * y1
        if den <= 0 or w2 * y1 % den:
            continue
        gamma = w2 * y1 // den
        if z1 * gamma % y1 or z2 * gamma % x2:
            continue
        beta, alpha = z1 * gamma // y1, z2 * gamma // x2
        if y2 * beta == z2 * gamma + w2 and x1 * alpha == z1 * gamma + w1:
            yield w1, x1, y1, z1, x2, w2, y2, z2


def _accepted_unit_pairs(exp_max):
    """The tuples of _accepted_pairs for a1 = 1, with x1 = x2 = None: the
    alpha row then holds with alpha = 1 and x1, x2 solved for."""
    exps = range(1, exp_max + 1)
    for w1, y1, z1, w2, y2, z2 in itertools.product(exps, repeat=6):
        den = y2 * z1 - z2 * y1
        if den > 0 and not w2 * y1 % den and not z1 * (w2 * y1 // den) % y1:
            yield w1, None, y1, z1, None, w2, y2, z2


def _plan_by_brute_force(pairs):
    """The exponent plan from accepted pairs: the (z1, z2) of each left
    pattern, and the right patterns."""
    lefts, rights = {}, set()
    for w1, x1, y1, z1, x2, w2, y2, z2 in pairs:
        lefts.setdefault((w1, x1, y1), set()).add((z1, z2))
        rights.add((x2, w2, y2))
    return lefts, rights


class TestExponentPlan:
    @pytest.mark.parametrize("exp_max", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force(self, exp_max):
        for unit_a1, accepted in ((True, _accepted_unit_pairs), (False, _accepted_pairs)):
            if not unit_a1 and exp_max > 4:
                continue  # eight nested exponents take too long from 5 on
            lefts, rights = _exponent_plan(exp_max, unit_a1)
            for _, zs in lefts:
                assert list(zs) == sorted(set(zs))
            plan = ({key: set(zs) for key, zs in lefts}, set(rights))
            assert plan == _plan_by_brute_force(accepted(exp_max))

    @pytest.mark.parametrize(
        ("exp_max", "unit_a1", "n_patterns"),
        [(7, False, 260), (8, False, 386), (6, True, 36), (7, True, 49), (8, True, 64)],
    )
    def test_pattern_counts(self, exp_max, unit_a1, n_patterns):
        lefts, rights = _exponent_plan(exp_max, unit_a1)
        assert len(lefts) == len(dict(lefts)) == n_patterns
        assert len(rights) == len(set(rights)) == n_patterns

    def test_counts_at_exponent_six(self):
        lefts, rights = _exponent_plan(6, False)
        assert len(lefts) == len(dict(lefts)) == 155
        assert len(rights) == len(set(rights)) == 155
        assert sum(len({z1 for z1, _ in zs}) for _, zs in lefts) == 527
        assert sum(any(z1 == 1 for z1, _ in zs) for _, zs in lefts) == 99
        assert sum(len(zs) for _, zs in lefts) == 1396

    @pytest.mark.parametrize("exp_max", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("unit_a1", [False, True])
    def test_right_patterns_carry_g_and_b1(self, exp_max, unit_a1):
        # the cell's residue test needs g^w2 * b1^y2 = 0 modulo g * b1
        _, rights = _exponent_plan(exp_max, unit_a1)
        for x2, w2, y2 in rights:
            assert w2 >= 1 and y2 >= 1
            assert (x2 is None) == unit_a1

    @pytest.mark.parametrize("exp_max", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("unit_a1", [False, True])
    def test_cell_groups_the_right_patterns_by_w2_and_y2(self, exp_max, unit_a1):
        _, rights = _exponent_plan(exp_max, unit_a1)
        _, groups, x2s = _cell_patterns(exp_max, unit_a1)
        assert len(groups) == len({(y2, w2) for y2, w2, _ in groups})
        assert {(x2, w2, y2) for y2, w2, planned in groups for x2 in planned} == set(rights)
        assert set(x2s) == {x2 for x2, _, _ in rights}

    def test_right_groups_at_exponent_six(self):
        _, groups, x2s = _cell_patterns(6, False)
        assert sum(len(planned) for _, _, planned in groups) == 155
        assert len(groups) == 36
        assert x2s == (1, 2, 3, 4, 5, 6)


class TestRetirement:
    """A carrier "a" pattern retires once b1 >= max(2, 2^(exp_max - 2))
    and b1^y1 >= A = g^w1 * a1^x1."""

    @pytest.mark.parametrize("exp_max", [1, 2, 3, 4, 5, 6])
    def test_right_sum_outgrows_the_left_one(self, exp_max):
        # exact integers, no search: past the floor every accepted pair has
        # R^z1 > L^z2, so L = c1^z1 and R = c1^z2 cannot both hold
        pairs = list(_accepted_pairs(exp_max))
        unit_pairs = list(_accepted_unit_pairs(exp_max))
        for g, a1 in ((2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (5, 7)):
            for w1, x1, y1, z1, x2, w2, y2, z2 in unit_pairs if a1 == 1 else pairs:
                A = g**w1 * (1 if x1 is None else a1**x1)
                root = introot(A, y1)
                start = max(2**exp_max // 4, root if root**y1 == A else root + 1)
                for b1 in (start, start + 1):
                    left = A + b1**y1
                    right = (1 if x2 is None else a1**x2) + g**w2 * b1**y2
                    assert right**z1 > left**z2

    # every pattern of the unit cell has retired at b1 = 129 > 2^7 = g^7
    @pytest.mark.parametrize(
        ("g", "a1", "b1_max", "ends_at"), [(2, 1, 140, 129), (2, 3, 100, None)]
    )
    def test_cell_forms_exactly_the_sums_of_live_patterns(
        self, monkeypatch, g, a1, b1_max, ends_at
    ):
        # with inline sieves that pass every residue, the cell hands each
        # carrier "a" sum of a pattern admitting some z1 > 1 to perfect_powers,
        # so the calls show which planned patterns it kept per b1
        exp_max = 7
        formed = []

        def recording(n, max_exp):
            formed.append(n)
            return perfect_powers(n, max_exp)

        monkeypatch.setattr(search_module, "perfect_powers", recording)
        sieves = [name for name in vars(search_module) if name[:3] in ("_SQ", "_CU", "_FI")]
        assert len(sieves) == 11
        for name in sieves:
            monkeypatch.setattr(search_module, name, (True,) * 121)
        bounds = SearchBounds(a1_max=a1, g_max=g, b1_max=b1_max, exp_max=exp_max)
        _search_unit((g, a1, bounds, 128))

        lefts, _ = _exponent_plan(exp_max, a1 == 1)
        carried = [
            (g**w1 * (1 if x1 is None else a1**x1), y1, any(z1 > 1 for z1, _ in zs))
            for (w1, x1, y1), zs in lefts
        ]
        want, ended = [], None
        for b1 in range(1 if a1 > 1 else 2, b1_max + 1):
            if math.gcd(b1, g * a1) != 1:
                continue
            live = [(A, y1, rooted) for A, y1, rooted in carried
                    if b1 < 2**exp_max // 4 or b1**y1 < A]
            if not live:
                ended = b1
                break
            want += [A + b1**y1 for A, y1, rooted in live if rooted and (b1 > 1 or y1 == 1)]
        assert ended == ends_at
        assert sorted(formed) == sorted(want)


@pytest.mark.slow
def test_catalogue_box_at_exponent_seven_recalls_exactly_its_rows():
    # two workers halve the wall time; the rows do not depend on the count
    bounds = SearchBounds(g_max=10, a1_max=5, b1_max=500, exp_max=7)
    rows = [n.as_tuple() for n in direct_search(bounds=bounds, workers=2)]
    assert len(rows) == 10
    assert rows == sorted(_box_rows(bounds))


@pytest.mark.slow
def test_catalogue_box_recalls_all_ten_rows():
    bounds = SearchBounds(g_max=10, a1_max=5, b1_max=500, exp_max=6)
    want = sorted(
        canonical_nine(make_nine_tuple(*row)).as_tuple()
        for row in KNOWN_ANOMALOUS_ROWS
    )
    assert [n.as_tuple() for n in direct_search(bounds=bounds)] == want


def _box_sums(bounds):
    """Every carrier "a" and carrier "b" sum of the box, as a coprime equation."""
    exps = range(1, bounds.exp_max + 1)
    sums = set()
    for g in range(2, bounds.g_max + 1):
        for a1 in range(1, bounds.a1_max + 1):
            if math.gcd(a1, g) != 1:
                continue
            for b1 in range(1 if a1 > 1 else 2, bounds.b1_max + 1):
                if math.gcd(b1, g * a1) != 1:
                    continue
                for w, x, y in itertools.product(exps, repeat=3):
                    sums.add((g**w * a1**x, b1**y))
                    sums.add((a1**x, g**w * b1**y))
    return [make_equation(A, B, A + B) for A, B in sorted(sums)]


@pytest.mark.parametrize("g_max, a1_max, b1_max, exp_max",
                         [(3, 3, 10, 3), (4, 4, 20, 3), (6, 6, 12, 3)])
def test_pipeline_on_the_box_sums_agrees_with_the_direct_search(g_max, a1_max, b1_max, exp_max):
    # the two front ends pair the same identities, so on the box's own sums
    # the pipeline's rows that fit the box are exactly the direct search's
    bounds = SearchBounds(a1_max=a1_max, g_max=g_max, b1_max=b1_max, exp_max=exp_max)
    outcome = run_pipeline(_box_sums(bounds))
    in_box = [n.as_tuple() for n in outcome.anomalous if _row_fits_box(n.as_tuple(), bounds)]
    direct = [n.as_tuple() for n in direct_search(bounds=bounds)]
    assert len(direct) == 2
    assert in_box == direct


@given(
    g_max=st.integers(min_value=2, max_value=5),
    a1_max=st.integers(min_value=1, max_value=5),
    b1_max=st.integers(min_value=1, max_value=15),
    exp_max=st.integers(min_value=1, max_value=3),
)
# (3, 6, 15, 2, 1, 1, 2, 3, 2) fits this box only with 3^2 = 9 = g^2 * b1 as a base
@example(g_max=3, a1_max=2, b1_max=1, exp_max=3)
@settings(max_examples=15, deadline=None)
def test_pipeline_on_random_box_sums_agrees_with_the_direct_search(g_max, a1_max, b1_max, exp_max):
    bounds = SearchBounds(a1_max=a1_max, g_max=g_max, b1_max=b1_max, exp_max=exp_max)
    outcome = run_pipeline(_box_sums(bounds))
    in_box = [n.as_tuple() for n in outcome.anomalous if _row_fits_box(n.as_tuple(), bounds)]
    assert in_box == [n.as_tuple() for n in direct_search(bounds=bounds)]
