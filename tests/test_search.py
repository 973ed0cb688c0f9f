"""Tests for equation ingestion, identity pairing, and the anomalous-pair search."""

import json
import math
import warnings
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exptriple.acceptance import _box_rows
from exptriple.arith import introot, is_prime, radical
from exptriple.catalog import KNOWN_ANOMALOUS_ROWS, is_known_anomalous
from exptriple.config import SearchBounds
from exptriple.errors import InternalInvariantError, UsageError
from exptriple.families import canonical_nine, make_nine_tuple
import exptriple.search as search_module
from exptriple.search import (
    OVERSIZE_BITS,
    EquationRecord,
    Identity,
    SolvedSystem,
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
    primes = [p for p in range(2, rad_bound + 1) if is_prime(p)]
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
        assert result.verdict is not None and result.verdict.kind == "anomalous"
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
        assert result.verdict.kind == "anomalous"
        monkeypatch.setattr(search_module, "OVERSIZE_BITS", 7)
        assert self._verify(self.LEFT_15, self.RIGHT_15).reason == "oversize"

    def test_candidate_above_the_size_limit_is_oversize(self):
        # gamma scales c = 3^gamma * 5; take the first gamma whose c^2
        # exceeds the limit
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
            "family": 0,
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


def _bucket_scan(g, a1, bounds, max_bits):
    """Reference cell scan: every sum on both sides is root-tested and
    bucketed by (b1, c1), then the shared buckets are paired."""
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
                if system is None:
                    continue
                result = reconstruct_and_verify(left, right, system, max_bits)
                if result.verdict is not None and result.verdict.kind == "anomalous":
                    rows.add(result.nine.as_tuple())
    return sorted(rows)


class TestCellScan:
    @given(
        g=st.integers(min_value=2, max_value=12),
        a1=st.integers(min_value=1, max_value=12),
        b1_max=st.integers(min_value=1, max_value=40),
        exp_max=st.integers(min_value=1, max_value=5),
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


@pytest.mark.slow
def test_catalogue_box_recalls_all_ten_rows():
    bounds = SearchBounds(g_max=10, a1_max=5, b1_max=500, exp_max=6)
    want = sorted(
        canonical_nine(make_nine_tuple(*row)).as_tuple()
        for row in KNOWN_ANOMALOUS_ROWS
    )
    assert [n.as_tuple() for n in direct_search(bounds=bounds)] == want
