"""Tests for family generation, exact membership, and correspondence membership."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exptriple import acceptance
from exptriple.arith import is_prime, power_representations, two_adic
from exptriple.catalog import KNOWN_ANOMALOUS_ROWS
from exptriple.errors import FamilyConstraintError
from exptriple.families import (
    Classification,
    FamilyWitness,
    NineTuple,
    canonical_nine,
    classify_nine,
    gen_family,
    in_F,
    in_family,
    make_nine_tuple,
)

# confirmed two-solution tuples that belong to no family
ANOMALOUS = [
    (2, 6, 38, 1, 2, 1, 5, 1, 1),
    (3, 6, 15, 2, 1, 1, 2, 3, 2),
    (6, 15, 231, 1, 2, 1, 3, 1, 1),
    (3, 1215, 6, 4, 1, 4, 8, 1, 5),
    (3, 6, 7857, 4, 5, 1, 8, 4, 1),
    (5, 275, 280, 1, 1, 1, 7, 1, 2),
    (5, 280, 78405, 1, 2, 1, 7, 1, 1),
    (30, 70, 4930, 1, 2, 1, 5, 2, 2),
    (30, 4930, 24304930, 1, 2, 1, 5, 1, 1),
    (2, 88, 6, 7, 1, 3, 5, 2, 5),
]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _family_iii_grid(d_max=30, k_max=6, u_max=3, bit_cap=128):
    """All valid family III parameter maps with c^k below the bit cap."""
    combos = []
    for d in range(1, d_max + 1):
        for k in range(2, k_max + 1):
            target = (d + 1) ** k - d**k
            for g, w in power_representations(target):
                if g < 3 or g % 2 == 0:
                    continue
                for j in _divisors(w):
                    for u in range(1, u_max + 1):
                        c = g ** (j * u) * (d + 1)
                        if c.bit_length() * k >= bit_cap:
                            continue
                        combos.append(
                            {"g": g, "j": j, "u": u, "d": d, "k": k, "w": w}
                        )
    return combos


def _family_iv_grid(d_max=29, k_max=6, u_max=3, i_cap=4, bit_cap=128):
    """All valid family IV parameter maps with c^k below the bit cap."""
    combos = []
    for d in range(3, d_max + 1, 2):
        for k in range(2, k_max + 1, 2):
            diff = (d + 2) ** k - d**k
            odd_part = diff >> two_adic(diff)
            if odd_part == 1:
                continue
            h = two_adic(2 * d + 2)
            v = two_adic(k)
            shift = h + v - k           # required value of iw/j
            if shift < 1:
                continue
            for g, w in power_representations(odd_part):
                if g < 3 or g % 2 == 0:
                    continue
                for j in _divisors(w):
                    if (shift * j) % w:
                        continue
                    i = shift * j // w
                    if i < 1 or i > i_cap:
                        continue
                    for u in range(1, u_max + 1):
                        c = 2 ** (i * u - 1) * g ** (j * u) * (d + 2)
                        if c.bit_length() * k >= bit_cap:
                            continue
                        combos.append(
                            {"g": g, "i": i, "j": j, "u": u, "d": d, "k": k, "w": w}
                        )
    return combos


def _grid_maps():
    """(tag, full parameter map) for every map of the test and acceptance grids."""
    maps = [("I", {"u": u, "h": h}) for u in range(1, 9) for h in range(2, 9)]
    maps += [("II", {"t": t}) for t in range(1, 9)]
    maps += [("III", p) for p in _family_iii_grid() + list(acceptance._grid_iii())]
    for p in _family_iv_grid() + list(acceptance._grid_iv()):
        maps.append(("IV", {**p, "h": two_adic(2 * p["d"] + 2), "v": two_adic(p["k"])}))
    return maps


def _grid_members():
    """Each distinct grid member with the tag of the family generating it."""
    return {gen_family(tag, p): tag for tag, p in _grid_maps()}


def _reorderings(nine):
    """nine with its solutions swapped, its bases swapped, and both."""
    a, b, c, x1, y1, z1, x2, y2, z2 = nine.as_tuple()
    return (
        make_nine_tuple(a, b, c, x2, y2, z2, x1, y1, z1),
        make_nine_tuple(b, a, c, y1, x1, z1, y2, x2, z2),
        make_nine_tuple(b, a, c, y2, x2, z2, y1, x1, z1),
    )


class TestMakeNineTuple:
    def test_packs_and_orders_fields(self):
        nine = make_nine_tuple(3, 6, 15, 2, 1, 1, 2, 3, 2)
        assert nine.as_tuple() == (3, 6, 15, 2, 1, 1, 2, 3, 2)
        assert nine.term_pairs() == ((6, 9), (9, 216))

    def test_rejects_small_base(self):
        with pytest.raises(ValueError, match="base"):
            make_nine_tuple(1, 6, 7, 1, 1, 1, 2, 1, 1)

    def test_rejects_failed_equation(self):
        with pytest.raises(ValueError, match="does not solve"):
            make_nine_tuple(3, 6, 15, 2, 1, 1, 2, 2, 2)

    def test_rejects_identical_solutions(self):
        with pytest.raises(ValueError, match="distinct"):
            make_nine_tuple(3, 6, 15, 2, 1, 1, 2, 1, 1)

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError, match="positive"):
            make_nine_tuple(3, 6, 15, 2, 1, 1, 0, 1, 1)

    def test_correspondence_detection(self):
        nine = make_nine_tuple(7, 7, 98, 6, 7, 3, 7, 6, 3)
        assert nine.solutions_correspond()
        assert not make_nine_tuple(7, 49, 98, 2, 1, 1, 7, 3, 3).solutions_correspond()


class TestGenFamily:
    def test_family_i_example(self):
        nine = gen_family("I", {"u": 1, "h": 3})
        assert nine.as_tuple() == (2, 6, 10, 2, 1, 1, 6, 2, 2)

    def test_family_ii_example(self):
        nine = gen_family("II", {"t": 1})
        assert nine.as_tuple() == (6, 3, 3, 1, 1, 2, 3, 3, 5)

    def test_family_iii_example(self):
        nine = gen_family("III", {"g": 7, "j": 1, "u": 2, "d": 1, "k": 3, "w": 1})
        assert nine.as_tuple() == (7, 49, 98, 2, 1, 1, 7, 3, 3)

    def test_family_iv_example(self):
        nine = gen_family("IV", {"g": 3, "i": 1, "j": 1, "u": 1, "d": 5, "k": 2, "w": 1})
        assert nine.as_tuple() == (6, 15, 21, 1, 1, 1, 3, 2, 2)

    def test_family_iv_accepts_consistent_derived_params(self):
        params = {"g": 3, "i": 1, "j": 1, "u": 1, "d": 5, "k": 2, "w": 1, "h": 2, "v": 1}
        assert gen_family("IV", params).as_tuple() == (6, 15, 21, 1, 1, 1, 3, 2, 2)

    def test_family_iv_rejects_wrong_derived_params(self):
        params = {"g": 3, "i": 1, "j": 1, "u": 1, "d": 5, "k": 2, "w": 1, "h": 3, "v": 1}
        with pytest.raises(FamilyConstraintError) as exc:
            gen_family("IV", params)
        assert any("h must be 2" in v for v in exc.value.violations)

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown family"):
            gen_family("V", {"u": 1})

    def test_wrong_key_set(self):
        with pytest.raises(ValueError, match="takes parameters"):
            gen_family("I", {"u": 1})
        with pytest.raises(ValueError, match="takes parameters"):
            gen_family("II", {"t": 1, "extra": 2})

    def test_family_i_violations_named(self):
        with pytest.raises(FamilyConstraintError) as exc:
            gen_family("I", {"u": 0, "h": 1})
        assert exc.value.family == "I"
        assert "u must be positive" in exc.value.violations
        assert "h must be at least 2" in exc.value.violations

    def test_family_ii_violation_named(self):
        with pytest.raises(FamilyConstraintError) as exc:
            gen_family("II", {"t": 0})
        assert exc.value.violations == ["t must be positive"]

    def test_family_iii_violations_named(self):
        with pytest.raises(FamilyConstraintError) as exc:
            gen_family("III", {"g": 4, "j": 0, "u": 1, "d": 1, "k": 1, "w": 1})
        bad = exc.value.violations
        assert "g must be odd and exceed 1" in bad
        assert "j must be positive" in bad
        assert "k must exceed 1" in bad

    def test_family_iii_power_identity_checked(self):
        # 2^3 - 1^3 = 7, not a power of 3
        with pytest.raises(FamilyConstraintError) as exc:
            gen_family("III", {"g": 3, "j": 1, "u": 1, "d": 1, "k": 3, "w": 1})
        assert any("(d+1)^k - d^k" in v for v in exc.value.violations)

    def test_family_iii_divisibility_checked(self):
        # 3^2 - 2^2 = 5 = g^w holds, but j = 3 does not divide w = 1
        with pytest.raises(FamilyConstraintError) as exc:
            gen_family("III", {"g": 5, "j": 3, "u": 1, "d": 2, "k": 2, "w": 1})
        assert "j must divide w" in exc.value.violations

    def test_family_iv_rejects_unit_g(self):
        # g = 1 would replicate family I members; it must be refused
        with pytest.raises(FamilyConstraintError) as exc:
            gen_family("IV", {"g": 1, "i": 1, "j": 1, "u": 2, "d": 1, "k": 2, "w": 1})
        assert "g must be odd and exceed 1" in exc.value.violations

    def test_family_iv_rejects_unit_d(self):
        with pytest.raises(FamilyConstraintError) as exc:
            gen_family("IV", {"g": 3, "i": 1, "j": 1, "u": 1, "d": 1, "k": 2, "w": 1})
        assert "d must exceed 1" in exc.value.violations

    def test_family_iv_rejects_odd_k(self):
        with pytest.raises(FamilyConstraintError) as exc:
            gen_family("IV", {"g": 3, "i": 1, "j": 1, "u": 1, "d": 5, "k": 3, "w": 1})
        assert "k must be even and positive" in exc.value.violations

    def test_family_iv_exponent_relation_checked(self):
        # d=9, k=2 gives g=5, w=1, h=2, v=1; i=2 breaks k-v = h-iw/j
        with pytest.raises(FamilyConstraintError) as exc:
            gen_family("IV", {"g": 5, "i": 2, "j": 1, "u": 1, "d": 9, "k": 2, "w": 1})
        assert "k - v must equal h - iw/j" in exc.value.violations


class TestInF:
    def test_family_i_member(self):
        nine = make_nine_tuple(2, 6, 10, 2, 1, 1, 6, 2, 2)
        wit = in_F(nine)
        assert wit is not None and wit.family == "I"
        assert wit.params == {"u": 1, "h": 3}
        assert wit.member == nine and wit.matching == (0, 1)

    def test_family_ii_member(self):
        wit = in_F(make_nine_tuple(6, 3, 3, 1, 1, 2, 3, 3, 5))
        assert wit is not None and wit.family == "II"
        assert wit.params == {"t": 1}

    def test_family_iii_member(self):
        wit = in_F(make_nine_tuple(7, 49, 98, 2, 1, 1, 7, 3, 3))
        assert wit is not None and wit.family == "III"
        assert wit.params == {"g": 7, "j": 1, "u": 2, "d": 1, "k": 3, "w": 1}

    def test_family_iv_member(self):
        wit = in_F(make_nine_tuple(6, 15, 21, 1, 1, 1, 3, 2, 2))
        assert wit is not None and wit.family == "IV"
        assert wit.params == {
            "g": 3, "i": 1, "j": 1, "u": 1, "d": 5, "k": 2, "w": 1, "h": 2, "v": 1,
        }

    def test_reordered_solutions_not_exact_member(self):
        # same triple as a family III member but with the solutions
        # renumbered; exact membership is about the ordered nine-tuple
        nine = make_nine_tuple(7, 7, 98, 2, 2, 1, 6, 7, 3)
        assert in_F(nine) is None

    def test_anomalous_not_members(self):
        for row in ANOMALOUS:
            assert in_F(make_nine_tuple(*row)) is None

    def test_canonical_parameters_for_power_base(self):
        # a = 9 can be read as 9^1 or 3^2; the canonical witness takes the
        # least parameter map, which has g = 3
        member = gen_family("III", {"g": 9, "j": 1, "u": 1, "d": 4, "k": 2, "w": 1})
        assert member.as_tuple() == (9, 36, 45, 1, 1, 1, 3, 2, 2)
        wit = in_F(member)
        assert wit is not None
        assert wit.params == {"g": 3, "j": 2, "u": 1, "d": 4, "k": 2, "w": 2}
        assert gen_family("III", wit.params) == member

    def test_canonical_parameters_for_even_power_base(self):
        # a = 36 = 2^2 * 3^2 = 2^2 * 9: i = j = 2 is not the largest split
        # u = gcd(iu, ju) of the term 2^(iu) g^(ju), and g = 3 beats g = 9
        member = gen_family("IV", {"g": 3, "i": 2, "j": 2, "u": 1, "d": 35, "k": 2, "w": 2})
        assert member.as_tuple() == (36, 630, 666, 1, 1, 1, 3, 2, 2)
        wit = in_F(member)
        assert wit is not None and wit.member == member
        assert wit.params == {
            "g": 3, "i": 2, "j": 2, "u": 1, "d": 35, "k": 2, "w": 2, "h": 3, "v": 1,
        }
        # correspondence membership takes the least map over all members
        # with these term multisets: u = 2 gives the smaller i
        wit = in_family(member)
        assert wit is not None and wit.matching == (0, 1)
        assert wit.params == {
            "g": 3, "i": 1, "j": 1, "u": 2, "d": 35, "k": 2, "w": 2, "h": 3, "v": 1,
        }
        assert wit.member.as_tuple() == (6, 630, 666, 2, 1, 1, 6, 2, 2)

    def test_least_map_over_grids(self):
        # every map generating a member is grouped under it; in_F must
        # report the least one, values compared in alphabetical key order
        groups = {}
        for tag, params in _grid_maps():
            groups.setdefault(gen_family(tag, params), []).append((tag, params))
        assert len(groups) > 500
        assert any(len(maps) > 1 for maps in groups.values())
        for member, maps in groups.items():
            tag, least = min(maps, key=lambda m: [m[1][k] for k in sorted(m[1])])
            wit = in_F(member)
            assert wit is not None and wit.family == tag, member
            assert wit.params == least, member
            assert wit.member == member and wit.matching == (0, 1)


class TestInFamily:
    def test_correspondence_into_family_iii(self):
        nine = make_nine_tuple(7, 7, 98, 2, 2, 1, 6, 7, 3)
        wit = in_family(nine)
        assert wit is not None and wit.family == "III"
        assert wit.params == {"g": 7, "j": 1, "u": 2, "d": 1, "k": 3, "w": 1}
        assert wit.member.as_tuple() == (7, 49, 98, 2, 1, 1, 7, 3, 3)
        assert wit.matching == (0, 1)

    def test_swapped_bases_into_family_ii(self):
        # (3, 6, 3) carries family II's term multisets with a and b swapped
        nine = make_nine_tuple(3, 6, 3, 1, 1, 2, 3, 3, 5)
        wit = in_family(nine)
        assert wit is not None and wit.family == "II"
        assert wit.params == {"t": 1}
        assert wit.member.as_tuple() == (6, 3, 3, 1, 1, 2, 3, 3, 5)

    def test_swapped_solution_order_matching(self):
        nine = make_nine_tuple(2, 6, 10, 6, 2, 2, 2, 1, 1)
        wit = in_family(nine)
        assert wit is not None and wit.family == "I"
        assert wit.params == {"u": 1, "h": 3}
        assert wit.matching == (1, 0)

    def test_exact_member_found(self):
        wit = in_family(make_nine_tuple(2, 6, 10, 2, 1, 1, 6, 2, 2))
        assert wit is not None and wit.family == "I"
        assert wit.params == {"u": 1, "h": 3}

    def test_anomalous_have_no_family(self):
        for row in ANOMALOUS:
            assert in_family(make_nine_tuple(*row)) is None, row

    def test_type_t_shape_into_family_i(self):
        # (2, 2, 12) shares term multisets with the u=2, h=2 member (2, 4, 12)
        nine = make_nine_tuple(2, 2, 12, 3, 2, 1, 7, 4, 2)
        wit = in_family(nine)
        assert wit is not None and wit.family == "I"
        assert wit.params == {"u": 2, "h": 2}
        assert wit.member.as_tuple() == (2, 4, 12, 3, 1, 1, 7, 2, 2)

    def test_agrees_with_in_F_on_grid_reorderings(self):
        for member, tag in _grid_members().items():
            sols_swapped, bases_swapped, both = _reorderings(member)
            for nine in (member, bases_swapped):
                exact = in_F(nine)
                wit = in_family(nine)
                assert wit is not None and wit.family == tag, nine
                assert exact is None or exact.family == tag
                assert wit.member.term_pairs() == nine.term_pairs()
                assert wit.matching == (0, 1)
            for nine in (sols_swapped, both):
                assert in_F(nine) is None, nine
                wit = in_family(nine)
                assert wit is not None and wit.family == tag, nine
                assert wit.member.term_pairs() == member.term_pairs()
                assert wit.matching == (1, 0)

    def test_verdict_counts_on_the_criterion_five_grids(self):
        # each grid member and catalogue row as given, with its solutions
        # swapped and with its bases swapped: 851 * 3 = 2,553 nine-tuples
        rows = [gen_family("I", {"u": u, "h": h}).as_tuple()
                for u in range(1, 9) for h in range(2, 9)]
        rows += [gen_family("II", {"t": t}).as_tuple() for t in range(1, 9)]
        rows += [gen_family("III", p).as_tuple() for p in acceptance._grid_iii()]
        rows += [gen_family("IV", p).as_tuple() for p in acceptance._grid_iv()]
        rows += KNOWN_ANOMALOUS_ROWS
        nines = []
        for a, b, c, x1, y1, z1, x2, y2, z2 in rows:
            nines += [make_nine_tuple(a, b, c, x1, y1, z1, x2, y2, z2),
                      make_nine_tuple(a, b, c, x2, y2, z2, x1, y1, z1),
                      make_nine_tuple(b, a, c, y1, x1, z1, y2, x2, z2)]

        def counts(test):
            found = Counter(getattr(test(nine), "family", None) for nine in nines)
            return {tag or "none": n for tag, n in found.items()}

        assert counts(in_family) == {"I": 168, "II": 24, "III": 1893, "IV": 438, "none": 30}
        assert counts(in_F) == {"I": 56, "II": 8, "III": 631, "IV": 146, "none": 1712}


class TestClassifyNine:
    def test_known_anomalous(self):
        for row in ANOMALOUS:
            verdict = classify_nine(make_nine_tuple(*row))
            assert verdict.kind == "anomalous", row
            assert verdict.witness is None and verdict.family is None

    def test_family_iv_verdict(self):
        verdict = classify_nine(make_nine_tuple(6, 15, 21, 1, 1, 1, 3, 2, 2))
        assert verdict.kind == "family" and verdict.family == "IV"

    def test_family_iii_verdict(self):
        verdict = classify_nine(make_nine_tuple(19, 38, 57, 1, 1, 1, 4, 3, 3))
        assert verdict.kind == "family" and verdict.family == "III"
        assert verdict.witness.params == {
            "g": 19, "j": 1, "u": 1, "d": 2, "k": 3, "w": 1,
        }

    def test_family_i_verdict(self):
        verdict = classify_nine(make_nine_tuple(2, 4, 12, 3, 1, 1, 7, 2, 2))
        assert verdict.kind == "family" and verdict.family == "I"

    def test_rejects_coprime_bases(self):
        nine = make_nine_tuple(3, 5, 2, 1, 1, 3, 3, 1, 5)
        with pytest.raises(ValueError, match="gcd"):
            classify_nine(nine)

    def test_rejects_corresponding_solutions(self):
        nine = make_nine_tuple(7, 7, 98, 6, 7, 3, 7, 6, 3)
        with pytest.raises(ValueError, match="correspond"):
            classify_nine(nine)


class TestGenerationGrids:
    """Every grid member verifies, never self-corresponds, and roundtrips."""

    def test_family_i_grid(self):
        for u in range(1, 9):
            for h in range(2, 9):
                member = gen_family("I", {"u": u, "h": h})
                assert not member.solutions_correspond()
                wit = in_F(member)
                assert wit is not None and wit.family == "I"
                assert wit.params == {"u": u, "h": h}

    def test_family_ii_grid(self):
        for t in range(1, 9):
            member = gen_family("II", {"t": t})
            assert not member.solutions_correspond()
            wit = in_F(member)
            assert wit is not None and wit.family == "II"
            assert wit.params == {"t": t}

    def test_family_iii_grid(self):
        combos = _family_iii_grid()
        assert len(combos) > 100
        for params in combos:
            member = gen_family("III", params)
            assert not member.solutions_correspond()
            wit = in_F(member)
            assert wit is not None and wit.family == "III", params
            # the witness map regenerates the same member and is canonical
            assert gen_family("III", wit.params) == member
            if is_prime(params["g"]):
                assert wit.params == params

    def test_family_iv_grid(self):
        combos = _family_iv_grid()
        assert len(combos) > 20
        for params in combos:
            member = gen_family("IV", params)
            assert not member.solutions_correspond()
            wit = in_F(member)
            assert wit is not None and wit.family == "IV", params
            assert gen_family("IV", wit.params) == member
            if is_prime(params["g"]):
                assert {k: wit.params[k] for k in params} == params

    def test_membership_closure_on_grids(self):
        members = [gen_family("I", {"u": u, "h": h})
                   for u in range(1, 5) for h in range(2, 5)]
        members += [gen_family("II", {"t": t}) for t in range(1, 5)]
        members += [gen_family("III", p) for p in _family_iii_grid(d_max=8, k_max=4)]
        members += [gen_family("IV", p) for p in _family_iv_grid(d_max=15, k_max=4)]
        for member in members:
            wit = in_family(member)
            assert wit is not None, member
            assert wit.matching == (0, 1)
            assert wit.member.term_pairs() == member.term_pairs()
            verdict = classify_nine(member)
            assert verdict.kind == "family"

    def test_families_disjoint_on_grids(self):
        # family I members never register as family IV and vice versa
        for u in range(1, 5):
            for h in range(2, 5):
                member = gen_family("I", {"u": u, "h": h})
                assert in_family(member).family == "I"
        for params in _family_iv_grid(d_max=15, k_max=4):
            member = gen_family("IV", params)
            assert in_family(member).family == "IV"


class TestFamilyProperties:
    @given(u=st.integers(1, 40), h=st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_family_i_roundtrip(self, u, h):
        member = gen_family("I", {"u": u, "h": h})
        assert member.a == 2
        assert not member.solutions_correspond()
        wit = in_F(member)
        assert wit is not None and wit.params == {"u": u, "h": h}

    @given(t=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_family_ii_roundtrip(self, t):
        member = gen_family("II", {"t": t})
        assert not member.solutions_correspond()
        wit = in_F(member)
        assert wit is not None and wit.params == {"t": t}

    @given(u=st.integers(1, 12), h=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_swapped_solutions_still_in_family(self, u, h):
        member = gen_family("I", {"u": u, "h": h})
        n = member.as_tuple()
        swapped = make_nine_tuple(n[0], n[1], n[2], *n[6:9], *n[3:6])
        wit = in_family(swapped)
        assert wit is not None and wit.family == "I"
        assert wit.matching == (1, 0)
        assert wit.params == {"u": u, "h": h}


class TestCanonicalNine:
    def test_plain_swap(self):
        nine = make_nine_tuple(6, 3, 15, 1, 2, 1, 3, 2, 2)
        assert canonical_nine(nine).as_tuple() == (3, 6, 15, 2, 1, 1, 2, 3, 2)

    def test_solution_order(self):
        nine = make_nine_tuple(2, 6, 38, 5, 1, 1, 1, 2, 1)
        assert canonical_nine(nine).as_tuple() == (2, 6, 38, 1, 2, 1, 5, 1, 1)

    def test_power_base_reduces(self):
        # 9 = 3**2, so the middle base drops to 3 with doubled exponents
        nine = make_nine_tuple(6, 9, 15, 1, 1, 1, 3, 1, 2)
        assert canonical_nine(nine).as_tuple() == (3, 6, 15, 2, 1, 1, 2, 3, 2)

    def test_power_base_reduces_big(self):
        # 4900 = 70**2
        nine = make_nine_tuple(30, 4900, 4930, 1, 1, 1, 5, 1, 2)
        assert canonical_nine(nine).as_tuple() == (
            30, 70, 4930, 1, 2, 1, 5, 2, 2,
        )

    def test_third_base_reduces(self):
        # 4 + 4 = 8: all three bases are powers of 2
        nine = make_nine_tuple(4, 4, 8, 1, 1, 1, 4, 4, 3)
        assert canonical_nine(nine).as_tuple() == (2, 2, 2, 2, 2, 3, 8, 8, 9)

    def test_equal_bases_orientation_is_stable(self):
        one = make_nine_tuple(7, 7, 98, 2, 2, 1, 6, 7, 3)
        other = make_nine_tuple(7, 7, 98, 2, 2, 1, 7, 6, 3)
        assert canonical_nine(one).as_tuple() == canonical_nine(other).as_tuple()

    def test_idempotent(self):
        nine = make_nine_tuple(6, 9, 15, 1, 1, 1, 3, 1, 2)
        once = canonical_nine(nine)
        assert canonical_nine(once).as_tuple() == once.as_tuple()

    def test_terms_preserved(self):
        nine = make_nine_tuple(6, 9, 15, 1, 1, 1, 3, 1, 2)
        canon = canonical_nine(nine)
        before = {frozenset({6 ** s.x, 9 ** s.y}) for s in (nine.s1, nine.s2)}
        after = {
            frozenset({canon.a ** s.x, canon.b ** s.y})
            for s in (canon.s1, canon.s2)
        }
        assert before == after

    @given(u=st.integers(1, 6), h=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_classification_invariant(self, u, h):
        member = gen_family("I", {"u": u, "h": h})
        canon = canonical_nine(member)
        assert classify_nine(canon).kind == classify_nine(member).kind
