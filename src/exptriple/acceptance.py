"""End-to-end checks of the package's headline numerical claims.

Nine independent checks cover enumeration, classification, family
generation, the arithmetic oracles, and the search.  Each runs with a
fixed budget and a fixed expected outcome, so the suite doubles as a
regression gate and as a quick demonstration that the installation
computes what it promises.  The CLI exposes the suite as `verify`;
the test suite runs each check as one test.
"""

import math
import random
import time
from itertools import product
from typing import NamedTuple

from .arith import (
    as_power_of,
    least_index,
    lte_odd,
    power_representations,
    same_prime_set_scan,
    two_adic,
    two_adic_profile,
    valuation,
)
from .catalog import KNOWN_ANOMALOUS_ROWS, is_known_anomalous
from .classify import type_profile
from .config import SearchBounds
from .errors import FamilyConstraintError, ProportionalityError
from .families import (
    _family_power,
    canonical_nine,
    classify_nine,
    gen_family,
    in_F,
    make_nine_tuple,
)
from .search import direct_search
from .solve import (
    correspond,
    count_N,
    detect_special_case,
    enumerate_solutions,
    make_solution,
    power_of_two_solutions,
)
from .triple import build_triple, g_decomposition


class CheckResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} criterion {self.number} [{self.name}] "
            f"({self.seconds:.1f}s): {self.detail}"
        )


def _sols(sset) -> list[tuple[int, int, int]]:
    return [(s.x, s.y, s.z) for s in sset.solutions]


# ---------------------------------------------------------------------------
# 1: the coprime three-class showcase triple
# ---------------------------------------------------------------------------


def criterion_1() -> tuple[bool, str]:
    """(3, 5, 2) has exactly the three classic solutions below 64 bits."""
    sset = enumerate_solutions(build_triple(3, 5, 2), 64)
    got = _sols(sset)
    ok = got == [(1, 1, 3), (3, 1, 5), (1, 3, 7)] and count_N(sset) == 3
    return ok, f"solutions {got}, N = {count_N(sset)}"


# ---------------------------------------------------------------------------
# 2: the ten sporadic catalog rows
# ---------------------------------------------------------------------------


def criterion_2() -> tuple[bool, str]:
    """Every catalog row: two exact solutions, split tags, anomalous."""
    failures = []
    for row in KNOWN_ANOMALOUS_ROWS:
        a, b, c = row[:3]
        label = f"({a}, {b}, {c})"
        t = build_triple(a, b, c)
        sset = enumerate_solutions(t, 256)
        want = sorted(
            (row[3:6], row[6:9]), key=lambda s: (s[2], s[0], s[1])
        )
        if _sols(sset) != want:
            failures.append(f"{label}: solutions {_sols(sset)}")
            continue
        if count_N(sset) != 2:
            failures.append(f"{label}: N = {count_N(sset)}")
            continue
        s1, s2 = sset.solutions
        if correspond(t, s1, t, s2):
            failures.append(f"{label}: solutions correspond")
            continue
        tags = [
            {type_profile(t, s).tag(p) for p in t.common_primes}
            for s in (s1, s2)
        ]
        if sorted(map(tuple, map(sorted, tags))) != [("A",), ("B",)]:
            failures.append(f"{label}: tags {tags}")
            continue
        if classify_nine(make_nine_tuple(*row)).kind != "anomalous":
            failures.append(f"{label}: not anomalous")
    ok = not failures
    detail = "; ".join(failures) if failures else "10 rows verified"
    return ok, detail


# ---------------------------------------------------------------------------
# 3: equal-base correspondence across triples
# ---------------------------------------------------------------------------


def criterion_3() -> tuple[bool, str]:
    """(7, 7, 98) has three raw solutions in two classes, both later
    ones corresponding to (7, 3, 3) of (7, 49, 98)."""
    t = build_triple(7, 7, 98)
    sset = enumerate_solutions(t, 64)
    got = _sols(sset)
    if got != [(2, 2, 1), (6, 7, 3), (7, 6, 3)]:
        return False, f"solutions {got}"
    if count_N(sset) != 2:
        return False, f"N = {count_N(sset)}"
    other = build_triple(7, 49, 98)
    target = make_solution(other, 7, 3, 3)
    ok = correspond(t, sset.solutions[1], other, target) and correspond(
        t, sset.solutions[2], other, target
    )
    return ok, f"solutions {got}, N = 2, correspondence {ok}"


# ---------------------------------------------------------------------------
# 4: the many-solution base shapes
# ---------------------------------------------------------------------------


def criterion_4() -> tuple[bool, str]:
    """Raw counts and exact patterns for the shapes with extra solutions."""
    failures = []

    def expect(a, b, c, count, tag, bits=64):
        t = build_triple(a, b, c)
        sset = enumerate_solutions(t, bits)
        shape = detect_special_case(t)
        label = f"({a}, {b}, {c})"
        if sset.raw_count != count:
            failures.append(f"{label}: {sset.raw_count} raw")
            return
        if shape is None or shape.tag != tag:
            failures.append(f"{label}: tag {shape.tag if shape else None}")
            return
        want = sorted(
            ((s.x, s.y, s.z) for s in shape.predicted),
            key=lambda s: (s[2], s[0], s[1]),
        )
        if shape.predicted and _sols(sset) != want:
            failures.append(f"{label}: prediction mismatch")

    expect(2, 2, 6, 4, "two-two")
    expect(2, 8, 24, 3, "two-eight")
    expect(8, 2, 24, 3, "two-eight")
    expect(3, 3, 6, 3, "mersenne-pair")

    t = build_triple(4, 8, 32)
    shape = detect_special_case(t)
    if shape is None or shape.tag != "all-two-powers":
        failures.append(f"(4, 8, 32): tag {shape.tag if shape else None}")
    else:
        got = _sols(enumerate_solutions(t, 128))
        want = [(s.x, s.y, s.z) for s in power_of_two_solutions(2, 3, 5, 19)]
        if got != want:
            failures.append(f"(4, 8, 32): solutions {got}")
        elif got[0] != (12, 8, 5):
            failures.append(f"(4, 8, 32): first solution {got[0]}")

    ok = not failures
    detail = "; ".join(failures) if failures else "5 shapes verified"
    return ok, detail


# ---------------------------------------------------------------------------
# 5: family generator grids
# ---------------------------------------------------------------------------

_TERM_BITS = 128


def _fits(c_val: int, k: int) -> bool:
    if (c_val.bit_length() - 1) * k > _TERM_BITS:
        return False
    return c_val**k < (1 << _TERM_BITS)


def _grid_iii(d_max=20, k_max=8, g_cap=10**4):
    for d in range(1, d_max + 1):
        for k in range(2, k_max + 1):
            for g, w in power_representations(_family_power("III", d, k)):
                if g % 2 == 0 or g < 3 or g > g_cap:
                    continue
                for j in range(1, w + 1):
                    if w % j:
                        continue
                    u = 1
                    while _fits(g ** (j * u) * (d + 1), k):
                        yield {"g": g, "j": j, "u": u, "d": d, "k": k, "w": w}
                        u += 1


def _grid_iv(d_max=21, k_max=8):
    for d in range(3, d_max + 1, 2):
        for k in range(2, k_max + 1, 2):
            h = two_adic(2 * d + 2)
            v = two_adic(k)
            shift = h + v - k  # the exact 2-exponent i*w/j must equal
            if shift < 1:
                continue
            for g, w in power_representations(_family_power("IV", d, k)):
                if g % 2 == 0 or g < 3:
                    continue
                for j in range(1, w + 1):
                    if w % j or (shift * j) % w:
                        continue
                    i = shift * j // w
                    u = 1
                    while _fits(
                        2 ** (i * u - 1) * g ** (j * u) * (d + 2), k
                    ):
                        yield {
                            "g": g, "i": i, "j": j, "u": u, "d": d, "k": k,
                            "w": w,
                        }
                        u += 1


def criterion_5() -> tuple[bool, str]:
    """All four family grids generate, verify, and roundtrip; and the
    even-base family rejects d = 1."""
    counts = {}
    failures = []

    def run(tag, combos):
        counts[tag] = 0
        for params in combos:
            counts[tag] += 1
            member = gen_family(tag, params)
            wit = in_F(member)
            if wit is None or wit.family != tag:
                failures.append(f"{tag} {params}: no witness")
                continue
            if gen_family(tag, wit.params) != member:
                failures.append(f"{tag} {params}: witness regenerates badly")

    run("I", ({"u": u, "h": h} for u in range(1, 9) for h in range(2, 9)))
    run("II", ({"t": t} for t in range(1, 9)))
    run("III", _grid_iii())
    run("IV", _grid_iv())

    if counts["III"] < 100 or counts["IV"] < 20:
        failures.append(f"suspiciously small grids: {counts}")

    try:
        gen_family("IV", {"g": 5, "i": 1, "j": 1, "u": 1, "d": 1, "k": 4, "w": 1})
        failures.append("IV accepted d = 1")
    except FamilyConstraintError:
        pass

    ok = not failures
    summary = ", ".join(f"{tag}: {n}" for tag, n in sorted(counts.items()))
    detail = "; ".join(failures) if failures else f"grid sizes {summary}"
    return ok, detail


# ---------------------------------------------------------------------------
# 6: arithmetic oracle grids
# ---------------------------------------------------------------------------


def _check_least_index_grid(r_max=30, m_max=200, cap=500) -> int:
    """Every divisibility hit index is a multiple of the least index."""
    checked = 0
    for r in range(2, r_max + 1):
        for s in range(1, r):
            if math.gcd(r, s) != 1:
                continue
            for m in range(2, m_max + 1):
                if math.gcd(m, r * s) != 1:
                    continue
                rm, sm = r % m, s % m
                rt, st = 1, 1
                hits0, hits1 = [], []
                for t in range(1, cap + 1):
                    rt = rt * rm % m
                    st = st * sm % m
                    if rt == st:
                        hits0.append(t)
                    if (rt + st) % m == 0:
                        hits1.append(t)
                for eps, hits in ((0, hits0), (1, hits1)):
                    t0 = least_index(r, s, m, eps, cap=cap)
                    first = hits[0] if hits else None
                    if t0 != first:
                        raise AssertionError(
                            f"least index {t0} vs scan {first} for "
                            f"R={r} S={s} M={m} eps={eps}"
                        )
                    if t0 is not None and any(t % t0 for t in hits):
                        raise AssertionError(
                            f"non-multiple hit for R={r} S={s} M={m} eps={eps}"
                        )
                    checked += 1
    return checked


def _check_scan_rigidity(r_max=60, nmax=12) -> int:
    checked = 0
    for r in range(2, r_max + 1):
        for s in range(1, r):
            if math.gcd(r, s) != 1:
                continue
            total = r + s
            want_minus = []
            if total & (total - 1) == 0 and total >= 4:
                want_minus = [(1, 2)]
            got_minus = same_prime_set_scan(r, s, nmax, -1)
            if got_minus != want_minus:
                raise AssertionError(
                    f"difference scan for R={r} S={s}: {got_minus}"
                )
            want_plus = [(1, 3)] if (r, s) == (2, 1) else []
            got_plus = same_prime_set_scan(r, s, nmax, 1)
            if got_plus != want_plus:
                raise AssertionError(f"sum scan for R={r} S={s}: {got_plus}")
            checked += 1
    return checked


def _check_valuation_growth(r_max=30) -> int:
    checked = 0
    for p in (3, 5, 7, 11, 13):
        for r in range(2, r_max + 1):
            for s in range(1, r):
                if math.gcd(r, s) != 1:
                    continue
                for n1 in range(1, 5):
                    if valuation(p, r**n1 - s**n1) == 0:
                        continue
                    for ratio in range(1, 9):
                        v1, v2, divides = lte_odd(r, s, p, n1, n1 * ratio)
                        if not divides:
                            raise AssertionError(
                                f"growth rule failed for R={r} S={s} p={p} "
                                f"n1={n1} n2={n1 * ratio}"
                            )
                        if v2 != valuation(p, r ** (n1 * ratio) - s ** (n1 * ratio)):
                            raise AssertionError("valuation mismatch")
                        checked += 1
    return checked


def _check_two_adic_closed_form(r_max=99) -> int:
    checked = 0
    for r in range(3, r_max + 1, 2):
        for s in range(1, r, 2):
            if math.gcd(r, s) != 1:
                continue
            for n1 in range(1, 5):
                for ratio in range(1, 9):
                    n2 = n1 * ratio
                    vm, vp = two_adic_profile(r, s, n1, n2)
                    if vm != two_adic(r**n2 - s**n2):
                        raise AssertionError(
                            f"minus valuation for R={r} S={s} n1={n1} n2={n2}"
                        )
                    if vp != two_adic(r**n2 + s**n2):
                        raise AssertionError(
                            f"plus valuation for R={r} S={s} n1={n1} n2={n2}"
                        )
                    checked += 1
    return checked


def criterion_6() -> tuple[bool, str]:
    """The index, valuation-growth, two-adic, and rigidity oracles hold
    exhaustively on their stated grids."""
    try:
        counts = (
            _check_least_index_grid(),
            _check_scan_rigidity(),
            _check_valuation_growth(),
            _check_two_adic_closed_form(),
        )
    except AssertionError as exc:
        return False, str(exc)
    return True, (
        f"{counts[0]} index cases, {counts[1]} scan pairs, "
        f"{counts[2]} growth cases, {counts[3]} two-adic cases"
    )


# ---------------------------------------------------------------------------
# 7: direct search recall and determinism
# ---------------------------------------------------------------------------


def _fits_box(a: int, b: int, c: int, sols, bounds: SearchBounds) -> bool:
    """Whether (a, b, c) with these two solutions is one identity pair
    of the direct search box, with a carrying g in the first identity.

    g carries every shared prime, so it is a power G^k of the primitive
    base G that g_decomposition gives; then a = g^alpha * a1, b =
    g^beta * b1, c = g^gamma * c1.  The solution whose a-term holds more
    of g gives g^w1 * a1^x1 + b1^y1 = c1^z1, the other gives
    a1^x2 + g^w2 * b1^y2 = c1^z2.  A unit a1 leaves x symbolic but
    forces alpha = 1; a unit b1 takes only y = 1.
    """
    t = build_triple(a, b, c)
    if not t.common_primes:
        return False
    try:
        d = g_decomposition(t, t.common_primes)
    except ProportionalityError:
        return False
    a1, b1, c1 = t.a1, t.b1, t.c1
    if a1 > bounds.a1_max or b1 > bounds.b1_max or c1 < 2 or a1 == b1 == 1:
        return False
    top = math.gcd(d.a_exp, d.b_exp, d.c_exp)
    for k in range(1, top + 1):
        alpha, beta, gamma = d.a_exp // k, d.b_exp // k, d.c_exp // k
        if top % k or d.g**k > bounds.g_max or (a1 == 1 and alpha != 1):
            continue
        top_exp = {}
        for x, y, z in sols:
            va, vb, vc = alpha * x, beta * y, gamma * z
            if va > vb == vc:
                side, w = "left", va - vb
            elif vb > va == vc:
                side, w = "right", vb - va
            else:
                break
            if b1 == 1 and y != 1:
                break
            exps = [w, z] + ([x] if a1 > 1 else []) + ([y] if b1 > 1 else [])
            top_exp[side] = max(exps)
        else:
            if len(top_exp) == 2 and max(top_exp.values()) <= bounds.exp_max:
                return True
    return False


def _row_fits_box(row: tuple[int, ...], bounds: SearchBounds) -> bool:
    """Whether a nine-tuple row is an identity pair of the box in either base order.

    canonical_nine reduces every base to its primitive root, so a row's
    base may enter the box as a power: a as a^i for each i dividing both
    x1 and x2, and b and c likewise.  Each of these forms is tried.
    """
    a, b, c, x1, y1, z1, x2, y2, z2 = row
    powers = [
        [k for k in range(1, n + 1) if n % k == 0]
        for n in (math.gcd(x1, x2), math.gcd(y1, y2), math.gcd(z1, z2))
    ]
    for i, j, k in product(*powers):
        sols = ((x1 // i, y1 // j, z1 // k), (x2 // i, y2 // j, z2 // k))
        swapped = tuple((y, x, z) for x, y, z in sols)
        A, B, C = a**i, b**j, c**k
        if _fits_box(A, B, C, sols, bounds) or _fits_box(B, A, C, swapped, bounds):
            return True
    return False


def _box_rows(bounds: SearchBounds) -> set[tuple[int, ...]]:
    """Canonical catalogue rows that the direct search box must recall."""
    return {
        canonical_nine(make_nine_tuple(*row)).as_tuple()
        for row in KNOWN_ANOMALOUS_ROWS
        if _row_fits_box(row, bounds)
    }


def criterion_7() -> tuple[bool, str]:
    """The boxed search returns exactly the catalogue rows whose identity
    pair fits the box, identically across 1, 4, and 8 workers."""
    bounds = SearchBounds(a1_max=20, g_max=20, b1_max=200, exp_max=6)
    runs = {
        n: [nine.as_tuple() for nine in direct_search(bounds=bounds, workers=n)]
        for n in (1, 4, 8)
    }
    if not (runs[1] == runs[4] == runs[8]):
        return False, "worker counts disagree"
    rows = set(runs[1])
    expected = _box_rows(bounds)
    if rows != expected:
        return False, (
            f"missing rows: {sorted(expected - rows)}, "
            f"unexpected rows: {sorted(rows - expected)}"
        )
    return True, f"{len(rows)} rows, exactly the catalogue rows in the box, 3 worker counts agree"


# ---------------------------------------------------------------------------
# 8: random sweep class bound
# ---------------------------------------------------------------------------


def _all_powers_of_two(a: int, b: int, c: int) -> bool:
    return all(as_power_of(2, n) is not None for n in (a, b, c))


def criterion_8() -> tuple[bool, str]:
    """10^4 seeded random shared-factor triples: never more than two
    classes, and every two-class triple is catalogued or in a family."""
    rng = random.Random(2718281828)
    samples = 0
    two_class = 0
    while samples < 10_000:
        a = rng.randint(2, 500)
        b = rng.randint(2, 500)
        c = rng.randint(2, 500)
        if math.gcd(a, b) == 1:
            continue
        if _all_powers_of_two(a, b, c):
            continue
        samples += 1
        sset = enumerate_solutions(build_triple(a, b, c), 128)
        n = count_N(sset)
        if n > 2:
            return False, f"({a}, {b}, {c}) has N = {n}"
        if n == 2:
            two_class += 1
            r1, r2 = sset.classes[0][0], sset.classes[1][0]
            nine = make_nine_tuple(a, b, c, r1.x, r1.y, r1.z, r2.x, r2.y, r2.z)
            verdict = classify_nine(nine)
            if verdict.kind != "family" and not is_known_anomalous(nine):
                return False, f"unexplained two-class triple ({a}, {b}, {c})"
    return True, f"10000 triples, {two_class} with two classes, all explained"


# ---------------------------------------------------------------------------
# 9: differential enumeration check
# ---------------------------------------------------------------------------


def _naive_solutions(a: int, b: int, c: int, max_bits: int):
    """Quadratic double loop over (x, y), testing sums as powers of c."""
    limit = 1 << max_bits
    found = []
    x = 1
    while a**x < limit:
        y = 1
        while a**x + b**y <= limit:
            total = a**x + b**y
            z = as_power_of(c, total)
            if z is not None and total < limit:
                found.append((x, y, z))
            y += 1
        x += 1
    return sorted(found, key=lambda s: (s[2], s[0], s[1]))


def criterion_9() -> tuple[bool, str]:
    """Enumeration agrees with the naive oracle on 500 random triples."""
    rng = random.Random(31415926)
    for i in range(500):
        a = rng.randint(2, 100)
        b = rng.randint(2, 100)
        c = rng.randint(2, 100)
        fast = _sols(enumerate_solutions(build_triple(a, b, c), 40))
        slow = _naive_solutions(a, b, c, 40)
        if fast != slow:
            return False, f"({a}, {b}, {c}): {fast} vs {slow}"
    return True, "500 triples agree with the naive oracle"


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

CHECKS = (
    (1, "three-class-coprime-showcase", criterion_1),
    (2, "sporadic-catalog-rows", criterion_2),
    (3, "equal-base-correspondence", criterion_3),
    (4, "many-solution-shapes", criterion_4),
    (5, "family-generator-grids", criterion_5),
    (6, "arithmetic-oracle-grids", criterion_6),
    (7, "direct-search-recall", criterion_7),
    (8, "random-sweep-class-bound", criterion_8),
    (9, "enumeration-differential", criterion_9),
)


def run_check(number: int) -> CheckResult:
    """Run one numbered check, timing it and capturing any blow-up."""
    for num, name, func in CHECKS:
        if num == number:
            start = time.perf_counter()
            try:
                passed, detail = func()
            except Exception as exc:  # surface, never hide, a crash
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(
                num, name, passed, detail, time.perf_counter() - start
            )
    raise ValueError(f"no check numbered {number}")
