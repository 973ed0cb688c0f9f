"""Reference computations made apart from the program.

Nothing here imports exptriple.  Each oracle recomputes what a workload
must produce from first principles: trial division, exact integer roots,
naive double loops and the closed forms of the four families.
"""

from __future__ import annotations

import math
from typing import Iterable

# The ten sporadic nine-tuples (a, b, c, x1, y1, z1, x2, y2, z2) of the
# paper's table, rows 1 to 10 in the table's order.
CATALOGUE: tuple[tuple[int, ...], ...] = (
    (2, 6, 38, 1, 2, 1, 5, 1, 1),
    (2, 88, 6, 5, 2, 5, 7, 1, 3),
    (3, 6, 15, 2, 1, 1, 2, 3, 2),
    (3, 6, 7857, 4, 5, 1, 8, 4, 1),
    (3, 1215, 6, 4, 1, 4, 8, 1, 5),
    (5, 275, 280, 1, 1, 1, 7, 1, 2),
    (5, 280, 78405, 1, 2, 1, 7, 1, 1),
    (6, 15, 231, 1, 2, 1, 3, 1, 1),
    (30, 70, 4930, 1, 2, 1, 5, 2, 2),
    (30, 4930, 24304930, 1, 2, 1, 5, 1, 1),
)


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------


def factor(n: int) -> dict[int, int]:
    """Prime factorization by plain trial division (n >= 1)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def radical(n: int) -> int:
    return math.prod(factor(n))


def iroot(n: int, e: int) -> int:
    """Floor of the e-th root of n >= 0, by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // e + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**e <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def primitive_root(n: int) -> tuple[int, int]:
    """(r, e) with r**e == n and e as large as possible (n >= 2)."""
    for e in range(n.bit_length(), 1, -1):
        r = iroot(n, e)
        if r >= 2 and r**e == n:
            return r, e
    return n, 1


def power_exponent(base: int, n: int) -> int | None:
    """e >= 1 with base**e == n, by repeated division, else None."""
    e = 0
    while n > 1 and n % base == 0:
        n //= base
        e += 1
    return e if n == 1 and e >= 1 else None


def substitutes(a: int, b: int, c: int, x: int, y: int, z: int) -> bool:
    return min(x, y, z) >= 1 and a**x + b**y == c**z


def terms(a: int, b: int, x: int, y: int) -> tuple[int, int]:
    return tuple(sorted((a**x, b**y)))


def normalize(row: Iterable[int]) -> tuple[int, ...]:
    """Primitive bases, a <= b, solutions sorted by (z, x, y).

    None of these steps changes a term value, so two descriptions of one
    nine-tuple normalize to the same row.
    """
    a, b, c, x1, y1, z1, x2, y2, z2 = row
    (ra, ea), (rb, eb), (rc, ec) = primitive_root(a), primitive_root(b), primitive_root(c)
    sols = [(x1 * ea, y1 * eb, z1 * ec), (x2 * ea, y2 * eb, z2 * ec)]
    options = []
    for lo, hi, pair in ((ra, rb, sols), (rb, ra, [(y, x, z) for x, y, z in sols])):
        if lo <= hi:
            s, t = sorted(pair, key=lambda s: (s[2], s[0], s[1]))
            options.append((lo, hi, rc, *s, *t))
    return min(options)


# ---------------------------------------------------------------------------
# direct search: which catalogue rows a box must recall
# ---------------------------------------------------------------------------


def _box_fits(a, b, c, sols, box) -> bool:
    """Whether one orientation of a row is an identity pair inside the box.

    a = g^alpha a1, b = g^beta b1, c = g^gamma c1 with g carrying every
    shared prime.  The solution whose a-term has the larger g-valuation
    gives g^w1 a1^x1 + b1^y1 = c1^z1, the other a1^x2 + g^w2 b1^y2 = c1^z2.
    g may be any power G^m of the primitive carrier G.
    """
    g_max, a1_max, b1_max, exp_max = box
    fa, fb, fc = factor(a), factor(b), factor(c)
    shared = sorted(set(fa) & set(fb) & set(fc))
    if not shared or set(fa) & set(fb) != set(shared):
        return False
    vecs = {p: (fa[p], fb[p], fc[p]) for p in shared}
    first = vecs[shared[0]]
    k0 = math.gcd(*first)
    prim = tuple(v // k0 for v in first)
    weights = {}
    for p, v in vecs.items():
        k = math.gcd(*v)
        if tuple(e // k for e in v) != prim:
            return False
        weights[p] = k
    W = math.gcd(*weights.values())
    G = math.prod(p ** (k // W) for p, k in weights.items())
    for m in range(1, W + 1):
        if W % m:
            continue
        g = G**m
        al, be, ga = (W // m * e for e in prim)
        a1, b1, c1 = a // g**al, b // g**be, c // g**ga
        if g > g_max or a1 > a1_max or b1 > b1_max or c1 < 2 or (a1 == 1 and b1 == 1):
            continue
        kind = {}
        for x, y, z in sols:
            va, vb, vc = al * x, be * y, ga * z
            if va > vb == vc:
                kind["A"] = (va - vb, x, y, z)
            elif vb > va == vc:
                kind["B"] = (vb - va, x, y, z)
        if set(kind) != {"A", "B"}:
            continue
        exps = []
        for w, x, y, z in kind.values():
            exps += [w, z]
            if a1 > 1:
                exps.append(x)
            if b1 > 1:
                exps.append(y)
        if max(exps) <= exp_max:
            return True
    return False


def direct_expected(g_max: int, a1_max: int, b1_max: int, exp_max: int) -> set[tuple[int, ...]]:
    """Normalized catalogue rows that the direct search box must recall."""
    box = (g_max, a1_max, b1_max, exp_max)
    found = set()
    for a, b, c, x1, y1, z1, x2, y2, z2 in CATALOGUE:
        sols = [(x1, y1, z1), (x2, y2, z2)]
        swapped = [(y, x, z) for x, y, z in sols]
        if _box_fits(a, b, c, sols, box) or _box_fits(b, a, c, swapped, box):
            found.add(normalize((a, b, c, x1, y1, z1, x2, y2, z2)))
    return found


# ---------------------------------------------------------------------------
# generated pipeline: rows whose coprime equations fit the generator
# ---------------------------------------------------------------------------


def coprime_equations(row: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Each solution's terms divided by their gcd, as A <= B, C."""
    a, b, c, x1, y1, z1, x2, y2, z2 = row
    out = []
    for x, y, z in ((x1, y1, z1), (x2, y2, z2)):
        p, q, r = a**x, b**y, c**z
        d = math.gcd(p, q)
        out.append((min(p, q) // d, max(p, q) // d, r // d))
    return out


def pipeline_expected(rad_bound: int, height_bound: int) -> set[tuple[int, ...]]:
    found = set()
    for row in CATALOGUE:
        if all(
            C <= height_bound and radical(A) * radical(B) * radical(C) <= rad_bound
            for A, B, C in coprime_equations(row)
        ):
            found.add(normalize(row))
    return found


# ---------------------------------------------------------------------------
# census: enumeration, types, special shapes and families
# ---------------------------------------------------------------------------


def naive_solutions(a: int, b: int, c: int, max_bits: int) -> list[tuple[int, int, int]]:
    """Every (x, y, z) with a^x + b^y = c^z < 2^max_bits, by a double loop."""
    limit = 1 << max_bits
    found = []
    ax, x = a, 1
    while ax < limit:
        by, y = b, 1
        while ax + by < limit:
            z = power_exponent(c, ax + by)
            if z is not None:
                found.append((x, y, z))
            by *= b
            y += 1
        ax *= a
        x += 1
    return sorted(found, key=lambda s: (s[2], s[0], s[1]))


def class_count(a: int, b: int, sols: list[tuple[int, int, int]]) -> int:
    return len({terms(a, b, x, y) for x, y, _ in sols})


def type_tags(a: int, b: int, c: int, sol: tuple[int, int, int]) -> dict[int, str]:
    """Tag A, B, C or O at each prime shared by a, b and c."""
    fa, fb, fc = factor(a), factor(b), factor(c)
    x, y, z = sol
    tags = {}
    for p in sorted(set(fa) & set(fb) & set(fc)):
        va, vb, vc = fa[p] * x, fb[p] * y, fc[p] * z
        if va == vb == vc:
            tags[p] = "O"
        elif va > vb == vc:
            tags[p] = "A"
        elif vb > va == vc:
            tags[p] = "B"
        elif vc > va == vb:
            tags[p] = "C"
        else:
            tags[p] = "?"
    return tags


def is_special(a: int, b: int, c: int) -> bool:
    """The base shapes known to allow more than two solutions."""
    two = [power_exponent(2, n) for n in (a, b, c)]
    if None not in two:
        return True
    e = power_exponent(2, c & -c)
    odd = c >> e if e else c
    if a == b == 2 and e and odd == 3:
        return True
    if {a, b} == {2, 8} and e and e % 3 == 0 and odd == 3:
        return True
    if a == b and a >= 3 and power_exponent(2, a + 1) and c % 2 == 0:
        return c // 2 > 1 and power_exponent(a, c // 2) is not None
    return False


def _odd_part(n: int) -> tuple[int, int]:
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return n, v


def family_member(tag: str, params: dict[str, int]) -> tuple[int, ...] | None:
    """The nine-tuple the paper's closed form gives, or None if invalid."""
    p = params
    try:
        if tag == "I":
            u, h = p["u"], p["h"]
            if u < 1 or h < 2:
                return None
            half = 1 << (h - 1)
            return (2, (half - 1) << u, (half + 1) << u, u + 1, 1, 1, 2 * u + h + 1, 2, 2)
        if tag == "II":
            t = p["t"]
            return None if t < 1 else (2 * 3**t, 3, 3, 1, t, t + 1, 3, 3 * t, 3 * t + 2)
        g, j, u, d, k, w = (p[n] for n in ("g", "j", "u", "d", "k", "w"))
        if g < 3 or g % 2 == 0 or min(j, u, w) < 1 or w % j or k < 2:
            return None
        if tag == "III":
            if (d + 1) ** k - d**k != g**w:
                return None
            base = g ** (j * u)
            return (g**j, base * d, base * (d + 1), u, 1, 1, k * u + w // j, k, k)
        if tag == "IV":
            i = p["i"]
            if i < 1 or d < 3 or d % 2 == 0 or k % 2:
                return None
            odd, _ = _odd_part((d + 2) ** k - d**k)
            _, h = _odd_part(2 * d + 2)
            _, v = _odd_part(k)
            if g**w != odd or k - v != h - i * w // j:
                return None
            base = 2 ** (i * u - 1) * g ** (j * u)
            return (2**i * g**j, base * d, base * (d + 2), u, 1, 1, k * u + w // j, k, k)
    except KeyError:
        return None
    return None


def explained_by_family(row: tuple[int, ...], tag: str, params: dict[str, int]) -> bool:
    """The member named by (tag, params) has the row's two term multisets."""
    member = family_member(tag, params)
    if member is None:
        return False
    a, b, c, x1, y1, z1, x2, y2, z2 = member
    if not (substitutes(a, b, c, x1, y1, z1) and substitutes(a, b, c, x2, y2, z2)):
        return False
    want = {terms(a, b, x1, y1), terms(a, b, x2, y2)}
    a, b, c, x1, y1, z1, x2, y2, z2 = row
    return want == {terms(a, b, x1, y1), terms(a, b, x2, y2)}


CATALOGUE_NORMALIZED = frozenset(normalize(row) for row in CATALOGUE)
