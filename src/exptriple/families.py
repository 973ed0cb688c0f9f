"""The four infinite families of two-solution nine-tuples.

A nine-tuple packs a base triple with two distinct verified solutions.
Four parametric families generate such nine-tuples endlessly:

  I   (2, 2^u (2^(h-1) - 1), 2^u (2^(h-1) + 1))        u > 0, h > 1
      solutions (u+1, 1, 1) and (2u+h+1, 2, 2)
  II  (2 * 3^t, 3, 3)                                   t > 0
      solutions (1, t, t+1) and (3, 3t, 3t+2)
  III (g^j, g^(ju) d, g^(ju) (d+1))                     g odd > 1
      solutions (u, 1, 1) and (ku + w/j, k, k)
      with (d+1)^k - d^k = g^w, k > 1, j | w
  IV  (2^i g^j, 2^(iu-1) g^(ju) d, 2^(iu-1) g^(ju) (d+2))
      solutions (u, 1, 1) and (ku + w/j, k, k)
      with g odd > 1, d odd > 1, k even, g^w the greatest odd
      divisor of (d+2)^k - d^k, j | w, and k - v = h - iw/j where
      2^h exactly divides 2d+2 and 2^v exactly divides k

Family IV requires g > 1; allowing g = 1 would reproduce every family I
member with shifted parameters, so the constraint keeps I and IV
disjoint.

Membership comes in two strengths, both decided by the generators.
Given the two term multisets of a nine-tuple's solutions, a proposer
per family reads candidate parameter maps off the term values by exact
root and valuation extractions, checking no family constraint itself;
gen_family rejects every map that breaks one, and a map is kept only
when its member has exactly the given multisets.  Each parameter is
pinned down by the terms, so running out of maps is a definitive "not
in the family", not a search giving up.  in_family asks about the
input's multisets in either solution order; in_F, which asks whether
the ordered nine-tuple literally equals a generated member, keeps only
the members equal to it.  Both report the lexicographically least map.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

from .arith import as_power_of, power_representations, two_adic
from .errors import FamilyConstraintError
from .solve import Solution

FAMILY_TAGS = ("I", "II", "III", "IV")

_PARAM_KEYS = {
    "I": ("u", "h"),
    "II": ("t",),
    "III": ("g", "j", "u", "d", "k", "w"),
    "IV": ("g", "i", "j", "u", "d", "k", "w"),
}


class NineTuple(NamedTuple):
    """A base triple with two distinct verified solutions."""

    a: int
    b: int
    c: int
    s1: Solution
    s2: Solution

    def as_tuple(self) -> tuple[int, int, int, int, int, int, int, int, int]:
        return (
            self.a, self.b, self.c,
            self.s1.x, self.s1.y, self.s1.z,
            self.s2.x, self.s2.y, self.s2.z,
        )

    def term_pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two left-hand term multisets, each as a sorted pair."""
        return (_terms(self.a, self.b, self.s1), _terms(self.a, self.b, self.s2))

    def solutions_correspond(self) -> bool:
        first, second = self.term_pairs()
        return first == second

    def __str__(self) -> str:
        return "(%d,%d,%d, %d,%d,%d, %d,%d,%d)" % self.as_tuple()


def _terms(a: int, b: int, s: Solution) -> tuple[int, int]:
    ax, by = a**s.x, b**s.y
    return (ax, by) if ax <= by else (by, ax)


def make_nine_tuple(
    a: int, b: int, c: int,
    x1: int, y1: int, z1: int,
    x2: int, y2: int, z2: int,
) -> NineTuple:
    """Validate and pack a nine-tuple; both solutions must check exactly."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v < 2:
            raise ValueError(f"base {name} must be at least 2, got {v}")
    if (x1, y1, z1) == (x2, y2, z2):
        raise ValueError("the two solutions must be distinct ordered triples")
    for x, y, z in ((x1, y1, z1), (x2, y2, z2)):
        if x < 1 or y < 1 or z < 1:
            raise ValueError(f"exponents must be positive, got {(x, y, z)}")
        if a**x + b**y != c**z:
            raise ValueError(
                f"({x},{y},{z}) does not solve {a}^x + {b}^y = {c}^z"
            )
    return NineTuple(a, b, c, Solution(x1, y1, z1), Solution(x2, y2, z2))


class FamilyWitness(NamedTuple):
    """Proof of family membership: a generated member plus the matching.

    matching[i] is the index (0 or 1) of the input solution whose term
    multiset equals that of member solution i; (0, 1) means same order.
    """

    family: str
    params: dict[str, int]
    member: NineTuple
    matching: tuple[int, int]


def _require_keys(tag: str, params: dict[str, int]) -> None:
    want = set(_PARAM_KEYS[tag])
    got = set(params)
    extra = got - want - ({"h", "v"} if tag == "IV" else set())
    if extra or not want <= got:
        raise ValueError(
            f"family {tag} takes parameters {sorted(want)}, got {sorted(got)}"
        )


def gen_family(tag: str, params: dict[str, int]) -> NineTuple:
    """Instantiate one family member, naming every violated constraint."""
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown family tag {tag!r}")
    _require_keys(tag, params)
    if tag == "I":
        return _gen_i(params["u"], params["h"])
    if tag == "II":
        return _gen_ii(params["t"])
    if tag == "III":
        return _gen_iii(
            params["g"], params["j"], params["u"], params["d"], params["k"], params["w"]
        )
    return _gen_iv(
        params["g"], params["i"], params["j"], params["u"],
        params["d"], params["k"], params["w"],
        params.get("h"), params.get("v"),
    )


def _gen_i(u: int, h: int) -> NineTuple:
    bad = []
    if u < 1:
        bad.append("u must be positive")
    if h < 2:
        bad.append("h must be at least 2")
    if bad:
        raise FamilyConstraintError("I", bad)
    half = 1 << (h - 1)
    return make_nine_tuple(
        2, (half - 1) << u, (half + 1) << u,
        u + 1, 1, 1,
        2 * u + h + 1, 2, 2,
    )


def _gen_ii(t: int) -> NineTuple:
    if t < 1:
        raise FamilyConstraintError("II", ["t must be positive"])
    return make_nine_tuple(2 * 3**t, 3, 3, 1, t, t + 1, 3, 3 * t, 3 * t + 2)


def _gen_iii(g: int, j: int, u: int, d: int, k: int, w: int) -> NineTuple:
    bad = []
    if g < 3 or g % 2 == 0:
        bad.append("g must be odd and exceed 1")
    for name, v in (("j", j), ("u", u), ("d", d), ("w", w)):
        if v < 1:
            bad.append(f"{name} must be positive")
    if k < 2:
        bad.append("k must exceed 1")
    if bad:
        raise FamilyConstraintError("III", bad)
    if (d + 1) ** k - d**k != g**w:
        bad.append("g^w must equal (d+1)^k - d^k")
    if w % j:
        bad.append("j must divide w")
    if bad:
        raise FamilyConstraintError("III", bad)
    base = g ** (j * u)
    return make_nine_tuple(
        g**j, base * d, base * (d + 1),
        u, 1, 1,
        k * u + w // j, k, k,
    )


def _gen_iv(
    g: int, i: int, j: int, u: int, d: int, k: int, w: int,
    h: int | None = None, v: int | None = None,
) -> NineTuple:
    bad = []
    if g < 3 or g % 2 == 0:
        bad.append("g must be odd and exceed 1")
    for name, val in (("i", i), ("j", j), ("u", u), ("w", w)):
        if val < 1:
            bad.append(f"{name} must be positive")
    if d < 1 or d % 2 == 0:
        bad.append("d must be odd and positive")
    elif d == 1:
        bad.append("d must exceed 1")
    if k < 2 or k % 2:
        bad.append("k must be even and positive")
    if bad:
        raise FamilyConstraintError("IV", bad)
    diff = (d + 2) ** k - d**k
    odd_part = diff >> two_adic(diff)
    if g**w != odd_part:
        bad.append("g^w must equal the greatest odd divisor of (d+2)^k - d^k")
    if w % j:
        bad.append("j must divide w")
    want_h = two_adic(2 * d + 2)
    want_v = two_adic(k)
    if h is not None and h != want_h:
        bad.append(f"h must be {want_h}, the exact 2-exponent of 2d+2")
    if v is not None and v != want_v:
        bad.append(f"v must be {want_v}, the exact 2-exponent of k")
    if not bad and k - want_v != want_h - i * w // j:
        bad.append("k - v must equal h - iw/j")
    if bad:
        raise FamilyConstraintError("IV", bad)
    base = 2 ** (i * u - 1) * g ** (j * u)
    return make_nine_tuple(
        2**i * g**j, base * d, base * (d + 2),
        u, 1, 1,
        k * u + w // j, k, k,
    )


def _param_key(params: dict[str, int]) -> tuple[int, ...]:
    # lexicographic order over alphabetically sorted parameter names
    return tuple(params[k] for k in sorted(params))


def _try_gen(tag: str, params: dict[str, int]) -> NineTuple | None:
    try:
        return gen_family(tag, params)
    except FamilyConstraintError:
        return None


# ---------------------------------------------------------------------------
# membership: the proposers suggest parameter maps, gen_family decides
# ---------------------------------------------------------------------------

# a parameter map and the member it generates
_Found = tuple[dict[str, int], NineTuple]


def in_F(nine: NineTuple) -> FamilyWitness | None:
    """Exact membership: does the ordered nine-tuple equal a member?

    Of the generated members whose term multisets are the tuple's, keep
    those that equal the tuple itself.  When several maps regenerate the
    same member (a base can be a perfect power in more than one way), the
    lexicographically least map wins, comparing values in alphabetical
    parameter order.
    """
    pairs = nine.term_pairs()
    for tag in FAMILY_TAGS:
        best = _least(found for found in _members(tag, *pairs) if found[1] == nine)
        if best is not None:
            return FamilyWitness(tag, best[0], nine, (0, 1))
    return None


def in_family(nine: NineTuple) -> FamilyWitness | None:
    """Membership up to solution correspondence, decided in closed form.

    Tries both pairings of the input solutions against a member's two
    solutions.  All candidate parameters are extracted exactly from the
    term values (roots, 2-adic valuations, perfect-power tests), so a
    None result is a definitive non-membership, not an exhausted search.
    Within one family the lexicographically least parameter map wins;
    families are tried in order I, II, III, IV.
    """
    first, second = nine.term_pairs()
    pairings = (((first, second), (0, 1)), ((second, first), (1, 0)))
    for tag in FAMILY_TAGS:
        for pair, matching in pairings:
            best = _least(_members(tag, *pair))
            if best is not None:
                return FamilyWitness(tag, best[0], best[1], matching)
    return None


def _least(found: Iterator[_Found]) -> _Found | None:
    return min(found, key=lambda pm: _param_key(pm[0]), default=None)


def _members(
    tag: str, first: tuple[int, int], second: tuple[int, int]
) -> Iterator[_Found]:
    """Every (params, member) of the family whose member's term_pairs()
    equal (first, second).

    The proposer only reads candidate maps off the terms; gen_family
    rejects every map that breaks a family constraint, and the term
    comparison rejects every member that is not the input's.
    """
    for p, q in (first, first[::-1]):
        for params in _PROPOSERS[tag](p, q, second):
            member = _try_gen(tag, params)
            if member is not None and member.term_pairs() == (first, second):
                yield params, member


def _divisors(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if n % m == 0]


# Each proposer takes the first solution's two terms in one order (p, q)
# and the second solution's terms, and yields every map whose member
# could have them; a comment names the terms it reads the map from.

def _propose_i(p: int, q: int, second: tuple[int, int]) -> Iterator[dict[str, int]]:
    # p = 2^(u+1), q = 2^u (2^(h-1) - 1)
    e = as_power_of(2, p)
    if e is not None:
        hm = as_power_of(2, (q >> (e - 1)) + 1)
        if hm is not None:
            yield {"u": e - 1, "h": hm + 1}


def _propose_ii(p: int, q: int, second: tuple[int, int]) -> Iterator[dict[str, int]]:
    # p = 3^t, q = 2 * 3^t
    t = as_power_of(3, p)
    if t is not None:
        yield {"t": t}


def _propose_iii(p: int, q: int, second: tuple[int, int]) -> Iterator[dict[str, int]]:
    # p = g^(ju), q = p d, and one term of second is q^k
    d = q // p
    for q2 in second:
        k = as_power_of(q, q2)
        if k is None:
            continue
        target = (d + 1) ** k - d**k            # g^w
        for g, e in power_representations(p):   # e = ju
            w = as_power_of(g, target)
            if w is not None:
                for j in _divisors(e):
                    yield {"g": g, "j": j, "u": e // j, "d": d, "k": k, "w": w}


def _propose_iv(p: int, q: int, second: tuple[int, int]) -> Iterator[dict[str, int]]:
    # p = 2^(iu) g^(ju), q = p d / 2, and one term of second is q^k
    big_e = two_adic(p)                         # iu
    d = q // (p >> 1)
    for q2 in second:
        k = as_power_of(q, q2)
        if k is None:
            continue
        diff = (d + 2) ** k - d**k
        odd_part = diff >> two_adic(diff)       # g^w
        for g, m in power_representations(p >> big_e):     # m = ju
            w = as_power_of(g, odd_part) if g > 1 else None
            if w is not None:
                for u in _divisors(math.gcd(big_e, m)):
                    yield {
                        "g": g, "i": big_e // u, "j": m // u, "u": u, "d": d,
                        "k": k, "w": w, "h": two_adic(2 * d + 2), "v": two_adic(k),
                    }


_PROPOSERS = {
    "I": _propose_i, "II": _propose_ii, "III": _propose_iii, "IV": _propose_iv,
}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class Classification(NamedTuple):
    """Verdict for a nine-tuple: a family witness or anomalous."""

    kind: str                       # "family" or "anomalous"
    witness: FamilyWitness | None

    @property
    def family(self) -> str | None:
        return self.witness.family if self.witness else None


def classify_nine(nine: NineTuple) -> Classification:
    """Decide family membership or anomaly for a two-solution nine-tuple.

    Requires gcd(a, b) > 1 and two non-corresponding solutions; inputs
    whose solutions share a term multiset are rejected since they count
    as a single solution class.
    """
    if math.gcd(nine.a, nine.b) == 1:
        raise ValueError("classification requires gcd(a, b) > 1")
    if nine.solutions_correspond():
        raise ValueError(
            "solutions correspond (same term multiset); "
            "a nine-tuple needs two genuinely different solution classes"
        )
    witness = in_family(nine)
    if witness is not None:
        return Classification("family", witness)
    return Classification("anomalous", None)


def canonical_nine(nine: NineTuple) -> NineTuple:
    """Normalize a nine-tuple so equivalent records compare equal.

    Three normalizations are applied, none of which changes the two term
    values of either solution:

    * every base that is a perfect power is replaced by its primitive
      root, multiplying that base's exponents (a scales x, b scales y,
      c scales z) by the extracted power;
    * the bases a and b are put in non-decreasing order, swapping each
      solution's x and y when a and b trade places;
    * the two solutions are sorted by their (z, x, y) key.

    When a == b after reduction both orientations describe the same
    data, so the lexicographically smaller tuple is chosen.
    """
    ra, ea = power_representations(nine.a)[-1]
    rb, eb = power_representations(nine.b)[-1]
    rc, ec = power_representations(nine.c)[-1]
    sols = [
        Solution(s.x * ea, s.y * eb, s.z * ec) for s in (nine.s1, nine.s2)
    ]
    flipped = [Solution(s.y, s.x, s.z) for s in sols]
    if ra < rb:
        picks = [(ra, rb, sols)]
    elif rb < ra:
        picks = [(rb, ra, flipped)]
    else:
        picks = [(ra, rb, sols), (rb, ra, flipped)]
    candidates = []
    for a, b, pair in picks:
        first, second = sorted(pair, key=Solution.key)
        candidates.append(
            (a, b, rc, first.x, first.y, first.z, second.x, second.y, second.z)
        )
    return make_nine_tuple(*min(candidates))
