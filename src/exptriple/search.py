"""Search for two-solution triples built from small constituent parts.

Two solutions of a^x + b^y = c^z over bases with a common factor force a
rigid linear structure on the exponents.  Write a = g^alpha * a1,
b = g^beta * b1, c = g^gamma * c1 with g, a1, b1, c1 pairwise coprime.
Dividing each solution by its g-content leaves a coprime Identity in
small numbers, whose carrier names the term that keeps g:

    g^w1 * a1^x1 + b1^y1 = c1^z1        (carrier "a")
    a1^x2 + g^w2 * b1^y2 = c1^z2        (carrier "b")

Matching one identity of each carrier over the same (g, a1, b1, c1) and
solving the linear exponent system recovers (alpha, beta, gamma), hence
a candidate triple whose two expected solutions are then verified by
full enumeration and classified.

Two front ends are offered.  The pipeline decomposes each given coprime
equation A + B = C into all of its identities in one call, with either
term carrying g in either slot, and pairs them globally; the direct
search scans every identity inside an explicit box of part sizes and
exponents.  Both deduplicate results under base swap and solution
reordering and return them in sorted order.
"""

from __future__ import annotations

import functools
import json
import math
import os
import warnings
from bisect import bisect_right
from collections import Counter
from contextlib import ExitStack
from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple, TextIO

from .arith import (
    POWER_SIEVES,
    Factored,
    _primes_up_to,
    factorize,
    introot,
    perfect_powers,
    power_representations,
)
from .classify import type_profile
from .config import RunConfig, SearchBounds, checked
from .errors import InputDataError, InternalInvariantError, UsageError
from .families import Classification, NineTuple, canonical_nine, classify_nine, make_nine_tuple
from .solve import Solution, enumerate_solutions
from .triple import build_triple

# ---------------------------------------------------------------------------
# equation records
# ---------------------------------------------------------------------------


class EquationRecord(NamedTuple):
    """A coprime equation A + B = C with the factorizations of A and B.

    gcd(A, B) = 1 together with A + B = C makes the three values
    pairwise coprime.
    """

    A: int
    B: int
    C: int
    fa: Factored
    fb: Factored

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.A, self.B, self.C)

    def __str__(self) -> str:
        return f"{self.A} + {self.B} = {self.C}"


def make_equation(A: int, B: int, C: int) -> EquationRecord:
    """Validate one equation A + B = C with coprime terms and factor A, B."""
    if A < 1 or B < 1:
        raise ValueError(f"terms must be positive, got {A} and {B}")
    if A + B != C:
        raise ValueError(f"{A} + {B} is {A + B}, not {C}")
    shared = math.gcd(A, B)
    if shared != 1:
        raise ValueError(f"terms {A} and {B} share the factor {shared}")
    return EquationRecord(A, B, C, factorize(A), factorize(B))


class IngestReport(NamedTuple):
    """Accepted equations plus per-line diagnostics for rejected input."""

    records: tuple[EquationRecord, ...]
    diagnostics: tuple[tuple[int, str], ...]

    @property
    def rejected(self) -> int:
        return len(self.diagnostics)

    def summary(self) -> str:
        return (
            f"{len(self.records)} equation(s) accepted, "
            f"{self.rejected} line(s) rejected"
        )


def ingest_equations(lines: Iterable[str]) -> IngestReport:
    """Parse "A B C" lines into equation records.

    Blank lines are skipped and '#' starts a comment.  A malformed or
    non-coprime line is reported with its line number and skipped; it
    never aborts the whole ingestion.
    """
    records: list[EquationRecord] = []
    diagnostics: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3:
            diagnostics.append((lineno, f"expected three integers, got {len(tokens)} token(s)"))
            continue
        try:
            A, B, C = (int(t, 10) for t in tokens)
        except ValueError:
            diagnostics.append((lineno, f"not an integer line: {line!r}"))
            continue
        try:
            records.append(make_equation(A, B, C))
        except ValueError as exc:
            diagnostics.append((lineno, str(exc)))
    return IngestReport(tuple(records), tuple(diagnostics))


def generate_equations(rad_bound: int, height_bound: int) -> list[EquationRecord]:
    """All coprime equations A + B = C with a bounded triple radical.

    Returns every A <= B with A + B = C, gcd(A, B) = 1, C <= height_bound
    and rad(A*B*C) <= rad_bound, sorted by (C, A).  Coprimality makes the
    triple radical the product of the three radicals.

    Why pairs of the two smallest radicals suffice: let the three
    radicals of such an equation be rX <= rY <= rZ, with product P <=
    rad_bound.  Then rX*rY <= rZ**2, so (rX*rY)**3 <= (rX*rY*rZ)**2 =
    P**2 <= rad_bound**2.  The generator therefore walks every unordered
    pair of values V, W (each at most height_bound) whose radicals are
    coprime and multiply to a t with t**3 <= rad_bound**2.  The third
    member is V + W when V and W are A and B, and |V - W| when one of
    them is C; it is kept when it has a radical of at most rad_bound // t.
    An equation found from several pairs is kept once.

    The cost follows the number of such pairs, whose radical product is
    at most rad_bound**(2/3), not the number of (A, C) pairs; the two
    candidates of a pair are one dict lookup each.  The bounds (1000,
    10**6) recall exactly catalogue rows 1-6 through run_pipeline.
    """
    if rad_bound < 6:
        raise UsageError("rad_bound below 6 admits no equation with C > 2")
    if height_bound < 2:
        raise UsageError("height_bound must be at least 2")

    primes = _primes_up_to(rad_bound)
    radical_of: dict[int, int] = {1: 1}

    def extend(idx: int, value: int, kernel: int) -> None:
        for i in range(idx, len(primes)):
            p = primes[i]
            if kernel * p > rad_bound or value * p > height_bound:
                break
            k = kernel * p
            v = value * p
            while v <= height_bound:
                radical_of[v] = k
                extend(i + 1, v, k)
                v *= p

    extend(0, 1, 1)

    # values grouped by radical, each group ascending
    by_radical: dict[int, list[int]] = {}
    for v in sorted(radical_of):
        by_radical.setdefault(radical_of[v], []).append(v)
    t_max = introot(rad_bound * rad_bound, 3)
    small = sorted(r for r in by_radical if r <= t_max)

    found: set[tuple[int, int]] = set()
    for i, r1 in enumerate(small):
        # r2 > r1, except for the pair of the two values 1
        for r2 in small[i + (r1 > 1) : bisect_right(small, t_max // r1)]:
            # coprime radicals make V and W, hence all three members, coprime
            if math.gcd(r1, r2) != 1:
                continue
            rest = rad_bound // (r1 * r2)
            for V in by_radical[r1]:
                for W in by_radical[r2]:
                    S = V + W
                    if S <= height_bound:
                        rs = radical_of.get(S)
                        if rs is not None and rs <= rest:
                            found.add((S, min(V, W)))
                    D = abs(V - W)
                    if D:
                        rd = radical_of.get(D)
                        if rd is not None and rd <= rest:
                            found.add((max(V, W), min(V, W, D)))
    return [make_equation(A, C - A, C) for C, A in sorted(found)]


# ---------------------------------------------------------------------------
# coprime identities
# ---------------------------------------------------------------------------


@checked
class Identity(NamedTuple):
    """Coprime identity with one term carrying g^w.

    carrier "a" is g^w * a1^x + b1^y = c1^z and carrier "b" is
    a1^x + g^w * b1^y = c1^z.  g, a1, b1 and c1 are pairwise coprime.
    x is None exactly when a1 = 1: the exponent of a unit base is then
    symbolic and gets resolved by the paired linear system.  A unit b1
    keeps the literal exponent 1 instead, since y enters the system as a
    known value.
    """

    carrier: str
    g: int
    w: int
    a1: int
    x: int | None
    b1: int
    y: int
    c1: int
    z: int

    def __post_init__(self) -> None:
        if self.carrier not in ("a", "b"):
            raise ValueError(f"carrier must be 'a' or 'b', got {self.carrier!r}")
        g, a1, b1, c1 = self.key()
        if g < 2:
            raise ValueError(f"g must be at least 2, got {g}")
        if a1 < 1 or b1 < 1:
            raise ValueError("a1 and b1 must be positive")
        if c1 < 2:
            raise ValueError(f"c1 must be at least 2, got {c1}")
        named = (("g", g), ("a1", a1), ("b1", b1), ("c1", c1))
        for (n1, v1), (n2, v2) in combinations(named, 2):
            shared = math.gcd(v1, v2)
            if shared != 1:
                raise ValueError(f"{n1} and {n2} share the factor {shared}")
        if (a1 == 1) != (self.x is None):
            raise ValueError("x must be None exactly when a1 is 1")
        exponents = [("w", self.w), ("y", self.y), ("z", self.z)]
        if self.x is not None:
            exponents.append(("x", self.x))
        for name, e in exponents:
            if e < 1:
                raise ValueError(f"exponent {name} must be positive, got {e}")
        a_term = 1 if self.x is None else a1**self.x
        b_term = b1**self.y
        if self.carrier == "a":
            a_term *= g**self.w
        else:
            b_term *= g**self.w
        if a_term + b_term != c1**self.z:
            raise ValueError(f"identity does not hold: {self}")

    def key(self) -> tuple[int, int, int, int]:
        return (self.g, self.a1, self.b1, self.c1)

    def __str__(self) -> str:
        gw = f"{self.g}^{self.w}"
        by = f"{self.b1}^{self.y}"
        cz = f"{self.c1}^{self.z}"
        if self.carrier == "a":
            ax = "" if self.a1 == 1 else f" * {self.a1}^{self.x}"
            return f"{gw}{ax} + {by} = {cz}"
        ax = "1" if self.a1 == 1 else f"{self.a1}^{self.x}"
        return f"{ax} + {gw} * {by} = {cz}"


def _carrier_splits(fac: Factored) -> list[tuple[int, int, int]]:
    """Every (g, w, g^w) with g primitive and g^w the full content of a prime subset."""
    factors = fac.factors
    splits = []
    for mask in range(1, 1 << len(factors)):
        chosen = [factors[i] for i in range(len(factors)) if mask >> i & 1]
        w = math.gcd(*(e for _, e in chosen)) if len(chosen) > 1 else chosen[0][1]
        g = math.prod(p ** (e // w) for p, e in chosen)
        content = math.prod(p**e for p, e in chosen)
        splits.append((g, w, content))
    return splits


def _identity_args(
    record: EquationRecord,
) -> Iterator[tuple[str, int, int, int, int | None, int, int, int, int]]:
    """The Identity(...) argument tuple of every identity of one record, unvalidated."""
    a_reps, b_reps, c_reps = (power_representations(n) for n in record.as_tuple())
    for term, fac, other_reps in ((record.A, record.fa, b_reps), (record.B, record.fb, a_reps)):
        for g, w, content in _carrier_splits(fac):
            for mb, me in power_representations(term // content):
                for pb, pe in other_reps:
                    for cb, ce in c_reps:
                        yield ("a", g, w, mb, None if mb == 1 else me, pb, pe, cb, ce)
                        yield ("b", g, w, pb, None if pb == 1 else pe, mb, me, cb, ce)


def decompose(record: EquationRecord) -> list[Identity]:
    """Every identity of one record, with each term in turn carrying g.

    Every nonempty subset of a carrying term's primes becomes one (g, w)
    split with g primitive and g^w the subset's full content.  The
    cofactor, the other term and C then range over all of their perfect
    power representations, exponent 1 included, and each combination is
    placed twice: with the carrier in the a-slot (carrier "a", the
    cofactor as a1) and in the b-slot (carrier "b", the cofactor as b1).
    A term equal to 1 carries nothing.
    """
    return [Identity(*args) for args in _identity_args(record)]


# ---------------------------------------------------------------------------
# pairing and the linear exponent system
# ---------------------------------------------------------------------------


@checked
class SolvedSystem(NamedTuple):
    """Positive integer solution of the paired exponent system.

    alpha, beta, gamma scale g into the three bases; x1 and x2 are the
    first exponents of the two expected solutions, resolved even when
    they were symbolic (a1 = 1) in the paired identities.
    """

    alpha: int
    beta: int
    gamma: int
    x1: int
    x2: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "x1", "x2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def solves(self, left: Identity, right: Identity) -> bool:
        """Whether the four exponent equations of pair_and_solve hold for the pair."""
        return (
            left.y * self.beta == left.z * self.gamma
            and right.y * self.beta == right.z * self.gamma + right.w
            and self.x1 * self.alpha == left.z * self.gamma + left.w
            and self.x2 * self.alpha == right.z * self.gamma
            and (left.a1 == 1 or (self.x1, self.x2) == (left.x, right.x))
        )


def _check_pair(left: Identity, right: Identity) -> None:
    """Raise ValueError unless left and right form a pair that can be solved."""
    if (left.carrier, right.carrier) != ("a", "b"):
        raise ValueError(
            f"pairing takes carrier 'a' then carrier 'b', got "
            f"{left.carrier!r} then {right.carrier!r}"
        )
    if left.key() != right.key():
        raise ValueError(
            f"identities pair only when they share (g, a1, b1, c1): "
            f"{left.key()} vs {right.key()}"
        )
    if left.a1 == 1 and left.b1 == 1:
        raise ValueError("a1 and b1 cannot both be 1; the pair carries no content")


def pair_and_solve(left: Identity, right: Identity) -> tuple[SolvedSystem | None, str | None]:
    """Solve the exponent system of a matched identity pair.

    left must have carrier "a" and right carrier "b", giving the first
    and the second expected solution.  The pair must agree on
    (g, a1, b1, c1), and a1 = b1 = 1 is rejected because both sides
    then collapse to pure powers of g.  Returns
    (system, None) on success and (None, reason) when no positive
    integral solution exists; reasons are "degenerate-denominator",
    "nonpositive-gamma", "non-integral-gamma", "non-integral-beta",
    "non-integral-alpha" and "gamma-mismatch".
    """
    _check_pair(left, right)

    w1, y1, z1 = left.w, left.y, left.z
    w2, y2, z2 = right.w, right.y, right.z

    den = y2 * z1 - z2 * y1
    if den == 0:
        return None, "degenerate-denominator"
    if den < 0:
        return None, "nonpositive-gamma"
    num = w2 * y1
    if num % den:
        return None, "non-integral-gamma"
    gamma = num // den
    if z1 * gamma % y1:
        return None, "non-integral-beta"
    beta = z1 * gamma // y1

    if left.a1 == 1:
        alpha = 1
        x1 = z1 * gamma + w1
        x2 = z2 * gamma
    else:
        x1, x2 = left.x, right.x
        den2 = x1 * z2 - z1 * x2
        if den2 == 0:
            return None, "degenerate-denominator"
        if den2 < 0:
            return None, "nonpositive-gamma"
        num2 = w1 * x2
        if num2 % den2:
            return None, "non-integral-gamma"
        if num2 // den2 != gamma:
            return None, "gamma-mismatch"
        if z2 * gamma % x2:
            return None, "non-integral-alpha"
        alpha = z2 * gamma // x2

    system = SolvedSystem(alpha, beta, gamma, x1, x2)
    if not system.solves(left, right):
        raise InternalInvariantError(
            f"solved system fails re-substitution: {system} for {left} / {right}"
        )
    return system, None


# ---------------------------------------------------------------------------
# reconstruction and verification
# ---------------------------------------------------------------------------


# Largest c^z, counted as c.bit_length() * z, that reconstruct_and_verify
# builds; larger candidates are rejected as "oversize" rather than built.
OVERSIZE_BITS = 600_000


class ReconstructionResult(NamedTuple):
    """Outcome of rebuilding a triple from a solved pair.

    reason is None exactly when the triple verified, and nine is set
    exactly then.  Failure reasons: "oversize" and "solution-count:<n>".
    """

    bases: tuple[int, int, int]
    nine: NineTuple | None
    reason: str | None


def reconstruct_and_verify(
    left: Identity, right: Identity, system: SolvedSystem, max_bits: int
) -> ReconstructionResult:
    """Rebuild (a, b, c) from a solved pair and verify it end to end.

    reason is None when the triple has exactly the two expected solutions
    below a bit bound covering both, and nine then keeps the pair's order;
    otherwise it is "oversize" (c^z above OVERSIZE_BITS) or
    "solution-count:<n>".  Before any power is formed, the pair must be
    one that pair_and_solve takes (else ValueError) and system must satisfy
    its four exponent equations (else InternalInvariantError).  A verified
    triple is then an anomalous pair, Type A then Type B, and anything else
    raises InternalInvariantError:

    * g, a1, b1, c1 are pairwise coprime, so the primes common to a, b, c
      are those of g.  At each, with e = v_p(g), the equations make the
      valuations of (a^x, b^y, c^z) e * (z1 gamma + w1, z1 gamma, z1 gamma)
      in solution 1, Type A, and e * (z2 gamma, z2 gamma + w2, z2 gamma)
      in solution 2, Type B.  So the solutions differ (w1 >= 1), and they
      do not correspond: that needs a^x1 = b^y2, whose parts prime to g
      give a1^x1 = b1^y2, so a1 = b1 = 1.
    * A family member's own solutions have the profiles I A/A, II C/C,
      III O/A and IV (A, O)/A: no A/B split in either base order.  Tags
      depend only on term values, and in_family matches term multisets,
      so a split needs a cross assignment, a^x1 and a^x2 being a member's
      a-term of one solution and b-term of the other.  Then a and b both
      have the primes of both member bases, all common to a, b and c, and
      a1 = b1 = 1.  By the closed forms of families._gen_*, that happens
      for I with h = 2 (the only splits) and III with d = 1 (Type O).
    """
    _check_pair(left, right)
    g = left.g
    sol1, sol2 = (system.x1, left.y, left.z), (system.x2, right.y, right.z)
    # name the bases by their parts, since they may have too many digits to format
    shape = (f"(g^{system.alpha} * {left.a1}, g^{system.beta} * {left.b1}, "
             f"g^{system.gamma} * {left.c1}) with g = {g}")
    if not system.solves(left, right):
        raise InternalInvariantError(f"reconstructed solutions {sol1} and {sol2} do not "
                                     f"satisfy the exponent equations of {shape}")

    a = g**system.alpha * left.a1
    b = g**system.beta * left.b1
    c = g**system.gamma * left.c1
    bases = (a, b, c)
    z_bits = c.bit_length() * max(left.z, right.z)
    if z_bits > OVERSIZE_BITS:
        return ReconstructionResult(bases, None, "oversize")

    t = build_triple(a, b, c)
    sset = enumerate_solutions(t, max(max_bits, z_bits + 1))
    if sset.raw_count != 2:
        return ReconstructionResult(bases, None, f"solution-count:{sset.raw_count}")

    nine = make_nine_tuple(a, b, c, *sol1, *sol2)
    tags = tuple(set(type_profile(t, Solution(*s)).by_prime.values()) for s in (sol1, sol2))
    if (nine.solutions_correspond() or tags != ({"A"}, {"B"})
            or classify_nine(nine).kind != "anomalous"):
        raise InternalInvariantError(f"verified solutions {sol1} and {sol2} of {shape} "
                                     f"are not an anomalous Type A / Type B pair")
    return ReconstructionResult(bases, nine, None)


# ---------------------------------------------------------------------------
# pipeline front end
# ---------------------------------------------------------------------------


def _canonical_rows(nines: Iterable[NineTuple]) -> list[NineTuple]:
    """The canonical forms of nines, each once, sorted by value."""
    found: dict[tuple[int, ...], NineTuple] = {}
    for nine in nines:
        canon = canonical_nine(nine)
        found[canon.as_tuple()] = canon
    return [found[k] for k in sorted(found)]


class PipelineOutcome(NamedTuple):
    """Deduplicated pipeline results plus counting statistics.

    anomalous holds canonical nine-tuples sorted by value.  stats counts
    identities (carrier "a" as shapes_53, carrier "b" as shapes_54),
    pairings and every rejection reason under a "reason:" prefix.
    family is always empty, since reconstruct_and_verify never passes a
    family member; it stays only because perfbench's inproc_pipeline reads it.
    """

    anomalous: tuple[NineTuple, ...]
    stats: dict[str, int]
    family: tuple[tuple[NineTuple, Classification], ...] = ()


def run_pipeline(
    records: Iterable[EquationRecord], config: RunConfig | None = None
) -> PipelineOutcome:
    """Decompose, pair, solve and verify a batch of coprime equations.

    Each equation contributes every identity of decompose, with either
    term carrying g in either slot; identities are then paired globally
    over their (g, a1, b1, c1) key, carrier "a" with carrier "b", so the
    two solutions of one triple may come from different input equations.

    Pairing is key-first, in two passes over the records.  The first
    counts every identity (shapes_53, shapes_54) and collects the key set
    of carrier "a"; the carrier "b" keys are the same keys with a1 and b1
    swapped.  Only a key that both carriers share can pair, so the second
    pass keeps the identities of the shared keys alone, as argument
    tuples, and Identity objects are built and validated only for the
    keys that are paired.  Deferring validation loses no check:
    on a record from make_equation (A + B = C, gcd(A, B) = 1) decompose
    cannot yield an invalid identity.  g is the primitive root of a
    nonempty prime subset's content, so g >= 2 and w >= 1; g, the
    cofactor, the other term and C are pairwise coprime, and so are
    their perfect-power bases; c1 >= 2 because C >= 2; x is None exactly
    when a1 = 1; and every identity rewrites A + B = C exactly.
    """
    if config is None:
        config = RunConfig()
    stats: Counter[str] = Counter()

    unique = {record.as_tuple(): record for record in records}
    stats["records"] = len(unique)
    ordered = [unique[key] for key in sorted(unique)]

    # each carrier "b" identity comes with a carrier "a" one whose a1 and b1
    # are swapped, so the carrier "b" keys are the carrier "a" keys mirrored
    left_keys: set[tuple[int, int, int, int]] = set()
    for record in ordered:
        for carrier, g, _, a1, _, b1, _, c1, _ in _identity_args(record):
            if carrier == "a":
                left_keys.add((g, a1, b1, c1))
                stats["shapes_53"] += 1
            else:
                stats["shapes_54"] += 1
    buckets: dict[tuple[int, int, int, int], tuple[list[tuple], list[tuple]]] = {
        key: ([], []) for key in left_keys if (key[0], key[2], key[1], key[3]) in left_keys
    }
    del left_keys

    for record in ordered:
        for args in _identity_args(record):
            bucket = buckets.get((args[1], args[3], args[5], args[7]))
            if bucket is not None:
                bucket[args[0] == "b"].append(args)

    verified: list[NineTuple] = []
    for key in sorted(buckets):
        left_args, right_args = buckets[key]
        _, a1, b1, _ = key
        if a1 == 1 and b1 == 1:
            stats["pairs_skipped"] += len(left_args) * len(right_args)
            continue
        stats["pair_keys"] += 1
        lefts = [Identity(*args) for args in left_args]
        rights = [Identity(*args) for args in right_args]
        for left in lefts:
            for right in rights:
                stats["pairs"] += 1
                system, why = pair_and_solve(left, right)
                if system is None:
                    stats[f"reason:{why}"] += 1
                    continue
                stats["systems"] += 1
                result = reconstruct_and_verify(left, right, system, config.max_bits)
                if result.reason is None:
                    verified.append(result.nine)
                else:
                    stats[f"reason:{result.reason}"] += 1

    anomalous = tuple(_canonical_rows(verified))
    stats["anomalous"] = len(anomalous)
    return PipelineOutcome(anomalous, dict(stats))


# ---------------------------------------------------------------------------
# direct search front end
# ---------------------------------------------------------------------------


# Inline residue sieve in front of perfect_powers, with all eleven tables
# of arith.POWER_SIEVES picked by modulus: a square is a square residue
# modulo 64, 63, 65 and 11, a cube a cubic residue modulo 63, 91 and 37,
# and a fifth power a fifth-power residue modulo 121, 31, 41 and 61.
(_SQ64, _SQ63, _SQ65, _SQ11), (_CU63, _CU91, _CU37), (_FI121, _FI31, _FI41, _FI61) = (
    tuple(dict(POWER_SIEVES[p])[m] for m in moduli)
    for p, moduli in ((2, (64, 63, 65, 11)), (3, (63, 91, 37)), (5, (121, 31, 41, 61)))
)


@functools.cache
def _exponent_plan(
    exp_max: int, unit_a1: bool,
) -> tuple[tuple[tuple[tuple[int, int | None, int], tuple[tuple[int, int], ...]], ...],
           tuple[tuple[int | None, int, int], ...]]:
    """The exponent patterns of the pairs that pair_and_solve accepts.

    Returns (((w1, x1, y1), (z1, z2) pairs), ...) and ((x2, w2, y2), ...),
    all sorted: every carrier "a" pattern and carrier "b" pattern, with
    exponents up to exp_max, that is part of some pair with a positive
    integral solution (alpha, beta, gamma) of

        y1 * beta = z1 * gamma           y2 * beta = z2 * gamma + w2
        x1 * alpha = z1 * gamma + w1     x2 * alpha = z2 * gamma

    together with the (z1, z2) of those pairs.  The system splits into
    two halves that share only (z1, z2, gamma): the first row gives gamma
    from (y1, z1, y2, z2, w2) and needs beta integral, the second gives
    gamma from (x1, z1, x2, z2, w1) and needs alpha integral.  Each half
    is enumerated once and the two are joined on (z1, z2, gamma).  For a
    unit a1, x1 and x2 are None: alpha = 1 then solves the second row
    with x1 and x2 resolved, so every w1 joins every (z1, z2, gamma).
    """
    exps = range(1, exp_max + 1)
    b_half: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for y1, z1, y2, z2 in product(exps, repeat=4):
        den = y2 * z1 - z2 * y1
        if den <= 0:
            continue
        for w2 in exps:
            gamma, rem = divmod(w2 * y1, den)
            if not rem and not z1 * gamma % y1:
                b_half.setdefault((z1, z2, gamma), []).append((y1, y2, w2))

    if unit_a1:
        a_half = [(key, w1, None, None) for key in b_half for w1 in exps]
    else:
        a_half = []
        for x1, z1, x2, z2 in product(exps, repeat=4):
            den = x1 * z2 - z1 * x2
            if den <= 0:
                continue
            for w1 in exps:
                gamma, rem = divmod(w1 * x2, den)
                if not rem and not z2 * gamma % x2:
                    a_half.append(((z1, z2, gamma), w1, x1, x2))

    lefts: dict[tuple[int, int | None, int], set[tuple[int, int]]] = {}
    rights: set[tuple[int | None, int, int]] = set()
    for (z1, z2, gamma), w1, x1, x2 in a_half:
        for y1, y2, w2 in b_half.get((z1, z2, gamma), ()):
            lefts.setdefault((w1, x1, y1), set()).add((z1, z2))
            rights.add((x2, w2, y2))
    return tuple((key, tuple(sorted(lefts[key]))) for key in sorted(lefts)), tuple(sorted(rights))


@functools.cache
def _cell_patterns(
    exp_max: int, unit_a1: bool,
) -> tuple[tuple[tuple, ...], tuple[tuple[int, int, frozenset], ...], tuple[int | None, ...]]:
    """The exponent patterns that a cell forms, and what each left one needs.

    Returns the carrier "a" patterns of _exponent_plan as (y1, w1, x1,
    the ascending z2 values for z1 = 1, those values by z1, the largest
    z1, whether a square, a cube, a fifth root or a root that no inline
    sieve covers is wanted), its carrier "b" patterns grouped by (w2, y2)
    as (y2, w2, the set of their x2), and the x2 of those groups in
    ascending order.  At exp_max 6 the 155 carrier "b" patterns of a1 > 1
    fall into 36 groups over 6 values of x2.  x is None for a unit a1.
    _search_unit retires a carrier "a" pattern once b1 outgrows it.
    """
    left_plan, right_plan = _exponent_plan(exp_max, unit_a1)
    lefts = []
    for (w1, x1, y1), zs in left_plan:
        walks = {z1: [z2 for z, z2 in zs if z == z1] for z1, _ in zs}
        # a z-th power is a p-th power for the least prime p of z
        least = {next(p for p in range(2, z + 1) if z % p == 0) for z in walks if z > 1}
        lefts.append((y1, w1, x1, walks.get(1, ()), walks, max(walks),
                      2 in least, 3 in least, 5 in least, max(least, default=0) >= 7))
    groups: dict[tuple[int, int], set[int | None]] = {}
    for x2, w2, y2 in right_plan:
        groups.setdefault((y2, w2), set()).add(x2)
    x2s = {x2 for x2, _, _ in right_plan}
    return (
        tuple(lefts),
        tuple((y2, w2, frozenset(groups[y2, w2])) for y2, w2 in sorted(groups)),
        tuple(sorted(x2s)),
    )


def _search_unit(task: tuple[int, int, SearchBounds, int]) -> list[tuple[int, ...]]:
    """Scan one (g, a1) cell of the box and return anomalous nine-tuples.

    The cell is streamed one b1 at a time, and only that b1's data is
    held.  Each carrier "a" sum g^w1 * a1^x1 + b1^y1 is taken as c1^z1,
    itself with z1 = 1 and each root that perfect_powers finds, and each
    power c1^z2 up to a bound on the carrier "b" sums is matched against
    them.  Every identity pair that meets this way is solved and
    verified.

    The carrier "b" sums R = a1^x2 + g^w2 * b1^y2 are never formed.  Each
    planned one has w2, y2 >= 1, so R = a1^x2 (mod g * b1), and since
    gcd(g, b1) = 1 and g >= 2 the product g^w2 * b1^y2 fixes (w2, y2) (a
    unit b1 forms only y2 = 1).  So c1^z2 is a planned sum exactly when
    c1^z2 mod g * b1 is the residue of some a1^x2 and c1^z2 - a1^x2 is a
    product g^w2 * b1^y2 whose (w2, y2) group holds that x2.  Per b1 the
    cell keeps the residues of the a1^x2 and the products of the groups;
    the largest product plus the largest a1^x2 bounds every carrier "b"
    sum and ends the walk over z2.

    Only the exponent patterns of _exponent_plan are formed, for every
    a1 and every exp_max.  A carrier "a" sum is taken as c1^z1 only for
    the z1 its pattern admits, c1^z2 is matched only for the z2 that go
    with that z1, and only the inline sieves that those z1 need run in
    front of perfect_powers.  The sieves stop at fifth powers, so a
    pattern that admits a z1 whose least prime is 7 or more hands every
    sum to perfect_powers.  The patterns left out are exactly those that
    pair_and_solve would reject.

    A carrier "a" pattern retires for the rest of the cell once b1 >=
    max(2, 2^(exp_max - 2)) and b1^y1 >= A = g^w1 * a1^x1, both of which
    stay true as b1 grows, and the cell ends when none is left.  A pair
    that pair_and_solve accepts has den = y2 * z1 - z2 * y1 >= 1 and
    z2 - z1 <= exp_max - 2 (z1 = 1 forces z2 < y2), so 2^z2 <= g^(w2 * z1)
    * b1^den and (A + b1^y1)^z2 <= 2^z2 * b1^(y1 * z2) <= g^(w2 * z1) *
    b1^(den + y1 * z2) < (a1^x2 + g^w2 * b1^y2)^z1: no powers of one c1.
    """
    g, a1, bounds, max_bits = task
    exp_max = bounds.exp_max
    g_pows = [g**w for w in range(exp_max + 1)]
    a_pows = {None: 1} if a1 == 1 else {x: a1**x for x in range(1, exp_max + 1)}
    floor = max(2, 2**exp_max // 4)

    left_patterns, right_groups, x2s = _cell_patterns(exp_max, a1 == 1)
    lefts = [(y1, w1, x1, g_pows[w1] * a_pows[x1], *needs)
             for y1, w1, x1, *needs in left_patterns]
    a_top = max((a_pows[x2] for x2 in x2s), default=0)

    rows: set[tuple[int, ...]] = set()

    def match(power: int, xs: list[int | None]) -> list[tuple[int | None, int, int]]:
        # the right patterns of the current b1 whose sum is power, given the
        # x2 whose a1^x2 has the residue of power modulo g * b1
        hits = []
        for x2 in xs:
            w2, y2, planned = products.get(power - a_pows[x2], (0, 0, ()))
            if x2 in planned:
                hits.append((x2, w2, y2))
        return hits

    def meet(left: Identity, z2: int, hits: list[tuple[int | None, int, int]]) -> None:
        # left is c1^z1, and hits are the right patterns whose sum is c1^z2
        for x2, w2, y2 in hits:
            right = Identity("b", g, w2, a1, x2, left.b1, y2, left.c1, z2)
            system, _ = pair_and_solve(left, right)
            if system is None:
                continue
            result = reconstruct_and_verify(left, right, system, max_bits)
            if result.reason is None:
                rows.add(result.nine.as_tuple())

    for b1 in range(1 if a1 > 1 else 2, bounds.b1_max + 1):
        if math.gcd(b1, g) != 1 or math.gcd(b1, a1) != 1:
            continue
        # a unit b1 keeps the literal exponent 1
        y_max = 1 if b1 == 1 else exp_max
        b_pows = [b1**y for y in range(y_max + 1)]

        products: dict[int, tuple[int, int, frozenset]] = {
            g_pows[w2] * b_pows[y2]: (w2, y2, planned)
            for y2, w2, planned in right_groups if y2 <= y_max
        }
        if not products:
            continue
        top = max(products) + a_top
        modulus = g * b1
        residues: dict[int, list[int | None]] = {}
        for x2 in x2s:
            residues.setdefault(a_pows[x2] % modulus, []).append(x2)

        retired = False
        for y1, w1, x1, carried, self_walk, walks, z_top, sq, cu, fi, bare in lefts:
            if y1 > y_max:
                continue
            if b1 >= floor and b_pows[y1] >= carried:
                retired = True
                continue
            t = carried + b_pows[y1]
            for z2 in self_walk:
                power = t**z2
                if power > top:
                    break
                if (xs := residues.get(power % modulus)) and (hits := match(power, xs)):
                    meet(Identity("a", g, w1, a1, x1, b1, y1, t, 1), z2, hits)
            if bare or (
                (sq and _SQ64[t & 63] and _SQ63[t % 63] and _SQ65[t % 65] and _SQ11[t % 11])
                or (cu and _CU63[t % 63] and _CU91[t % 91] and _CU37[t % 37])
                or (fi and _FI121[t % 121] and _FI31[t % 31] and _FI41[t % 41] and _FI61[t % 61])
            ):
                for c1, z1 in perfect_powers(t, z_top):
                    for z2 in walks.get(z1, ()):
                        power = c1**z2
                        if power > top:
                            break
                        if (xs := residues.get(power % modulus)) and (hits := match(power, xs)):
                            meet(Identity("a", g, w1, a1, x1, b1, y1, c1, z1), z2, hits)
        if retired and not (lefts := [p for p in lefts if b_pows[p[0]] < p[3]]):
            break
    return sorted(rows)


# Journal header version; a journal with any other header is discarded.
JOURNAL_VERSION = 1


def _parse_cell(
    line: bytes, units: set[tuple[int, int]]
) -> tuple[tuple[int, int], list[tuple[int, ...]]] | None:
    """One journal cell line [g, a1, rows] of a box unit, or None."""
    try:
        cell = json.loads(line)
    except ValueError:
        return None
    if not (isinstance(cell, list) and len(cell) == 3 and isinstance(cell[2], list)):
        return None
    g, a1, rows = cell
    if type(g) is not int or type(a1) is not int or (g, a1) not in units:
        return None
    if not all(
        isinstance(row, list) and len(row) == 9 and all(type(v) is int for v in row)
        for row in rows
    ):
        return None
    return (g, a1), [tuple(row) for row in rows]


def _read_journal(
    path: str, header: dict, units: set[tuple[int, int]]
) -> tuple[dict[tuple[int, int], list[tuple[int, ...]]], int]:
    """The finished cells of a journal and the byte length of its sound part.

    A missing or empty file has no cells and no sound part.  A torn last
    line, one without its newline or one that does not parse, is left
    out of the sound part.  Raises ValueError, giving the reason, when
    the file is not a journal of this run, and OSError when it cannot be
    read.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}, 0
    if not data:
        return {}, 0
    lines = data.split(b"\n")
    # lines[-1] is the text after the last newline: empty, or a torn line
    complete = lines[:-1]
    try:
        found = json.loads(complete[0]) if complete else None
    except ValueError:
        found = None
    if not isinstance(found, dict) or found.get("version") != JOURNAL_VERSION:
        raise ValueError(f"is not a version {JOURNAL_VERSION} checkpoint journal")
    if found != header:
        raise ValueError("was written for another box or bit bound")

    cells: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    end = len(complete[0]) + 1
    for lineno, line in enumerate(complete[1:], start=2):
        cell = _parse_cell(line, units)
        if cell is None:
            if lineno == len(complete) and not lines[-1]:
                break  # a torn last line that kept its newline
            raise ValueError(f"is corrupt at line {lineno}")
        cells[cell[0]] = cell[1]
        end += len(line) + 1
    return cells, end


def _open_journal(
    path: str, header: dict, units: set[tuple[int, int]]
) -> tuple[dict[tuple[int, int], list[tuple[int, ...]]], TextIO]:
    """Resume the journal at path, or start a fresh one, open for appending.

    A journal whose header matches keeps its finished cells; a torn last
    line is cut off.  Any other existing file is discarded with a
    UserWarning.  A path that cannot be read, truncated or created (a
    directory, a missing parent directory) raises InputDataError.
    """
    try:
        try:
            cells, end = _read_journal(path, header, units)
        except ValueError as exc:
            warnings.warn(
                f"checkpoint {path} {exc}; discarding it and starting a fresh journal",
                stacklevel=3,
            )
            cells, end = {}, 0
        if end:
            os.truncate(path, end)
            return cells, open(path, "a", encoding="utf-8")
        journal = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputDataError(f"cannot use checkpoint {path}: {exc.strerror or exc}") from exc
    journal.write(json.dumps(header) + "\n")
    journal.flush()
    return {}, journal


def direct_search(
    bounds: SearchBounds | None = None,
    max_bits: int = 128,
    workers: int = 1,
    checkpoint: str | None = None,
) -> list[NineTuple]:
    """Scan the whole identity box and return anomalous triples found.

    The box covers g <= g_max, a1 <= a1_max coprime to g (including
    a1 = 1), b1 <= b1_max coprime to both, and all eight identity
    exponents at most exp_max.  Work splits into independent (g, a1)
    cells, so worker_count only changes the schedule, never the result;
    the returned list is canonical, deduplicated and sorted.  With a
    checkpoint path, each finished cell is appended to a JSONL journal
    whose first line records the box and bit bound, and a rerun skips
    the cells already journaled.  A torn last line is cut off; a file
    that is not a journal of this box and bit bound is discarded with a
    UserWarning; a path that cannot be read or written raises
    InputDataError.
    """
    if bounds is None:
        bounds = SearchBounds()
    if workers < 1:
        raise UsageError(f"worker count must be positive, got {workers}")

    units = [
        (g, a1)
        for g in range(2, bounds.g_max + 1)
        for a1 in range(1, bounds.a1_max + 1)
        if a1 == 1 or math.gcd(a1, g) == 1
    ]
    box = [bounds.a1_max, bounds.g_max, bounds.b1_max, bounds.exp_max]

    with ExitStack() as stack:
        done, journal = {}, None
        if checkpoint:
            header = {"version": JOURNAL_VERSION, "box": box, "max_bits": max_bits}
            done, journal = _open_journal(checkpoint, header, set(units))
            stack.enter_context(journal)
        rows = [row for cell_rows in done.values() for row in cell_rows]
        pending = [u for u in units if u not in done]
        tasks = [(g, a1, bounds, max_bits) for g, a1 in pending]

        if workers == 1 or not tasks:
            produced = map(_search_unit, tasks)
        else:
            from multiprocessing import Pool

            size = min(workers, len(tasks))
            pool = stack.enter_context(Pool(size))
            # many cells per task keep dispatch cheap; 16 chunks per worker balance the load
            produced = pool.imap(_search_unit, tasks, max(1, len(tasks) // (16 * size)))
        for (g, a1), unit_rows in zip(pending, produced):
            rows.extend(unit_rows)
            if journal is not None:
                journal.write(json.dumps([g, a1, unit_rows], separators=(",", ":")) + "\n")
                journal.flush()

    return _canonical_rows(make_nine_tuple(*row) for row in set(rows))
