"""Search for two-solution triples built from small constituent parts.

Two solutions of a^x + b^y = c^z over bases with a common factor force a
rigid linear structure on the exponents.  Write a = g^alpha * a1,
b = g^beta * b1, c = g^gamma * c1 with g, a1, b1, c1 pairwise coprime.
Dividing each solution by its g-content leaves a coprime identity in
small numbers, of one of two kinds depending on which side keeps g:

    g^w1 * a1^x1 + b1^y1 = c1^z1        (left term carries g)
    a1^x2 + g^w2 * b1^y2 = c1^z2        (right term carries g)

Matching one identity of each kind over the same (g, a1, b1, c1) and
solving the linear exponent system recovers (alpha, beta, gamma), hence
a candidate triple whose two expected solutions are then verified by
full enumeration and classified.

Two front ends are offered.  The pipeline decomposes given coprime
equations A + B = C into identities and pairs them globally; the direct
search scans every identity inside an explicit box of part sizes and
exponents.  Both deduplicate results under base swap and solution
reordering and return them in sorted order.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from bisect import bisect_right
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import combinations
from multiprocessing import Pool
from typing import Iterable, TextIO

from .arith import (
    Factored,
    factorize,
    is_prime,
    perfect_powers,
    power_representations,
    residue_table,
)
from .classify import type_profile
from .config import RunConfig, SearchBounds
from .errors import InternalInvariantError, UsageError
from .families import Classification, NineTuple, canonical_nine, classify_nine, make_nine_tuple
from .solve import Solution, enumerate_solutions
from .triple import build_triple

# ---------------------------------------------------------------------------
# equation records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquationRecord:
    """A coprime equation A + B = C with the factorizations of A and B.

    gcd(A, B) = 1 together with A + B = C makes the three values
    pairwise coprime.
    """

    A: int
    B: int
    C: int
    fa: Factored
    fb: Factored

    def swapped(self) -> "EquationRecord":
        return EquationRecord(self.B, self.A, self.C, self.fb, self.fa)

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


@dataclass(frozen=True)
class IngestReport:
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

    The values up to height_bound with radical at most rad_bound are
    grouped by radical.  For each C only the groups with rad(A) <=
    rad_bound // rad(C) and gcd(rad(A), rad(C)) = 1 are walked, each up
    to A = C // 2, so the cost follows the number of these admissible
    (A, C) pairs rather than the square of the number of values.  As
    rad_bound grows towards height_bound squared, nearly every pair
    becomes admissible.  The bounds (1000, 10**6) recall exactly
    catalogue rows 1-6 through run_pipeline.
    """
    if rad_bound < 6:
        raise UsageError("rad_bound below 6 admits no equation with C > 2")
    if height_bound < 2:
        raise UsageError("height_bound must be at least 2")

    primes = [p for p in range(2, rad_bound + 1) if is_prime(p)]
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
    values = sorted(radical_of)

    # values grouped by radical, each group ascending; a group's smallest
    # value is its radical itself
    by_radical: dict[int, list[int]] = {}
    for v in values:
        by_radical.setdefault(radical_of[v], []).append(v)
    radicals = sorted(by_radical)

    records = []
    for C in values[1:]:
        rc = radical_of[C]
        rest = rad_bound // rc
        half = C // 2
        hits = []
        for ra in radicals[: bisect_right(radicals, min(rest, half))]:
            # coprime radicals make A and C, hence A and B, coprime
            if math.gcd(ra, rc) != 1:
                continue
            rb_max = rest // ra
            group = by_radical[ra]
            for A in group[: bisect_right(group, half)]:
                rb = radical_of.get(C - A)
                if rb is not None and rb <= rb_max:
                    hits.append(A)
        hits.sort()
        records.extend(make_equation(A, C - A, C) for A in hits)
    return records


# ---------------------------------------------------------------------------
# coprime identity shapes
# ---------------------------------------------------------------------------


def _check_parts(g: int, a1: int, b1: int, c1: int) -> None:
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


@dataclass(frozen=True)
class Shape53:
    """Identity g^w1 * a1^x1 + b1^y1 = c1^z1 with the left term carrying g.

    x1 is None exactly when a1 = 1: the exponent of a unit base is then
    symbolic and gets resolved by the paired linear system.  A unit b1
    keeps the literal exponent 1 instead, since y1 enters the system as
    a known value.
    """

    g: int
    w1: int
    a1: int
    x1: int | None
    b1: int
    y1: int
    c1: int
    z1: int

    def __post_init__(self) -> None:
        _check_parts(self.g, self.a1, self.b1, self.c1)
        if (self.a1 == 1) != (self.x1 is None):
            raise ValueError("x1 must be None exactly when a1 is 1")
        exponents = [("w1", self.w1), ("y1", self.y1), ("z1", self.z1)]
        if self.x1 is not None:
            exponents.append(("x1", self.x1))
        for name, e in exponents:
            if e < 1:
                raise ValueError(f"exponent {name} must be positive, got {e}")
        if self.left_value() + self.b1**self.y1 != self.c1**self.z1:
            raise ValueError(f"identity does not hold: {self}")

    def left_value(self) -> int:
        base = 1 if self.a1 == 1 else self.a1**self.x1
        return self.g**self.w1 * base

    def key(self) -> tuple[int, int, int, int]:
        return (self.g, self.a1, self.b1, self.c1)

    def __str__(self) -> str:
        ax = "" if self.a1 == 1 else f" * {self.a1}^{self.x1}"
        return f"{self.g}^{self.w1}{ax} + {self.b1}^{self.y1} = {self.c1}^{self.z1}"


@dataclass(frozen=True)
class Shape54:
    """Identity a1^x2 + g^w2 * b1^y2 = c1^z2 with the right term carrying g.

    x2 is None exactly when a1 = 1, mirroring Shape53; a unit b1 keeps
    the literal exponent 1.
    """

    a1: int
    x2: int | None
    g: int
    w2: int
    b1: int
    y2: int
    c1: int
    z2: int

    def __post_init__(self) -> None:
        _check_parts(self.g, self.a1, self.b1, self.c1)
        if (self.a1 == 1) != (self.x2 is None):
            raise ValueError("x2 must be None exactly when a1 is 1")
        exponents = [("w2", self.w2), ("y2", self.y2), ("z2", self.z2)]
        if self.x2 is not None:
            exponents.append(("x2", self.x2))
        for name, e in exponents:
            if e < 1:
                raise ValueError(f"exponent {name} must be positive, got {e}")
        left = 1 if self.a1 == 1 else self.a1**self.x2
        if left + self.g**self.w2 * self.b1**self.y2 != self.c1**self.z2:
            raise ValueError(f"identity does not hold: {self}")

    def key(self) -> tuple[int, int, int, int]:
        return (self.g, self.a1, self.b1, self.c1)

    def __str__(self) -> str:
        ax = "1" if self.a1 == 1 else f"{self.a1}^{self.x2}"
        return f"{ax} + {self.g}^{self.w2} * {self.b1}^{self.y2} = {self.c1}^{self.z2}"


def _carrier_splits(fac: Factored) -> list[tuple[int, int]]:
    """Every (g, w) with g primitive and g^w the full content of a prime subset."""
    factors = fac.factors
    splits = []
    for mask in range(1, 1 << len(factors)):
        chosen = [factors[i] for i in range(len(factors)) if mask >> i & 1]
        w = math.gcd(*(e for _, e in chosen)) if len(chosen) > 1 else chosen[0][1]
        g = math.prod(p ** (e // w) for p, e in chosen)
        content = math.prod(p**e for p, e in chosen)
        splits.append((g, w, content))
    return splits


def decompose(record: EquationRecord, side: str) -> list[Shape53] | list[Shape54]:
    """All identity shapes of one record with the chosen term carrying g.

    side "left" makes A the carrying term and yields Shape53 values;
    side "right" makes B the carrying term and yields Shape54 values.
    Every nonempty subset of the carrier's primes becomes one (g, w)
    split with g primitive and g^w the subset's full content; the
    cofactor, the pure term and C then range over all of their perfect
    power representations, exponent 1 included.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if side == "left":
        carrier, carrier_fac, pure = record.A, record.fa, record.B
    else:
        carrier, carrier_fac, pure = record.B, record.fb, record.A

    if carrier == 1:
        return []
    c_reps = power_representations(record.C)
    pure_reps = power_representations(pure)
    shapes: list[Shape53] | list[Shape54] = []
    for g, w, content in _carrier_splits(carrier_fac):
        m = carrier // content
        for mb, me in power_representations(m):
            for pb, pe in pure_reps:
                for cb, ce in c_reps:
                    if side == "left":
                        shapes.append(Shape53(
                            g, w, mb, None if mb == 1 else me, pb, pe, cb, ce,
                        ))
                    else:
                        shapes.append(Shape54(
                            pb, None if pb == 1 else pe, g, w, mb, me, cb, ce,
                        ))
    return shapes


# ---------------------------------------------------------------------------
# pairing and the linear exponent system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolvedSystem:
    """Positive integer solution of the paired exponent system.

    alpha, beta, gamma scale g into the three bases; x1 and x2 are the
    first exponents of the two expected solutions, resolved even when
    they were symbolic in the shapes.
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


def pair_and_solve(s53: Shape53, s54: Shape54) -> tuple[SolvedSystem | None, str | None]:
    """Solve the exponent system of a matched shape pair.

    The pair must agree on (g, a1, b1, c1), and a1 = b1 = 1 is rejected
    because both sides then collapse to pure powers of g.  Returns
    (system, None) on success and (None, reason) when no positive
    integral solution exists; reasons are "degenerate-denominator",
    "nonpositive-gamma", "non-integral-gamma", "non-integral-beta",
    "non-integral-alpha" and "gamma-mismatch".
    """
    if s53.key() != s54.key():
        raise ValueError(
            f"shapes pair only when they share (g, a1, b1, c1): "
            f"{s53.key()} vs {s54.key()}"
        )
    if s53.a1 == 1 and s53.b1 == 1:
        raise ValueError("a1 and b1 cannot both be 1; the pair carries no content")

    w1, y1, z1 = s53.w1, s53.y1, s53.z1
    w2, y2, z2 = s54.w2, s54.y2, s54.z2

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

    if s53.a1 == 1:
        alpha = 1
        x1 = z1 * gamma + w1
        x2 = z2 * gamma
    else:
        x1, x2 = s53.x1, s54.x2
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
    checks = (
        y1 * beta == z1 * gamma,
        y2 * beta == z2 * gamma + w2,
        x1 * alpha == z1 * gamma + w1,
        x2 * alpha == z2 * gamma,
    )
    if not all(checks):
        raise InternalInvariantError(
            f"solved system fails re-substitution: {system} for {s53} / {s54}"
        )
    return system, None


# ---------------------------------------------------------------------------
# reconstruction and verification
# ---------------------------------------------------------------------------


# Largest c^z, counted as c.bit_length() * z, that reconstruct_and_verify
# builds; larger candidates are rejected as "oversize" rather than built.
OVERSIZE_BITS = 600_000


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of rebuilding a triple from a solved pair.

    reason is None on success, in which case nine and verdict are set.
    Failure reasons: "duplicate-solution", "oversize",
    "solution-count:<n>", "corresponding-solutions" and "type-mismatch".
    """

    bases: tuple[int, int, int]
    nine: NineTuple | None
    verdict: Classification | None
    reason: str | None


def reconstruct_and_verify(
    s53: Shape53, s54: Shape54, system: SolvedSystem, max_bits: int
) -> ReconstructionResult:
    """Rebuild (a, b, c) from a solved pair and verify it end to end.

    The reconstructed triple must have exactly the two expected
    solutions below a bit bound generously covering both, one of which
    is Type A and the other Type B at every shared prime; the pair is
    then classified as a family member or anomalous.
    """
    g = s53.g
    a = g**system.alpha * s53.a1
    b = g**system.beta * s53.b1
    c = g**system.gamma * s53.c1
    bases = (a, b, c)

    sol1 = (system.x1, s53.y1, s53.z1)
    sol2 = (system.x2, s54.y2, s54.z2)
    if sol1 == sol2:
        return ReconstructionResult(bases, None, None, "duplicate-solution")

    if c.bit_length() * max(sol1[2], sol2[2]) > OVERSIZE_BITS:
        return ReconstructionResult(bases, None, None, "oversize")

    for x, y, z in (sol1, sol2):
        if a**x + b**y != c**z:
            # the bases may have too many digits to format; name them by
            # their parts and exponents instead
            raise InternalInvariantError(
                f"reconstructed solution {x, y, z} does not substitute into "
                f"(g^{system.alpha} * {s53.a1}, g^{system.beta} * {s53.b1}, "
                f"g^{system.gamma} * {s53.c1}) with g = {g}"
            )

    effective_bits = max(
        max_bits,
        sol1[2] * c.bit_length() + 1,
        sol2[2] * c.bit_length() + 1,
    )
    t = build_triple(a, b, c)
    sset = enumerate_solutions(t, effective_bits)
    if sset.raw_count != 2:
        return ReconstructionResult(
            bases, None, None, f"solution-count:{sset.raw_count}"
        )

    nine = make_nine_tuple(a, b, c, *sol1, *sol2)
    if nine.solutions_correspond():
        return ReconstructionResult(bases, nine, None, "corresponding-solutions")

    profile1 = type_profile(t, Solution(*sol1))
    profile2 = type_profile(t, Solution(*sol2))
    tags1 = {profile1.tag(p) for p in t.common_primes}
    tags2 = {profile2.tag(p) for p in t.common_primes}
    if (tags1, tags2) not in (({"A"}, {"B"}), ({"B"}, {"A"})):
        return ReconstructionResult(bases, nine, None, "type-mismatch")

    verdict = classify_nine(nine)
    return ReconstructionResult(bases, nine, verdict, None)


# ---------------------------------------------------------------------------
# pipeline front end
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineOutcome:
    """Deduplicated pipeline results plus counting statistics.

    anomalous and family hold canonical nine-tuples sorted by value;
    family entries carry their classification.  stats counts shapes,
    pairings and every rejection reason under a "reason:" prefix.
    """

    anomalous: tuple[NineTuple, ...]
    family: tuple[tuple[NineTuple, Classification], ...]
    stats: dict[str, int]


def run_pipeline(
    records: Iterable[EquationRecord], config: RunConfig | None = None
) -> PipelineOutcome:
    """Decompose, pair, solve and verify a batch of coprime equations.

    Each equation contributes identities in both orientations and with
    either term carrying g; shapes are then paired globally over their
    (g, a1, b1, c1) key, so the two solutions of one triple may come
    from different input equations.
    """
    if config is None:
        config = RunConfig()
    stats: Counter[str] = Counter()

    unique = {record.as_tuple(): record for record in records}
    stats["records"] = len(unique)

    buckets: dict[tuple[int, int, int, int], tuple[list[Shape53], list[Shape54]]] = {}
    for key in sorted(unique):
        record = unique[key]
        for variant in (record, record.swapped()):
            for shape in decompose(variant, "left"):
                buckets.setdefault(shape.key(), ([], []))[0].append(shape)
                stats["shapes_53"] += 1
            for shape in decompose(variant, "right"):
                buckets.setdefault(shape.key(), ([], []))[1].append(shape)
                stats["shapes_54"] += 1

    anomalous: dict[tuple[int, ...], NineTuple] = {}
    family: dict[tuple[int, ...], tuple[NineTuple, Classification]] = {}
    for key in sorted(buckets):
        list53, list54 = buckets[key]
        if not list53 or not list54:
            continue
        _, a1, b1, _ = key
        if a1 == 1 and b1 == 1:
            stats["pairs_skipped"] += len(list53) * len(list54)
            continue
        stats["pair_keys"] += 1
        for s53 in list53:
            for s54 in list54:
                stats["pairs"] += 1
                system, why = pair_and_solve(s53, s54)
                if system is None:
                    stats[f"reason:{why}"] += 1
                    continue
                stats["systems"] += 1
                result = reconstruct_and_verify(s53, s54, system, config.max_bits)
                if result.reason is not None:
                    stats[f"reason:{result.reason}"] += 1
                    continue
                canon = canonical_nine(result.nine)
                if result.verdict.kind == "anomalous":
                    anomalous[canon.as_tuple()] = canon
                else:
                    family[canon.as_tuple()] = (canon, classify_nine(canon))

    stats["anomalous"] = len(anomalous)
    stats["family"] = len(family)
    return PipelineOutcome(
        tuple(anomalous[k] for k in sorted(anomalous)),
        tuple(family[k] for k in sorted(family)),
        dict(stats),
    )


# ---------------------------------------------------------------------------
# direct search front end
# ---------------------------------------------------------------------------


# Inline residue sieve in front of perfect_powers: a square is a square
# residue modulo 64 and 63, a cube a cubic residue modulo 63 and a fifth
# power a fifth-power residue modulo 121.
_SQUARE64, _SQUARE63, _CUBE63, _FIFTH121 = (
    residue_table(p, m) for p, m in ((2, 64), (2, 63), (3, 63), (5, 121))
)


def _search_unit(task: tuple[int, int, SearchBounds, int]) -> list[tuple[int, ...]]:
    """Scan one (g, a1) cell of the box and return anomalous nine-tuples.

    The cell is streamed one b1 at a time, and only that b1's data is
    held.  Each left-carrying sum g^w1 * a1^x1 + b1^y1 is filed under
    every c1 with c1^z1 equal to it: itself with z1 = 1 and each root
    that perfect_powers finds.  The right-carrying sums
    a1^x2 + g^w2 * b1^y2 are never root-tested; they are looked up in a
    table of the powers c1^z2 of the filed c1, capped at the largest
    right-side sum, since a right identity whose c1 has no left identity
    pairs with nothing.  Every identity pair that agrees on c1 is then
    solved and verified.
    """
    g, a1, bounds, max_bits = task
    exp_max = bounds.exp_max
    exps = range(1, exp_max + 1)
    g_pows = [g**w for w in range(exp_max + 1)]

    if a1 == 1:
        lefts = [(w, None, g_pows[w]) for w in exps]
        pures = [(None, 1)]
    else:
        a_pows = [a1**x for x in range(exp_max + 1)]
        lefts = [(w, x, g_pows[w] * a_pows[x]) for w in exps for x in exps]
        pures = [(x, a_pows[x]) for x in exps]
    top_pure = max(pure for _, pure in pures)
    # the inline residue tests cover exponents 2 to 6, all built from 2, 3, 5
    unsieved = exp_max >= 7

    rows: set[tuple[int, ...]] = set()
    for b1 in range(1 if a1 > 1 else 2, bounds.b1_max + 1):
        if math.gcd(b1, g) != 1 or math.gcd(b1, a1) != 1:
            continue
        b_exps = range(1, 2) if b1 == 1 else exps
        b_pows = [b1**y for y in range(exp_max + 1)]

        by_c: dict[int, list[tuple[int, int | None, int, int]]] = {}
        for w1, x1, left in lefts:
            for y1 in b_exps:
                total = left + b_pows[y1]
                by_c.setdefault(total, []).append((w1, x1, y1, 1))
                r63 = total % 63
                if not (
                    unsieved
                    or (_SQUARE64[total & 63] and _SQUARE63[r63])
                    or _CUBE63[r63]
                    or _FIFTH121[total % 121]
                ):
                    continue
                for root, e in perfect_powers(total, exp_max):
                    by_c.setdefault(root, []).append((w1, x1, y1, e))

        cap = top_pure + g_pows[exp_max] * b_pows[b_exps[-1]]
        c_powers: dict[int, list[tuple[int, int]]] = {}
        for c1 in by_c:
            value = c1
            for z in exps:
                if value > cap:
                    break
                c_powers.setdefault(value, []).append((c1, z))
                value *= c1

        by_c54: dict[int, list[tuple[int | None, int, int, int]]] = {}
        for x2, pure in pures:
            for w2 in exps:
                g_w = g_pows[w2]
                for y2 in b_exps:
                    for c1, z2 in c_powers.get(pure + g_w * b_pows[y2], ()):
                        by_c54.setdefault(c1, []).append((x2, w2, y2, z2))

        for c1, entries54 in by_c54.items():
            shapes54 = [
                Shape54(a1, x2, g, w2, b1, y2, c1, z2)
                for x2, w2, y2, z2 in entries54
            ]
            for w1, x1, y1, z1 in by_c[c1]:
                s53 = Shape53(g, w1, a1, x1, b1, y1, c1, z1)
                for s54 in shapes54:
                    system, _ = pair_and_solve(s53, s54)
                    if system is None:
                        continue
                    result = reconstruct_and_verify(s53, s54, system, max_bits)
                    if result.verdict is not None and result.verdict.kind == "anomalous":
                        rows.add(result.nine.as_tuple())
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
    the file is not a journal of this run.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}, 0
    except OSError as exc:
        raise ValueError(f"cannot be read ({exc})") from exc
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
    UserWarning.
    """
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
    UserWarning.
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
            size = min(workers, len(tasks))
            pool = stack.enter_context(Pool(size))
            # many cells per task keep dispatch cheap; 16 chunks per worker balance the load
            produced = pool.imap(_search_unit, tasks, max(1, len(tasks) // (16 * size)))
        for (g, a1), unit_rows in zip(pending, produced):
            rows.extend(unit_rows)
            if journal is not None:
                journal.write(json.dumps([g, a1, unit_rows], separators=(",", ":")) + "\n")
                journal.flush()

    found: dict[tuple[int, ...], NineTuple] = {}
    for row in set(rows):
        canon = canonical_nine(make_nine_tuple(*row))
        found[canon.as_tuple()] = canon
    return [found[k] for k in sorted(found)]
