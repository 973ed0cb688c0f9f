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
from .errors import InputDataError, InternalInvariantError, UsageError
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
# coprime identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
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
    a_reps, b_reps, c_reps = (power_representations(n) for n in record.as_tuple())
    identities: list[Identity] = []
    for term, fac, other_reps in ((record.A, record.fa, b_reps), (record.B, record.fb, a_reps)):
        for g, w, content in _carrier_splits(fac):
            for mb, me in power_representations(term // content):
                for pb, pe in other_reps:
                    for cb, ce in c_reps:
                        identities.append(Identity(
                            "a", g, w, mb, None if mb == 1 else me, pb, pe, cb, ce,
                        ))
                        identities.append(Identity(
                            "b", g, w, pb, None if pb == 1 else pe, mb, me, cb, ce,
                        ))
    return identities


# ---------------------------------------------------------------------------
# pairing and the linear exponent system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolvedSystem:
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
    checks = (
        y1 * beta == z1 * gamma,
        y2 * beta == z2 * gamma + w2,
        x1 * alpha == z1 * gamma + w1,
        x2 * alpha == z2 * gamma,
    )
    if not all(checks):
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
    left: Identity, right: Identity, system: SolvedSystem, max_bits: int
) -> ReconstructionResult:
    """Rebuild (a, b, c) from a solved pair and verify it end to end.

    The reconstructed triple must have exactly the two expected
    solutions below a bit bound generously covering both, one of which
    is Type A and the other Type B at every shared prime; the pair is
    then classified as a family member or anomalous.
    """
    g = left.g
    a = g**system.alpha * left.a1
    b = g**system.beta * left.b1
    c = g**system.gamma * left.c1
    bases = (a, b, c)

    sol1 = (system.x1, left.y, left.z)
    sol2 = (system.x2, right.y, right.z)
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
                f"(g^{system.alpha} * {left.a1}, g^{system.beta} * {left.b1}, "
                f"g^{system.gamma} * {left.c1}) with g = {g}"
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
    family entries carry their classification.  stats counts identities
    (carrier "a" as shapes_53, carrier "b" as shapes_54), pairings and
    every rejection reason under a "reason:" prefix.
    """

    anomalous: tuple[NineTuple, ...]
    family: tuple[tuple[NineTuple, Classification], ...]
    stats: dict[str, int]


def run_pipeline(
    records: Iterable[EquationRecord], config: RunConfig | None = None
) -> PipelineOutcome:
    """Decompose, pair, solve and verify a batch of coprime equations.

    Each equation contributes every identity of decompose, with either
    term carrying g in either slot; identities are then paired globally
    over their (g, a1, b1, c1) key, carrier "a" with carrier "b", so the
    two solutions of one triple may come from different input equations.
    """
    if config is None:
        config = RunConfig()
    stats: Counter[str] = Counter()

    unique = {record.as_tuple(): record for record in records}
    stats["records"] = len(unique)

    buckets: dict[tuple[int, int, int, int], tuple[list[Identity], list[Identity]]] = {}
    for key in sorted(unique):
        for identity in decompose(unique[key]):
            lefts, rights = buckets.setdefault(identity.key(), ([], []))
            if identity.carrier == "a":
                lefts.append(identity)
                stats["shapes_53"] += 1
            else:
                rights.append(identity)
                stats["shapes_54"] += 1

    anomalous: dict[tuple[int, ...], NineTuple] = {}
    family: dict[tuple[int, ...], tuple[NineTuple, Classification]] = {}
    for key in sorted(buckets):
        lefts, rights = buckets[key]
        if not lefts or not rights:
            continue
        _, a1, b1, _ = key
        if a1 == 1 and b1 == 1:
            stats["pairs_skipped"] += len(lefts) * len(rights)
            continue
        stats["pair_keys"] += 1
        for left in lefts:
            for right in rights:
                stats["pairs"] += 1
                system, why = pair_and_solve(left, right)
                if system is None:
                    stats[f"reason:{why}"] += 1
                    continue
                stats["systems"] += 1
                result = reconstruct_and_verify(left, right, system, config.max_bits)
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
    held.  Each carrier "a" sum g^w1 * a1^x1 + b1^y1 is filed under
    every c1 with c1^z1 equal to it: itself with z1 = 1 and each root
    that perfect_powers finds.  The carrier "b" sums
    a1^x2 + g^w2 * b1^y2 are never root-tested; they are looked up in a
    table of the powers c1^z2 of the filed c1, capped at the largest
    carrier "b" sum, since a carrier "b" identity whose c1 has no
    carrier "a" identity pairs with nothing.  Every identity pair that
    agrees on c1 is then solved and verified.
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
        for w1, x1, carried in lefts:
            for y1 in b_exps:
                total = carried + b_pows[y1]
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

        by_c_right: dict[int, list[tuple[int | None, int, int, int]]] = {}
        for x2, pure in pures:
            for w2 in exps:
                g_w = g_pows[w2]
                for y2 in b_exps:
                    for c1, z2 in c_powers.get(pure + g_w * b_pows[y2], ()):
                        by_c_right.setdefault(c1, []).append((x2, w2, y2, z2))

        for c1, entries in by_c_right.items():
            rights = [
                Identity("b", g, w2, a1, x2, b1, y2, c1, z2)
                for x2, w2, y2, z2 in entries
            ]
            for w1, x1, y1, z1 in by_c[c1]:
                left = Identity("a", g, w1, a1, x1, b1, y1, c1, z1)
                for right in rights:
                    system, _ = pair_and_solve(left, right)
                    if system is None:
                        continue
                    result = reconstruct_and_verify(left, right, system, max_bits)
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
