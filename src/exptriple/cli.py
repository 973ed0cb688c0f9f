"""Command-line front end.

Subcommands map one-to-one onto the library layers: enumerate and
classify wrap single-triple analysis, family wraps the generators and
the membership test, search wraps the two search drivers, and
verify-paper runs the acceptance suite.  Exit codes: 0 success, 1 usage
error, 2 input data error, 3 internal invariant failure, 4 acceptance
criteria failed, 130 interrupted (Ctrl-C), 141 stdout closed by its
reader (a broken pipe).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from typing import Callable, Sequence

from .arith import as_power_of, two_adic
from .catalog import is_known_anomalous
from .classify import type_profile
from .config import RunConfig, SearchBounds
from .errors import (
    FamilyConstraintError,
    InputDataError,
    InternalInvariantError,
    UsageError,
)
from .families import (
    FAMILY_TAGS,
    Classification,
    NineTuple,
    classify_nine,
    gen_family,
    make_nine_tuple,
)
from .search import direct_search, generate_equations, ingest_equations, run_pipeline
from .solve import count_N, detect_special_case, enumerate_solutions
from .triple import build_triple

JSON_FIELDS = (
    "a", "b", "c",
    "x1", "y1", "z1",
    "x2", "y2", "z2",
    "classification", "family", "params", "bound_bits",
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures become UsageError (exit 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type for a decimal integer of at least low."""

    def parse(text: str) -> int:
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            wanted = "positive" if low == 1 else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _pow_str(base: int, exp: int) -> str:
    return str(base) if exp == 1 else f"{base}^{exp}"


def _identity_str(a: int, b: int, c: int, x: int, y: int, z: int) -> str:
    return f"{_pow_str(a, x)} + {_pow_str(b, y)} = {_pow_str(c, z)}"


def _params_str(params: dict[str, int]) -> str:
    return " ".join(f"{k}={params[k]}" for k in sorted(params))


def _nine_identities(nine: NineTuple) -> str:
    s1, s2 = nine.s1, nine.s2
    first = _identity_str(nine.a, nine.b, nine.c, s1.x, s1.y, s1.z)
    second = _identity_str(nine.a, nine.b, nine.c, s2.x, s2.y, s2.z)
    return f"{first} and {second}"


def _nine_row(
    nine: NineTuple, classification: Classification, bound_bits: int | None
) -> dict[str, object]:
    witness = classification.witness
    return {
        "a": nine.a, "b": nine.b, "c": nine.c,
        "x1": nine.s1.x, "y1": nine.s1.y, "z1": nine.s1.z,
        "x2": nine.s2.x, "y2": nine.s2.y, "z2": nine.s2.z,
        "classification": classification.kind,
        "family": witness.family if witness else None,
        "params": dict(witness.params) if witness else None,
        "bound_bits": bound_bits,
    }


def _verdict_str(nine: NineTuple, classification: Classification) -> str:
    if classification.kind == "family":
        witness = classification.witness
        return f"family {witness.family} ({_params_str(witness.params)})"
    if is_known_anomalous(nine):
        return "anomalous, catalogued"
    return "anomalous, NOT in the catalogue"


def _emit_nine_rows(
    nines: Sequence[NineTuple], classification: Classification, fmt: str, bound_bits: int | None
) -> None:
    if fmt == "json-lines":
        for nine in nines:
            print(json.dumps(_nine_row(nine, classification, bound_bits)))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(JSON_FIELDS)
        for nine in nines:
            row = _nine_row(nine, classification, bound_bits)
            row["family"] = row["family"] or ""
            row["params"] = _params_str(row["params"]) if row["params"] else ""
            row["bound_bits"] = "" if row["bound_bits"] is None else row["bound_bits"]
            writer.writerow([row[k] for k in JSON_FIELDS])
    else:
        for nine in nines:
            print(f"({nine.a}, {nine.b}, {nine.c}): {_nine_identities(nine)}  "
                  f"[{_verdict_str(nine, classification)}]")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args: argparse.Namespace) -> int:
    t = build_triple(args.a, args.b, args.c)
    with warnings.catch_warnings():
        # the warning below replaces the library's UserWarning for terminal use
        warnings.simplefilter("ignore")
        sset = enumerate_solutions(t, args.max_bits)
    if sset.bound_too_small:
        print(
            f"warning: {t.c} does not fit below 2^{args.max_bits}; "
            "nothing enumerated (raise --max-bits)",
            file=sys.stderr,
        )

    fmt = args.format
    class_index = {s: i for i, cls in enumerate(sset.classes, start=1) for s in cls}
    if fmt == "json-lines":
        for s in sset.solutions:
            print(json.dumps({
                "a": t.a, "b": t.b, "c": t.c,
                "x": s.x, "y": s.y, "z": s.z,
                "class": class_index[s],
                "bound_bits": args.max_bits,
            }))
        return 0
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(("a", "b", "c", "x", "y", "z", "class", "bound_bits"))
        for s in sset.solutions:
            writer.writerow((t.a, t.b, t.c, s.x, s.y, s.z, class_index[s], args.max_bits))
        return 0

    n = count_N(sset)
    print(
        f"solutions of {t.a}^x + {t.b}^y = {t.c}^z "
        f"below 2^{args.max_bits}: {sset.raw_count}"
    )
    shared = t.has_shared_prime
    for s in sset.solutions:
        line = f"  {_identity_str(t.a, t.b, t.c, s.x, s.y, s.z)}"
        if shared:
            profile = type_profile(t, s)
            tags = " ".join(f"{p}:{profile.tag(p)}" for p in t.common_primes)
            line += f"    [types {tags}]"
        print(line)
    print(f"classes (N = {n}):")
    for i, cls in enumerate(sset.classes, start=1):
        members = ", ".join(f"({s.x}, {s.y}, {s.z})" for s in cls)
        print(f"  class {i}: {members}")
    special = detect_special_case(t)
    if special is not None:
        extra = f" ({_params_str(special.params)})" if special.params else ""
        print(f"special shape: {special.tag}{extra}")
    return 0


def _nine_from_args(args: argparse.Namespace) -> NineTuple:
    v = args.values
    try:
        return make_nine_tuple(*v)
    except ValueError as exc:
        raise InputDataError(str(exc)) from exc


def cmd_classify(args: argparse.Namespace) -> int:
    nine = _nine_from_args(args)
    if math.gcd(nine.a, nine.b) == 1:
        raise InputDataError(
            "classification requires gcd(a, b) > 1; "
            f"gcd({nine.a}, {nine.b}) = 1"
        )
    try:
        classification = classify_nine(nine)
    except ValueError as exc:
        raise InputDataError(str(exc)) from exc
    _emit_nine_rows([nine], classification, args.format, None)
    return 0


def _parse_family_params(tokens: Sequence[str]) -> dict[str, int]:
    params: dict[str, int] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise UsageError(f"family parameters look like key=value, got {token!r}")
        try:
            params[key] = int(value, 10)
        except ValueError:
            raise UsageError(f"family parameter {key} needs an integer, got {value!r}")
    return params


def _derive_w(tag: str, params: dict[str, int]) -> int:
    """Fill in the power exponent w when the caller left it out."""
    g, d, k = params["g"], params["d"], params["k"]
    diff = (d + 1) ** k - d**k if tag == "III" else (d + 2) ** k - d**k
    if tag == "IV":
        diff >>= two_adic(diff)
    w = as_power_of(g, diff) if g >= 2 and diff >= 1 else None
    if w is None:
        target = (
            "(d+1)^k - d^k" if tag == "III"
            else "the greatest odd divisor of (d+2)^k - d^k"
        )
        raise FamilyConstraintError(tag, [f"{target} is not a power of g, so no w fits"])
    return w


def cmd_family_gen(args: argparse.Namespace) -> int:
    tag = args.tag.upper()
    if tag not in FAMILY_TAGS:
        raise UsageError(f"unknown family tag {args.tag!r}; choose from {', '.join(FAMILY_TAGS)}")
    params = _parse_family_params(args.params)
    if tag in ("III", "IV") and "w" not in params and {"g", "d", "k"} <= set(params):
        params["w"] = _derive_w(tag, params)
    try:
        nine = gen_family(tag, params)
    except FamilyConstraintError:
        raise
    except ValueError as exc:
        # wrong parameter names for the tag: a command-line mistake
        raise UsageError(str(exc)) from exc
    witness_params = {k: params[k] for k in sorted(params)}
    classification = classify_nine(nine)
    if classification.kind != "family":
        raise InternalInvariantError(
            f"generated family {tag} member {nine.as_tuple()} failed membership"
        )
    fmt = args.format
    if fmt == "human":
        print(f"family {tag} member ({_params_str(witness_params)}):")
        print(f"  ({nine.a}, {nine.b}, {nine.c}): {_nine_identities(nine)}")
    else:
        _emit_nine_rows([nine], classification, fmt, None)
    return 0


def cmd_family_check(args: argparse.Namespace) -> int:
    nine = _nine_from_args(args)
    if math.gcd(nine.a, nine.b) == 1:
        raise InputDataError(
            f"family membership needs a shared factor; gcd({nine.a}, {nine.b}) = 1"
        )
    try:
        classification = classify_nine(nine)
    except ValueError as exc:
        raise InputDataError(str(exc)) from exc
    fmt = args.format
    if fmt == "human":
        print(f"({nine.a}, {nine.b}, {nine.c}) with {_nine_identities(nine)}:")
        print(f"  {_verdict_str(nine, classification)}")
    else:
        _emit_nine_rows([nine], classification, fmt, None)
    return 0


def cmd_search_direct(args: argparse.Namespace) -> int:
    b = SearchBounds(a1_max=args.a1_max, g_max=args.g_max, b1_max=args.b1_max,
                     exp_max=args.exp_max)
    with warnings.catch_warnings():
        # a library UserWarning (a discarded checkpoint) becomes one stderr line
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        rows = direct_search(
            bounds=b,
            max_bits=args.max_bits,
            workers=args.workers,
            checkpoint=args.checkpoint,
        )
    print(
        f"direct search (g <= {b.g_max}, a1 <= {b.a1_max}, b1 <= {b.b1_max}, "
        f"exponents <= {b.exp_max}): {len(rows)} anomalous triple(s)",
        file=sys.stderr,
    )
    _emit_nine_rows(rows, Classification("anomalous", None), args.format, args.max_bits)
    return 0


def cmd_search_pipeline(args: argparse.Namespace) -> int:
    generating = args.rad_bound is not None or args.height_bound is not None
    if args.input is not None and generating:
        raise UsageError("give an equation file or generation bounds, not both")
    if args.input is not None:
        try:
            with open(args.input, encoding="utf-8") as handle:
                report = ingest_equations(handle)
        except OSError as exc:
            raise InputDataError(f"cannot read {args.input}: {exc}") from exc
        for lineno, message in report.diagnostics:
            print(f"{args.input}:{lineno}: {message}", file=sys.stderr)
        if not report.records:
            raise InputDataError(
                f"no usable equations in {args.input} ({report.summary()})"
            )
        print(report.summary(), file=sys.stderr)
        records = list(report.records)
    else:
        rad_bound = args.rad_bound or 100
        height_bound = args.height_bound or 10_000
        records = generate_equations(rad_bound, height_bound)
        print(
            f"generated {len(records)} equation(s) with radical <= {rad_bound} "
            f"and height <= {height_bound}",
            file=sys.stderr,
        )

    outcome = run_pipeline(records, RunConfig(max_bits=args.max_bits))
    stats = outcome.stats
    print(
        f"pipeline: {stats.get('pairs', 0)} candidate pairing(s), "
        f"{stats.get('systems', 0)} solved system(s), "
        f"{len(outcome.anomalous)} anomalous triple(s)",
        file=sys.stderr,
    )
    anomalous = Classification("anomalous", None)
    _emit_nine_rows(outcome.anomalous, anomalous, args.format, args.max_bits)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import CHECKS, run_check

    failures = 0
    for number, _name, _fn in CHECKS:
        result = run_check(number)
        print(result.line(), flush=True)
        if not result.passed:
            failures += 1
    total = len(CHECKS)
    print(f"{total - failures}/{total} criteria passed")
    return 0 if failures == 0 else 4


# ---------------------------------------------------------------------------
# parser assembly and entry point
# ---------------------------------------------------------------------------

def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json-lines", "csv", "human"), default="human",
        help="output format (default: %(default)s)",
    )


def _add_max_bits_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-bits", type=_positive_int, default=128,
        help="bit budget for enumerated and verified values (default: %(default)s)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="exptriple",
        description="Count and classify solutions of a^x + b^y = c^z "
        "when a and b share a factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all solutions of one base triple")
    p.add_argument("a", type=_positive_int)
    p.add_argument("b", type=_positive_int)
    p.add_argument("c", type=_positive_int)
    _add_max_bits_flag(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classify a two-solution nine-tuple")
    p.add_argument(
        "values", type=int, nargs=9, metavar="N",
        help="nine integers: a b c x1 y1 z1 x2 y2 z2",
    )
    _add_format_flag(p)
    p.set_defaults(func=cmd_classify)

    family = sub.add_parser("family", help="generate or test family members")
    fsub = family.add_subparsers(dest="family_command", required=True)

    p = fsub.add_parser("gen", help="instantiate one family member from parameters")
    p.add_argument("tag", help="family tag: I, II, III or IV")
    p.add_argument(
        "params", nargs="*", metavar="key=value",
        help="family parameters, e.g. g=7 j=1 u=2 d=1 k=3",
    )
    _add_format_flag(p)
    p.set_defaults(func=cmd_family_gen)

    p = fsub.add_parser("check", help="test a nine-tuple for family membership")
    p.add_argument(
        "values", type=int, nargs=9, metavar="N",
        help="nine integers: a b c x1 y1 z1 x2 y2 z2",
    )
    _add_format_flag(p)
    p.set_defaults(func=cmd_family_check)

    search = sub.add_parser("search", help="run one of the search drivers")
    ssub = search.add_subparsers(dest="search_command", required=True)

    p = ssub.add_parser("direct", help="scan the full identity box")
    box = SearchBounds()
    p.add_argument("--a1-max", dest="a1_max", type=_positive_int, default=box.a1_max)
    p.add_argument("--g-max", dest="g_max", type=_int_at_least(2), default=box.g_max)
    p.add_argument("--b1-max", dest="b1_max", type=_positive_int, default=box.b1_max)
    p.add_argument("--exp-max", dest="exp_max", type=_positive_int, default=box.exp_max)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--checkpoint", default=None, help="journal file for resumable runs")
    _add_max_bits_flag(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_search_direct)

    p = ssub.add_parser("pipeline", help="solve identities from an equation list")
    p.add_argument(
        "input", nargs="?", default=None,
        help="file of 'A B C' lines with A + B = C and gcd(A, B) = 1",
    )
    p.add_argument(
        "--gen-rad", dest="rad_bound", type=_int_at_least(6), default=None,
        help="generate equations with radical up to this bound",
    )
    p.add_argument(
        "--gen-height", dest="height_bound", type=_int_at_least(2), default=None,
        help="generate equations with C up to this bound",
    )
    _add_max_bits_flag(p)
    _add_format_flag(p)
    p.set_defaults(func=cmd_search_pipeline)

    p = sub.add_parser(
        "verify-paper", aliases=["verify"],
        help="run the acceptance suite, one pass/fail line per criterion",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; keep the flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except FamilyConstraintError as exc:
        for violation in exc.violations:
            print(f"rejected: {violation}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
