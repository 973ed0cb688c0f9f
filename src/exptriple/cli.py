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
from typing import Callable, Iterable, Sequence

from .arith import as_power_of
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
    _family_power,
    _require_keys,
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


def _emit_rows(fmt: str, fields: Sequence[str], rows: Iterable[dict[str, object]]) -> None:
    """Write rows as json lines, or as csv under a header of fields.

    A csv cell is empty for None, and a parameter map is written as
    _params_str writes it.
    """
    if fmt == "json-lines":
        for row in rows:
            print(json.dumps(row))
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(fields)
    for row in rows:
        writer.writerow("" if v is None else _params_str(v) if isinstance(v, dict) else v
                        for v in (row[k] for k in fields))


def _emit_nine_rows(
    nines: Sequence[NineTuple], classification: Classification, fmt: str, bound_bits: int | None
) -> None:
    if fmt != "human":
        _emit_rows(fmt, JSON_FIELDS, (_nine_row(n, classification, bound_bits) for n in nines))
        return
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

    if args.format != "human":
        class_index = {s: i for i, cls in enumerate(sset.classes, start=1) for s in cls}
        fields = ("a", "b", "c", "x", "y", "z", "class", "bound_bits")
        _emit_rows(args.format, fields, (
            dict(zip(fields, (t.a, t.b, t.c, s.x, s.y, s.z, class_index[s], args.max_bits)))
            for s in sset.solutions
        ))
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


def _classified(
    args: argparse.Namespace, coprime_message: str
) -> tuple[NineTuple, Classification]:
    """The nine values of args and their verdict; any ValueError is a data error.

    Coprime bases are refused with coprime_message, followed by their gcd.
    """
    try:
        nine = make_nine_tuple(*args.values)
        if math.gcd(nine.a, nine.b) == 1:
            raise ValueError(f"{coprime_message}; gcd({nine.a}, {nine.b}) = 1")
        return nine, classify_nine(nine)
    except ValueError as exc:
        raise InputDataError(str(exc)) from exc


def cmd_classify(args: argparse.Namespace) -> int:
    nine, classification = _classified(args, "classification requires gcd(a, b) > 1")
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
    """Fill in the power exponent w when the caller left it out.

    w is read off the family power when that is a power of g.  Otherwise
    gen_family runs with w = 1 in its place: it checks every range before
    it compares g^w with the family power, and w = 1 breaks no range, so it
    names each broken range.  Only when every range holds is the missing
    w itself blamed.
    """
    g, d, k = params["g"], params["d"], params["k"]
    if g >= 2 and d >= 1 and k >= 1:
        w = as_power_of(g, _family_power(tag, d, k))
        if w is not None:
            return w
    try:
        gen_family(tag, {**params, "w": 1})
    except FamilyConstraintError as exc:
        if not any(v.startswith("g^w must equal") for v in exc.violations):
            raise
    target = "(d+1)^k - d^k" if tag == "III" else "the greatest odd divisor of (d+2)^k - d^k"
    raise FamilyConstraintError(tag, [f"{target} is not a power of g, so no w fits"])


def cmd_family_gen(args: argparse.Namespace) -> int:
    tag = args.tag.upper()
    if tag not in FAMILY_TAGS:
        raise UsageError(f"unknown family tag {args.tag!r}; choose from {', '.join(FAMILY_TAGS)}")
    params = _parse_family_params(args.params)
    if tag in ("III", "IV") and "w" not in params:
        # the names come first, so that a wrong one is reported as typed
        _require_keys(tag, params, optional=frozenset({"w"}))
        params["w"] = _derive_w(tag, params)
    nine = gen_family(tag, params)
    classification = classify_nine(nine)
    if classification.kind != "family":
        raise InternalInvariantError(
            f"generated family {tag} member {nine.as_tuple()} failed membership"
        )
    if args.format == "human":
        print(f"family {tag} member ({_params_str(params)}):")
        print(f"  ({nine.a}, {nine.b}, {nine.c}): {_nine_identities(nine)}")
    else:
        _emit_nine_rows([nine], classification, args.format, None)
    return 0


def cmd_family_check(args: argparse.Namespace) -> int:
    nine, classification = _classified(args, "family membership needs a shared factor")
    if args.format == "human":
        print(f"({nine.a}, {nine.b}, {nine.c}) with {_nine_identities(nine)}:")
        print(f"  {_verdict_str(nine, classification)}")
    else:
        _emit_nine_rows([nine], classification, args.format, None)
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


def _add_nine_values(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "values", type=int, nargs=9, metavar="N",
        help="nine integers: a b c x1 y1 z1 x2 y2 z2",
    )
    _add_format_flag(parser)


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
    _add_nine_values(p)
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
    _add_nine_values(p)
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
