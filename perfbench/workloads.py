"""The four workloads: their inputs, their operations and their checks.

Each workload has an end-to-end form, run the way a user runs it (the
searches through the exptriple command line, the census in-process), and
an in-process one-worker form used by traced runs.  Every output is
checked against oracles.py, never against a stored copy of an earlier
output.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MAX_BITS = 128
# (g_max, a1_max, b1_max, exp_max).  The catalogue box is the smallest
# found that recalls all ten rows (row 10 needs b1 = 493); the journal box
# has many cheap cells so that dispatch and checkpoint writes dominate.
BOXES = {
    "direct-catalogue": (10, 5, 500, 6),
    "direct-journal": (60, 60, 12, 3),
}
WORKERS = {"direct-catalogue": 1, "direct-journal": 2}
GEN_RAD, GEN_HEIGHT = 1000, 10**6
CENSUS_B, CENSUS_C = 40, 160
CENSUS_SAMPLE = 500
WORKLOADS = ("direct-catalogue", "direct-journal", "pipeline-generate", "census")


def child_env() -> dict[str, str]:
    """The caller's environment with src/ on the path and bytecode caching on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], timeout: float = 170) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=timeout, check=False,
    )


def cpu_seconds() -> float:
    """User plus system CPU of this process and every child waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Meter:
    """Wall and CPU seconds summed over the timed parts of a round."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    @contextmanager
    def timing(self) -> Iterator[None]:
        wall, cpu = time.perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += cpu_seconds() - cpu


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems[:3])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def census_grid() -> list[tuple[int, int, int]]:
    return [
        (a, b, c)
        for a in range(2, CENSUS_B + 1)
        for b in range(a, CENSUS_B + 1)
        if math.gcd(a, b) > 1
        for c in range(2, CENSUS_C + 1)
    ]


def census_sample(grid: list[tuple[int, int, int]], seed: int) -> set[int]:
    """Seeded indices for the naive oracle.

    Drawn among triples where c shares a prime with gcd(a, b); no other
    triple can have a solution, and the substitution check covers the rest.
    """
    eligible = [i for i, (a, b, c) in enumerate(grid) if math.gcd(math.gcd(a, b), c) > 1]
    return set(random.Random(seed).sample(eligible, CENSUS_SAMPLE))


def program_inputs(workload: str) -> dict:
    """What the program is given beyond its command line; run.py times this
    as part of set-up.  Only the census has such inputs: its grid."""
    return {"grid": census_grid()} if workload == "census" else {}


def oracle_inputs(workload: str, seed: int, inputs: dict) -> dict:
    """The checks' side of a workload: expected rows or the census sample."""
    if workload == "census":
        return {"sample": census_sample(inputs["grid"], seed)}
    if workload == "pipeline-generate":
        return {"expected": oracles.pipeline_expected(GEN_RAD, GEN_HEIGHT)}
    return {"expected": oracles.direct_expected(*BOXES[workload])}


def prepare(workload: str, seed: int) -> dict:
    """Program inputs and oracle inputs of a workload in one dict."""
    inputs = program_inputs(workload)
    inputs.update(oracle_inputs(workload, seed, inputs))
    return inputs


def fresh_dir(name: str) -> Path:
    """An empty scratch directory of this process inside the checkout."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup() -> None:
    """Remove this process's scratch directories, and WORK once empty."""
    for path in WORK.glob(f"*-{os.getpid()}"):
        shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# search checks
# ---------------------------------------------------------------------------

_FIELDS = ("a", "b", "c", "x1", "y1", "z1", "x2", "y2", "z2")


def check_rows(rows: list[dict], expected: set[tuple[int, ...]]) -> list[str]:
    """Search output against the oracle's set of normalized rows.

    rows are dicts with the nine fields plus classification, family and
    params, as the command line's json-lines output gives them.
    """
    problems = []
    anomalous = []
    for row in rows:
        nine = tuple(row[k] for k in _FIELDS)
        a, b, c, x1, y1, z1, x2, y2, z2 = nine
        if not (oracles.substitutes(a, b, c, x1, y1, z1) and oracles.substitutes(a, b, c, x2, y2, z2)):
            problems.append(f"row does not substitute: {nine}")
        elif row["classification"] == "anomalous":
            anomalous.append(oracles.normalize(nine))
        elif not oracles.explained_by_family(nine, row["family"], row["params"] or {}):
            problems.append(f"family row not explained: {nine} {row['family']} {row['params']}")
    if len(anomalous) != len(set(anomalous)):
        problems.append("duplicate anomalous rows")
    if set(anomalous) != expected:
        missing = sorted(expected - set(anomalous))
        extra = sorted(set(anomalous) - expected)
        problems.append(f"anomalous rows differ: missing {missing}, extra {extra}")
    return problems


def nine_row(nine, classification=None) -> dict:
    """A NineTuple in the command line's json-lines shape."""
    witness = classification.witness if classification else None
    row = dict(zip(_FIELDS, nine.as_tuple()))
    row["classification"] = classification.kind if classification else "anomalous"
    row["family"] = witness.family if witness else None
    row["params"] = dict(witness.params) if witness else None
    return row


# ---------------------------------------------------------------------------
# search rounds
# ---------------------------------------------------------------------------


class OpFailed(Exception):
    """A search run that exited with an error or printed no usable rows."""


def cli_search(args: list[str]) -> list[dict]:
    proc = run_child(["-m", "exptriple.cli", "search", *args, "--format", "json-lines"])
    if proc.returncode != 0:
        raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    try:
        return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise OpFailed(f"unparsable output: {exc}") from exc


def box_args(workload: str) -> list[str]:
    g_max, a1_max, b1_max, exp_max = BOXES[workload]
    return [
        "direct", "--g-max", str(g_max), "--a1-max", str(a1_max),
        "--b1-max", str(b1_max), "--exp-max", str(exp_max),
        "--workers", str(WORKERS[workload]), "--max-bits", str(MAX_BITS),
    ]


def inproc_direct(workload: str, workers: int, checkpoint: str | None) -> list[dict]:
    from exptriple import search
    from exptriple.config import SearchBounds

    g_max, a1_max, b1_max, exp_max = BOXES[workload]
    bounds = SearchBounds(a1_max=a1_max, g_max=g_max, b1_max=b1_max, exp_max=exp_max)
    found = search.direct_search(bounds, max_bits=MAX_BITS, workers=workers, checkpoint=checkpoint)
    return [nine_row(nine) for nine in found]


def inproc_pipeline() -> list[dict]:
    from exptriple import search
    from exptriple.config import RunConfig

    records = search.generate_equations(GEN_RAD, GEN_HEIGHT)
    outcome = search.run_pipeline(records, RunConfig(max_bits=MAX_BITS))
    rows = [nine_row(nine) for nine in outcome.anomalous]
    rows.extend(nine_row(nine, verdict) for nine, verdict in outcome.family)
    return rows


def search_ops(workload: str, inproc: bool) -> list[Callable[[], list[dict]]]:
    """The runs of one search round: the command line, or in-process with one worker.

    direct-journal runs twice on one fresh checkpoint, the second run
    resuming from the finished file.
    """
    if workload == "pipeline-generate":
        gen = ["pipeline", "--gen-rad", str(GEN_RAD), "--gen-height", str(GEN_HEIGHT),
               "--max-bits", str(MAX_BITS)]
        return [inproc_pipeline if inproc else partial(cli_search, gen)]
    ckpt = str(fresh_dir("journal") / "run.json") if workload == "direct-journal" else None
    if inproc:
        op = partial(inproc_direct, workload, 1, ckpt)
    else:
        op = partial(cli_search, box_args(workload) + (["--checkpoint", ckpt] if ckpt else []))
    return [op, op] if ckpt else [op]


def run_round(workload: str, inputs: dict, tally: Tally, meter: Meter, inproc: bool = False) -> None:
    """One round of a workload; the meter times the program, not the checks."""
    if workload == "census":
        with meter.timing():
            results = census_round(inputs["grid"])
        census_check(inputs, results, tally)
        return
    outputs = []
    for op in search_ops(workload, inproc):
        try:
            with meter.timing():
                rows = op()
        except Exception as exc:  # a run that raises is one failed operation
            outputs.append(None)
            tally.record([repr(exc)])
            continue
        problems = check_rows(rows, inputs["expected"])
        if outputs and outputs[0] is not None and rows != outputs[0]:
            problems.append("resumed run differs from the first run")
        outputs.append(rows)
        tally.record(problems)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def census_round(grid: list[tuple[int, int, int]]) -> list:
    """The query path for every triple of the grid.

    Functions are looked up on their modules at each call so that a traced
    run sees its wrappers.  Per triple the result is None when there is no
    solution, the exception's repr when one was raised, else (solutions,
    tags, N, verdict, canonical, nine).
    """
    from exptriple import classify, families, solve, triple

    out: list = []
    for a, b, c in grid:
        try:
            t = triple.build_triple(a, b, c)
            sset = solve.enumerate_solutions(t, MAX_BITS)
            n = solve.count_N(sset)
            if not sset.solutions:
                out.append(None)
                continue
            sols = [(s.x, s.y, s.z) for s in sset.solutions]
            profiles = [classify.type_profile(t, s) for s in sset.solutions]
            tags = [{p: prof.tag(p) for p in t.common_primes} for prof in profiles]
            verdict = canon = nine = None
            if n == 2:
                r1, r2 = sset.classes[0][0], sset.classes[1][0]
                made = families.make_nine_tuple(a, b, c, r1.x, r1.y, r1.z, r2.x, r2.y, r2.z)
                verdict = families.classify_nine(made)
                canon = families.canonical_nine(made).as_tuple()
                nine = made.as_tuple()
            out.append((sols, tags, n, verdict, canon, nine))
        except Exception as exc:  # a raising triple is one failed operation
            out.append(repr(exc))
    return out


def census_check(inputs: dict, results: list, tally: Tally) -> None:
    """One operation per triple; any mismatch fails that triple."""
    grid, sample = inputs["grid"], inputs["sample"]
    must_two = {
        (min(a, b), max(a, b), c)
        for a, b, c, *_ in oracles.CATALOGUE
        if max(a, b) <= CENSUS_B and c <= CENSUS_C
    }
    if len(results) != len(grid):
        tally.record([f"census returned {len(results)} results for {len(grid)} triples"])
        return
    for i, ((a, b, c), res) in enumerate(zip(grid, results)):
        if isinstance(res, str):
            tally.record([f"{(a, b, c)}: raised {res}"])
            continue
        problems = []
        sols = res[0] if res else []
        if i in sample:
            naive = oracles.naive_solutions(a, b, c, MAX_BITS)
            if sols != naive:
                problems.append(f"{(a, b, c)}: solutions {sols} vs naive {naive}")
            elif res and res[1] != [oracles.type_tags(a, b, c, s) for s in sols]:
                problems.append(f"{(a, b, c)}: type tags {res[1]}")
        if (a, b, c) in must_two and (not res or res[2] != 2):
            problems.append(f"catalogue triple {(a, b, c)} lacks two classes")
        if res:
            problems += census_triple_problems(a, b, c, res)
        tally.record(problems)


def census_triple_problems(a: int, b: int, c: int, res) -> list[str]:
    sols, _, n, verdict, canon, nine = res
    problems = []
    if any(not oracles.substitutes(a, b, c, *s) for s in sols):
        problems.append(f"{(a, b, c)}: a solution does not substitute")
    if sols != sorted(set(sols), key=lambda s: (s[2], s[0], s[1])):
        problems.append(f"{(a, b, c)}: solutions not sorted and distinct")
    if n != oracles.class_count(a, b, sols):
        problems.append(f"{(a, b, c)}: N = {n} but the solutions form other classes")
    special = oracles.is_special(a, b, c)
    if n > 2 and not special:
        problems.append(f"{(a, b, c)}: N = {n} outside the special shapes")
    if n != 2:
        return problems
    if canon != oracles.normalize(nine):
        problems.append(f"{(a, b, c)}: canonical form {canon}")
    if special:
        return problems
    if verdict.kind == "anomalous":
        if oracles.normalize(nine) not in oracles.CATALOGUE_NORMALIZED:
            problems.append(f"{(a, b, c)}: anomalous and not catalogued")
    elif not oracles.explained_by_family(nine, verdict.family, verdict.witness.params):
        problems.append(f"{(a, b, c)}: family {verdict.family} witness does not match")
    return problems
