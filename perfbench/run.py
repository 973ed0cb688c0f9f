"""Benchmark for exptriple: four workloads, checked against independent oracles.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it repeats whole rounds of
the workload for about S seconds (at least one round) and prints the
end-to-end metrics; with --trace 1 it runs one traced in-process round in
a fresh interpreter and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Failure reasons go to stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as wl

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 11
IMPORT_AND_SIEVE = "import exptriple; from exptriple.arith import factorize; factorize(2)"


def measure_setup(workload: str, seed: int) -> tuple[float, dict]:
    """Median fresh-interpreter import plus median preparation of the
    program's inputs.

    One untimed import first writes the bytecode caches, which a user pays
    once, not per run.  The oracle's side (expected rows, census sample) is
    computed once, untimed.
    """
    if wl.run_child(["-c", IMPORT_AND_SIEVE]).returncode != 0:
        raise SystemExit("cannot import exptriple from src/")
    spawns, preps = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = wl.run_child(["-c", IMPORT_AND_SIEVE])
        spawns.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"import failed: {proc.stderr.strip()[-300:]}")
        start = time.perf_counter()
        inputs = wl.program_inputs(workload)
        preps.append(time.perf_counter() - start)
    inputs.update(wl.oracle_inputs(workload, seed, inputs))
    return statistics.median(spawns) + statistics.median(preps), inputs


def peak_rss_mib(workload: str) -> float:
    """Peak resident memory of the processes that ran the program.

    The census runs in this process; the searches run in child processes
    (the command line and its pool workers), and so do the set-up imports.
    """
    who = resource.RUSAGE_SELF if workload == "census" else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload: str, seed: int, seconds: int, tally: wl.Tally) -> dict[str, dict]:
    setup_s, inputs = measure_setup(workload, seed)
    walls, cpus, rounds = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        meter = wl.Meter()
        wl.run_round(workload, inputs, tally, meter)
        walls.append(meter.wall)
        cpus.append(meter.cpu)
        rounds.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.mean(rounds) > seconds:
            break
    print(f"{workload}: {len(walls)} round(s), run_s {walls}, cpu_s {cpus}", file=sys.stderr)
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": peak_rss_mib(workload),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}


def probe(workload: str, seed: int, mode: str, tally: wl.Tally) -> dict:
    script = str(Path(__file__).with_name("probe.py"))
    proc = wl.run_child([script, "--workload", workload, "--seed", str(seed), "--mode", mode])
    if proc.returncode != 0:
        raise SystemExit(f"{mode} probe failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    tally.reasons.extend(result["reasons"])
    return result


def per_layer(workload: str, seed: int, tally: wl.Tally) -> dict[str, dict]:
    values = dict(probe(workload, seed, "traced", tally)["metrics"])
    if workload == "direct-journal":
        values.update(probe(workload, seed, "journal-extras", tally)["metrics"])
    # a layer this workload never enters reads 0
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in SPEC["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (wl.SRC / "exptriple" / "__init__.py").is_file():
        print(f"error: no exptriple package under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    import exptriple  # noqa: F401  (imported before any round is timed)

    tally = wl.Tally()
    try:
        if args.trace:
            metrics = per_layer(args.workload, args.seed, tally)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, tally)
    finally:
        wl.cleanup()
    for reason in tally.reasons[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
