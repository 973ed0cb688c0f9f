"""Steadiness check: repeat the benchmark and compare spreads with the bounds.

    python3 perfbench/steady.py [--workload W ...] [--runs 10] [--first-seed 1]

For each workload it makes two sets of --runs end-to-end runs, each run
with its own seed, and reports per end-to-end metric the median, the
quartiles, the spread (q3 - q1) / median and the change of the median from
set 1 to set 2 in the metric's worse direction, next to the metric's bound
in BENCHMARK.json.  It also compares the share of failed operations between
the sets.  Exit status 1 when a spread other than setup_s reaches its
bound, a median moves either way by more than its bound, or the failed
shares differ.  setup_s is a fraction of a second of interpreter start, so
its spread is the machine's; it is held by the median gate alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    ok = True
    report = {}
    seed = args.first_seed
    for workload in args.workload or names:
        sets = []
        began = time.perf_counter()
        for _ in range(SETS):
            runs = []
            for _ in range(args.runs):
                runs.append(one_run(workload, seed, spec["run_seconds"]))
                seed += 1
            sets.append(runs)
        per_run = (time.perf_counter() - began) / (SETS * args.runs)
        shares = {str(Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s))) for s in sets}
        if len(shares) > 1:
            ok = False
        print(f"\n{workload}: {per_run:.1f} s per run, failed share per set {sorted(shares)}", flush=True)
        report[workload] = {"failed_share": sorted(shares), "seconds_per_run": per_run}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in s]) for s in sets]
            spreads = [(q3 - q1) / median for median, q1, q3 in stats]
            first, second = stats[0][0], stats[1][0]
            worse = (second - first) / first * (1 if metric["better"] == "lower" else -1)
            steady = all(s < bound / 3 for s in spreads)
            if (name != "setup_s" and max(spreads) >= bound) or abs(worse) > bound:
                ok = False
            for i, (median, q1, q3) in enumerate(stats):
                print(f"  {name:14s} set {i + 1}: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                      f"spread {spreads[i]:.3f}")
            print(f"  {name:14s} bound {bound}: worse by {worse:+.3f} between sets, "
                  f"{'steady' if steady else 'NOT below a third of the bound'}")
            report[workload][name] = {"sets": stats, "spreads": spreads, "worse": worse}
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
