"""One in-process run of a workload, in a fresh interpreter, for traced runs.

    python3 perfbench/probe.py --workload W --seed N --mode traced|journal-extras

Prints one JSON object.  traced runs one traced round with one worker and
reduces its spans to the per-layer metrics.  journal-extras times the
journal box with and without a checkpoint and with one and two workers.
"""

from __future__ import annotations

import argparse
import json
import sys

import exptriple  # noqa: F401  (imported before any round is timed)
import tracing
import workloads as wl


def wchar() -> int:
    """Bytes this process has passed to write calls so far."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def journal_extras(inputs: dict, tally: wl.Tally) -> dict[str, float]:
    """Checkpoint overhead and bytes at two workers, and the pool speedup."""
    timed = {}
    for label, workers, journal in (("ckpt2", 2, True), ("plain2", 2, False), ("plain1", 1, False)):
        ckpt = str(wl.fresh_dir("extras") / "run.json") if journal else None
        meter = wl.Meter()
        before = wchar()
        with meter.timing():
            rows = wl.inproc_direct("direct-journal", workers, ckpt)
        timed[label] = (meter.wall, wchar() - before)
        tally.record(wl.check_rows(rows, inputs["expected"]))
    return {
        "search.checkpoint.overhead_s": timed["ckpt2"][0] - timed["plain2"][0],
        # the pool's task pipe is written alike in both runs
        "search.checkpoint.bytes_written": timed["ckpt2"][1] - timed["plain2"][1],
        "search.pool.speedup": timed["plain1"][0] / timed["plain2"][0],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("traced", "journal-extras"), required=True)
    args = parser.parse_args()

    inputs = wl.prepare(args.workload, args.seed)
    tally = wl.Tally()
    meter = wl.Meter()
    metrics: dict[str, float] = {}
    try:
        if args.mode == "journal-extras":
            metrics = journal_extras(inputs, tally)
        else:
            tracer = tracing.Tracer()
            with tracer.installed():
                wl.run_round(args.workload, inputs, tally, meter, inproc=True)
            metrics = tracing.per_layer_metrics(tracer.spans, args.workload == "direct-journal")
            metrics["trace.overhead_s"] = tracing.wrapper_cost_s() * len(tracer.spans)
    finally:
        wl.cleanup()
    print(json.dumps({
        "attempted": tally.attempted, "failed": tally.failed,
        "reasons": tally.reasons[:10], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
