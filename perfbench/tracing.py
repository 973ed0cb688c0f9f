"""Spans around the calls into each layer, recorded from the benchmark's side.

Tracer.installed replaces each traced module-level function of exptriple by
a wrapper, in every exptriple module that holds a reference to it, so the
names that search imports from solve, triple, classify and families are
traced too.  Spans stay in memory; per_layer_metrics reduces them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

# (module, function, span name, outcome of a result); an outcome is kept
# on the span so that ratios are measured where the work happens
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("arith", "factorize", "arith.factorize", None),
    ("triple", "build_triple", "triple.build_triple", None),
    ("solve", "enumerate_solutions", "solve.enumerate_solutions", None),
    ("classify", "type_profile", "classify.type_profile", None),
    ("families", "classify_nine", "families.classify_nine", None),
    ("families", "canonical_nine", "families.canonical_nine", None),
    ("search", "_search_unit", "search.cell", None),
    ("search", "pair_and_solve", "search.pair_and_solve", lambda r: r[0] is not None),
    ("search", "reconstruct_and_verify", "search.reconstruct_and_verify", lambda r: r.reason is None),
    ("search", "generate_equations", "search.generate_equations", len),
    ("search", "decompose", "search.decompose", None),
    ("search", "make_equation", "search.make_equation", None),
)

# span fields
NAME, START, END, PARENT, OUTCOME = range(5)


class Tracer:
    """Spans [name, start, end, parent index, outcome] in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, outcome: Callable | None) -> Callable:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if outcome is not None:
                span[OUTCOME] = outcome(result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Swap every reference to a traced function for its wrapper."""
        import exptriple  # noqa: F401  (loads every module)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "exptriple"]
        swapped = []
        for mod_name, fn_name, span_name, outcome in LAYERS:
            original = getattr(sys.modules[f"exptriple.{mod_name}"], fn_name)
            wrapper = self.wrap(span_name, original, outcome)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, original))
        try:
            yield
        finally:
            for mod, attr, original in swapped:
                setattr(mod, attr, original)


def wrapper_cost_s(batches: int = 9, calls: int = 20_000) -> float:
    """Median extra seconds that one traced call costs over a plain call.

    Times a one-argument function plain and wrapped, batch by batch in
    turn, so that a change of the machine's speed falls on both.  Times
    the number of spans it estimates the tracing overhead of a round; a
    difference of two whole rounds would be mostly the machine's drift.
    """
    tracer = Tracer()

    def plain(x):
        return x

    traced = tracer.wrap("calibration", plain, None)
    clock = time.perf_counter
    costs = []
    for _ in range(batches):
        tracer.spans.clear()
        start = clock()
        for i in range(calls):
            plain(i)
        middle = clock()
        for i in range(calls):
            traced(i)
        costs.append(((clock() - middle) - (middle - start)) / calls)
    return statistics.median(costs)


def per_layer_metrics(spans: list[list], journal: bool) -> dict[str, float]:
    """Counts, mean microseconds per call and ratios for every layer.

    A layer the run never entered reads 0.  search.cell.self_s is cell time
    minus the pairing and verification spans directly inside the cells.
    """
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def durations(name: str) -> list[float]:
        return [s[END] - s[START] for s in by_name.get(name, [])]

    out: dict[str, float] = {}
    for layer in ("arith.factorize", "triple.build_triple", "solve.enumerate_solutions",
                  "classify.type_profile", "families.classify_nine", "families.canonical_nine",
                  "search.pair_and_solve", "search.reconstruct_and_verify", "search.decompose"):
        d = durations(layer)
        out[f"{layer}.calls"] = len(d)
        out[f"{layer}.us"] = sum(d) / len(d) * 1e6 if d else 0.0
    out["search.make_equation.calls"] = len(by_name.get("search.make_equation", []))

    for layer, key in (("search.pair_and_solve", "solved_ratio"),
                       ("search.reconstruct_and_verify", "accepted_ratio")):
        spans_ = by_name.get(layer, [])
        out[f"{layer}.{key}"] = sum(1 for s in spans_ if s[OUTCOME]) / len(spans_) if spans_ else 0.0

    cells = durations("search.cell")
    cell_ids = {i for i, s in enumerate(spans) if s[NAME] == "search.cell"}
    inside = sum(
        s[END] - s[START] for s in spans
        if s[PARENT] in cell_ids and s[NAME] in ("search.pair_and_solve", "search.reconstruct_and_verify")
    )
    out["search.cell.count"] = len(cells)
    out["search.cell.median_ms"] = statistics.median(cells) * 1e3 if cells else 0.0
    p90 = statistics.quantiles(cells, n=10, method="inclusive")[8] if journal and len(cells) > 1 else 0.0
    out["search.cell.p90_ms"] = p90 * 1e3
    out["search.cell.self_s"] = sum(cells) - inside

    gen = by_name.get("search.generate_equations", [])
    out["search.generate_equations.s"] = sum(s[END] - s[START] for s in gen)
    out["search.generate_equations.equations"] = sum(s[OUTCOME] for s in gen)
    return out
