"""The names and result shapes of exptriple that the benchmark's probe reads.

perfbench traces the functions named in its tracing.LAYERS and reads the
results of both search front ends.  These tests read perfbench without
changing it, so that deleting or reshaping one of those names fails here
instead of in a traced benchmark run.
"""

import importlib
from pathlib import Path

from exptriple.config import RunConfig, SearchBounds
from exptriple.families import NineTuple
from exptriple.search import (
    Identity,
    direct_search,
    generate_equations,
    ingest_equations,
    pair_and_solve,
    reconstruct_and_verify,
    run_pipeline,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    # run the module's source in a namespace of its own, leaving no bytecode behind
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    layers = _layers()
    assert len(layers) == 12
    for module, function, _, _ in layers:
        assert callable(getattr(importlib.import_module(f"exptriple.{module}"), function))


def test_layer_outcomes_read_their_results():
    outcomes = {function: outcome for _, function, _, outcome in _layers()}
    left = Identity("a", 3, 1, 1, None, 2, 1, 5, 1)
    right = Identity("b", 3, 1, 1, None, 2, 3, 5, 2)
    solved = pair_and_solve(left, right)
    assert outcomes["pair_and_solve"](solved) is True
    result = reconstruct_and_verify(left, right, solved[0], 128)
    assert outcomes["reconstruct_and_verify"](result) is True
    assert outcomes["generate_equations"](generate_equations(30, 1000)) > 0


def test_front_end_results_have_the_shapes_the_probe_reads():
    records = ingest_equations(["16 3 19", "1 18 19"]).records
    outcome = run_pipeline(records, RunConfig(max_bits=128))
    assert [nine.as_tuple() for nine in outcome.anomalous] == [(2, 6, 38, 1, 2, 1, 5, 1, 1)]
    assert list(outcome.family) == []
    found = direct_search(SearchBounds(a1_max=1, g_max=2, b1_max=3, exp_max=4), max_bits=128)
    assert found and all(isinstance(nine, NineTuple) for nine in found)
