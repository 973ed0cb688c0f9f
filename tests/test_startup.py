"""What `import exptriple` loads in a fresh interpreter.

The command line, the benchmark's tracer and every subprocess test start
with that import, so it must load each module they resolve and none of
the costly standard modules the package has no use for at start-up.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# prints the modules that `import exptriple` adds to what the interpreter
# (site and its .pth hooks included) had already loaded
_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import exptriple\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
)


@pytest.fixture(scope="module")
def added():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return set(done.stdout.split())


def _traced_modules():
    """The first field of every LAYERS entry of perfbench/tracing.py, read without running it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return {entry.elts[0].value for entry in node.value.elts}
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def _cli_modules():
    """The package modules that cli.py imports at module level."""
    tree = ast.parse((SRC / "exptriple" / "cli.py").read_text(encoding="utf-8"))
    return {node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_loads_every_module_the_tracer_and_the_cli_resolve(added):
    wanted = _traced_modules() | _cli_modules()
    assert {"arith", "triple", "solve", "classify", "families", "search"} <= wanted
    assert {f"exptriple.{m}" for m in wanted} <= added


@pytest.mark.parametrize("module", ["dataclasses", "inspect", "multiprocessing"])
def test_does_not_load(added, module):
    assert module not in added
