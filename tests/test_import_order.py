"""Every module of the import cycle imports cleanly when it comes first.

``spinclass`` binds ``rewriter`` and ``orbits`` at its end, and both import
from ``spinclass``.  Each module is imported first in a fresh interpreter
that turns warnings into errors: once through the package, and once with
the package ``__init__`` skipped, so that the module itself starts the
cycle."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# an empty package module in place of spindual/__init__.py
BARE_PACKAGE = (
    "import importlib.util, sys\n"
    "spec = importlib.util.find_spec('spindual')\n"
    "sys.modules['spindual'] = importlib.util.module_from_spec(spec)\n"
)

# the cycle's names resolve to the modules they name
CHECK = (
    "from spindual import orbits, rewriter, spinclass\n"
    "assert spinclass.rewriter is rewriter and spinclass.orbits is orbits\n"
    "assert rewriter.StringPairs is spinclass.StringPairs\n"
)


@pytest.mark.parametrize("bare", [False, True])
@pytest.mark.parametrize("module", ["rewriter", "orbits", "spinclass", "cli"])
def test_module_imports_first(module, bare):
    code = (BARE_PACKAGE if bare else "") + f"import spindual.{module}\n" + CHECK
    run = subprocess.run([sys.executable, "-W", "error", "-c", code],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 0, run.stderr
