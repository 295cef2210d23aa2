"""Every script in ``demos/`` runs to its end in a new process, with
warnings as errors."""

import subprocess
from pathlib import Path

import pytest

from tests.test_cli import python_process

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0_under_warnings_as_errors(demo):
    proc = subprocess.run(**python_process("-W", "error", str(demo)),
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
