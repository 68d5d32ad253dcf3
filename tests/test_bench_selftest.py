"""The benchmark harness's own self-test, with its pinned work-counter
anchors (39,208 topologies and 0 LP calls for ``non_glp_family(2)`` at
q = 2, 5,040 automorphisms for the edgeless 7-vertex graph).

It takes about 15 s, so it is marked ``slow``; ``pytest -m slow`` runs it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
