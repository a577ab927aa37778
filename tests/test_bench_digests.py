"""Every benchmark output digest, checked in the unit tests.

``bench/run.py`` hashes each stage's output (trajectories, reports, loss
terms, CLI files) and compares the hash with ``bench/reference_digests.json``.
Running it here, for each workload at the default and the held-out seed,
makes a change to any of those outputs fail the unit tests, not only a
benchmark run.  ``--seconds 0`` runs the fewest rounds the harness allows.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["crowded", "fragmented", "corpus"])
def test_bench_digests_match_the_reference(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    digests = [line for line in lines if line.startswith("digest ")]
    assert digests, lines
    assert all(line.endswith(" reference=match") for line in digests), digests
    result = json.loads(lines[-1])
    assert result["failed"] == 0 and result["correct"], out.stderr
