"""Self-test of the benchmark: two traced runs of one seed give the same exact counts.

    python3 -m pytest bench/selftest.py

Later changes cite these counts (e.g. `linalg.pow_p.calls`) as counts, not
timings, so each must repeat exactly from one process to the next.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
EXACT = ("strata.points", "strata.accept_ratio", "fields.ratfunc.ops")


def _traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _exact_counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith((".calls", ".cells")) or k in EXACT}


@pytest.mark.parametrize("workload", ["sweep", "queries", "loci"])
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced_run(workload, 0), _traced_run(workload, 0)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    counts = _exact_counts(first)
    assert counts["strata.points"] > 0 and counts["linalg.rank.calls"] > 0
    assert counts == _exact_counts(second)
