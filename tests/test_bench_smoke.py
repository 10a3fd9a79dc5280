"""The benchmark tooling still runs against the package: its self-test
rejects every corrupted output, and one traced round of every workload
passes its checks.  No timing is asserted.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def _run(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


def test_bench_self_test_rejects_every_corruption():
    done = _run("--self-test")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    rejected, total = map(int, re.search(r"(\d+) of (\d+) corruptions rejected", done.stdout).groups())
    assert rejected == total > 0


def test_bench_traced_round_is_correct():
    done = _run("--trace", "1", "--seconds", "0")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
