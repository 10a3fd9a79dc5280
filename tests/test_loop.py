"""Pure loop braid groups: the 2-loop reduction, the loop count's type and
the covered obstruction's memory at the loop limit.  The tests both
projection families share are in `tests/test_projection.py`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bnskit import loop
from bnskit.words import word

from .families import FAMILIES, NOT_INTS, check_count_rejected


@pytest.mark.parametrize("count", NOT_INTS, ids=repr)
def test_loop_count_must_be_int(count):
    check_count_rejected(FAMILIES["loop"], count)


def test_project_word_and_reduce():
    names3 = loop.LoopBraidBasis(3).names
    w = word(names3, ["A(1,3)", "A(1,2)"])
    assert str(loop.project_word(3, (1, 2), w)) == "A(1,2)"
    names2 = loop.LoopBraidBasis(2).names
    r = loop.plb2_reduce(word(names2, ["A(1,2)", "A(2,1)", ("A(1,2)", -1)]))
    assert str(r) == "A B A^-1"
    assert len(loop.plb2_reduce(word(names2, ["A(1,2)", ("A(1,2)", -1)]))) == 0


# runs one command line in a forked child, which prints its porcelain and
# its peak resident set in KB: exec carries over the peak of the process that
# started the probe (the test runner), fork starts from the probe's own size
_PEAK_PROBE = """
import os, resource, sys
from bnskit import cli
if os.fork() == 0:
    report = cli.run(sys.argv[1:])
    print("\\n".join(report.porcelain))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    os._exit(report.exit_code)
_, status = os.wait()
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_covered_obstruct_at_the_strand_limit_stays_under_100_mb(tmp_path):
    """`loop obstruct -n 64` on the covered branch, one unit-vector file
    per generator off loops {1,2}: 4,030 files.  Read as dense vectors they
    held about 130 MB; read as rows the whole process stays under 100 MB."""
    paths = []
    for name in loop.LoopBraidBasis(64).names:
        if name not in ("A(1,2)", "A(2,1)"):
            path = tmp_path / f"{len(paths)}.vec"
            path.write_text(f"{name} = 1\n")
            paths.append(str(path))
    assert len(paths) == 4030
    src = str(Path(loop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, "--porcelain", "loop", "obstruct", "-n", "64", *paths],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    *porcelain, peak_kb = done.stdout.splitlines()
    assert "branch=covered" in porcelain and "covering=plb2-all:1,2" in porcelain
    assert int(peak_kb) < 100 * 1024
