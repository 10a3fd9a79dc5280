"""The oracles stay independent of the package: agreement with an oracle is
evidence only if the oracle never runs the code it checks.  Neither oracle
file imports `bnskit`, by name or relatively, and loading the benchmark's
oracles through `tests/oracles.py` loads no `bnskit` module."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bnskit

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
from tests.oracles import bench_oracles
bench_oracles()
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "bnskit")))
"""


@pytest.mark.parametrize("path", ["tests/oracles.py", "bench/oracles.py"])
def test_oracle_files_do_not_import_the_package(path):
    imported = []
    for node in ast.walk(ast.parse((ROOT / path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            imported.append(node.module)
    assert imported
    assert not [name for name in imported if name.partition(".")[0] == "bnskit"]


def test_loading_the_bench_oracles_loads_no_package_module():
    # the package is importable in the probe, so an import of it would load
    src = str(Path(bnskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
