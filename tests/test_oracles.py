"""The oracles stay independent of the package: agreement with an oracle is
evidence only if the oracle never runs the code it checks.  Neither oracle
file imports `bnskit`, by name or relatively, and loading the benchmark's
oracles through `tests/oracles.py` loads no `bnskit` module.  No helper
module under `tests/` defines a test, which pytest would not run."""

import ast
import fnmatch
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


def test_helper_modules_define_no_tests(pytestconfig):
    """pytest collects tests only from the files its `python_files` patterns
    match, so a test function written in any other module under `tests/`
    runs only where a test module imports it, and nowhere if none does."""
    patterns = pytestconfig.getini("python_files")
    prefixes = tuple(pytestconfig.getini("python_functions"))
    helpers = [
        path for path in sorted((ROOT / "tests").rglob("*.py"))
        if not any(fnmatch.fnmatch(path.name, pattern) for pattern in patterns)
    ]
    assert helpers
    defined = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path in helpers
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith(prefixes)
    ]
    assert not defined, defined
