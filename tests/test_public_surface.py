"""The surface the README documents: its Library example, and a package
namespace that holds only the names that example and the error docs use.

`import bnskit` loads the graph, character, word and error modules only;
the families and the command line load when they are imported by name.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import bnskit

README = Path(__file__).resolve().parent.parent / "README.md"

TOP_LEVEL = ["BnsError", "DomainError", "Graph", "InputError", "ParseError", "PreconditionError", "make_character"]

PROBE = """
import json, sys
import bnskit
print(json.dumps({
    "loaded": [m for m in ("braid", "loop", "raag", "projection", "obstruction", "cli") if "bnskit." + m in sys.modules],
    "unresolved": [name for name in bnskit.__all__ if not hasattr(bnskit, name)],
}))
"""


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _commented_literal(comment: str):
    """The Python literal a comment opens with ('False: why' gives False),
    or None when it opens with prose."""
    for candidate in (comment, comment.split(":", 1)[0]):
        try:
            return (ast.literal_eval(candidate),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_readme_library_example_runs():
    source = _library_block()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for statement in ast.parse(source).body:
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        expected = _commented_literal(comment) if isinstance(statement, ast.Expr) else None
        if expected is None:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        assert (type(value), value) == (type(expected[0]), expected[0]), lines[statement.end_lineno - 1]
        checked.append(value)
    assert checked == [False, ("out", "pb3-sum"), "certificate"]


def test_import_loads_only_the_documented_namespace():
    assert sorted(bnskit.__all__) == TOP_LEVEL
    src = str(Path(bnskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"loaded": [], "unresolved": []}
