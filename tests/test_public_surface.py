"""The surface the README documents: its Library example, a package
namespace that holds only the names that example and the error docs use,
and no public function or class that nothing uses.

`import bnskit` loads the error, record and graph modules only;
`make_character` loads the character module on first use, the families and
the command line load when they are imported by name, and a command runs
only the modules it uses.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import bnskit

from .test_tracer_names import _load_tracing

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(bnskit.__file__).resolve().parent

TOP_LEVEL = ["BnsError", "DomainError", "Graph", "InputError", "ParseError", "PreconditionError", "make_character"]

# the modules that load only when imported by name or used by a command
# that needs them: neither `import bnskit` nor `graph analyze` runs them
LOADED_BY_NAME = ("braid", "loop", "projection", "obstruction", "raag", "characters", "words")

# what is loaded is read before the names are resolved, which loads characters
PROBE = """
import json, sys
import bnskit
print(json.dumps({
    "loaded": [m for m in LOADED_BY_NAME + ("cli",) if "bnskit." + m in sys.modules],
    "unresolved": [name for name in bnskit.__all__ if not hasattr(bnskit, name)],
}))
"""

# a module that is put in sys.modules lazily is a plain module once it has run
RUN_PROBE = """
import json, runpy, sys, types
sys.argv = ["bnskit", "--porcelain", "graph", "analyze", GRAPH]
try:
    runpy.run_module("bnskit.cli", run_name="__main__")
except SystemExit as e:
    code = e.code
ran = [m for m in LOADED_BY_NAME if type(sys.modules.get("bnskit." + m)) is types.ModuleType]
print(json.dumps({"code": code, "ran": ran}))
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


def _probe(source: str) -> dict:
    """The JSON that source prints last, run in a fresh interpreter with
    LOADED_BY_NAME defined."""
    src = str(Path(bnskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    source = f"LOADED_BY_NAME = {LOADED_BY_NAME!r}\n{source}"
    done = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_only_the_documented_namespace():
    assert sorted(bnskit.__all__) == TOP_LEVEL
    assert _probe(PROBE) == {"loaded": [], "unresolved": []}


def test_graph_analyze_runs_no_family_or_lattice_module():
    graph = Path(__file__).resolve().parent / "data" / "c5.graph"
    assert _probe(f"GRAPH = {str(graph)!r}\n{RUN_PROBE}") == {"code": 0, "ran": []}


def _references(node: ast.AST, modules: set[str]) -> set[tuple[str | None, str]]:
    """The names node uses: (None, name) for a bare name, which may be
    defined or imported in any module, and (module, name) for an attribute
    of a package module, like `raag.kill_and_test`.  An attribute of any
    other object is a field or method and names no module-level definition."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add((None, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
            found.add((sub.value.id, sub.attr))
    return found


def test_every_public_definition_has_a_user():
    """Each public module-level function or class is used by package code
    outside its own definition, exported in `__all__`, or wrapped by the
    benchmark's tracer.  Uses from inside a definition that has no user do
    not count, so a chain of unused helpers is reported whole."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    # each top-level statement, with the public definition it is, if any
    statements = [
        (
            (module, node.name)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            else None,
            _references(node, set(trees)),
        )
        for module, tree in trees.items()
        for node in tree.body
    ]
    tracing = _load_tracing()
    traced = {
        (module, name)
        for listed in (tracing.TIMED, tracing.COUNTED)
        for module, names in listed.items()
        for name in names
    }
    unused = {
        key
        for key, _ in statements
        if key is not None and key not in traced and key[1] not in bnskit.__all__
    }
    while True:
        used = {
            (module, name)
            for key, refs in statements
            if key not in unused
            for module, name in unused
            if (None, name) in refs or (module, name) in refs
        }
        if not used:
            break
        unused -= used
    unused = sorted(f"{module}.{name}" for module, name in unused)
    assert unused == [], unused
