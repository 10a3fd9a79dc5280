"""The surface the README documents: its Library example, a package
namespace that holds only the names that example and the error docs use,
and no public function or class that nothing uses.

`import bnskit` runs the error module only; `Graph` and `make_character`
load their modules on first use, the families and the command line load
when they are imported by name, and each command runs only the modules it
uses, as `RUNS` lists them.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bnskit

from .test_acceptance import CLI_CORPUS, resolve_argv
from .test_tracer_names import _load_tracing

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(bnskit.__file__).resolve().parent

TOP_LEVEL = ["BnsError", "DomainError", "Graph", "InputError", "ParseError", "PreconditionError", "make_character"]

# the package modules each command runs besides errors, records and the
# command line itself
RUNS = {
    ("graph", "analyze"): {"graphs"},
    **{("raag", command): {"graphs", "raag"} for command in ("complement", "split-report", "compare")},
    ("raag", "sigma"): {"graphs", "raag", "characters"},
    ("raag", "kill"): {"graphs", "raag", "characters", "words"},
    **{
        (family, command): {family, "projection", "characters", "words"} | ({"obstruction"} if command == "obstruct" else set())
        for family in ("braid", "loop")
        for command in ("sigma", "witness", "obstruct")
    },
}

# the package modules that have run once source has: a module put in
# sys.modules lazily is a plain module once it has run
PROBE = """
import json, runpy, sys, types
{source}
print(json.dumps(sorted(
    name.split(".", 1)[1] for name, module in sys.modules.items()
    if name.startswith("bnskit.") and type(module) is types.ModuleType
)))
"""

# `python -m bnskit.cli` runs the command line as __main__, not as bnskit.cli
COMMAND = """
sys.argv = ["bnskit", "--porcelain", *ARGV]
try:
    runpy.run_module("bnskit.cli", run_name="__main__")
except SystemExit as e:
    assert e.code == 0, e.code
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


def _probe(source: str) -> tuple[list[str], list[str]]:
    """The lines that source prints, then the package modules that have run,
    in a fresh interpreter."""
    src = str(Path(bnskit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE.format(source=source)], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    *printed, ran = done.stdout.splitlines()
    return printed, json.loads(ran)


def test_import_loads_only_the_documented_namespace():
    assert sorted(bnskit.__all__) == TOP_LEVEL
    assert all(hasattr(bnskit, name) for name in TOP_LEVEL)
    assert _probe("import bnskit") == ([], ["errors"])


def _first_corpus_run(command):
    """The argv and porcelain of the golden corpus's first exit-0 run of command."""
    return next((resolve_argv(argv), porcelain) for argv, code, porcelain in CLI_CORPUS if tuple(argv[:2]) == command and code == 0)


@pytest.mark.parametrize("command", sorted(RUNS), ids=" ".join)
def test_command_runs_only_its_modules(command):
    """A command runs the package modules that `RUNS` lists, and loads no
    argparse: `cli` reads the command line itself."""
    argv, porcelain = _first_corpus_run(command)
    printed, ran = _probe(f"ARGV = {argv!r}\n{COMMAND}\nprint('argparse' in sys.modules)")
    assert printed == [*porcelain, "False"]
    assert set(ran) == RUNS[command] | {"errors", "records"}, ran


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
