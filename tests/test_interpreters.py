"""The same bytes on every supported interpreter.

`pyproject.toml` asks for Python 3.10 or newer.  `tests/interpreter_digest.py`
answers the golden corpus lines, `graph analyze` and `raag complement` on
seeded graphs, help and usage-error lines, and 1,000 seeded parser lines,
and says which modules a `graph analyze` run loads; this test runs it under
every CPython 3.10 or newer it finds and compares each answer with the
running interpreter's.  The one known difference between interpreters,
`-hx` after the command, is taken out by `agreed`, with its reason; any
other difference fails the test and names the line.  It looks for
`$PYENV_ROOT/versions/*/bin/python` (`~/.pyenv` when `PYENV_ROOT` is unset)
and for `python3.10` to `python3.19` in every directory on `PATH`.  A
candidate that does not start, as a pyenv shim with no version selected
does not, is skipped, and two that are one interpreter are counted once.
The test fails when it finds no interpreter besides the running one, so it
cannot pass having compared nothing.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from .oracles import CLI_COMMANDS
from .test_acceptance import CLI_CORPUS, DATA, resolve_argv
from .test_cli import command_line

ROOT = Path(__file__).resolve().parent.parent
DRIVER = ROOT / "tests" / "interpreter_digest.py"

IDENTIFY = "import os, platform, sys; print(platform.python_implementation(), *sys.version_info[:3], os.path.realpath(sys.executable))"


def candidates():
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = sorted(pyenv.glob("versions/*/bin/python"))
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        found += [Path(directory or ".") / f"python3.{minor}" for minor in range(10, 20)]
    return [path for path in found if path.is_file() and os.access(path, os.X_OK)]


def interpreters():
    """Every CPython 3.10 or newer found, as {real executable: (version, path)}."""
    found = {}
    for path in candidates():
        try:
            done = subprocess.run([str(path), "-c", IDENTIFY], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = done.stdout.split(maxsplit=4)
        if done.returncode or len(fields) != 5 or fields[0] != "CPython":
            continue
        version = tuple(int(part) for part in fields[1:4])
        if version >= (3, 10):
            found.setdefault(fields[4].strip(), (".".join(fields[1:4]), str(path)))
    return found


def graph_argvs(tmp_path):
    """`graph analyze` and `raag complement` on seeded graphs of 2-14
    vertices, cycles among them, each in both formats."""
    rng = random.Random(1810)
    argvs = []
    for k in range(40):
        n = rng.randrange(2, 15)
        p = rng.choice((0.2, 0.35, 0.5, 0.8))
        names = [f"v{(5 * i + 3) % 17}" for i in range(n)]
        if k % 8 == 0:
            pairs = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
        else:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        path = tmp_path / f"g{k}.graph"
        edges = " ".join(f"{names[i]}-{names[j]}" for i, j in pairs)
        path.write_text(f"vertices: {' '.join(names)}\nedges: {edges}\n")
        for command in (["graph", "analyze"], ["raag", "complement"]):
            argvs += [[*command, str(path)], ["--porcelain", *command, str(path)]]
    return argvs


def usage_argvs():
    """Help at every level, and lines that argparse rejects."""
    graph, character = str(DATA / "p3.graph"), str(DATA / "chi_b.char")
    return [
        ["-h"], ["-hh"], ["-hx"], ["raag", "--help"], ["raag", "kill", "-h"], ["braid", "obstruct", "-h"],
        ["nosuch", "analyze", graph], ["raag", "nosuch", graph], ["raag", "kill", graph],
        ["braid", "sigma", "-n", "x", character], ["--porcelain=1", "graph", "analyze", graph],
        ["raag", "split-report", graph, "--max", "3"],
    ]


def replayed_argvs():
    """1,000 seeded parser lines, drawn by `test_cli.py::command_line`: a
    well-formed line, then up to two token edits from `CLI_TOKENS`."""
    rng = random.Random(1827)
    return [command_line(rng.choice, rng.randint) for _ in range(1000)]


def agreed(argv, answer):
    """answer with the one known difference between interpreters taken out.

    `-hx` after the command, where the command's own argparse parser reads
    it: argparse 3.13 reads it as `-h` and prints the command's help, with
    exit code 0; 3.10-3.12 reject it with
    `error=argument -h/--help: ignored explicit argument 'x'` and exit code
    1.  Either is one answer.  Before the command, `bnskit` reads `-hx`
    itself and rejects it on every interpreter.
    """
    exit_code, human, porcelain, printed, _ = answer
    if after_a_command(argv, "-hx") and (
        porcelain == ["error=argument -h/--help: ignored explicit argument 'x'"]
        or exit_code == 0 and human is None and printed.startswith("usage: bnskit")
    ):
        return "-h, or its argument rejected"
    return answer


def after_a_command(argv, token):
    """Whether token stands in argv after a group and one of that group's
    commands."""
    if token not in argv:
        return False
    before = argv[:argv.index(token)]
    group = next((t for t in before if t in CLI_COMMANDS), None)
    return group is not None and any(t in CLI_COMMANDS[group] for t in before[before.index(group) + 1:])


def run_driver(executable, argvs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [executable, str(DRIVER)], input=json.dumps(argvs), capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0 and not done.stderr, (executable, done.stderr)
    return [agreed(argv, answer) for argv, answer in zip(argvs, json.loads(done.stdout))]


def test_every_interpreter_gives_the_same_bytes(tmp_path):
    corpus = [resolve_argv(argv) for argv, _, _ in CLI_CORPUS]
    argvs = graph_argvs(tmp_path) + corpus + [["--porcelain", *argv] for argv in corpus] + usage_argvs()
    argvs += replayed_argvs()
    assert argvs[0][:2] == ["graph", "analyze"]
    expect = run_driver(sys.executable, argvs)
    own = os.path.realpath(sys.executable)
    others = sorted(found for real, found in interpreters().items() if real != own)
    names = [f"{version} {path}" for version, path in others]
    print(f"compared {sys.version.split()[0]} ({own}) with:", *names, sep="\n  ")
    assert others, "found no CPython 3.10 or newer besides the running one"
    differ = {}
    for version, path in others:
        lines = [argv for argv, a, b in zip(argvs, expect, run_driver(path, argvs)) if a != b]
        if lines:
            differ[f"{version} {path}"] = lines
    assert not differ, (differ, names)
