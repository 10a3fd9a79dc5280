"""Print what `bnskit` answers to a list of command lines, as JSON.

    PYTHONPATH=src python tests/interpreter_digest.py < argvs.json

Standard input is a JSON list of argv lists.  Each runs through
`bnskit.cli.run` in this process, in the order given.  The output is a JSON
list with one answer per line: the exit code, the human report, the
porcelain lines, what the line wrote to standard output, and which of the
modules that load on first use have run by then.  Help ends the parse with
`SystemExit` after writing to standard output; then the exit code is the one
it carries, and there is no report.  The first lines are meant to be
`graph analyze` runs, so the answers also cover the check that
`graph analyze` runs the graph module alone.

It uses the standard library only, so that every supported interpreter can
run it: the same output from two interpreters means the same bytes.
"""

import contextlib
import io
import json
import sys
import types

# the modules `bnskit.cli` puts in sys.modules unrun, each run by the
# commands that `RUNS` in tests/test_public_surface.py lists it for
LOADED_ON_FIRST_USE = ("braid", "loop", "projection", "obstruction", "graphs", "raag", "characters", "words")


def answers(argvs) -> list:
    from bnskit import cli

    found = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                report = cli.run(argv)
                exit_code, human, porcelain = report.exit_code, report.human, list(report.porcelain)
            except SystemExit as e:
                exit_code, human, porcelain = e.code, None, None
        ran = [m for m in LOADED_ON_FIRST_USE if type(sys.modules.get("bnskit." + m)) is types.ModuleType]
        found.append([exit_code, human, porcelain, out.getvalue(), ran])
    return found


if __name__ == "__main__":
    print(json.dumps(answers(json.load(sys.stdin))))
