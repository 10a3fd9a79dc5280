"""Print one sha256 of what `bnskit` answers to a list of command lines.

    PYTHONPATH=src python tests/interpreter_digest.py < argvs.json

Standard input is a JSON list of argv lists.  Each runs through
`bnskit.cli.run` in this process, in the order given, and the digest covers,
for each, the exit code, the human report, the porcelain lines and which of
the modules that load on first use have run by then.  The first lines are
meant to be `graph analyze` runs, so the digest also covers the probe that
`graph analyze` runs no family, lattice or word module.

It uses the standard library only, so that every supported interpreter can
run it: the same digest from two interpreters means the same bytes.
"""

import hashlib
import json
import sys
import types

# the modules `bnskit.cli` puts in sys.modules unrun, as in
# tests/test_public_surface.py
LOADED_ON_FIRST_USE = ("braid", "loop", "projection", "obstruction", "raag", "characters", "words")


def digest(argvs) -> str:
    from bnskit import cli

    h = hashlib.sha256()
    for argv in argvs:
        report = cli.run(argv)
        ran = [m for m in LOADED_ON_FIRST_USE if type(sys.modules.get("bnskit." + m)) is types.ModuleType]
        line = json.dumps([argv, report.exit_code, report.human, list(report.porcelain), ran])
        h.update(line.encode() + b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(json.load(sys.stdin)))
