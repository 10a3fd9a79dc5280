"""The mutant table in `tests/mutants.py` cannot go stale: each row's text
occurs exactly once in its file, and each of its tests exists.  Running the
table itself is opt-in: `python tests/mutants.py`."""

import ast

from .mutants import MUTANTS, ROOT, source


def test_each_row_names_one_place_and_existing_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert source(mutant).read_text(encoding="utf-8").count(mutant.text) == 1, mutant.name
        assert mutant.text != mutant.replacement and mutant.tests, mutant.name
        for test in mutant.tests:
            path, _, name = test.partition("::")
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name.partition("[")[0] in defined, test
