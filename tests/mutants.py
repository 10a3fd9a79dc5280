"""The mutants that the test suite must kill.

Each row is one hand-made defect: a file under `src/bnskit`, the exact text
to replace, its replacement, and the tests that must fail with it in place.
A row records a defect that a test was written or kept to catch, so a
later change to the tests cannot lose that check unnoticed.

    python tests/mutants.py [NAME ...]

copies `src/` to a temporary directory for each row (or each named row),
applies the row there, runs each of its tests with that copy first on the
import path, and reports every test that passed with the defect in place:
a survivor.  The tests must first pass on the unchanged source.  It exits 1 if any test survives.  The repository itself is
never changed.  It uses the standard library and pytest alone, and is not
part of the tier-1 suite, which checks only that each row's text occurs
exactly once in its file and that its tests exist.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/bnskit
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


MUTANTS = [
    Mutant(
        "a negative number or a token with a space is read as an option",
        "cli.py",
        'if " " in token or re.match(r"-\\d+$|-\\d*\\.\\d+$", token):',
        "if False:",
        ("tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers",),
    ),
    Mutant(
        "the int option takes any Unicode digits",
        "cli.py",
        "digits.isascii() and digits.isdigit()",
        "digits.isdigit()",
        ("tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers", "tests/test_cli.py::test_integer_options"),
    ),
    Mutant(
        "a missing operand is not reported",
        "cli.py",
        "missing += [] if star else operands[len(taken):]",
        "missing += []",
        ("tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers",),
    ),
    Mutant(
        "an option does not end the run of a * operand",
        "cli.py",
        "if star and taken:\n            room = 0",
        "if star and taken:\n            pass",
        ("tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers",),
    ),
    Mutant(
        "the command's first '--' is always dropped",
        "cli.py",
        "if not (last_taken or room and (star or at < len(argv))):",
        "if False:",
        ("tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers",),
    ),
    Mutant(
        "the int option takes an option as its value",
        "cli.py",
        'if at == len(argv) or argv[at] == "--" or argv[at][:1] == "-" and _option(argv[at], options):',
        "if at == len(argv):",
        ("tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers",),
    ),
    Mutant(
        "the group level reads --porcelain",
        "cli.py",
        "group, choices, options = token, _COMMANDS[token], _GROUP_OPTIONS",
        "group, choices, options = token, _COMMANDS[token], _TOP_OPTIONS",
        ("tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers",),
    ),
    Mutant(
        "an unknown option is dropped",
        "cli.py",
        "if name not in options:\n            unknown.append(token)",
        "if name not in options:\n            pass",
        ("tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers",),
    ),
    Mutant(
        "-hh is not read as a run of -h flags",
        "cli.py",
        'while argument and name == "-h":',
        "while False:",
        (
            "tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers",
            "tests/test_cli.py::test_help_at_every_level_prints_a_usage",
        ),
    ),
    Mutant(
        "a last '--' is an invalid choice",
        "cli.py",
        'if token == "--" and at == len(argv):',
        "if False:",
        (
            "tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers",
            "tests/test_cli.py::test_dash_dash_where_the_group_or_command_is_expected_is_an_invalid_choice",
        ),
    ),
    Mutant(
        "an unrecognized argument is written whole",
        "cli.py",
        'cut = [t if len(t) <= QUOTED_CHARS else t[:QUOTED_CHARS] + "..." for t in unknown]',
        "cut = unknown",
        ("tests/test_cli.py::test_command_lines_read_as_by_nested_subparsers",),
    ),
    Mutant(
        "the command line loads argparse",
        "cli.py",
        "from types import SimpleNamespace\n",
        "from types import SimpleNamespace\nimport argparse\n",
        ("tests/test_public_surface.py::test_command_runs_only_its_modules",),
    ),
    Mutant(
        "a report is written in the standard output's encoding",
        "cli.py",
        'sys.stdout.buffer.write(text.encode("utf-8", "surrogateescape") + b"\\n")',
        'sys.stdout.write(text + "\\n")',
        ("tests/test_cli.py::test_bytes_depend_on_the_arguments_and_input_alone",),
    ),
    Mutant(
        "a value's fraction is built upside down",
        "cli.py",
        "fractions.Fraction(int(numerator), int(denominator))",
        "fractions.Fraction(int(denominator), int(numerator))",
        ("tests/test_cli.py::test_parse_character_file", "tests/test_cli.py::test_value_lines_through_run"),
    ),
    Mutant(
        "a file is read by one os.read, however long it is",
        "cli.py",
        "while chunk := os.read(fd, _READ_CHUNK):\n                    chunks.append(chunk)",
        "chunks.append(os.read(fd, _READ_CHUNK))",
        ("tests/test_cli.py::test_a_file_is_read_until_it_ends",),
    ),
    Mutant(
        "a value may be written in any script's digits",
        "cli.py",
        '_VALUE_RE = re.compile(r"([+-]?\\d+)(?:/([1-9]\\d*))?", re.ASCII)',
        '_VALUE_RE = re.compile(r"([+-]?\\d+)(?:/([1-9]\\d*))?")',
        ("tests/test_cli.py::test_value_lines_through_run",),
    ),
    Mutant(
        "raag sigma skips the domination check on at most 4 vertices",
        "raag.py",
        "    if undominated:\n",
        "    if undominated and len(g.vertices) > 4:\n",
        ("tests/test_finite_index.py::test_index_p_subgroups_keep_the_invariant_and_the_sigma_verdicts",),
    ),
    Mutant(
        "the smallest separating clique need not be a clique",
        "graphs.py",
        "[s for s in _triangulation_separators(adj) if _is_clique(adj, s)]",
        "[s for s in _triangulation_separators(adj)]",
        ("tests/test_finite_index.py::test_index_p_subgroups_keep_the_invariant_and_the_sigma_verdicts",),
    ),
    Mutant(
        "the cut-vertex pass returns the last cut vertex, not the first",
        "graphs.py",
        "return cuts & -cuts or None",
        "return 1 << cuts.bit_length() >> 1 or None",
        ("tests/test_separators.py::test_invariant_on_sparse_graphs_takes_linear_work",),
    ),
    Mutant(
        "a disconnected graph is answered by the cut-vertex rule instead of ()",
        "graphs.py",
        "    if found < n:\n        return 0\n",
        "",
        (
            "tests/test_separators.py::test_invariant_on_sparse_graphs_takes_linear_work",
            "tests/test_separators.py::test_cones_and_unions_at_sizes_past_the_oracles",
        ),
    ),
    Mutant(
        "the link-in-star candidates leave out the neighbour u itself",
        "graphs.py",
        "within &= adj[low.bit_length() - 1] | low",
        "within &= adj[low.bit_length() - 1]",
        ("tests/test_graphs.py::test_out_finiteness_goldens",),
    ),
    Mutant(
        "run_obstruction takes columns outside 0..dim-1",
        "characters.py",
        " or not last < j < dim or ",
        " or ",
        ("tests/test_characters.py::test_obstruction_rows_must_be_pairs_below_dim",),
    ),
    Mutant(
        "the echelon form's reduction above a pivot never subtracts",
        "characters.py",
        "            if q:\n",
        "            if False:\n",
        ("tests/test_span.py::test_obstruct_reads_only_the_span",),
    ),
    Mutant(
        "abelianize counts only positive letters",
        "characters.py",
        "out[index[g]] += s",
        "out[index[g]] += max(s, 0)",
        ("tests/test_acceptance.py::test_acceptance_04_kill_machinery_properties",),
    ),
    Mutant(
        "a dead subspace's equations ignore their coefficients",
        "projection.py",
        "sum(coefficient * value(a, b) for",
        "sum(value(a, b) for",
        ("tests/test_projection.py::test_sigma_membership_matches_subset_scan",),
    ),
    Mutant(
        "the normal form's emission loop never marks a letter as seen",
        "words.py",
        "            seen |= 1 << gp\n",
        "            pass\n",
        ("tests/test_words.py::test_normal_form_matches_heap_reference_on_long_words",),
    ),
    Mutant(
        "the normal form's emission loop scans only the first six letters",
        "words.py",
        "enumerate(letters)",
        "enumerate(letters[:6])",
        ("tests/test_words.py::test_normal_form_matches_heap_reference_on_long_words",),
    ),
    Mutant(
        "raag kill lists the living vertices as dead",
        "raag.py",
        "for i, v in enumerate(g.vertices) if i not in living]",
        "for i, v in enumerate(g.vertices) if i in living]",
        ("tests/test_cli_fuzz.py::test_words_and_raag_character_files_end_in_an_exit_code",),
    ),
]


def source(mutant: Mutant) -> Path:
    return ROOT / "src" / "bnskit" / mutant.file


def _failed(copy: Path, tests: tuple[str, ...]) -> list[bool]:
    """Whether each of tests fails with the package imported from copy."""
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import bnskit; print(bnskit.__path__[0])"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if Path(where) != copy / "bnskit":
        raise SystemExit(f"bnskit imports from {where}, not from {copy}")
    failed = []
    for test in tests:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if done.returncode not in (0, 1):  # 1: tests failed; anything else is no verdict
            raise SystemExit(f"{test} did not run:\n{done.stdout}{done.stderr}")
        failed.append(done.returncode == 1)
    return failed


def survivors(mutant: Mutant) -> list[str]:
    """The tests of mutant that pass with it applied to a copy of `src/`."""
    with tempfile.TemporaryDirectory() as directory:
        copy = Path(directory) / "src"
        shutil.copytree(ROOT / "src", copy)
        target = copy / "bnskit" / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.text) != 1:
            raise SystemExit(f"{mutant.name}: the text does not occur exactly once in {mutant.file}")
        target.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")
        return [test for test, failed in zip(mutant.tests, _failed(copy, mutant.tests)) if not failed]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        raise SystemExit(f"unknown rows: {sorted(set(names) - {m.name for m in chosen})}")
    # a test that fails on the unchanged source kills every mutant and shows nothing
    tests = tuple(sorted({test for mutant in chosen for test in mutant.tests}))
    broken = [test for test, failed in zip(tests, _failed(ROOT / "src", tests)) if failed]
    if broken:
        raise SystemExit(f"these tests fail on the unchanged source: {broken}")
    survived = 0
    for mutant in chosen:
        passed = survivors(mutant)
        survived += bool(passed)
        print(f"{'SURVIVED' if passed else 'killed':8}  {mutant.name}" + "".join(f"\n          passed: {t}" for t in passed))
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
