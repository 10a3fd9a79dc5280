"""Package-free oracles for the tests.

The benchmark's checkers in `bench/oracles.py` are the one implementation of
the graph scans, separating cliques, complement supports, generator pairs,
dead subspaces, projection membership and the heap-of-pieces normal form,
the reference for long words, and `bench_oracles()` loads them.  This module
adds compositions of those that many tests use (among them the one sampler
of dead characters), a line-event counter for work-count tests, a faster
copy of the benchmark's breadth-first rewriting for the acceptance sweep,
and the oracles the benchmark has no counterpart for: the two-pass graph
file reader, the dense Hermite form and generic point search, and the
command line read by nested subparsers.  Neither file imports the package,
so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import io
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path


@functools.cache
def bench_oracles():
    """The benchmark's package-free checkers (`bench/oracles.py`), loaded
    straight from their file, since `bench` is not a package; once per
    process."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# compositions of the benchmark's oracles


def sigma_alive(n: int, masks, living: int) -> bool:
    """Independent membership call: living subgraph connected and dominating."""
    bench = bench_oracles()
    return bench.connected(masks, living) and bench.dominating(n, masks, living)


def dead_subspaces(family: str, n: int) -> list[tuple[str, tuple[int, ...], list[tuple[int, ...]]]]:
    """(kind, kept, equations) of every dead subspace of a "braid" or "loop"
    family on n strands, in the scan order: the smaller base first, kept
    sets in lex order.  The equations are dense integer rows over the
    family's pairs in lex order: one unit row per generator touching a
    deleted strand, then the base equations on the kept strands."""
    bench = bench_oracles()
    return [
        (kind, kept, [tuple(eq) for eq in bench.subspace_equations(family, n, kind, kept)])
        for kind, kept in bench.dead_subspace_order(family, n)
    ]


def verdict_fields(verdict):
    """(status, witness, kept, base) of the benchmark's porcelain projection
    verdict, as the package's verdict holds them."""
    kept = verdict.get("kept")
    return (
        verdict["status"],
        verdict.get("witness"),
        kept and tuple(map(int, kept.split(","))),
        verdict.get("base"),
    )


def projection_inside(family: str, n: int, values: dict) -> bool:
    """Is a "braid" or "loop" character, a dict pair -> value, inside?  The
    benchmark's deadness test, run only on the kept sets holding every
    touched strand, the only ones the character projects onto, so it is
    cheap at any n."""
    nz = {pair: v for pair, v in values.items() if v}
    if not nz:
        return False
    dead = bench_oracles()._dead_projection
    touched = {s for pair in nz for s in pair}
    rest = [s for s in range(1, n + 1) if s not in touched]
    for size in (3, 4) if family == "braid" else (2, 3):
        for extra in combinations(rest, size - len(touched)) if size >= len(touched) else ():
            if dead(family, tuple(sorted(touched.union(extra))), nz):
                return False
    return True


@functools.cache
def _dead_basis(family: str, kind: str, size: int) -> tuple[dict, ...]:
    """A basis of the dead subspace `kind` on the base group's own strands
    1..size, each vector a pair -> value dict."""
    bench = bench_oracles()
    pairs = bench.family_pairs(family, size)
    equations = bench.subspace_equations(family, size, kind, tuple(range(1, size + 1)))
    return tuple(
        {pair: x for pair, x in zip(pairs, vector) if x}
        for vector in bench.nullspace(equations, len(pairs))
    )


def dead_values(rng, family: str, kind: str, kept, pool) -> dict:
    """A random nonzero point of the dead subspace `kind` moved onto the
    sorted strands `kept`, as a pair -> value dict: a combination of the
    subspace's basis with coefficients from `pool`, not all zero.  Its cost
    does not depend on the strand count."""
    basis = _dead_basis(family, kind, len(kept))
    coefficients = [0]
    while not any(coefficients):
        coefficients = [rng.choice(pool) for _ in basis]
    values: dict = {}
    for coefficient, vector in zip(coefficients, basis):
        for (a, b), x in vector.items():
            pair = (kept[a - 1], kept[b - 1])
            values[pair] = values.get(pair, 0) + coefficient * x
    return {pair: v for pair, v in values.items() if v}


# ---------------------------------------------------------------------------
# work counted without a clock


def traced_lines(files, fn, *args) -> tuple[object, int]:
    """fn(*args) and the number of line events run in the source `files`."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename in files else None)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, count


# ---------------------------------------------------------------------------
# every labeled graph, as neighbour masks over vertices 0..n-1


def all_labeled_graphs(n: int):
    """Yield (edges, masks) over every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        yield edges, bench_oracles().masks_of(n, edges)


# ---------------------------------------------------------------------------
# the graph file format, read in two passes as the command line once did:
# check the lines and list the vertices and edges, then check the edges
# again while building the neighbour masks


class GraphFileError(Exception):
    """A graph file the reference reader rejects, at a line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def read_graph_file(text: str):
    """(vertices, edges as read, neighbour masks) of a graph file, or a
    GraphFileError with the reader's line and message."""
    vertices, seen, edges, edge_keys = [], set(), [], set()
    saw_vertices = False
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            saw_vertices = True
            for token in line[len("vertices:"):].split():
                for mark in "-=,:|":
                    if mark in token:
                        raise GraphFileError(lineno, f"vertex name {token!r} may not contain {mark!r}")
                if token.endswith("'"):
                    raise GraphFileError(lineno, f"vertex name {token!r} may not end in an apostrophe")
                if token in seen:
                    raise GraphFileError(lineno, f"duplicate vertex {token!r}")
                seen.add(token)
                vertices.append(token)
        elif line.startswith("edges:"):
            for token in line[len("edges:"):].split():
                parts = token.split("-")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise GraphFileError(lineno, f"malformed edge {token!r}")
                a, b = parts
                if a not in seen or b not in seen:
                    raise GraphFileError(lineno, f"edge {token!r} uses an undeclared vertex")
                if a == b:
                    raise GraphFileError(lineno, f"self-loop {token!r}")
                key = frozenset((a, b))
                if key in edge_keys:
                    raise GraphFileError(lineno, f"duplicate edge {token!r}")
                edge_keys.add(key)
                edges.append((a, b))
        else:
            raise GraphFileError(lineno, f"expected 'vertices:' or 'edges:', got {line!r}")
    if not saw_vertices:
        raise GraphFileError(1, "missing 'vertices:' line")
    index = {v: i for i, v in enumerate(vertices)}
    masks = tuple(bench_oracles().masks_of(len(vertices), [(index[a], index[b]) for a, b in edges]))
    return tuple(vertices), edges, masks


# ---------------------------------------------------------------------------
# breadth-first rewriting oracle for graph-group words
#
# Letters are coded as gen*2 for a generator and gen*2+1 for its inverse, so
# code ^ 1 inverts.  Words are tuples of codes.  Two moves generate the
# rewriting relation: swap adjacent letters of commuting generators, and
# delete an adjacent inverse pair.  Cancellation never needs an insertion to
# reach the shortest form, so the length-bounded universe is closed.


def letter_codes(n_gens: int) -> range:
    return range(2 * n_gens)


def words_up_to(n_gens: int, max_len: int):
    """All code tuples of length <= max_len in shortlex order."""
    current = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for w in current:
            for code in range(2 * n_gens):
                nw = w + (code,)
                nxt.append(nw)
                yield nw
        current = nxt


def rewriting_canon(n_gens: int, adjacent, max_len: int) -> dict:
    """Map every word of length <= max_len to its shortlex-least equivalent.

    adjacent[a][b] must say whether generators a and b commute (a != b).
    """
    commute = [
        [a != b and adjacent[a][b] for b in range(n_gens)] for a in range(n_gens)
    ]

    index = {}
    codes = []
    for w in words_up_to(n_gens, max_len):
        index[w] = len(codes)
        codes.append(w)

    parent = list(range(len(codes)))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for w, wi in index.items():
        for pos in range(len(w) - 1):
            a, b = w[pos], w[pos + 1]
            if b == a ^ 1:
                union(wi, index[w[:pos] + w[pos + 2:]])
            if a >> 1 != b >> 1 and commute[a >> 1][b >> 1]:
                union(wi, index[w[:pos] + (b, a) + w[pos + 2:]])

    canon_by_root = {}
    canon = {}
    for w in codes:  # shortlex enumeration order
        root = find(index[w])
        if root not in canon_by_root:
            canon_by_root[root] = w
        canon[w] = canon_by_root[root]
    return canon


# ---------------------------------------------------------------------------
# small catalogue of graphs up to isomorphism (<= 4 vertices)

ISO_CLASSES = {
    1: [[]],
    2: [[], [(0, 1)]],
    3: [
        [],
        [(0, 1)],
        [(0, 1), (1, 2)],
        [(0, 1), (1, 2), (0, 2)],
    ],
    4: [
        [],
        [(0, 1)],
        [(0, 1), (2, 3)],
        [(0, 1), (1, 2)],
        [(0, 1), (1, 2), (0, 2)],
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        [(0, 1), (1, 2), (0, 2), (2, 3)],
        [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)],
        [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)],
    ],
}


# ---------------------------------------------------------------------------
# the generic point search on dense Fraction equations, as it was first
# written: every candidate is tested against every equation by a dot product


def _dense_echelon(rows, pivot_cols):
    mat = [row[:] for row in rows]
    m = len(mat)
    rank = 0
    for col in range(pivot_cols):
        while True:
            nz = [i for i in range(rank, m) if mat[i][col]]
            if not nz:
                break
            pick = min(nz, key=lambda i: (abs(mat[i][col]), i))
            if pick != rank:
                mat[rank], mat[pick] = mat[pick], mat[rank]
            pivot = mat[rank][col]
            clean = True
            for i in range(rank + 1, m):
                if mat[i][col]:
                    q = mat[i][col] // pivot
                    if q:
                        mat[i] = [a - q * b for a, b in zip(mat[i], mat[rank])]
                    if mat[i][col]:
                        clean = False
            if clean:
                break
        if rank < m and mat[rank][col]:
            rank += 1
    return mat, rank


def dense_hermite_form(rows, dim):
    """Row Hermite form: positive pivots, entries above each pivot reduced."""
    mat, rank = _dense_echelon([list(r) for r in rows], dim)
    mat = mat[:rank]
    pivot = lambda row: next(j for j, a in enumerate(row) if a)
    for i, row in enumerate(mat):
        if row[pivot(row)] < 0:
            mat[i] = [-a for a in row]
    for i in range(rank):
        col = pivot(mat[i])
        for k in range(i):
            q = mat[k][col] // mat[i][col]
            if q:
                mat[k] = [a - q * b for a, b in zip(mat[k], mat[i])]
    return [tuple(row) for row in mat]


def dense_generic_point(dim, spanning, bad):
    """(point, covering) of the deterministic generic point search.

    spanning: rational rows; bad: one list of dense rational equations per
    bad subspace.  covering is the first bad subspace holding the whole span,
    and then point is None; otherwise point is the first candidate
    sum_i t^i u_i, t = 0, 1, 2, ..., over the Hermite basis u of the span
    that satisfies no bad subspace's equations.
    """
    cleared = []
    for row in spanning:
        values = [Fraction(x) for x in row]
        denom = lcm(1, *(v.denominator for v in values))
        cleared.append([int(v * denom) for v in values])
    u_rows = dense_hermite_form(cleared, dim)

    def satisfies(vec, equations):
        return all(
            not sum((Fraction(e) * x for e, x in zip(eq, vec)), Fraction(0))
            for eq in equations
        )

    for index, equations in enumerate(bad):
        if all(satisfies(row, equations) for row in u_rows):
            return None, index
    if not u_rows:
        return tuple(Fraction(0) for _ in range(dim)), None
    t = 0
    while True:
        coeffs = [t**i for i in range(len(u_rows))]
        candidate = [sum(c * row[j] for c, row in zip(coeffs, u_rows)) for j in range(dim)]
        if not any(satisfies(candidate, eqs) for eqs in bad):
            return tuple(Fraction(a) for a in candidate), None
        t += 1


# ---------------------------------------------------------------------------
# the command line's grammar, read by argparse's nested subparsers: group,
# then command, then the command's own options and operands

# group -> command -> (int option or None, operands); an operand ending in *
# takes any number of files
CLI_COMMANDS = {
    "graph": {"analyze": (None, ("graph",))},
    "raag": {
        "sigma": (None, ("graph", "character")),
        "kill": (None, ("graph", "words")),
        "complement": (None, ("graph",)),
        "split-report": ("--max-k", ("graph",)),
        "compare": (None, ("graph1", "graph2")),
    },
    **{
        family: {"sigma": ("-n", ("character",)), "witness": ("-n", ("character",)), "obstruct": ("-n", ("vectors*",))}
        for family in ("braid", "loop")
    },
}


class CliUsageError(Exception):
    """A command line the reference parser rejects; the message is the
    text after `error=`."""


class _NestedParser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _cli_int(text: str) -> int:
    if re.fullmatch(r"[+-]?[0-9]+", text):
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@functools.cache
def _nested_cli_parser() -> _NestedParser:
    """One parser for the whole command line, with a subparser level for the
    group and one for the command, none of them taking abbreviations."""
    parser = _NestedParser(prog="bnskit", allow_abbrev=False)
    parser.add_argument("--porcelain", action="store_true")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, commands in CLI_COMMANDS.items():
        level = groups.add_parser(group, allow_abbrev=False).add_subparsers(dest="command", required=True)
        for command, (int_option, operands) in commands.items():
            sub = level.add_parser(command, allow_abbrev=False)
            if int_option:
                sub.add_argument(int_option, type=_cli_int, required=True)
            for operand in operands:
                sub.add_argument(operand.rstrip("*"), nargs="*" if operand.endswith("*") else None)
    return parser


def cli_arguments(args: argparse.Namespace):
    """(group, command, int option value or None, operand values) of parsed
    arguments."""
    int_option, operands = CLI_COMMANDS[args.group][args.command]
    number = None if int_option is None else getattr(args, int_option.lstrip("-").replace("-", "_"))
    return args.group, args.command, number, tuple([getattr(args, o.rstrip("*")) for o in operands])


# a token that argparse reads as an operand and no command line holds
_MARK = "<-->"


def nested_cli_parse(argv):
    """What the nested parser reads from argv, as `cli_arguments` gives it,
    and whether its top level read --porcelain; a CliUsageError if it
    rejects argv.

    A `--` where the group or the command is expected is an invalid choice,
    quoted as argparse 3.10-3.13.0 quote it, whatever the running argparse
    does with it (3.13.13 drops it).  Whether the first `--` stands there is
    left to argparse: with it replaced by a plain operand, the parser
    rejects that operand as the group or the command."""
    argv = list(argv)
    at = argv.index("--") if "--" in argv else len(argv)
    # a last `--` is no operand to any version, so the operand is missing
    if at < len(argv) - 1:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                _nested_cli_parser().parse_args([*argv[:at], _MARK, *argv[at + 1:]])
        except CliUsageError as e:
            level = re.match(rf"argument (group|command): invalid choice: '{_MARK}'", str(e))
            if level:
                group = next((token for token in argv[:at] if token in CLI_COMMANDS), None)
                choices = ", ".join(map(repr, CLI_COMMANDS if group is None else CLI_COMMANDS[group]))
                raise CliUsageError(f"argument {level[1]}: invalid choice: '--' (choose from {choices})") from None
        except SystemExit:
            pass
    args = _nested_cli_parser().parse_args(argv)
    return cli_arguments(args), args.porcelain
