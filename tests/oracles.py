"""Independent brute-force implementations used to cross-check the library.

Everything here works on plain data (bitmasks, integer tuples) and never
calls into the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import re
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path


def bench_oracles():
    """The benchmark's package-free checkers (`bench/oracles.py`), loaded
    straight from their file, since `bench` is not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# bitmask graphs: vertices 0..n-1, adjacency as a tuple of neighbor masks


def adjacency_masks(n: int, edges) -> tuple[int, ...]:
    masks = [0] * n
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return tuple(masks)


def mask_connected(n: int, masks, subset: int) -> bool:
    """Union-find connectivity of the induced subgraph on `subset`."""
    if subset == 0:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        if not subset >> i & 1:
            continue
        reach = masks[i] & subset
        j = 0
        while reach >> j:
            if reach >> j & 1:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
            j += 1
    roots = {find(i) for i in range(n) if subset >> i & 1}
    return len(roots) == 1


def mask_dominating(n: int, masks, subset: int) -> bool:
    for i in range(n):
        if subset >> i & 1:
            continue
        if not masks[i] & subset:
            return False
    return True


def sigma_alive(n: int, masks, living: int) -> bool:
    """Independent membership call: living subgraph connected and dominating."""
    return mask_connected(n, masks, living) and mask_dominating(n, masks, living)


def mask_is_clique(n: int, masks, subset: int) -> bool:
    for i in range(n):
        if not subset >> i & 1:
            continue
        others = subset & ~(1 << i)
        if others & ~masks[i]:
            return False
    return True


def component_count(n: int, masks, subset: int) -> int:
    seen = 0
    count = 0
    for i in range(n):
        if not subset >> i & 1 or seen >> i & 1:
            continue
        count += 1
        stack = [i]
        seen |= 1 << i
        while stack:
            v = stack.pop()
            frontier = masks[v] & subset & ~seen
            j = 0
            while frontier >> j:
                if frontier >> j & 1:
                    seen |= 1 << j
                    stack.append(j)
                j += 1
    return count


def brute_min_separating_clique(n: int, masks):
    """Smallest clique whose removal leaves a disconnected nonempty remainder."""
    full = (1 << n) - 1
    for size in range(n):
        for combo in combinations(range(n), size):
            subset = 0
            for i in combo:
                subset |= 1 << i
            if not mask_is_clique(n, masks, subset):
                continue
            rest = full & ~subset
            if rest and component_count(n, masks, rest) >= 2:
                return size
    return None


def all_labeled_graphs(n: int):
    """Yield (edges, masks) over every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        yield edges, adjacency_masks(n, edges)


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
    masks = adjacency_masks(len(vertices), [(index[a], index[b]) for a, b in edges])
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


def two_phase_normal_form(n: int, masks, letters) -> list[tuple[int, int]]:
    """ShortLex normal form of a graph group word given as (vertex, sign)
    pairs, by the package's earlier two-phase algorithm.

    First delete one pair x^e ... x^-e whose letters in between all commute
    with x, and rescan from the first letter, until no such pair is left.
    Then emit, over and over, the least letter (a before a^-1 before b) that
    commutes with every letter before it.
    """
    full = (1 << n) - 1
    nonadj = [full & ~(m | 1 << j) for j, m in enumerate(masks)]
    letters = list(letters)
    shrinking = True
    while shrinking:
        shrinking = False
        for i in range(len(letters) - 1):
            gi, si = letters[i]
            for j in range(i + 1, len(letters)):
                gj, sj = letters[j]
                if gj == gi:
                    if sj == -si:
                        del letters[j]
                        del letters[i]
                        shrinking = True
                        break
                elif nonadj[gi] >> gj & 1:
                    break
            if shrinking:
                break
    out = []
    while letters:
        seen = 0
        best = best_key = None
        for pos, (g, s) in enumerate(letters):
            key = (g, 0 if s == 1 else 1)
            if not seen & nonadj[g] and (best_key is None or key < best_key):
                best, best_key = pos, key
            seen |= 1 << g
        out.append(letters.pop(best))
    return out


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
# pure braid and pure loop braid membership by scanning every kept strand set
# characters are dicts (i, j) -> nonzero value; braid pairs have i < j

# (size, kind) of each family's two base groups, smaller first
BASES = {
    "braid": ((3, "pb3-sum"), (4, "pb4-exceptional")),
    "loop": ((2, "plb2-all"), (3, "plb3-equations")),
}


def family_pairs(family: str, n: int) -> list[tuple[int, int]]:
    """The generator pairs on n strands in lexicographic order: i < j for
    "braid", i != j for "loop"."""
    strands = range(1, n + 1)
    return [(i, j) for i in strands for j in strands if i < j or (family == "loop" and i != j)]


def _base_dead(family: str, kept, value) -> bool:
    """Is a character supported on `kept` dead in the group on those strands?"""
    if family == "braid":
        if len(kept) == 3:
            return sum(value(i, j) for i, j in combinations(kept, 2)) == 0
        t1, t2, t3, t4 = kept
        exceptional = (
            value(t1, t2) == value(t3, t4)
            and value(t1, t3) == value(t2, t4)
            and value(t1, t4) == value(t2, t3)
            and value(t1, t2) + value(t1, t3) + value(t1, t4) == 0
        )
        return exceptional or any(
            _supported_on(value, kept, sub) and _base_dead(family, sub, value)
            for sub in combinations(kept, 3)
        )
    if len(kept) == 2:
        return True  # the 2-loop group is free of rank 2
    inflow = all(sum(value(s, t) for s in kept if s != t) == 0 for t in kept)
    return inflow or any(_supported_on(value, kept, sub) for sub in combinations(kept, 2))


def _supported_on(value, kept, sub) -> bool:
    return all(
        value(i, j) == 0
        for i in kept
        for j in kept
        if i != j and not (i in sub and j in sub)
    )


def _lookup(family: str, values: dict):
    """value(i, j) of a character given as a dict; braid pairs are unordered."""

    def value(i, j):
        if family == "braid" and i > j:
            i, j = j, i
        return values.get((i, j), 0)

    return value


def projection_sigma(family: str, n: int, values: dict):
    """(status, witness, kept, base) of the first dead projection of a
    "braid" or "loop" character in (size, lex) order over kept strand sets."""
    if not values:
        return ("out", "zero", None, None)
    value = _lookup(family, values)
    for size, base in BASES[family]:
        for kept in combinations(range(1, n + 1), size):
            if all(i in kept and j in kept for i, j in values) and _base_dead(family, kept, value):
                return ("out", "projection", kept, base)
    return ("in", None, None, None)


def projection_inside(family: str, n: int, values: dict) -> bool:
    """Is a "braid" or "loop" character inside?  `projection_sigma`'s test,
    run only on the kept sets holding every touched strand, the only ones
    the character projects onto, so it is cheap at any n."""
    if not values:
        return False
    value = _lookup(family, values)
    touched = {s for pair in values for s in pair}
    rest = [s for s in range(1, n + 1) if s not in touched]
    for size, _ in BASES[family]:
        for extra in combinations(rest, size - len(touched)) if size >= len(touched) else ():
            if _base_dead(family, tuple(sorted(touched.union(extra))), value):
                return False
    return True


def _base_equations(family: str, kept) -> list[dict]:
    """The equations cutting out the dead characters of the base group on
    the kept strands, as dicts pair -> coefficient: the conditions
    `_base_dead` tests, less the smaller base's subspaces."""
    if family == "braid":
        if len(kept) == 3:
            return [{pair: 1 for pair in combinations(kept, 2)}]
        t1, t2, t3, t4 = kept
        # opposite bands agree and the bands at the first strand sum to zero
        return [
            {(t1, t2): 1, (t3, t4): -1},
            {(t1, t3): 1, (t2, t4): -1},
            {(t1, t4): 1, (t2, t3): -1},
            {(t1, t2): 1, (t1, t3): 1, (t1, t4): 1},
        ]
    if len(kept) == 2:
        return []  # the 2-loop group is free of rank 2
    # the values flowing into each kept loop sum to zero
    return [{(s, t): 1 for s in kept if s != t} for t in kept]


def dead_subspaces(family: str, n: int) -> list[tuple[str, tuple[int, ...], list[tuple[int, ...]]]]:
    """(kind, kept, equations) of every dead subspace of a "braid" or "loop"
    family on n strands: the smaller base first, kept sets in lex order.
    The equations are dense integer rows over `family_pairs(family, n)`: one
    unit row per generator touching a deleted strand, in pair order, then
    the base equations on the kept strands."""
    pairs = family_pairs(family, n)
    out = []
    for size, kind in BASES[family]:
        for kept in combinations(range(1, n + 1), size):
            rows = [{pair: 1} for pair in pairs if not (pair[0] in kept and pair[1] in kept)]
            rows += _base_equations(family, kept)
            out.append((kind, kept, [tuple([row.get(pair, 0) for pair in pairs]) for row in rows]))
    return out


# ---------------------------------------------------------------------------
# separating cliques and complement supports by scanning every vertex subset
# results are tuples of vertex indices, ordered by size, then lexicographically


def brute_min_separating_clique_witness(n: int, masks):
    """First clique in (size, lex) order whose removal leaves two or more
    components; None when no clique separates."""
    full = (1 << n) - 1
    for size in range(n):
        for combo in combinations(range(n), size):
            subset = sum(1 << i for i in combo)
            if mask_is_clique(n, masks, subset) and component_count(n, masks, full & ~subset) >= 2:
                return combo
    return None


def brute_complement_supports(n: int, masks):
    """Minimal bad supports straight from the definition.

    A proper vertex subset W is bad when no living set outside W is
    connected and dominating.  Every living set is tabulated once: L is
    connected when it is a single vertex, or when dropping some vertex u
    leaves a connected set that u touches (u a leaf of a spanning tree).
    """
    full = (1 << n) - 1
    connected = [False] * (full + 1)
    covered = [0] * (full + 1)  # union of the closed neighbourhoods in L
    alive_inside = [False] * (full + 1)  # a connected dominating set lies in L
    for living in range(1, full + 1):
        low = living & -living
        covered[living] = covered[living ^ low] | masks[low.bit_length() - 1] | low
        conn = living == low
        inside = False
        for u in range(n):
            if living >> u & 1:
                rest = living ^ 1 << u
                conn = conn or (connected[rest] and masks[u] & rest != 0)
                inside = inside or alive_inside[rest]
        connected[living] = conn
        alive_inside[living] = inside or (conn and covered[living] == full)
    bad = [not alive_inside[full ^ w] for w in range(full + 1)]
    minimal = [
        tuple(u for u in range(n) if w >> u & 1)
        for w in range(full)
        if bad[w] and not any(w >> u & 1 and bad[w ^ 1 << u] for u in range(n))
    ]
    return sorted(minimal, key=lambda t: (len(t), t))


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


def nested_cli_parse(argv):
    """What the nested parser reads from argv, as `cli_arguments` gives it,
    and whether its top level read --porcelain; a CliUsageError if it
    rejects argv."""
    args = _nested_cli_parser().parse_args(list(argv))
    return cli_arguments(args), args.porcelain
