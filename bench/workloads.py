"""Seeded inputs and operations for the four benchmark workloads.

Every builder takes a ``random.Random`` and a scratch directory and returns a
``Workload``: one round of operations, plus the operation a whole ``bnskit``
process runs for ``cli_process_ms``.  A round has a fixed make-up (sizes,
branches, verdict kinds); the seed only chooses values, labels and graphs, so
rounds from different seeds cost about the same.

Each operation carries a check that compares the program's output with the
independent computations in ``oracles``.  Operations go through
``bnskit.cli.run`` in-process; the normal forms have no command line route
and call ``bnskit.words`` directly.  Library functions are looked up on their
module at call time, so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, count
from typing import Callable, Optional

from bnskit import cli, graphs, words

import oracles
from oracles import BRAID, LOOP

# operation classes behind class_a_per_s / class_b_per_s, per workload
CLASS_NAMES = {
    "membership": ("in_verdicts_per_s", "out_verdicts_per_s"),
    "obstruction": ("certificate_per_s", "covered_per_s"),
    "graph-structure": ("analyze_per_s", "complement_per_s"),
    "normal-form": ("geodesic_words_per_s", "reducing_words_per_s"),
}

# a character file that is not valid UTF-8 (a Latin-1 comment); its inputs
# never depend on the seed
NON_UTF8_CHARACTER = b"S(1,2) = 1\n# caf\xe9\n"


@dataclass
class Op:
    kind: str
    klass: Optional[str]  # "a", "b" or None
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    subject: object = None  # the graph the operation works on, if any
    argv: Optional[list[str]] = None  # command line arguments after --porcelain


@dataclass
class Workload:
    ops: list[Op]
    process: Op  # a command line operation, also run as a whole process
    extra_checks: list[Callable[[], Optional[str]]] = field(default_factory=list)


class Files:
    """Writes generated inputs into one scratch directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def write(self, text: str | bytes, suffix: str) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"in{self.count}{suffix}")
        with open(path, "wb") as handle:
            handle.write(text if isinstance(text, bytes) else text.encode("utf-8"))
        return path


def cli_op(kind, klass, argv, check, subject=None) -> Op:
    """An operation through the in-process command line, porcelain output."""
    full = ["--porcelain", *argv]
    return Op(
        kind,
        klass,
        lambda: cli.run(full),
        lambda report: check(report.exit_code, report.porcelain),
        subject,
        argv,
    )


def expect_read_error(exit_code, porcelain) -> Optional[str]:
    if exit_code == 1 and any(line.startswith("error=") for line in porcelain):
        return None
    return f"expected exit code 1 with an error= line, got {exit_code}"


# ---------------------------------------------------------------------------
# value and graph generators


def nonzero_value(rng) -> Fraction:
    value = Fraction(rng.randint(1, 9), rng.choice((1, 1, 1, 1, 2, 3, 5)))
    return value if rng.random() < 0.5 else -value


def character_text(family, values) -> str:
    return "".join(
        f"{oracles.generator_name(family, p)} = {v}\n" for p, v in sorted(values.items()) if v
    )


def vector_text(family, vec) -> str:
    return "".join(
        f"{oracles.generator_name(family, p)} = {v}\n" for p, v in sorted(vec.items()) if v
    )


def random_graph(rng, n, p):
    """Connected: a random spanning tree plus each other pair with probability p."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[k], perm[rng.randrange(k)]))) for k in range(1, n)}
    edges |= {(i, j) for i, j in combinations(range(n), 2) if rng.random() < p}
    return sorted(edges)


def cycle_graph(rng, n):
    """The n-cycle in vertex order from a seeded start and direction.

    Labelling the cycle arbitrarily moves the cost of the subset scans by up
    to a third, which would swamp the run-to-run spread; rotations and
    reflections of the vertex order leave it nearly unchanged.
    """
    start, step = rng.randrange(n), rng.choice((1, -1))
    order = [(start + step * k) % n for k in range(n)]
    return sorted(tuple(sorted((order[k], order[(k + 1) % n]))) for k in range(n))


def pendant_graph(rng, n, p):
    """A random graph with a cut vertex: a pendant vertex hangs off a random
    connected graph, so the separating-clique scan stops among the singletons
    instead of depending on the seed for whether it scans every subset."""
    edges = random_graph(rng, n - 1, p) + [(rng.randrange(n - 1), n - 1)]
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)


def path_graph(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[k], perm[k + 1]))) for k in range(n - 1))


class GraphInput:
    def __init__(self, files: Files, n: int, edges, shape: str):
        self.vertices = [f"v{i}" for i in range(n)]
        self.masks = oracles.masks_of(n, edges)
        self.shape = shape
        text = "vertices: " + " ".join(self.vertices) + "\n"
        if edges:
            text += "edges: " + " ".join(f"v{a}-v{b}" for a, b in edges) + "\n"
        self.path = files.write(text, ".graph")


# ---------------------------------------------------------------------------
# membership


def dense_in_character(rng, family, n):
    while True:
        values = {p: nonzero_value(rng) for p in oracles.family_pairs(family, n)}
        if oracles.projection_verdict(family, n, values)["status"] == "in":
            return values


def dead_character(rng, family, kept):
    """A character supported on `kept` that is dead there and on no smaller set."""
    while True:
        a, b, c = (nonzero_value(rng) for _ in range(3))
        if family == BRAID and len(kept) == 3 and a + b:
            return dict(zip(combinations(kept, 2), (a, b, -(a + b))))
        if family == BRAID and len(kept) == 4 and a + b:
            t1, t2, t3, t4 = kept
            c = -(a + b)
            return {(t1, t2): a, (t3, t4): a, (t1, t3): b, (t2, t4): b, (t1, t4): c, (t2, t3): c}
        if family == LOOP and len(kept) == 2:
            return {(kept[0], kept[1]): a, (kept[1], kept[0]): b}
        if family == LOOP and len(kept) == 3:
            t1, t2, t3 = kept
            return {(t2, t1): a, (t3, t1): -a, (t1, t2): b, (t3, t2): -b, (t1, t3): c, (t2, t3): -c}


def early_kept(rng, family, n):
    """A dead set near the start of the (size, lex) scan."""
    if family == BRAID:
        return (1, 2, rng.randint(3, n))
    return (1, rng.randint(2, n))


def late_kept(rng, family, n):
    """A dead set near the end of the scan: a late triple, or for odd braid
    strand counts a late exceptional 4-set, which follows every triple."""
    if family == BRAID and n % 2 and n >= 5:
        return rng.choice([(n - 3, n - 2, n - 1, n), (n - 4, n - 2, n - 1, n), (n - 4, n - 3, n - 1, n)])
    if n == 3 or (family == BRAID and n == 4):
        return (rng.randint(1, n - 2), n - 1, n)
    return (rng.choice((n - 3, n - 2)), n - 1, n)


def build_membership(rng, files: Files) -> Workload:
    ops = []
    for family, sizes in ((BRAID, range(4, 13)), (LOOP, range(3, 11))):
        for n in sizes:
            dense = dense_in_character(rng, family, n)
            early = dead_character(rng, family, early_kept(rng, family, n))
            late = dead_character(rng, family, late_kept(rng, family, n))
            for klass, values in (("a", dense), ("b", early), ("b", late)):
                path = files.write(character_text(family, values), ".char")
                ops.append(cli_op(
                    f"{family} sigma", klass, [family, "sigma", "-n", str(n), path],
                    lambda code, out, n=n, v=values, f=family: oracles.check_projection_sigma(f, n, v, code, out),
                ))
            values = early if n % 2 == 0 else late
            path = files.write(character_text(family, values), ".char")
            ops.append(cli_op(
                f"{family} witness", "b", [family, "witness", "-n", str(n), path],
                lambda code, out, n=n, v=values, f=family: oracles.check_projection_witness(f, n, v, code, out),
            ))
    for n in range(6, 21):
        g = GraphInput(files, n, random_graph(rng, n, 0.25), "random")
        full = [nonzero_value(rng) for _ in range(n)]
        if n % 2 == 0:
            # two non-adjacent living vertices: disconnected
            a, b = rng.choice([(a, b) for a, b in combinations(range(n), 2) if not g.masks[a] >> b & 1])
            living = {a, b}
        else:
            # one living vertex that misses a neighbour: not dominating
            living = {rng.choice([v for v in range(n) if bin(g.masks[v]).count("1") < n - 1])}
        partial = [x if i in living else 0 for i, x in enumerate(full)]
        for klass, values in (("a", full), ("b", partial)):
            path = files.write("".join(f"v{i} = {x}\n" for i, x in enumerate(values) if x), ".char")
            ops.append(cli_op(
                "raag sigma", klass, ["raag", "sigma", g.path, path],
                lambda code, out, g=g, v=values: oracles.check_raag_sigma(g.vertices, g.masks, v, code, out),
            ))
    # the known fault: a character file that is not valid UTF-8
    bad = files.write(NON_UTF8_CHARACTER, ".char")
    for n in (4, 6):
        ops.append(cli_op("braid sigma non-utf8", None, ["braid", "sigma", "-n", str(n), bad], expect_read_error))
    rng.shuffle(ops)
    dense4 = dense_in_character(rng, BRAID, 4)
    argv = ["braid", "sigma", "-n", "4", files.write(character_text(BRAID, dense4), ".char")]
    process = cli_op("process", None, argv, lambda c, o: oracles.check_projection_sigma(BRAID, 4, dense4, c, o))
    return Workload(ops, process)


# ---------------------------------------------------------------------------
# obstruction


def random_vectors(rng, family, n, count=2):
    pairs = oracles.family_pairs(family, n)
    out = []
    while len(out) < count:
        vec = {p: rng.randint(-3, 3) for p in pairs}
        if any(vec.values()):
            out.append(vec)
    return out


def covering_vectors(rng, family, n, kind):
    """Integer vectors whose span is cut out exactly by one dead subspace.

    The subspace is the middle one of its kind in the scan order, so its
    place in the scan, and with it the cost, does not depend on the seed; its
    equations are mixed by a seeded unimodular triangular map and shuffled,
    so the lattice is the same but the files differ.
    """
    of_kind = [kept for k, kept in oracles.dead_subspace_order(family, n) if k == kind]
    kept = of_kind[len(of_kind) // 2]
    eqs = oracles.subspace_equations(family, n, kind, kept)
    mixed = [eqs[-1]]
    for k in range(len(eqs) - 1):
        c = rng.randint(0, 1)
        mixed.append([a + c * b for a, b in zip(eqs[k], eqs[k + 1])])
    rng.shuffle(mixed)
    pairs = oracles.family_pairs(family, n)
    if oracles.first_covering(family, n, oracles.nullspace(mixed, len(pairs))) is None:
        raise RuntimeError("generated covering lattice escapes every dead subspace")
    return [dict(zip(pairs, row)) for row in mixed]


def commuting_words(rng, clique, count=2):
    """Words over the letters of a clique, with nonzero exponent sums."""
    out = []
    while len(out) < count:
        w = [(rng.choice(clique), rng.choice((1, 1, -1))) for _ in range(rng.randint(1, 4))]
        if any(sum(s for g, s in w if g == v) for v in clique):
            out.append(w)
    return out


def build_obstruction(rng, files: Files) -> Workload:
    ops = []
    kinds = {BRAID: ("pb3-sum", "pb4-exceptional"), LOOP: ("plb2-all", "plb3-equations")}
    for family, sizes in ((BRAID, range(4, 9)), (LOOP, range(3, 7))):
        for n in sizes:
            lattices = [("a", random_vectors(rng, family, n)) for _ in range(2)]
            lattices += [("b", covering_vectors(rng, family, n, kind)) for kind in kinds[family]]
            for klass, vectors in lattices:
                paths = [files.write(vector_text(family, v), ".vec") for v in vectors]
                ops.append(cli_op(
                    f"{family} obstruct n{n}", klass, [family, "obstruct", "-n", str(n), *paths],
                    lambda code, out, n=n, v=vectors, f=family: oracles.check_obstruction(f, n, v, code, out),
                ))
    for n in range(6, 21, 2):
        for shape in ("cycle", "random"):
            edges = cycle_graph(rng, n) if shape == "cycle" else random_graph(rng, n, 0.2)
            ops.append(kill_op(rng, files, GraphInput(files, n, edges, shape)))
    rng.shuffle(ops)
    vectors = random_vectors(rng, LOOP, 3)
    argv = ["loop", "obstruct", "-n", "3", *(files.write(vector_text(LOOP, v), ".vec") for v in vectors)]
    process = cli_op("process", None, argv, lambda c, o: oracles.check_obstruction(LOOP, 3, vectors, c, o))
    return Workload(ops, process)


def kill_op(rng, files: Files, g: GraphInput) -> Op:
    edges = [(a, b) for a, b in combinations(range(len(g.vertices)), 2) if g.masks[a] >> b & 1]
    clique = list(rng.choice(edges))
    gens = commuting_words(rng, clique)
    text = "".join(" ".join(f"v{v}" if s == 1 else f"v{v}^-1" for v, s in w) + "\n" for w in gens)
    return cli_op(
        "raag kill", None, ["raag", "kill", g.path, files.write(text, ".words")],
        lambda code, out: oracles.check_raag_kill(g.vertices, g.masks, gens, code, out),
    )


# ---------------------------------------------------------------------------
# graph structure


def build_graph_structure(rng, files: Files) -> Workload:
    ops = []
    by_shape = {}
    for n in range(8, 17, 2):
        for shape, edges in (
            ("cycle", cycle_graph(rng, n)),
            ("path", path_graph(rng, n)),
            ("random", pendant_graph(rng, n, 0.3)),
        ):
            g = GraphInput(files, n, edges, shape)
            by_shape[shape, n] = g
            ops.append(cli_op(
                f"graph analyze {shape}", "a", ["graph", "analyze", g.path],
                lambda code, out, g=g: oracles.check_analyze(g.vertices, g.masks, g.shape, code, out),
                g,
            ))
    for shape in ("cycle", "path", "random"):
        g = by_shape[shape, 12]
        ops.append(cli_op(
            "raag split-report", "a", ["raag", "split-report", "--max-k", "3", g.path],
            lambda code, out, g=g: oracles.check_split_report(g.vertices, g.masks, 3, code, out),
        ))
    for (s1, n1), (s2, n2) in (
        (("cycle", 10), ("path", 10)),
        (("random", 10), ("cycle", 10)),
        (("random", 12), ("random", 10)),
    ):
        g1, g2 = by_shape[s1, n1], by_shape[s2, n2]
        ops.append(cli_op(
            "raag compare", "a", ["raag", "compare", g1.path, g2.path],
            lambda code, out, g1=g1, g2=g2: oracles.check_compare(
                (g1.vertices, g1.masks), (g2.vertices, g2.masks), code, out),
        ))
    # random graphs stay small here: their complement scans cost anything
    # from a half to the whole of a cycle's, by the seed
    complement = [("cycle", n, cycle_graph(rng, n)) for n in range(6, 11)]
    complement += [("random", n, random_graph(rng, n, 0.3)) for n in range(6, 9)]
    for shape, n, edges in complement:
        g = GraphInput(files, n, edges, shape)
        ops.append(cli_op(
            f"raag complement {shape}", "b", ["raag", "complement", g.path],
            lambda code, out, g=g: oracles.check_complement(g.vertices, g.masks, code, out),
            g,
        ))
    rng.shuffle(ops)
    g = GraphInput(files, 8, path_graph(rng, 8), "path")
    argv = ["graph", "analyze", g.path]
    process = cli_op("process", None, argv, lambda c, o: oracles.check_analyze(g.vertices, g.masks, g.shape, c, o))
    return Workload(ops, process)


# ---------------------------------------------------------------------------
# normal forms


def random_word(rng, n, length):
    return [(rng.randrange(n), rng.choice((1, -1))) for _ in range(length)]


def inverse(w):
    return [(g, -s) for g, s in reversed(w)]


def rewrite(rng, masks, w, swaps, pairs):
    """Equal in the group: commuting adjacent swaps, then inserted x x^-1 pairs."""
    w = list(w)
    for _ in range(swaps):
        if len(w) < 2:
            break
        k = rng.randrange(len(w) - 1)
        (a, _), (b, _) = w[k], w[k + 1]
        if a != b and masks[a] >> b & 1:
            w[k], w[k + 1] = w[k + 1], w[k]
    for _ in range(pairs):
        k = rng.randint(0, len(w))
        letter = (rng.randrange(len(masks)), rng.choice((1, -1)))
        w[k:k] = [letter, (letter[0], -letter[1])]
    return w


class WordGraph:
    """A cycle (each generator commutes with two others) or its complement
    (with all but two).  Random commutation graphs would move the cost of a
    long word's normal form by half, by the seed alone."""

    def __init__(self, rng, n, dense=False):
        edges = cycle_graph(rng, n)
        if dense:
            edges = sorted(set(combinations(range(n), 2)) - set(edges))
        self.n = n
        self.masks = oracles.masks_of(n, edges)
        self.vertices = tuple(f"v{i}" for i in range(n))
        self.graph = graphs.Graph(self.vertices, [(f"v{a}", f"v{b}") for a, b in edges])

    def word(self, w):
        return words.Word(self.vertices, [(self.vertices[g], s) for g, s in w])

    def codes(self, word):
        index = {v: i for i, v in enumerate(self.vertices)}
        return tuple((index[g], s) for g, s in word.letters)


def nf_op(rng, wg: WordGraph, w, reduces) -> Op:
    word = wg.word(w)
    variant = wg.word(rewrite(rng, wg.masks, w, len(w), 4))

    def check(out):
        codes = wg.codes(out)
        problem = oracles.check_normal_form(wg.n, wg.masks, tuple(w), reduces, codes)
        if problem is None and words.raag_normal_form(wg.graph, out) != out:
            problem = "normal form is not idempotent"
        if problem is None and words.raag_normal_form(wg.graph, variant) != out:
            problem = "normal form differs after commuting swaps and cancelling pairs"
        return problem

    return Op(
        f"normal form L{len(w)}",
        "b" if reduces else "a",
        lambda: words.raag_normal_form(wg.graph, word),
        check,
        wg,
    )


def commute_op(rng, wg: WordGraph, commuting) -> Op:
    while True:
        u = random_word(rng, wg.n, 30)
        v = rewrite(rng, wg.masks, u, 30, 2) if commuting else random_word(rng, wg.n, 30)
        if commuting or oracles.check_commute(wg.n, wg.masks, u, v, False) is None:
            break
    wu, wv = wg.word(u), wg.word(v)
    return Op(
        "raag commute",
        "b" if commuting else "a",
        lambda: words.raag_commute(wg.graph, wu, wv),
        lambda out: oracles.check_commute(wg.n, wg.masks, u, v, out),
    )


def reducing_word(rng, masks, length):
    """w w^-1, shuffled by commuting swaps, with inserted cancelling pairs."""
    pairs = length // 10
    half = random_word(rng, len(masks), length // 2 - pairs)
    return rewrite(rng, masks, half + inverse(half), length, pairs)


def rewriting_check(rng) -> Optional[str]:
    """The breadth-first rewriting oracle against library and piling, short words."""
    wg = WordGraph(rng, 4, dense=rng.random() < 0.5)
    canon = oracles.rewriting_canon(wg.n, wg.masks, 4)
    for _ in range(60):
        w = tuple(random_word(rng, wg.n, rng.randint(0, 4)))
        got = wg.codes(words.raag_normal_form(wg.graph, wg.word(w)))
        if not (got == canon[w] == oracles.normal_form(wg.n, wg.masks, w)):
            return f"short word {w}: library {got}, rewriting {canon[w]}"
    return None


def build_normal_form(rng, files: Files) -> Workload:
    ops = []
    slots = count()

    def next_graph():
        # sizes 4..12 in turn; sparse and dense graphs in turns of two, so
        # random and reducing words each meet both
        k = next(slots)
        return WordGraph(rng, 4 + k % 9, dense=k // 2 % 2 == 1)

    for length in (50, 100, 200, 400, 800):
        for _ in range(2):
            wg = next_graph()
            ops.append(nf_op(rng, wg, random_word(rng, wg.n, length), False))
            wg = next_graph()
            ops.append(nf_op(rng, wg, reducing_word(rng, wg.masks, length), True))
    for commuting in (True, True, False, False):
        ops.append(commute_op(rng, next_graph(), commuting))
    rng.shuffle(ops)
    process = kill_op(rng, files, GraphInput(files, 6, cycle_graph(rng, 6), "cycle"))
    short_words = random.Random(rng.randrange(2**32))
    return Workload(ops, process, [lambda: rewriting_check(short_words)])


BUILDERS = {
    "membership": build_membership,
    "obstruction": build_obstruction,
    "graph-structure": build_graph_structure,
    "normal-form": build_normal_form,
}
