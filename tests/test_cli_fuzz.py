"""Random input files through the command line: every run ends in an exit code.

Graph files go through `graph analyze`, `raag complement`, `raag
split-report --max-k 3` and `raag compare` against the 5-cycle; character and
vector files through `braid`/`loop` `sigma`, `witness` and `obstruct` on at most five
strands, and seeded vector files through `obstruct` on 16; words and
character files through `raag kill` and `raag sigma`.
When a run succeeds on input that is well formed, its answer is checked by
the benchmark's package-free checkers in `bench/oracles.py`: a graph file
that the reference reader in `tests/oracles.py` accepts, character and
vector files of integer assignments, and words and characters drawn over
the graph's vertices.  Vectors spanning one dead subspace's equations reach
`obstruct`'s covered branch, whose covering subspace, sample and witness
words are checked too.

The examples are derandomized, so every run of the suite tries the same
inputs, and no deadline applies, so no outcome depends on machine speed.
"""

import math
import os
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bnskit import cli

from .families import FAMILIES
from .oracles import GraphFileError, bench_oracles, dead_subspaces, read_graph_file

ORACLES = bench_oracles()

NAMES = [f"v{i}" for i in range(12)] + ["", "a-b", "v0"]
VERTEX_TOKEN = st.sampled_from(NAMES)
EDGE_TOKEN = st.one_of(
    st.builds(lambda a, b: f"{a}-{b}", VERTEX_TOKEN, VERTEX_TOKEN),
    st.sampled_from(["v1", "-v2", "v1-", "v1-v2-v3", "--"]),
)
LINE = st.one_of(
    st.lists(VERTEX_TOKEN, max_size=12).map(lambda ts: "vertices: " + " ".join(ts)),
    st.lists(EDGE_TOKEN, max_size=30).map(lambda ts: "edges: " + " ".join(ts)),
    st.sampled_from(["", "# comment", "vertices:", "edges:", "   ", "noise"]),
    st.text(max_size=20),
)


@st.composite
def graph_files(draw):
    """A well-formed graph file on at most 12 vertices, its edges spread
    over several lines."""
    n = draw(st.integers(0, 12))
    names = draw(st.permutations(NAMES[:12]))[:n]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    cut = draw(st.integers(0, len(edges)))
    lines = ["vertices: " + " ".join(names) + "  # declared order"]
    lines += ["edges: " + " ".join(f"{a}-{b}" for a, b in part) for part in (edges[:cut], edges[cut:])]
    return lines


@st.composite
def damaged_graph_files(draw):
    lines = draw(graph_files())
    lines.insert(draw(st.integers(0, len(lines))), draw(LINE))
    return lines


GRAPH_TEXT = st.one_of(
    graph_files().map("\n".join),
    damaged_graph_files().map("\n".join),
    st.lists(LINE, max_size=6).map("\n".join),
    st.text(max_size=80),
)


C5 = Path(__file__).parent / "data" / "c5.graph"
C5_VERTICES, _, C5_MASKS = read_graph_file(C5.read_text())

# the answers of a clique, where the benchmark's checkers do not apply
CLIQUE_SPLIT = {
    "clique": "true",
    "max_k": "3",
    "min_separating_clique": "none",
    "witness": "none",
    "verdicts": "0:no-claim 1:no-claim 2:no-claim 3:no-claim",
    "nf_certified": "false",
}
CLIQUE_COMPARE = {
    "clique1": "true",
    "clique2": "false",
    "invariant1": "none",
    "invariant2": "none",
    "verdict": "not-commensurable",
}


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(GRAPH_TEXT)
def test_graph_commands_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "g.graph")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
            handle.write(text)
        reports = []
        for argv in (
            ["graph", "analyze", path],
            ["raag", "complement", path],
            ["raag", "split-report", "--max-k", "3", path],
            ["raag", "compare", path, str(C5)],
        ):
            report = cli.run(["--porcelain", *argv])
            assert report.exit_code in (0, 1, 2)
            if report.exit_code:
                assert any(line.startswith("error=") for line in report.porcelain)
            reports.append(report)
    try:
        vertices, _, masks = read_graph_file(text)
    except GraphFileError:
        return
    analyzed, complemented, split, compared = reports
    expected = ORACLES.analyze_expected(vertices, masks)
    if analyzed.exit_code == 0:
        assert ORACLES.porcelain_dict(analyzed.porcelain) == expected
    if complemented.exit_code == 0:
        assert ORACLES.check_complement(vertices, masks, 0, complemented.porcelain) is None
    clique = expected["clique"] == "true"
    if split.exit_code == 0:
        if clique:
            got = ORACLES.porcelain_dict(split.porcelain)
            assert got.pop("note") and got == CLIQUE_SPLIT
        else:
            assert ORACLES.check_split_report(vertices, masks, 3, 0, split.porcelain) is None
    if compared.exit_code == 0:
        if clique:
            assert ORACLES.porcelain_dict(compared.porcelain) == CLIQUE_COMPARE
        else:
            assert ORACLES.check_compare((vertices, masks), (C5_VERTICES, C5_MASKS), 0, compared.porcelain) is None


def run_all(files, argvs):
    """Write the files, run each command on them, check its exit code, and
    return the reports."""
    reports = []
    with tempfile.TemporaryDirectory() as directory:
        paths = []
        for k, text in enumerate(files):
            paths.append(os.path.join(directory, f"in{k}"))
            with open(paths[-1], "w", encoding="utf-8", errors="surrogatepass") as handle:
                handle.write(text)
        for argv in argvs:
            report = cli.run(["--porcelain", *[paths[a] if isinstance(a, int) else a for a in argv]])
            assert report.exit_code in (0, 1, 2)
            if report.exit_code:
                assert any(line.startswith("error=") for line in report.porcelain)
            reports.append(report)
    return reports


GENERATOR_NAMES = sorted(
    {f"{letter}({i},{j})" for letter in "SA" for i in range(7) for j in range(7)}
    | {"S(1,2", "A(1,2)x", "a", ""}
)
VALUE_TEXT = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(-2, 9)),
    st.sampled_from(["0", "+3", "-0", "1/0", "0.5", "1e3", "", "x", "9" * 40, "1//2"]),
)
ASSIGNMENT = st.builds(
    lambda name, sep, value: f"{name}{sep}{value}",
    st.sampled_from(GENERATOR_NAMES),
    st.sampled_from([" = ", "=", " == ", " ", "= ="]),
    VALUE_TEXT,
)
CHARACTER_TEXT = st.one_of(
    st.lists(st.one_of(ASSIGNMENT, LINE), max_size=8).map("\n".join),
    st.text(max_size=60),
)


def valid_names(family, n):
    strands = range(1, n + 1)
    if family == "braid":
        return [f"S({i},{j})" for i in strands for j in strands if i < j]
    return [f"A({i},{j})" for i in strands for j in strands if i != j]


@st.composite
def assignment_files(draw, names):
    """Well-formed integer assignments over `names`, some with one damaged
    line, or any character text.  Returns the text, and the values by name
    if the file is well formed, else None."""
    if not names or draw(st.integers(0, 3)) == 0:
        return draw(CHARACTER_TEXT), None
    values = draw(st.dictionaries(st.sampled_from(names), st.integers(-3, 3), max_size=len(names)))
    lines = [f"{name} = {value}" for name, value in values.items()]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(ASSIGNMENT, LINE)))
        return "\n".join(lines), None
    return "\n".join(lines), values


@st.composite
def projection_files(draw, family, n):
    """`assignment_files` over the family's generators on n strands, with
    the values by strand pair."""
    text, values = draw(assignment_files(valid_names(family, n)))
    return text, None if values is None else {ORACLES.parse_generator(name): x for name, x in values.items()}


@st.composite
def projection_commands(draw):
    family = draw(st.sampled_from(["braid", "loop"]))
    n = draw(st.one_of(st.integers(3, 5), st.integers(-1, 5)))
    files = draw(st.lists(projection_files(family, n), min_size=1, max_size=4))
    return family, str(n), files


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(projection_commands())
def test_character_and_vector_files_end_in_an_exit_code(command):
    family, n, files = command
    obstruct = [family, "obstruct", "-n", n, *range(1, len(files))]
    sigma, witness, obstructed = run_all(
        [text for text, _ in files], [[family, "sigma", "-n", n, 0], [family, "witness", "-n", n, 0], obstruct]
    )
    values = [parsed for _, parsed in files]
    if sigma.exit_code == 0 and values[0] is not None:
        assert ORACLES.check_projection_sigma(family, int(n), values[0], 0, sigma.porcelain) is None
    if witness.exit_code == 0 and values[0] is not None:
        assert ORACLES.check_projection_witness(family, int(n), values[0], 0, witness.porcelain) is None
    if obstructed.exit_code == 0 and None not in values[1:]:
        assert ORACLES.check_obstruction(family, int(n), values[1:], 0, obstructed.porcelain) is None


@st.composite
def dead_characters(draw):
    """A character in one dead subspace, at braid n = 4-5 or loop n = 3-4:
    an integer combination of the subspace's rational basis, cleared of
    denominators.  Returns the family, n and the values by strand pair."""
    family, n = draw(st.sampled_from([("braid", 4), ("braid", 5), ("loop", 3), ("loop", 4)]))
    _, _, equations = draw(st.sampled_from(dead_subspaces(family, n)))
    pairs = ORACLES.family_pairs(family, n)
    basis = ORACLES.nullspace([list(row) for row in equations], len(pairs))
    coefficients = draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    point = [sum(c * row[k] for c, row in zip(coefficients, basis)) for k in range(len(pairs))]
    scale = math.lcm(*(x.denominator for x in point))
    return family, n, {pair: int(x * scale) for pair, x in zip(pairs, point) if x}


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(dead_characters())
def test_witnesses_of_dead_characters_are_checked(command):
    """Every nonzero character of a dead subspace lies outside the
    invariant, so `witness` answers it, and the benchmark's checker reads
    the answer; the zero character has none."""
    family, n, values = command
    letter = "S" if family == "braid" else "A"
    text = "".join(f"{letter}({i},{j}) = {x}\n" for (i, j), x in values.items())
    (report,) = run_all([text], [[family, "witness", "-n", str(n), 0]])
    if not values:
        assert report.porcelain == ("error=the zero character does not admit a witness pair",)
    else:
        assert ORACLES.check_projection_witness(family, n, values, report.exit_code, report.porcelain) is None


@st.composite
def covering_commands(draw):
    """Vectors whose annihilator is one dead subspace, at braid n = 4-5 or
    loop n = 3-4: the subspace's equations, mixed by a unimodular triangular
    map (row k gains c times row k + 1) and shuffled.  Returns the family, n
    and the vectors as dicts from strand pair to nonzero value."""
    family, n = draw(st.sampled_from([("braid", 4), ("braid", 5), ("loop", 3), ("loop", 4)]))
    _, _, equations = draw(st.sampled_from(dead_subspaces(family, n)))
    shifts = draw(st.lists(st.integers(-2, 2), min_size=len(equations) - 1, max_size=len(equations) - 1))
    mixed = [[a + c * b for a, b in zip(row, below)] for row, below, c in zip(equations, equations[1:], shifts)]
    mixed = draw(st.permutations([*mixed, list(equations[-1])]))
    pairs = ORACLES.family_pairs(family, n)
    return family, n, [{pair: x for pair, x in zip(pairs, row) if x} for row in mixed]


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(covering_commands())
def test_covered_obstructions_are_checked(command):
    family, n, vectors = command
    letter = "S" if family == "braid" else "A"
    texts = ["".join(f"{letter}({i},{j}) = {x}\n" for (i, j), x in vector.items()) for vector in vectors]
    (report,) = run_all(texts, [[family, "obstruct", "-n", str(n), *range(len(texts))]])
    assert report.exit_code == 0 and "branch=covered" in report.porcelain
    assert ORACLES.check_obstruction(family, n, vectors, 0, report.porcelain) is None


def test_obstructions_at_sixteen_strands_are_checked():
    """Seeded `obstruct -n 16` runs of both families on both branches: two
    dense vectors give the certificate branch, and the equations of a dead
    subspace of each base group, on random strands and shuffled, give the
    covered branch."""
    rng = random.Random(1616)
    for family in FAMILIES.values():
        pairs = ORACLES.family_pairs(family.name, 16)
        runs = [("certificate", [[rng.randint(-3, 3) for _ in pairs] for _ in range(2)]) for _ in range(2)]
        for kind, size in (family.small, family.large):
            kept = tuple(sorted(rng.sample(range(1, 17), size)))
            rows = ORACLES.subspace_equations(family.name, 16, kind, kept)
            runs.append(("covered", rng.sample(rows, len(rows))))
        for branch, rows in runs:
            vectors = [{pair: x for pair, x in zip(pairs, row) if x} for row in rows]
            texts = ["".join(f"{family.letter}({i},{j}) = {x}\n" for (i, j), x in vector.items()) for vector in vectors]
            (report,) = run_all(texts, [[family.name, "obstruct", "-n", "16", *range(len(texts))]])
            assert f"branch={branch}" in report.porcelain
            assert ORACLES.check_obstruction(family.name, 16, vectors, report.exit_code, report.porcelain) is None


@st.composite
def kill_inputs(draw):
    """A graph file, a words file and a character file.  The words are
    powers of one vertex, lists of letters and junk tokens, or any text; the
    character is `assignment_files` over the vertices.  Returns the three
    texts, with the words as (vertex index, sign) lists and the values in
    vertex order when they were drawn over the graph's vertices, else None."""
    graph = draw(graph_files())
    vertices = graph[0].split(":", 1)[1].split("#", 1)[0].split()
    names = vertices or ["v0"]

    def powers(drawn):
        return "\n".join(" ".join([names[i]] * k) for i, k in drawn), [[(i, 1)] * k for i, k in drawn]

    def tokens(drawn):
        text = "\n".join(" ".join(t if isinstance(t, str) else names[t[0]] + t[1] for t in w) for w in drawn)
        if any(isinstance(t, str) for w in drawn for t in w):
            return text, None
        return text, [[(i, -1 if suffix else 1) for i, suffix in w] for w in drawn]

    index = st.sampled_from(range(len(names)))
    letter = st.one_of(
        st.tuples(index, st.sampled_from(["", "^-1", "'"])),
        st.sampled_from(["v1^-2", "^-1", "'", "v1''", "v99", "a-b"]),
    )
    text, words = draw(st.one_of(
        # powers of one vertex commute, so these reach the killing step
        st.lists(st.tuples(index, st.integers(1, 3)), max_size=3).map(powers),
        st.lists(st.lists(letter, max_size=5), max_size=4).map(tokens),
        st.text(max_size=40).map(lambda text: (text, None)),
    ))
    character, values = draw(assignment_files(vertices))
    return (
        "\n".join(graph),
        text,
        words if vertices else None,
        character,
        None if values is None else [values.get(v, 0) for v in vertices],
    )


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(kill_inputs())
def test_words_and_raag_character_files_end_in_an_exit_code(inputs):
    graph, words_text, words, character, values = inputs
    killed, sigma = run_all([graph, words_text, character], [["raag", "kill", 0, 1], ["raag", "sigma", 0, 2]])
    vertices, _, masks = read_graph_file(graph)
    if killed.exit_code == 0 and words is not None:
        assert ORACLES.check_raag_kill(vertices, masks, words, 0, killed.porcelain) is None
    if sigma.exit_code == 0 and values is not None:
        assert ORACLES.check_raag_sigma(vertices, masks, values, 0, sigma.porcelain) is None
