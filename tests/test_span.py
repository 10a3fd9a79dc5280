"""`obstruct` and `raag kill` read only the rational span of their input.

Both saturate the span of their input vectors, which keeps its integer
points, and work on the Hermite normal form of that lattice, which is
unique (Cohen 1993, ch. 2).  So their porcelain must be byte-identical after
any change of the input that keeps the span:

* unimodular mixing of the vectors (adding a multiple of one to another,
  negating one);
* scaling one vector by a nonzero integer;
* adding an integer combination of the vectors as another file;
* shuffling or repeating files.

`obstruct` is checked for both families at n = 16, 32 and 64 with entries of
at most 9 in absolute value, and with entries of up to 5 digits at n <= 16,
on dense and sparse vectors and, at n = 16, on the equations of a dead
subspace, which reach the covered branch.  For `raag kill` the vectors are
the exponent sums of commuting words, and shuffling, repeating and inverting
word lines keep their span.  These sizes are past the reach of the
oracles, so the relation is the check.

The examples are derandomized, so every run of the suite tries the same
inputs, and no deadline applies, so no outcome depends on machine speed.
"""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnskit import cli

from .families import FAMILIES
from .oracles import bench_oracles

ORACLES = bench_oracles()

# (strand count, largest absolute entry)
SHAPES = [(16, 9), (32, 9), (64, 9), (16, 99999), (6, 99999)]

# one change that keeps the span: its kind and three integers that pick the
# vectors and the coefficient, reduced to what the kind needs
CHANGE = st.tuples(
    st.sampled_from(["mix", "negate", "scale", "combine", "shuffle", "repeat"]),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
    st.sampled_from([-3, -2, -1, 1, 2, 3]),
)


def changed(vectors, changes):
    """The vectors after each change in turn; the span stays the same."""
    vectors = [list(v) for v in vectors]
    for kind, a, b, c in changes:
        i, j = a % len(vectors), b % len(vectors)
        if kind == "mix" and i != j:
            vectors[i] = [x + c * y for x, y in zip(vectors[i], vectors[j])]
        elif kind == "negate":
            vectors[i] = [-x for x in vectors[i]]
        elif kind == "scale":
            vectors[i] = [c * x for x in vectors[i]]
        elif kind == "combine":
            rng = random.Random(a)
            coefficients = [rng.randint(-3, 3) for _ in vectors]
            vectors.append([sum(k * v[col] for k, v in zip(coefficients, vectors)) for col in range(len(vectors[0]))])
        elif kind == "shuffle":
            random.Random(a).shuffle(vectors)
        elif kind == "repeat":
            vectors.insert(j, list(vectors[i]))
    return vectors


def run_on_files(argv, texts):
    """Porcelain of `bnskit --porcelain argv FILE...` on files holding the texts."""
    with tempfile.TemporaryDirectory() as directory:
        paths = []
        for k, text in enumerate(texts):
            paths.append(os.path.join(directory, f"in{k}"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                handle.write(text)
        report = cli.run(["--porcelain", *argv, *paths])
    return report.exit_code, report.porcelain


def obstruct(family, n, vectors):
    letter = FAMILIES[family].letter
    pairs = ORACLES.family_pairs(family, n)
    texts = ["".join(f"{letter}({i},{j}) = {x}\n" for (i, j), x in zip(pairs, v) if x) for v in vectors]
    return run_on_files([family, "obstruct", "-n", str(n)], texts)


@st.composite
def obstruct_inputs(draw, family, n, bound):
    """One to three random vectors, dense or sparse, or at n = 16 the
    equations of the small base's dead subspace on random strands."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    dim = len(ORACLES.family_pairs(family, n))
    if n == 16 and draw(st.integers(0, 3)) == 0:
        kind, size = FAMILIES[family].small
        kept = tuple(sorted(rng.sample(range(1, n + 1), size)))
        return ORACLES.subspace_equations(family, n, kind, kept)
    density = draw(st.sampled_from([1.0, 0.3, 0.02]))
    k = draw(st.integers(1, 3))
    return [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(dim)] for _ in range(k)]


@pytest.mark.parametrize("family", ["braid", "loop"])
@pytest.mark.parametrize("n, bound", SHAPES)
@settings(deadline=None, derandomize=True, database=None, max_examples=10)
@given(data=st.data())
def test_obstruct_reads_only_the_span(family, n, bound, data):
    vectors = data.draw(obstruct_inputs(family, n, bound))
    changes = data.draw(st.lists(CHANGE, min_size=1, max_size=4))
    expect = obstruct(family, n, vectors)
    assert expect[0] == 0, expect
    assert obstruct(family, n, changed(vectors, changes)) == expect, changes


@st.composite
def kill_inputs(draw):
    """A random graph on 4-20 vertices and one to four words over a clique
    of it, so that they commute, as lists of (vertex, exponent)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randrange(4, 21)
    p = rng.choice((0.2, 0.4, 0.7))
    names = [f"v{(7 * i + 3) % 23}" for i in range(n)]
    adjacent = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
    clique = [rng.randrange(n)]
    for v in rng.sample(range(n), n):
        if all((min(u, v), max(u, v)) in adjacent for u in clique):
            clique.append(v)
    letters = [(names[v], e) for v in clique for e in (1, -1)]
    words = [[rng.choice(letters) for _ in range(rng.randrange(1, 7))] for _ in range(draw(st.integers(1, 4)))]
    edges = " ".join(f"{names[a]}-{names[b]}" for a, b in sorted(adjacent))
    graph = f"vertices: {' '.join(names)}\nedges: {edges}\n"
    return graph, words


def kill(graph, words, rng):
    """Porcelain of `raag kill` on the words, each inverse letter spelled
    `^-1` or `'` at random."""
    lines = [" ".join(name if e == 1 else name + rng.choice(("^-1", "'")) for name, e in word) for word in words]
    return run_on_files(["raag", "kill"], [graph, "\n".join(lines) + "\n"])


def inverse(word):
    return [(name, -e) for name, e in reversed(word)]


WORD_CHANGES = st.lists(
    st.tuples(st.sampled_from(["shuffle", "repeat", "invert"]), st.integers(0, 2**16)), min_size=1, max_size=4
)


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(kill_inputs(), WORD_CHANGES)
def test_raag_kill_reads_only_the_span(inputs, changes):
    graph, words = inputs
    rng = random.Random(len(words))
    expect = kill(graph, words, rng)
    for kind, a in changes:
        i = a % len(words)
        if kind == "shuffle":
            words = random.Random(a).sample(words, len(words))
        elif kind == "repeat":
            words = words[:i] + [words[i]] + words[i:]
        else:
            words = words[:i] + [inverse(words[i])] + words[i + 1:]
    assert kill(graph, words, rng) == expect, changes
