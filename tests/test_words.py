import random
from fractions import Fraction

import pytest

from bnskit import Graph, InputError, words
from bnskit.words import (
    F2ZElement,
    Word,
    f2z,
    free_commute,
    free_reduce,
    raag_commute,
    raag_normal_form,
    word,
)

from .oracles import bench_oracles, rewriting_canon, traced_lines


def test_word_construction():
    w = word("ab", ["a", ("b", -1)])
    assert w.letters == (("a", 1), ("b", -1))
    assert str(w) == "a b^-1"
    assert str(word("ab", [])) == "1"
    with pytest.raises(InputError):
        word("ab", ["q"])
    with pytest.raises(InputError):
        Word(("a", "b"), [("a", 2)])
    # a sign is an exact int: a bool, a float or a Fraction is refused
    for sign in (True, -1.0, 1.0, Fraction(-1)):
        with pytest.raises(InputError, match="letter sign"):
            Word("ab", [("a", 1), ("b", sign)])
    with pytest.raises(InputError):
        Word(("a", "a"), [])
    # a letter that is not a pair is named, not a bare ValueError or TypeError
    for letter in (("a",), ("a", 1, 1), (), 5, None):
        with pytest.raises(InputError, match="not a .generator, sign. pair"):
            Word("ab", [letter])


def test_word_algebra():
    u = word("ab", ["a", "b"])
    v = word("ab", [("b", -1)])
    assert str(u * v) == "a b b^-1"
    assert str(u.inverse()) == "b^-1 a^-1"
    assert len(u) == 2
    assert u == word("ab", ["a", "b"])
    assert hash(u) == hash(word("ab", ["a", "b"]))
    with pytest.raises(InputError):
        u * word("abc", ["c"])


def test_free_reduce():
    w = word("ab", ["a", "b", ("b", -1), ("a", -1), "a"])
    assert str(free_reduce(w)) == "a"
    assert len(free_reduce(word("ab", ["a", ("a", -1)]))) == 0
    # reduction is idempotent
    r = free_reduce(w)
    assert free_reduce(r) == r


def test_free_reduce_random_inverse_product():
    rng = random.Random(41)
    for _ in range(200):
        letters = [
            (rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randrange(8))
        ]
        w = word("ab", letters)
        assert len(free_reduce(w * w.inverse())) == 0


def test_free_commute():
    a = word("ab", ["a"])
    b = word("ab", ["b"])
    assert free_commute(a, a)
    assert not free_commute(a, b)
    aa = word("ab", ["a", "a"])
    assert free_commute(a, aa)
    assert free_commute(word("ab", []), b)


def test_f2z_arithmetic():
    x = f2z(["A"], 2)
    y = f2z(["B"], -1)
    # a product is the reduced concatenation with the central parts added
    p = f2z(x.free_part.letters + y.free_part.letters, x.central + y.central)
    assert str(p.free_part) == "A B" and p.central == 1
    unit = f2z(p.free_part.letters + p.free_part.inverse().letters, 0)
    assert len(unit.free_part) == 0 and unit.central == 0
    # the center commutes with everything, so only the free parts decide
    assert free_commute(x.free_part, f2z(["A", "A"], 5).free_part)
    assert not free_commute(x.free_part, y.free_part)
    assert free_commute(x.free_part, f2z([], 3).free_part)


def test_f2z_reduces_but_raw_constructor_rejects():
    assert len(f2z(["A", ("A", -1)]).free_part) == 0
    with pytest.raises(InputError):
        F2ZElement(word(("A", "B"), ["A", ("A", -1)]), 0)


@pytest.mark.parametrize("central", [1.5, 2.0, True, "1", None], ids=repr)
def test_f2z_central_must_be_int(central):
    # f2z(["A"], 1.5) built an element with central=1.5
    with pytest.raises(InputError):
        f2z(["A"], central)
    with pytest.raises(InputError):
        F2ZElement(word(("A", "B"), ["A"]), central)
    assert f2z(["A"], 2).central == 2


# -- graph group normal forms


SQUARE = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def test_normal_form_front_loads_commuting_letters():
    g = Graph("abc", [("a", "b")])
    assert str(raag_normal_form(g, word("abc", ["b", "a"]))) == "a b"
    assert str(raag_normal_form(g, word("abc", ["c", "a"]))) == "c a"
    w = word("abc", ["b", "a", "c", ("a", -1)])
    assert str(raag_normal_form(g, w)) == "a b c a^-1"


def test_normal_form_cancels_through_commuting_letters():
    # a c a^-1 with a-c edge: the pair cancels across c
    g = Graph("abc", [("a", "c")])
    w = word("abc", ["a", "c", ("a", -1)])
    assert str(raag_normal_form(g, w)) == "c"
    # without the edge nothing cancels
    g2 = Graph("abc", [("a", "b")])
    assert str(raag_normal_form(g2, w)) == "a c a^-1"


def test_normal_form_sign_order():
    # positive letter precedes negative letter of the same generator
    g = SQUARE
    w = word("abcd", [("a", -1), "c", "a"])
    # a and c commute (non-adjacent? a-c not an edge in the square)
    assert not g.adjacent("a", "c")
    nf = raag_normal_form(g, w)
    assert str(nf) == "a^-1 c a"  # c cannot pass a^-1, nothing cancels


def test_normal_form_matches_rewriting_oracle_small():
    # spot check against the benchmark's breadth-first rewriting on one
    # graph; the full sweep in the acceptance suite runs the faster copy in
    # tests/oracles.py, which must give the same map
    edges = [(0, 1), (1, 2)]
    names = ("a", "b", "c")
    g = Graph(names, [(names[i], names[j]) for i, j in edges])
    bench = bench_oracles()
    canon = bench.rewriting_canon(3, bench.masks_of(3, edges), 4)
    for letters, expected in canon.items():
        nf = raag_normal_form(g, Word(names, [(names[i], s) for i, s in letters]))
        assert tuple((g.index(name), s) for name, s in nf.letters) == expected
    adjacent = [[g.adjacent(names[i], names[j]) for j in range(3)] for i in range(3)]
    decode = lambda codes: tuple((c >> 1, -1 if c & 1 else 1) for c in codes)
    assert {decode(w): decode(c) for w, c in rewriting_canon(3, adjacent, 4).items()} == canon


def test_raag_commute():
    g = Graph("abc", [("a", "b")])
    a, b, c = (word("abc", [x]) for x in "abc")
    assert raag_commute(g, a, b)
    assert not raag_commute(g, a, c)
    assert raag_commute(g, a, a * a)
    # conjugates of commuting generators still commute
    u = c * a * c.inverse()
    v = c * b * c.inverse()
    assert raag_commute(g, u, v)


def _cycle(n: int, complement: bool = False) -> tuple[Graph, list[int]]:
    """The n-cycle on v0..v(n-1), or its complement, with its neighbour masks."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if ((j - i) % n in (1, n - 1)) != complement]
    names = tuple(f"v{i}" for i in range(n))
    return Graph(names, [(names[i], names[j]) for i, j in edges]), bench_oracles().masks_of(n, edges)


def _random_letters(rng, n: int, length: int) -> list[tuple[int, int]]:
    return [(rng.randrange(n), rng.choice((1, -1))) for _ in range(length)]


def _reducing_letters(rng, n: int, masks, length: int) -> list[tuple[int, int]]:
    """A word equal to 1: w w^-1, shuffled by swaps of adjacent commuting
    letters, with cancelling pairs inserted."""
    half = _random_letters(rng, n, length // 2)
    return _rewritten(rng, n, masks, half + [(g, -s) for g, s in reversed(half)], length)


def _rewritten(rng, n: int, masks, letters, swaps: int) -> list[tuple[int, int]]:
    """The same group element: `swaps` tries at swapping adjacent commuting
    letters, then a few cancelling pairs inserted."""
    letters = list(letters)
    for _ in range(swaps):
        pos = rng.randrange(len(letters) - 1)
        (a, _), (b, _) = letters[pos], letters[pos + 1]
        if masks[a] >> b & 1:
            letters[pos], letters[pos + 1] = letters[pos + 1], letters[pos]
    for _ in range(rng.randrange(1, 10)):
        g, s = rng.randrange(n), rng.choice((1, -1))
        pos = rng.randrange(len(letters) + 1)
        letters[pos:pos] = [(g, s), (g, -s)]
    return letters


def test_normal_form_matches_heap_reference_on_long_words():
    """The one-pass reduction gives the same words as the benchmark oracle's
    heap-of-pieces normal form, which shares no code with the package, on
    long random and reducing words over cycles and their complements."""
    normal_form = bench_oracles().normal_form
    rng = random.Random(1515)
    reducing = 0
    for k in range(200):
        n = rng.randint(4, 12)
        g, masks = _cycle(n, complement=k % 4 >= 2)
        length = rng.randint(50, 400)
        if k % 2:
            letters = _reducing_letters(rng, n, masks, length)
        else:
            letters = _random_letters(rng, n, length)
        expected = normal_form(n, masks, letters)
        nf = raag_normal_form(g, Word(g.vertices, [(g.vertices[i], s) for i, s in letters]))
        assert tuple([(g.index(name), s) for name, s in nf.letters]) == expected
        reducing += not expected
    assert reducing >= 100


def test_normal_form_reduction_work_grows_linearly():
    """A word times its inverse reduces with work linear in its length: the
    line events in the words module at most triple when the length doubles.
    No clock is read."""
    g, _ = _cycle(8)
    rng = random.Random(808)
    counts = []
    for length in (50, 100, 200, 400, 800):
        w = Word(g.vertices, [(g.vertices[i], s) for i, s in _random_letters(rng, 8, length)])
        nf, count = traced_lines({words.__file__}, raag_normal_form, g, w * w.inverse())
        assert nf.letters == ()
        counts.append(count)
    assert all(later <= 3 * earlier for earlier, later in zip(counts, counts[1:])), counts


def test_raag_commute_work_grows_linearly():
    """Two random words that do not commute are told apart with work linear
    in their length: the line events in the words module at most triple
    when the length doubles.  No clock is read."""
    g, _ = _cycle(8)
    rng = random.Random(1111)
    counts = []
    for length in (125, 250, 500, 1000):
        u, v = (
            Word(g.vertices, [(g.vertices[i], s) for i, s in _random_letters(rng, 8, length)])
            for _ in range(2)
        )
        commute, count = traced_lines({words.__file__}, raag_commute, g, u, v)
        assert commute is False
        counts.append(count)
    assert all(later <= 3 * earlier for earlier, later in zip(counts, counts[1:])), counts


def test_raag_commute_matches_heap_reference_on_long_words():
    """`raag_commute` agrees with the benchmark oracle's heap-of-pieces
    normal form on long words over cycles and their complements: pairs that
    are one word and a rewriting of it, powers of one word, and random."""
    check_commute = bench_oracles().check_commute
    rng = random.Random(1616)
    seen = set()
    for k in range(60):
        n = rng.randint(4, 12)
        g, masks = _cycle(n, complement=k % 2 == 1)
        length = rng.randint(50, 2000)
        kind = k % 3
        if kind == 0:
            u = _random_letters(rng, n, length)
            v = _rewritten(rng, n, masks, u, length)
        elif kind == 1:
            w = _random_letters(rng, n, rng.randint(1, 20))
            u = w * rng.randint(1, length // len(w))
            v = w * rng.randint(1, length // len(w))
        else:
            u, v = (_random_letters(rng, n, length) for _ in range(2))
        to_word = lambda letters: Word(g.vertices, [(g.vertices[i], s) for i, s in letters])
        commute = raag_commute(g, to_word(u), to_word(v))
        assert check_commute(n, masks, u, v, commute) is None
        seen.add((kind, commute))
    assert seen == {(0, True), (1, True), (2, False)}
