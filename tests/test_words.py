import random
from fractions import Fraction

import pytest

from bnskit import Graph, InputError
from bnskit.words import (
    F2ZElement,
    Word,
    f2z,
    f2z_commute,
    f2z_generate_free,
    f2z_multiply,
    free_commute,
    free_reduce,
    raag_commute,
    raag_normal_form,
    word,
)

from .oracles import rewriting_canon


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
    p = f2z_multiply(x, y)
    assert str(p.free_part) == "A B" and p.central == 1
    inv = F2ZElement(p.free_part.inverse(), -p.central)
    unit = f2z_multiply(p, inv)
    assert len(unit.free_part) == 0 and unit.central == 0
    assert f2z_commute(x, f2z(["A", "A"], 5))
    assert not f2z_commute(x, y)
    # central parts never obstruct freeness of the free images
    assert f2z_generate_free(x, y)
    assert not f2z_generate_free(x, f2z([], 3))


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


def test_normal_form_idempotent_and_length_minimal():
    rng = random.Random(97)
    g = SQUARE
    for _ in range(300):
        letters = [
            (rng.choice("abcd"), rng.choice((1, -1))) for _ in range(rng.randrange(7))
        ]
        w = word("abcd", letters)
        nf = raag_normal_form(g, w)
        assert raag_normal_form(g, nf) == nf
        assert len(nf) <= len(w)
        # inverse product is trivial in the group
        assert len(raag_normal_form(g, w * w.inverse())) == 0


def test_normal_form_matches_rewriting_oracle_small():
    # spot check against breadth-first rewriting on one graph; the full
    # sweep lives in the acceptance suite
    edges = [(0, 1), (1, 2)]
    names = ("a", "b", "c")
    g = Graph(names, [(names[i], names[j]) for i, j in edges])
    adjacent = [[g.adjacent(names[i], names[j]) for j in range(3)] for i in range(3)]
    canon = rewriting_canon(3, adjacent, 4)
    for codes, expected in canon.items():
        letters = [(names[c >> 1], 1 if c % 2 == 0 else -1) for c in codes]
        nf = raag_normal_form(g, Word(names, letters))
        nf_codes = tuple(
            g.index(name) * 2 + (0 if sign == 1 else 1) for name, sign in nf.letters
        )
        assert nf_codes == expected


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
