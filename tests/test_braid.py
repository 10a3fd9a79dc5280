"""Pure braid groups: the 3-strand reduction, which has no loop counterpart,
and the strand count's type.  The tests both projection families share are
in `tests/test_projection.py`."""

import random

import pytest

from bnskit import braid, words
from bnskit.words import word

from .families import FAMILIES, NOT_INTS, check_count_rejected
from .oracles import traced_lines


@pytest.mark.parametrize("count", NOT_INTS, ids=repr)
def test_strand_count_must_be_int(count):
    check_count_rejected(FAMILIES["braid"], count)


def test_pb3_reduce():
    names = braid.PureBraidBasis(3).names
    full_twist = word(names, ["S(1,2)", "S(1,3)", "S(2,3)"])
    r = braid.pb3_reduce(full_twist)
    assert len(r.free_part) == 0 and r.central == 1
    single = braid.pb3_reduce(word(names, ["S(1,2)"]))
    assert str(single.free_part) == "A" and single.central == 0
    # the full twist is central: conjugating anything by it is trivial
    s13 = word(names, ["S(1,3)"])
    conj = braid.pb3_reduce(full_twist * s13 * full_twist.inverse())
    assert str(conj.free_part) == "B" and conj.central == 0


def _pb3_reference(letters) -> tuple[list[tuple[str, int]], int]:
    """Free part by a stack reduction of the band images, and the central
    part as the signed count of S(2,3) letters."""
    images = {"S(1,2)": [("A", 1)], "S(1,3)": [("B", 1)], "S(2,3)": [("B", -1), ("A", -1)]}
    stack = []
    for name, sign in letters:
        image = images[name] if sign == 1 else [(x, -e) for x, e in reversed(images[name])]
        for letter in image:
            if stack and stack[-1] == (letter[0], -letter[1]):
                stack.pop()
            else:
                stack.append(letter)
    return stack, sum(sign for name, sign in letters if name == "S(2,3)")


def test_pb3_reduce_matches_stack_reference():
    names = braid.PureBraidBasis(3).names
    rng = random.Random(303)
    for _ in range(40):
        letters = [(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, 1000))]
        z = braid.pb3_reduce(word(names, letters))
        assert (list(z.free_part.letters), z.central) == _pb3_reference(letters)


def test_pb3_reduce_work_grows_linearly():
    """The line events in the words and braid modules at most triple when
    the length of a random 3-strand word doubles.  No clock is read."""
    names = braid.PureBraidBasis(3).names
    rng = random.Random(304)
    counts = []
    for length in (125, 250, 500, 1000):
        w = word(names, [(rng.choice(names), rng.choice((1, -1))) for _ in range(length)])
        _, count = traced_lines({words.__file__, braid.__file__}, braid.pb3_reduce, w)
        counts.append(count)
    assert all(later <= 3 * earlier for earlier, later in zip(counts, counts[1:])), counts
