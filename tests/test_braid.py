"""Pure braid groups: the tests shared with pure loop braid groups, run on
this family's row, the dense check of the verdicts on three and four
strands, and the 3-strand reduction, which has no loop counterpart."""

import random
from collections import Counter

import pytest

from bnskit import braid, words
from bnskit.words import word

from .families import ORACLES, FAMILIES, character, draw, fields, random_values

# the shared tests, each run on this family's row
from .families import (  # noqa: F401
    test_abelianization_contradiction_mirror,
    test_basis_layout,
    test_count_must_be_int as test_strand_count_must_be_int,
    test_large_base_verdicts as test_pb4_dead,
    test_obstruction_at_the_strand_limit,
    test_obstruction_certificate_branch,
    test_obstruction_covered_at_the_strand_limit,
    test_obstruction_covered_branch,
    test_obstruction_rejects_small_n,
    test_project_character,
    test_project_word,
    test_projection_coherence_random,
    test_scaling_and_negation_invariance,
    test_sigma_membership_goldens,
    test_sigma_membership_matches_subspace_union as test_sigma_membership_matches_subspace_union_n5_n6,
    test_small_base_verdicts as test_pb3_dead,
    test_witness_pair_errors,
    test_witness_pair_exceptional_case,
    test_witness_pair_projection_case,
    test_witness_soundness as test_witness_soundness_up_to_seven_strands,
)
from .oracles import traced_lines, verdict_fields


@pytest.fixture
def family():
    return FAMILIES["braid"]


def test_sigma_membership_matches_direct_equations_small_n(family):
    # the oracle evaluates the base groups' displayed equations on every
    # kept strand set; dense random draws are seldom dead on the large
    # base's strands, so constructed and zero-heavy draws there follow them
    small, large = family.small[1], family.large[1]
    rng = random.Random(23)
    draws = []
    for _ in range(300):
        n = rng.choice((small, large))
        draws.append((n, random_values(rng, family, n)))
    extra = random.Random(37)
    for _ in range(200):
        shapes = (family.small, family.large, None)
        draws.append((large, draw(extra, family, large, shapes, pool=(0, 0, 0, 0, 0, 1, -1))))
    seen = Counter()
    for n, values in draws:
        v = family.module.sigma_membership(n, character(family, n, values))
        assert fields(v) == verdict_fields(ORACLES.projection_verdict(family.name, n, values))
        seen[n, v.base or v.witness or v.status] += 1
    for kind in (family.small[0], family.large[0], "zero", "in"):
        assert seen[large, kind] >= 5, seen


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
