"""Sigma invariant computations for pure loop braid groups.

Generators are the loop permutation moves, one per ordered pair i != j,
named A(i,j) and ordered lexicographically.  The two-index group is free of
rank 2, so its whole character sphere is dead; for three indices the dead
characters are the two-index projections together with one exceptional
subspace where, for each target index, the values flowing into it sum to
zero.  Larger index counts reduce to these by deleting indices.

The computations themselves are shared with pure braid groups in
`bnskit.projection`; this module is the family's entry there.
"""

from __future__ import annotations

from .errors import InputError
from .projection import (  # IN, OUT, PROJECTION and ZERO are re-exported
    IN,
    OUT,
    PROJECTION,
    ZERO,
    BaseGroup,
    ProjectionFamily,
)
from .words import F2_ALPHABET, Word, free_reduce

PLB2_ALL = "plb2-all"
PLB3_EQUATIONS = "plb3-equations"


def plb2_reduce(w: Word) -> Word:
    """Image of a 2-loop word in the free group on A, B, freely reduced."""
    if w.alphabet != LoopBraidBasis(2).names:
        raise InputError("word alphabet is not over the 2-loop generators")
    image = {"A(1,2)": "A", "A(2,1)": "B"}
    return free_reduce(
        Word(F2_ALPHABET, [(image[name], sign) for name, sign in w.letters])
    )


FAMILY = ProjectionFamily(
    group="pure loop braid",
    unit="loop",
    letter="A",
    ordered=True,
    # free of rank 2: every character is dead
    small=BaseGroup(PLB2_ALL, 2, (), {(1, 2): 1, (2, 1): 1}),
    large=BaseGroup(
        PLB3_EQUATIONS,
        3,
        # the values flowing into each target index sum to zero
        (
            {(2, 1): 1, (3, 1): 1},
            {(1, 2): 1, (3, 2): 1},
            {(1, 3): 1, (2, 3): 1},
        ),
        {(1, 2): 2, (1, 3): 3, (2, 1): 1, (2, 3): -3, (3, 1): -1, (3, 2): -2},
    ),
    # products along the inflow equations project to the free generators
    exceptional_pair=(((1, 2, 1), (3, 2, 1)), ((2, 1, 1), (3, 1, 1))),
    # the two moves between i and the least kept index
    free_pair=lambda i, kept: ((i, kept[0]), (kept[0], i)),
    reduce=plb2_reduce,
)

LoopBraidBasis = FAMILY.basis
project_character = FAMILY.project_character
project_word = FAMILY.project_word
sigma_membership = FAMILY.sigma_membership
witness_pair = FAMILY.witness_pair
dead_subspaces = FAMILY.dead_subspaces
nf_obstruction_demo = FAMILY.nf_obstruction_demo

