"""Sigma invariant computations for pure braid groups.

Generators are the standard band generators, one per strand pair i < j,
named S(i,j) and ordered lexicographically.  A character is outside the
invariant exactly when it is zero, or when deleting strands projects it onto
a dead character of the three- or four-strand group: for three strands the
dead set is the plane where the three values sum to zero, for four strands
there is additionally one exceptional two-dimensional subspace.

The three-strand group is (free of rank 2) x (center), generated by the
first two bands with the full twist central; that model reduces projected
words far enough to certify free subgroups.

The computations themselves are shared with pure loop braid groups in
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
from .words import F2ZElement, Word, f2z, f2z_multiply

PB3_SUM = "pb3-sum"
PB4_EXCEPTIONAL = "pb4-exceptional"

_PB3_IMAGES = {
    "S(1,2)": f2z(["A"]),
    "S(1,3)": f2z(["B"]),
    "S(2,3)": f2z([("B", -1), ("A", -1)], 1),
}


def pb3_reduce(w: Word) -> F2ZElement:
    """Image of a 3-strand word in (free on A, B) x (central full twist).

    The first two bands map to the free generators and the product of all
    three bands is the central full twist, pinning down the third band.

    >>> basis = PureBraidBasis(3)
    >>> z = pb3_reduce(Word(basis.names, [(n, 1) for n in basis.names]))
    >>> (str(z.free_part), z.central)
    ('1', 1)
    """
    if w.alphabet != PureBraidBasis(3).names:
        raise InputError("word alphabet is not over the 3-strand generators")
    acc = f2z([])
    for name, sign in w.letters:
        image = _PB3_IMAGES[name]
        if sign < 0:
            image = F2ZElement(image.free_part.inverse(), -image.central)
        acc = f2z_multiply(acc, image)
    return acc


FAMILY = ProjectionFamily(
    group="pure braid",
    unit="strand",
    letter="S",
    ordered=False,
    small=BaseGroup(
        PB3_SUM,
        3,
        # the three values sum to zero
        ({(1, 2): 1, (1, 3): 1, (2, 3): 1},),
        {(1, 2): 1, (1, 3): 1, (2, 3): -2},
    ),
    large=BaseGroup(
        PB4_EXCEPTIONAL,
        4,
        # opposite bands agree and the bands at strand 1 sum to zero
        (
            {(1, 2): 1, (3, 4): -1},
            {(1, 3): 1, (2, 4): -1},
            {(1, 4): 1, (2, 3): -1},
            {(1, 2): 1, (1, 3): 1, (1, 4): 1},
        ),
        {(1, 2): 1, (1, 3): 1, (1, 4): -2, (2, 3): -2, (2, 4): 1, (3, 4): 1},
    ),
    # the two equation differences project to the free generators on {1,2,3}
    exceptional_pair=(((1, 2, 1), (3, 4, -1)), ((1, 3, 1), (2, 4, -1))),
    # the bands from j to the two least kept strands
    free_pair=lambda j, kept: ((j, kept[0]), (j, kept[1])),
    reduce=pb3_reduce,
)

PureBraidBasis = FAMILY.basis
project_character = FAMILY.project_character
project_word = FAMILY.project_word
sigma_membership = FAMILY.sigma_membership
witness_pair = FAMILY.witness_pair
dead_subspaces = FAMILY.dead_subspaces
nf_obstruction_demo = FAMILY.nf_obstruction_demo

