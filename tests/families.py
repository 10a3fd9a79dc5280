"""The two projection families as test data, and the helpers their tests share.

Pure braid groups and pure loop braid groups are one `ProjectionFamily` in
the package, and they are tested as one.  Each row of `FAMILIES` holds what
the tests expect of a family, written out here as data rather than read from
the package, so the expectations stay independent of it: the family's name
(as the oracles and the command line spell it), module and generator letter,
its two base groups' kinds and sizes, the strand counts of the subset-scan
sweep, and its goldens.  The tests count strands from the base sizes, so
the same test reaches the same groups in both families.

`tests/test_projection.py` runs each of its family tests once per row, and
the acceptance and span tests loop over the table.  The helpers below build
characters and words as the package reads them, read them back as the
oracles do, draw random values, and check that a family rejects a strand
count that is not an int (the braid and loop modules' count tests).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from types import ModuleType
from typing import Callable, NamedTuple

import pytest

from bnskit import InputError, braid, loop, make_character
from bnskit.words import word

from .oracles import bench_oracles, dead_values

ORACLES = bench_oracles()

# values on every generator, and coefficients of dead subspace points
POOL = (-2, -1, 0, 0, 1, 1, 2, Fraction(1, 2), Fraction(-3, 2))
DEAD_POOL = range(-3, 4)

IN = ("in", None, None, None)
ZERO = ("out", "zero", None, None)


def dead(kept, base):
    """The verdict fields of a dead projection onto kept."""
    return ("out", "projection", kept, base)


class Family(NamedTuple):
    name: str
    module: ModuleType
    letter: str
    small: tuple[str, int]  # base group kind and strand count
    large: tuple[str, int]
    sweep: range  # strand counts of the subset-scan sweep
    reduce: Callable  # free image of a word on the small base's strands
    layouts: tuple[tuple[str, ...], ...]  # generator names on the base strand counts
    verdicts: tuple  # (n, values, verdict fields)
    projections: tuple  # (n, kept, values, projected values or None)
    words: tuple  # (n, kept, word, projected word)
    projection_witness: tuple  # (n, values, u, v, designated)
    exceptional_witness: tuple
    # rows whose integer kernel is the lattice the large base's equations kill
    covered_rows: tuple


BRAID_EXCEPTIONAL = {(1, 2): 1, (1, 3): 1, (1, 4): -2, (2, 3): -2, (2, 4): 1, (3, 4): 1}
LOOP_EQUATIONS = {(2, 1): 1, (3, 1): -1, (1, 2): 2, (3, 2): -2, (1, 3): 3, (2, 3): -3}

FAMILIES = {
    row.name: row
    for row in (
        Family(
            name="braid",
            module=braid,
            letter="S",
            small=("pb3-sum", 3),
            large=("pb4-exceptional", 4),
            sweep=range(3, 8),
            reduce=lambda w: braid.pb3_reduce(w).free_part,
            layouts=(
                ("S(1,2)", "S(1,3)", "S(2,3)"),
                ("S(1,2)", "S(1,3)", "S(1,4)", "S(2,3)", "S(2,4)", "S(3,4)"),
            ),
            verdicts=(
                (3, {(1, 2): 1, (1, 3): 1, (2, 3): -2}, dead((1, 2, 3), "pb3-sum")),
                (3, {(1, 2): 1}, IN),
                (3, {}, ZERO),
                (4, BRAID_EXCEPTIONAL, dead((1, 2, 3, 4), "pb4-exceptional")),
                (4, {(1, 2): 1, (1, 3): -1}, dead((1, 2, 3), "pb3-sum")),
                (4, {(1, 2): 1}, IN),
                (4, {}, ZERO),
                (5, {(1, 2): 1}, IN),
                (5, {(1, 2): 1, (1, 3): 1, (2, 3): -2}, dead((1, 2, 3), "pb3-sum")),
            ),
            projections=(
                (4, (1, 2, 3), {(1, 2): 1}, (1, 0, 0)),
                (4, (1, 2, 3), {(1, 4): 1}, None),
                (5, (2, 4, 5), {(2, 4): 7}, (7, 0, 0)),
            ),
            words=(
                (4, (1, 2, 3), "S(1,4) S(1,2)", "S(1,2)"),
                (4, (2, 3, 4), "S(2,3)^-1 S(1,4)", "S(1,2)^-1"),
            ),
            projection_witness=(5, {(2, 3): 1, (2, 4): 1, (3, 4): -2}, "S(1,2)", "S(1,3)", (1, 2, 3)),
            exceptional_witness=(4, BRAID_EXCEPTIONAL, "S(1,2) S(3,4)^-1", "S(1,3) S(2,4)^-1", (1, 2, 3)),
            covered_rows=((1, 0, -1, -1, 0, 1), (0, 1, -1, -1, 1, 0)),
        ),
        Family(
            name="loop",
            module=loop,
            letter="A",
            small=("plb2-all", 2),
            large=("plb3-equations", 3),
            sweep=range(2, 7),
            reduce=loop.plb2_reduce,
            layouts=(
                ("A(1,2)", "A(2,1)"),
                ("A(1,2)", "A(1,3)", "A(2,1)", "A(2,3)", "A(3,1)", "A(3,2)"),
            ),
            verdicts=(
                (2, {(1, 2): 1}, dead((1, 2), "plb2-all")),
                (2, {(1, 2): 5}, dead((1, 2), "plb2-all")),
                (2, {}, ZERO),
                (3, LOOP_EQUATIONS, dead((1, 2, 3), "plb3-equations")),
                (3, {(1, 2): 1, (2, 1): 1}, dead((1, 2), "plb2-all")),
                (3, {(1, 2): 1, (1, 3): 1, (2, 3): 1}, IN),
                (3, {}, ZERO),
                # a single pair stays projectable to its own 2-loop group
                (4, {(1, 2): 1}, dead((1, 2), "plb2-all")),
                (4, dict.fromkeys(permutations(range(1, 5), 2), 1), IN),
            ),
            projections=(
                (3, (1, 2), {(1, 2): 1}, (1, 0)),
                (3, (1, 2), {(1, 3): 1}, None),
                (4, (2, 4), {(2, 4): 3, (4, 2): -1}, (3, -1)),
            ),
            words=(
                (4, (2, 4), "A(2,4)^-1 A(1,2) A(4,2)", "A(1,2)^-1 A(2,1)"),
                (4, (1, 3, 4), "A(4,3) A(2,1) A(1,4)^-1", "A(3,2) A(1,3)^-1"),
            ),
            # dead via kept {2,3}: least deleted loop 1, least kept loop 2
            projection_witness=(4, {(2, 3): 1, (3, 2): -5}, "A(1,2)", "A(2,1)", (1, 2)),
            exceptional_witness=(3, LOOP_EQUATIONS, "A(1,2) A(3,2)", "A(2,1) A(3,1)", (1, 2)),
            covered_rows=((1, 0, 0, 0, 0, -1), (0, 1, 0, -1, 0, 0), (0, 0, 1, 0, -1, 0)),
        ),
    )
}


# ---------------------------------------------------------------------------
# characters, words and witnesses as the oracles read them


def basis(family, n):
    return family.module.FAMILY.basis(n)


def character(family, n, values):
    """The character on n strands with these pair -> value values."""
    b = basis(family, n)
    return make_character(b.generators, {b.name(i, j): v for (i, j), v in values.items()})


def values_of(c) -> dict:
    """A character's nonzero values, pair -> value."""
    return {ORACLES.parse_generator(name): v for name, v in zip(c.basis.names, c.values) if v}


def parse(family, n, text):
    """A word on n strands written as the package prints words."""
    return word(
        basis(family, n).names,
        [(token.removesuffix("^-1"), -1 if token.endswith("^-1") else 1) for token in text.split()],
    )


def fields(verdict):
    return (verdict.status, verdict.witness, verdict.kept, verdict.base)


# strand counts that are not ints, each of which every call must reject
NOT_INTS = (3.0, 4.0, 4.5, 5.5, 37.0, True, "3", "4", None)


def check_count_rejected(family, count):
    """Every call that takes a strand count raises InputError on count, and
    the large base group's verdict is unchanged afterwards."""
    # 4.0 found the cached 4-strand basis by hash and answered; with no
    # cached basis, range raised a bare TypeError
    module, size = family.module, family.large[1]
    n, values, expected = next(row for row in family.verdicts if row[0] == size)
    c = character(family, n, values)
    kept = range(1, family.small[1] + 1)
    for call in (
        lambda: basis(family, count),
        lambda: module.sigma_membership(count, c),
        lambda: module.project_character(count, kept, c),
        lambda: module.witness_pair(count, c),
        lambda: module.dead_subspaces(count),
        lambda: module.nf_obstruction_demo(count, [[1, 0, 0, 0, 0, 0]]),
    ):
        with pytest.raises(InputError):
            call()
    got = fields(module.sigma_membership(n, c))
    assert got == expected, (got, expected)


def witness_problem(family, values, pair):
    """The benchmark oracle's objection to a witness pair of the character
    with these values, or None when both words die and stay free."""
    u, v = (ORACLES.parse_word(str(w)) for w in (pair.u, pair.v))
    return ORACLES.witness_problem(family.name, values, u, v, pair.designated)


def random_values(rng, family, n, pool=POOL):
    """Values from pool on every generator on n strands."""
    return {p: v for p in ORACLES.family_pairs(family.name, n) if (v := rng.choice(pool))}


def dead_draw(rng, family, n, base, pool=DEAD_POOL):
    """A random nonzero point of a base group's dead subspace, moved onto
    random strands."""
    kind, size = base
    return dead_values(rng, family.name, kind, sorted(rng.sample(range(1, n + 1), size)), pool)


def draw(rng, family, n, shapes, pool=POOL):
    """Values of one of the shapes, picked at random: None for values from
    pool on every generator, a base group for a point of its dead subspace."""
    shape = rng.choice(shapes)
    return random_values(rng, family, n, pool) if shape is None else dead_draw(rng, family, n, shape)
