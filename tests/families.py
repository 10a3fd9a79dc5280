"""The tests both projection families share, written once.

Pure braid groups and pure loop braid groups are one `ProjectionFamily` in
the package, and they are tested as one.  Each row of `FAMILIES` holds what
the tests expect of a family, written out here as data rather than read from
the package, so the expectations stay independent of it: the family's name
(as the oracles and the command line spell it), module and generator letter,
its two base groups' kinds and sizes, the strand counts of the subset-scan
sweep, and its goldens.  Strand counts in the tests below are counted from
the base sizes, so the same test reaches the same groups in both families.

The tests below take the row as the `family` fixture.  `tests/test_braid.py`
and `tests/test_loop.py` import every one of them and define that fixture
for their own row, so each test runs once per family under that family's
module, and `tests/test_projection.py` checks that neither module leaves one
out.  `tests/test_projection.py` and the acceptance tests loop over the table.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from types import ModuleType
from typing import Callable, NamedTuple

import pytest

from bnskit import DomainError, InputError, PreconditionError, braid, loop, make_character
from bnskit.characters import abelianize, integer_kernel
from bnskit.cli import run
from bnskit.obstruction import CERTIFICATE, COVERED
from bnskit.words import word

from .oracles import bench_oracles, dead_subspaces, dead_values, projection_inside

ORACLES = bench_oracles()

# values on every generator, and coefficients of dead subspace points
POOL = (-2, -1, 0, 0, 1, 1, 2, Fraction(1, 2), Fraction(-3, 2))
DEAD_POOL = range(-3, 4)
SCALES = (Fraction(5, 3), -7, Fraction(3, 7), -2)

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


# ---------------------------------------------------------------------------
# the shared tests


def test_basis_layout(family):
    for names in family.layouts:
        b = basis(family, max(ORACLES.parse_generator(names[-1])))
        assert b.names == names and b.dim == len(names)
        for k, name in enumerate(names):
            i, j = ORACLES.parse_generator(name)
            assert b.index(i, j) == k
            # a band has one name for both orders; a loop move has two
            reverse = f"{family.letter}({j},{i})"
            assert b.index(j, i) == (names.index(reverse) if reverse in names else k)
    with pytest.raises(PreconditionError):
        basis(family, family.small[1] - 1)
    for i, j in ((1, 1), (1, 5)):
        with pytest.raises(InputError):
            b.index(i, j)


@pytest.mark.parametrize("count", [3.0, 4.0, 4.5, 5.5, 37.0, True, "3", "4", None], ids=repr)
def test_count_must_be_int(family, count):
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
    assert fields(module.sigma_membership(n, c)) == expected


def test_project_character(family):
    for n, kept, values, projected in family.projections:
        p = family.module.project_character(n, kept, character(family, n, values))
        assert (p and p.values) == projected
    n, small = family.large[1], family.small[1]
    for kept in (range(1, small), (*range(1, small), n + 5)):
        with pytest.raises(InputError):
            family.module.project_character(n, kept, character(family, n, {}))


def test_project_word(family):
    for n, kept, text, projected in family.words:
        assert str(family.module.project_word(n, kept, parse(family, n, text))) == projected


def test_projection_coherence_random(family):
    rng = random.Random(11)
    small, large = family.small[1], family.large[1]
    for _ in range(200):
        n = rng.choice(range(large, large + 3))
        values = random_values(rng, family, n)
        kept = tuple(sorted(rng.sample(range(1, n + 1), rng.choice((small, large)))))
        p = family.module.project_character(n, kept, character(family, n, values))
        if any(not {i, j} <= set(kept) for i, j in values):
            assert p is None
        else:
            relabel = {s: a + 1 for a, s in enumerate(kept)}
            assert values_of(p) == {(relabel[i], relabel[j]): v for (i, j), v in values.items()}


def check_verdicts(family, keep):
    rows = [row for row in family.verdicts if keep(row[0])]
    assert rows
    for n, values, expected in rows:
        assert fields(family.module.sigma_membership(n, character(family, n, values))) == expected


def test_small_base_verdicts(family):
    check_verdicts(family, lambda n: n == family.small[1])


def test_large_base_verdicts(family):
    check_verdicts(family, lambda n: n == family.large[1])


def test_sigma_membership_goldens(family):
    check_verdicts(family, lambda n: n > family.large[1])
    n = family.small[1] - 1
    with pytest.raises(PreconditionError):
        family.module.sigma_membership(n, character(family, n + 1, {}))


def test_sigma_membership_matches_subspace_union(family):
    # Out iff the character satisfies the equations of some dead subspace
    rng = random.Random(31)
    small = family.small[1]
    for n in (small + 2, small + 3):
        subs = [equations for _, _, equations in dead_subspaces(family.name, n)]
        for _ in range(150):
            c = character(family, n, draw(rng, family, n, (None, family.small, family.large)))
            if c.is_zero():
                continue
            in_union = any(all(c.pair(eq) == 0 for eq in equations) for equations in subs)
            assert family.module.sigma_membership(n, c).inside == (not in_union)


def assert_rays_agree(family, n, c):
    v = family.module.sigma_membership(n, c)
    assert family.module.sigma_membership(n, c.negated()) == v
    for scale in SCALES:
        assert family.module.sigma_membership(n, c.scaled(scale)) == v
    return v


def test_scaling_and_negation_invariance(family):
    rng = random.Random(43)
    for _ in range(200):
        n = rng.choice(range(family.small[1], 7))
        assert_rays_agree(family, n, character(family, n, draw(rng, family, n, (None, family.small))))
    # the same rays at strand counts the subset-scan oracles cannot reach
    rng = random.Random(4316)
    seen = set()
    for n in (16, 32, 64):
        for _ in range(40):
            values = draw(rng, family, n, (None, family.small, family.large))
            v = assert_rays_agree(family, n, character(family, n, values))
            seen.add((n, v.base or v.status))
    assert len(seen) == 9, seen


def check_witness_golden(family, golden):
    n, values, u, v, designated = golden
    pair = family.module.witness_pair(n, character(family, n, values))
    assert (str(pair.u), str(pair.v), pair.designated) == (u, v, designated)
    assert witness_problem(family, values, pair) is None
    return n, pair


def test_witness_pair_projection_case(family):
    check_witness_golden(family, family.projection_witness)


def test_witness_pair_exceptional_case(family):
    n, pair = check_witness_golden(family, family.exceptional_witness)
    # the exceptional words project to the free generators on the small base
    images = (family.reduce(family.module.project_word(n, pair.designated, w)) for w in (pair.u, pair.v))
    assert tuple(map(str, images)) == ("A", "B")


def test_witness_pair_errors(family):
    for n, values, expected in family.verdicts:
        c = character(family, n, values)
        if n < family.large[1]:
            with pytest.raises(PreconditionError):
                family.module.witness_pair(n, c)
        elif expected in (IN, ZERO):
            with pytest.raises(DomainError):
                family.module.witness_pair(n, c)
        else:
            assert witness_problem(family, values, family.module.witness_pair(n, c)) is None


def test_witness_soundness(family):
    rng = random.Random(59)
    large = family.large[1]
    for n in range(large, large + 4):
        for _ in range(40):
            values = draw(rng, family, n, (family.small, family.large))
            c = character(family, n, values)
            assert not family.module.sigma_membership(n, c).inside
            assert witness_problem(family, values, family.module.witness_pair(n, c)) is None


def test_abelianization_contradiction_mirror(family):
    # nonzero multiples of distinct generators never agree in the abelianization
    gens = basis(family, family.small[1]).generators
    e1, e2 = (abelianize(gens, word(gens.names, [name])) for name in gens.names[:2])
    for q in (-2, -1, 1, 2):
        for r in (-2, -1, 1, 3):
            for a in (-1, 1, 2):
                for b in (-3, -2, 1, 2):
                    assert tuple(q * a * x for x in e1) != tuple(r * b * x for x in e2)


def test_obstruction_certificate_branch(family):
    demo, n = family.module.nf_obstruction_demo, family.large[1]
    rep = demo(n, [])
    assert rep.branch == CERTIFICATE and not rep.character.is_zero()
    assert rep.verdict_plus.inside and rep.verdict_minus.inside
    assert rep.witness is None and rep.covering is None
    names = basis(family, n + 1).names
    rep = demo(n + 1, [[1] + [0] * (len(names) - 1)])
    assert rep.branch == CERTIFICATE and rep.character(names[0]) == 0
    assert rep.verdict_plus.inside and rep.verdict_minus.inside


def test_obstruction_covered_branch(family):
    kind, n = family.large
    dim = basis(family, n).dim
    # the kernel rows are (column, value) pairs; the pipeline reads dense vectors
    gens = [tuple(dict(row).get(j, 0) for j in range(dim)) for row in integer_kernel(family.covered_rows, dim)]
    rep = family.module.nf_obstruction_demo(n, gens)
    assert rep.branch == COVERED
    assert (rep.covering.kind, rep.covering.kept) == (kind, tuple(range(1, n + 1)))
    assert (str(rep.witness.u), str(rep.witness.v)) == family.exceptional_witness[2:4]
    assert rep.verdict_plus is None and rep.verdict_minus is None
    # the sample character kills both witness words
    assert witness_problem(family, values_of(rep.character), rep.witness) is None


def test_obstruction_at_the_strand_limit(family, tmp_path):
    """Obstruct at the largest strand count, n = 64, on two seeded vectors;
    the answer is checked, not the time taken."""
    rng = random.Random(64)
    dim = basis(family, 64).dim
    vectors = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(2)]
    rep = family.module.nf_obstruction_demo(64, vectors)
    assert rep.branch == CERTIFICATE
    assert rep.verdict_plus.inside and rep.verdict_minus.inside
    assert all(rep.character.pair(v) == 0 for v in vectors)
    # both rays are inside by the oracle too, not only by the package's verdicts
    values = values_of(rep.character)
    assert projection_inside(family.name, 64, values)
    assert projection_inside(family.name, 64, {p: -v for p, v in values.items()})
    path = tmp_path / "v.vec"
    path.write_text(f"{family.letter}(1,2) = 1\n")
    assert run([family.name, "obstruct", "-n", "65", str(path)]).exit_code == 2


def test_obstruction_covered_at_the_strand_limit(family):
    """The covered branch at n = 64: the vectors are the equations of the
    small base's dead subspace on the first strands, so they span all it
    kills and every killing character lies in it."""
    kind, size = family.small
    kept = tuple(range(1, size + 1))
    vectors = ORACLES.subspace_equations(family.name, 64, kind, kept)
    rep = family.module.nf_obstruction_demo(64, vectors)
    assert rep.branch == COVERED
    assert (rep.covering.kind, rep.covering.kept) == (kind, kept)
    sample = [(k, v) for k, v in enumerate(rep.character.values) if v]
    assert all(sum(vec[k] * v for k, v in sample) == 0 for vec in vectors)
    assert witness_problem(family, values_of(rep.character), rep.witness) is None


def test_obstruction_rejects_small_n(family):
    with pytest.raises(PreconditionError):
        family.module.nf_obstruction_demo(family.large[1] - 1, [])
