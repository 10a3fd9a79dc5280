"""Both projection families, tested as one: closed-form membership against a
subset scan, dead subspaces against the oracle's list, verdicts under strand
relabelling, and the family suite, whose tests take a row of `FAMILIES` as
the `family` fixture and so run once per family."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from bnskit import DomainError, InputError, PreconditionError
from bnskit.characters import abelianize, integer_kernel
from bnskit.cli import run
from bnskit.obstruction import CERTIFICATE, COVERED
from bnskit.words import word

from .families import (
    FAMILIES, IN, ORACLES, POOL, ZERO, basis, character, draw, fields, parse, random_values, values_of, witness_problem,
)
from .oracles import dead_subspaces, dead_values, projection_inside, verdict_fields

# coefficients of the dead points that sample_values draws
DEAD_COEFFICIENTS = (0, Fraction(1, 3), *(Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2)))
# the mostly zero values of some dense characters that sample_values draws
ZERO_HEAVY = (0, 0, 0, 0, 0, 1, -1)
SCALES = (Fraction(5, 3), -7, Fraction(3, 7), -2)


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]


def nonzero(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))


def sample_values(rng, family, n):
    """A character with values on every generator, from POOL or mostly zero,
    or a sparse character biased towards the dead subspaces."""
    if rng.random() < 0.2:
        return random_values(rng, family, n, rng.choice((POOL, ZERO_HEAVY)))
    support = sorted(rng.sample(range(1, n + 1), rng.randint(min(2, n), min(5, n))))
    shape = rng.random()
    kind, size = family.large
    if shape < 0.25 and len(support) >= size:
        values = dead_values(rng, family.name, kind, support[:size], DEAD_COEFFICIENTS)
    else:
        values = {
            p: nonzero(rng)
            for p in ORACLES.family_pairs(family.name, n)
            if p[0] in support and p[1] in support and rng.random() < 0.6
        }
        if shape < 0.6 and len(values) > 1:
            p = rng.choice(sorted(values))
            values[p] -= sum(values.values())
    if rng.random() < 0.1:
        # a stray value on another pair usually spoils deadness
        values[rng.choice(ORACLES.family_pairs(family.name, n))] = nonzero(rng)
    return {p: v for p, v in values.items() if v != 0}


def test_sigma_membership_matches_subset_scan():
    rng = random.Random(2024)
    outcomes = Counter()
    checked = 0
    for family in FAMILIES.values():
        for n in family.sweep:
            for _ in range(220):
                values = sample_values(rng, family, n)
                v = family.module.sigma_membership(n, character(family, n, values))
                expected = verdict_fields(ORACLES.projection_verdict(family.name, n, values))
                assert fields(v) == expected, (family.name, n, values)
                outcomes[expected[3] or expected[1] or expected[0]] += 1
                checked += 1
    assert checked >= 2000
    kinds = [kind for family in FAMILIES.values() for kind, _ in (family.small, family.large)]
    for outcome in ("in", "zero", *kinds):
        assert outcomes[outcome] >= 20, outcomes


def test_dead_subspaces_match_oracle():
    """The package lists the oracle's subspaces in the oracle's order, over
    generators in the oracle's pair order, so the oracle's equations are
    the ones other tests check the package against."""
    for family in FAMILIES.values():
        for n in range(family.large[1], family.sweep.stop):
            names = tuple([f"{family.letter}({i},{j})" for i, j in ORACLES.family_pairs(family.name, n)])
            assert family.module.FAMILY.basis(n).names == names
            got = [(sub.kind, sub.kept) for sub in family.module.dead_subspaces(n)]
            assert got == [(kind, kept) for kind, kept, _ in dead_subspaces(family.name, n)]


@pytest.mark.parametrize("strand", [1.0, True, 1.5], ids=repr)
@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("call", ["project_word", "project_character"])
def test_kept_strands_must_be_ints(call, name, strand):
    """A kept strand that is not an int is an InputError: 1.5 was dropped
    from the kept strands, and 1.0 and True were taken as strand 1."""
    row = FAMILIES[name]
    if call == "project_word":
        arg = parse(row, 4, f"{row.letter}(1,2) {row.letter}(2,3)")
    else:
        arg = character(row, 4, {(1, 2): 1, (2, 3): 1})
    project = getattr(row.module, call)
    with pytest.raises(InputError):
        project(4, [strand, 2, 3], arg)
    assert project(4, [1, 2, 3], arg) is not None


def test_strand_relabelling_keeps_verdicts():
    """Renumbering the strands by a permutation keeps the status and the
    base of every verdict and carries its kept strands along."""
    rng = random.Random(1313)
    seen = set()
    for family in FAMILIES.values():
        for n in (16, 32, 64):
            for _ in range(40):
                values = draw(rng, family, n, (None, family.small, family.large))
                sigma = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
                # the character builder reads a band's pair in either order
                moved = {(sigma[i], sigma[j]): v for (i, j), v in values.items()}
                v = family.module.sigma_membership(n, character(family, n, values))
                w = family.module.sigma_membership(n, character(family, n, moved))
                assert (w.status, w.base) == (v.status, v.base)
                assert w.kept == (v.kept and tuple(sorted(sigma[s] for s in v.kept)))
                seen.add((family.name, v.base or v.status))
    assert len(seen) == 6, seen


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
