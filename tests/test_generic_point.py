"""The integer generic point search against the dense Fraction one.

`oracles.dense_generic_point` tests every candidate against every equation
by a Fraction dot product; the library clears each equation to its nonzero
integer terms.  Both must return the same point, or the same first covering
subspace.  Obstruction reports, which decide covering in closed form, must
agree with the dense search over every dead subspace, whose equations come
from `oracles.dead_subspaces`.
"""

import random
from fractions import Fraction

import pytest

from bnskit import InputError, braid, loop, projection
from bnskit.characters import GeneratorBasis, generic_point_avoiding, kill_character, saturate
from bnskit.obstruction import CERTIFICATE

from .oracles import dead_subspaces, dense_generic_point, dense_hermite_form

VALUES = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def cleared(row):
    denom = 1
    for v in row:
        denom *= Fraction(v).denominator
    return [int(Fraction(v) * denom) for v in row]


def hyperplane_through(rng, dim, vec):
    """A random rational equation that vanishes on vec."""
    eq = [rng.choice(VALUES) for _ in range(dim)]
    support = [j for j, x in enumerate(vec) if x]
    if support:
        j = rng.choice(support)
        eq[j] = 0
        eq[j] = -sum(Fraction(e) * x for e, x in zip(eq, vec)) / vec[j]
    return eq


def random_case(rng):
    """Spanning rows and dense bad systems.

    Some spanning sets satisfy one fixed two-term equation, which a bad
    system then covers; some bad systems hold the candidate of an early t,
    so the search has to step past it.
    """
    dim = rng.randrange(1, 7)
    spanning = [[rng.choice(VALUES) for _ in range(dim)] for _ in range(rng.randrange(4))]
    constraint = None
    if dim >= 2 and rng.random() < 0.3:
        a, b = rng.sample(range(dim), 2)
        p, q = rng.choice([1, -2, Fraction(1, 3)]), rng.choice([1, 3, Fraction(-1, 2)])
        for row in spanning:
            row[b] = -p * Fraction(row[a]) / q
        constraint = [0] * dim
        constraint[a], constraint[b] = p * Fraction(3, 2), q * Fraction(3, 2)
    u_rows = dense_hermite_form([cleared(row) for row in spanning], dim)
    dense = []
    for _ in range(rng.randrange(6)):
        shape = rng.random()
        if shape < 0.25:
            # vanishing columns and a small integer block
            columns = [j for j in range(dim) if rng.random() < 0.4]
            block = []
            for _ in range(rng.randrange(2)):
                terms = sorted({j: rng.choice([1, -1, 2, 5]) for j in rng.sample(range(dim), min(dim, 2))}.items())
                block.append(tuple(terms))
            eqs = [[1 if k == j else 0 for k in range(dim)] for j in columns]
            eqs += [[dict(terms).get(k, 0) for k in range(dim)] for terms in block]
            dense.append(eqs)
            continue
        if shape < 0.45 and constraint is not None:
            eqs = [constraint]
        elif shape < 0.75 and u_rows:
            t = rng.randrange(3)
            candidate = [sum(t**i * row[j] for i, row in enumerate(u_rows)) for j in range(dim)]
            eqs = [hyperplane_through(rng, dim, candidate) for _ in range(rng.randrange(1, 3))]
        else:
            eqs = [[rng.choice(VALUES) for _ in range(dim)] for _ in range(rng.randrange(3))]
        dense.append(eqs)
    return dim, spanning, dense


def family_subspaces(family, n):
    """The oracle's (kind, kept, equations) of each dead subspace."""
    return dead_subspaces("braid" if family is braid else "loop", n)


def test_search_matches_dense_reference_on_seeded_inputs():
    rng = random.Random(4011)
    seen = set()
    for _ in range(1500):
        dim, spanning, dense = random_case(rng)
        basis = GeneratorBasis(tuple(f"g{i}" for i in range(dim)))
        found = generic_point_avoiding(basis, spanning, dense)
        point = None if found.point is None else found.point.values
        assert (point, found.covering) == dense_generic_point(dim, spanning, dense)
        seen.add("covered" if point is None else "point")
    assert seen == {"covered", "point"}


def test_inexact_values_and_bad_lengths_are_rejected():
    ab = GeneratorBasis(("a", "b"))
    with pytest.raises(InputError):
        generic_point_avoiding(ab, [(0.1, 0)], [])
    with pytest.raises(InputError):
        generic_point_avoiding(ab, [(True, 0)], [])
    with pytest.raises(InputError):
        generic_point_avoiding(ab, [(1, 0)], [[(0.5, 1)]])
    with pytest.raises(InputError):
        generic_point_avoiding(ab, [(1, 0)], [[(1, False)]])
    # the first system covers, but the malformed later one is still reported
    with pytest.raises(InputError):
        generic_point_avoiding(ab, [(1, 0)], [[(0, 1)], [(1, 0, 0)]])
    assert generic_point_avoiding(ab, [(Fraction(1, 2), 0)], [[(0, Fraction(1, 3))]]).covering == 0


def obstruction_cases(rng, family, n):
    """Two random lattices, a sparse one, the equations of three dead
    subspaces, whose killing characters fill out a dead subspace, a
    full-rank lattice, which nothing nonzero kills, and two dead subspaces'
    equations less one base equation, whose killing characters touch exactly
    the kept strands but fail that equation."""
    dim = family.FAMILY.basis(n).dim
    cases = [[[rng.randint(-3, 3) for _ in range(dim)] for _ in range(2)] for _ in range(2)]
    cases.append([[rng.choice((0, 0, 0, 1, -1)) for _ in range(dim)] for _ in range(3)])
    subspaces = [equations for _, _, equations in family_subspaces(family, n)]
    for equations in rng.sample(subspaces, 3):
        cases.append([list(eq) for eq in equations])
    cases.append([[int(j == k) for j in range(dim)] for k in range(dim)])
    # a base equation has more than one term; the vanishing rows have one
    with_block = [eqs for eqs in subspaces if any(sum(map(bool, eq)) > 1 for eq in eqs)]
    for _ in range(2):
        equations = [list(eq) for eq in rng.choice(with_block)]
        equations.pop(rng.choice([k for k, eq in enumerate(equations) if sum(map(bool, eq)) > 1]))
        cases.append(equations)
    return cases


@pytest.mark.parametrize(
    "family,n",
    [(braid, n) for n in range(4, 8)] + [(loop, n) for n in range(3, 7)],
)
def test_obstruction_reports_match_dense_reference(family, n):
    rng = random.Random(4021 + 17 * n + (family is loop))
    basis = family.FAMILY.basis(n).generators
    subspaces = family_subspaces(family, n)
    branches = set()
    for vectors in obstruction_cases(rng, family, n):
        report = family.nf_obstruction_demo(n, vectors)
        killing = kill_character(saturate(basis, vectors))
        point, covering = dense_generic_point(
            basis.dim, [row.values for row in killing.rows], [eqs for _, _, eqs in subspaces]
        )
        branches.add(report.branch)
        if point is not None:
            assert report.branch == CERTIFICATE
            assert report.character.values == point
            assert report.verdict_plus == family.sigma_membership(n, report.character)
            assert report.verdict_minus == family.sigma_membership(n, report.character.negated())
            assert report.covering is None and report.witness is None
            continue
        assert report.branch != CERTIFICATE
        kind, kept, equations = subspaces[covering]
        assert (report.covering.kind, report.covering.kept) == (kind, kept)
        assert not report.character.is_zero()
        assert all(report.character.pair(eq) == 0 for eq in equations)
        assert report.witness == family.witness_pair(n, report.character)
    assert len(branches) == 2


def test_one_dead_subspace_per_obstruction(monkeypatch):
    """The covering subspace is built only when it covers, never as a list.

    The strand counts are ones no other test uses, so nothing built for them
    earlier can hide a construction.
    """
    built = []
    dead_subspace = projection.DeadSubspace

    def counted(*args):
        built.append(args)
        return dead_subspace(*args)

    monkeypatch.setattr(projection, "DeadSubspace", counted)
    rng = random.Random(4031)
    for family, n in ((braid, 11), (loop, 9)):
        dim = family.FAMILY.basis(n).dim
        full_rank = [[int(j == k) for j in range(dim)] for k in range(dim)]
        for vectors in ([], [[rng.randint(-2, 2) for _ in range(dim)]], full_rank):
            built.clear()
            report = family.nf_obstruction_demo(n, vectors)
            assert len(built) == (report.branch != CERTIFICATE)
