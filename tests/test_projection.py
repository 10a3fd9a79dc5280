"""Closed-form membership of both projection families against a subset scan,
their dead subspaces against the oracle's list, verdicts under strand
relabelling, and the family modules' share of the shared tests."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from bnskit import InputError

from . import families, test_braid, test_loop
from .families import FAMILIES, character, draw, fields, parse
from .oracles import bench_oracles, dead_subspaces, dead_values, projection_inside, verdict_fields

ORACLES = bench_oracles()
# coefficients of the dead points that sample_values draws
DEAD_COEFFICIENTS = (0, Fraction(1, 3), *(Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2)))


def nonzero(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))


def sample_values(rng, family, n):
    """A sparse character, biased towards the dead subspaces."""
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
                assert projection_inside(family.name, n, values) == v.inside
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
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("call", ["project_word", "project_character"])
def test_kept_strands_must_be_ints(call, family, strand):
    """A kept strand that is not an int is an InputError: 1.5 was dropped
    from the kept strands, and 1.0 and True were taken as strand 1."""
    row = FAMILIES[family]
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


def test_each_family_module_runs_every_shared_test():
    """A test written in tests/families.py runs only under a family module
    that imports it, so both must import every one."""
    def tests(module):
        return {f for name, f in vars(module).items() if name.startswith("test_")}

    for module in (test_braid, test_loop):
        assert tests(families) <= tests(module), module.__name__
