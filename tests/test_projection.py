"""Closed-form membership of both projection families against a subset scan,
and their dead subspaces against the oracle's list."""

import random
from collections import Counter
from fractions import Fraction

from bnskit import braid, loop, make_character

from .oracles import dead_subspaces, family_pairs, projection_sigma

FAMILIES = {"braid": (braid, range(3, 8)), "loop": (loop, range(2, 7))}


def nonzero(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))


def sample_values(rng, family, n):
    """A sparse character, biased towards the dead subspaces."""
    support = sorted(rng.sample(range(1, n + 1), rng.randint(min(2, n), min(5, n))))
    shape = rng.random()
    if shape < 0.25 and family == "braid" and len(support) >= 4:
        t1, t2, t3, t4 = support[:4]
        x, y = nonzero(rng), nonzero(rng)
        values = {(t1, t2): x, (t3, t4): x, (t1, t3): y, (t2, t4): y,
                  (t1, t4): -x - y, (t2, t3): -x - y}
    elif shape < 0.25 and family == "loop" and len(support) >= 3:
        t = support[:3]
        values = {}
        for target in t:
            a, b = (s for s in t if s != target)
            x = rng.choice((0, 1, -2, Fraction(1, 3)))
            values[(a, target)], values[(b, target)] = x, -x
    else:
        values = {
            p: nonzero(rng)
            for p in family_pairs(family, n)
            if p[0] in support and p[1] in support and rng.random() < 0.6
        }
        if shape < 0.6 and len(values) > 1:
            p = rng.choice(sorted(values))
            values[p] -= sum(values.values())
    if rng.random() < 0.1:
        # a stray value on another pair usually spoils deadness
        values[rng.choice(family_pairs(family, n))] = nonzero(rng)
    return {p: v for p, v in values.items() if v != 0}


def test_sigma_membership_matches_subset_scan():
    rng = random.Random(2024)
    outcomes = Counter()
    checked = 0
    for family, (module, ns) in FAMILIES.items():
        for n in ns:
            generators = module.FAMILY.basis(n).generators
            for _ in range(220):
                values = sample_values(rng, family, n)
                c = make_character(
                    generators, {f"{module.FAMILY.letter}({i},{j})": v for (i, j), v in values.items()}
                )
                v = module.sigma_membership(n, c)
                expected = projection_sigma(family, n, values)
                assert (v.status, v.witness, v.kept, v.base) == expected, (family, n, values)
                outcomes[expected[3] or expected[1] or expected[0]] += 1
                checked += 1
    assert checked >= 2000
    for outcome in ("in", "zero", "pb3-sum", "pb4-exceptional", "plb2-all", "plb3-equations"):
        assert outcomes[outcome] >= 20, outcomes


def test_dead_subspaces_match_oracle():
    """The package lists the oracle's subspaces in the oracle's order, over
    generators in the oracle's pair order, so the oracle's equations are
    the ones other tests check the package against."""
    for family, module, ns in (("braid", braid, range(4, 8)), ("loop", loop, range(3, 7))):
        for n in ns:
            letter = module.FAMILY.letter
            assert module.FAMILY.basis(n).names == tuple([f"{letter}({i},{j})" for i, j in family_pairs(family, n)])
            got = [(sub.kind, sub.kept) for sub in module.dead_subspaces(n)]
            assert got == [(kind, kept) for kind, kept, _ in dead_subspaces(family, n)]
