import random
from fractions import Fraction

import pytest

from bnskit import Graph, InputError, make_character
from bnskit.characters import (
    Character,
    GeneratorBasis,
    VectorCharacter,
    abelianize,
    generic_point_avoiding,
    hermite_form,
    integer_kernel,
    kill_character,
    saturate,
)
from bnskit.words import word
from bnskit import braid, characters, raag

from .oracles import dense_hermite_form

AB = GeneratorBasis(("a", "b"))
ABC = GeneratorBasis(("a", "b", "c"))


def in_span(rows, vec, dim):
    """Is vec in the rational span of the rows?  By the oracle's rank."""
    return len(dense_hermite_form(list(rows) + [vec], dim)) == len(dense_hermite_form(rows, dim))


def lattice_contains(lattice, vec):
    """Does vec pair to zero with every row of the lattice's annihilator?"""
    return not any(sum(a * b for a, b in zip(row, vec)) for row in lattice.annihilator)


def test_basis_validation():
    with pytest.raises(InputError):
        GeneratorBasis(("a", "a"))
    with pytest.raises(InputError):
        GeneratorBasis(())
    assert AB.dim == 2 and AB.index("b") == 1
    with pytest.raises(InputError):
        AB.index("q")


def test_character_basics():
    c = make_character(AB, {"a": Fraction(1, 2), "b": -3})
    assert c("a") == Fraction(1, 2)
    assert c.values == (Fraction(1, 2), Fraction(-3))
    assert not c.is_zero()
    assert c.scaled(2).values == (Fraction(1), Fraction(-6))
    assert c.negated().values == (Fraction(-1, 2), Fraction(3))
    assert c.pair((2, 1)) == Fraction(-2)
    assert make_character(AB, {}).is_zero()
    with pytest.raises(InputError):
        make_character(AB, {"q": 1})
    with pytest.raises(InputError):
        Character(AB, (Fraction(1),))


def test_abelianize():
    w = word(ABC.names, ["a", "a", "b", ("a", -1), ("c", -1)])
    assert abelianize(ABC, w) == (1, 1, -1)
    with pytest.raises(InputError):
        abelianize(AB, w)


def test_basis_and_vector_character_store_tuples():
    listed = GeneratorBasis(["a", "b", "c"])
    assert listed.names == ABC.names and listed == ABC and hash(listed) == hash(ABC)
    assert GeneratorBasis(name for name in "abc") == ABC
    assert abelianize(listed, word(["a", "b", "c"], ["a", ("c", -1)])) == (1, 0, -1)
    row = make_character(ABC, {"a": 1})
    vector = VectorCharacter(ABC, [row])
    assert vector.rows == (row,) and vector == VectorCharacter(ABC, (row,))
    assert hash(vector) == hash(VectorCharacter(ABC, (row,)))


def test_character_takes_any_iterable_of_values():
    expect = Character(AB, (1, 2))
    assert Character(AB, iter([1, 2])) == expect
    assert Character(AB, (x for x in (1, Fraction(2)))) == expect
    assert Character(AB, [1, 2]).values == (Fraction(1), Fraction(2))
    with pytest.raises(InputError):
        Character(AB, iter([1, 2, 3]))
    with pytest.raises(InputError):
        Character(AB, (x for x in (1, 2.0)))


def test_hermite_form_goldens():
    assert hermite_form([(2, 4), (1, 1)], 2) == ((1, 1), (0, 2))
    assert hermite_form([(0, 0)], 2) == ()
    assert hermite_form([(-1, 0), (0, -1)], 2) == ((1, 0), (0, 1))
    # pivots positive, entries above reduced into [0, pivot)
    rows = hermite_form([(3, 7), (0, 5)], 2)
    assert rows == ((3, 2), (0, 5))


def test_hermite_form_idempotent_and_span_preserving():
    rng = random.Random(53)
    for _ in range(200):
        dim = rng.randrange(1, 5)
        rows = [
            tuple(rng.randrange(-5, 6) for _ in range(dim))
            for _ in range(rng.randrange(4))
        ]
        h = hermite_form(rows, dim)
        assert hermite_form(h, dim) == h
        for row in rows:
            assert in_span(h, row, dim)
        for row in h:
            assert in_span(rows, row, dim)


def test_integer_kernel_goldens():
    assert integer_kernel([(1, 2, 3)], 3) == ((1, 1, -1), (0, 3, -2))
    assert integer_kernel([], 2) == ((1, 0), (0, 1))
    assert integer_kernel([(1, 0), (0, 1)], 2) == ()


def test_integer_kernel_properties():
    rng = random.Random(67)
    for _ in range(200):
        dim = rng.randrange(1, 5)
        rows = [
            tuple(rng.randrange(-4, 5) for _ in range(dim))
            for _ in range(rng.randrange(3))
        ]
        ker = integer_kernel(rows, dim)
        for k in ker:
            assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in rows)
        assert len(ker) == dim - len(dense_hermite_form(rows, dim))
        # kernels are saturated: double kernel recovers the rational row space
        back = integer_kernel(ker, dim)
        for row in rows:
            assert in_span(back, row, dim)


def _kernel_reference(rows, dim):
    """The kernel by the dense reference: the Hermite form of [V^T | I],
    kept where it is zero on the first m columns."""
    m = len(rows)
    augmented = [[row[j] for row in rows] + [int(t == j) for t in range(dim)] for j in range(dim)]
    return tuple([row[m:] for row in dense_hermite_form(augmented, m + dim) if not any(row[:m])])


def test_elimination_core_matches_dense_reference():
    rng = random.Random(97)
    seen = dict.fromkeys(("zero row", "repeated row", "negative pivot", "non-unit pivot"), 0)
    for _ in range(160):
        dim = rng.randrange(1, 61)
        bound = rng.choice((1, 2, 5))
        density = rng.random()
        rows = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(dim)]
            for _ in range(rng.randrange(8))
        ]
        if rows:
            k = rng.randrange(len(rows))
            rows.insert(rng.randrange(len(rows) + 1), rng.choice(([0] * dim, list(rows[k]))))
            rows[k] = [rng.choice((-3, -2, -1, 2, 3)) * a for a in rows[k]]
        h = hermite_form(rows, dim)
        assert h == tuple(dense_hermite_form(rows, dim))
        ker = integer_kernel(rows, dim)
        assert ker == _kernel_reference(rows, dim)
        assert len(ker) == dim - len(h)
        assert all(sum(a * b for a, b in zip(k, row)) == 0 for k in ker for row in rows)
        leads = [next((a for a in row if a), 0) for row in rows]
        seen["zero row"] += 0 in leads
        seen["repeated row"] += len(set(map(tuple, rows))) < len(rows)
        seen["negative pivot"] += min(leads, default=0) < 0
        seen["non-unit pivot"] += any(next(a for a in row if a) > 1 for row in h + ker)
    assert min(seen.values()) >= 20, seen
    # no rows: the kernel is everything; full rank: it is nothing
    assert integer_kernel([], 5) == tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    full = [[rng.randint(-4, 4) for _ in range(12)] for _ in range(14)]
    assert len(dense_hermite_form(full, 12)) == 12
    assert integer_kernel(full, 12) == ()
    assert hermite_form(full, 12) == tuple(dense_hermite_form(full, 12))
    for rows, dim in (([(1, 2)], 3), ([(1, 2, 3), (1,)], 3), ([(1, 2, 3, 4)], 3)):
        with pytest.raises(InputError):
            hermite_form(rows, dim)
        with pytest.raises(InputError):
            integer_kernel(rows, dim)


@pytest.mark.parametrize("entry", [0.5, 1.0, True, False, Fraction(1), Fraction(1, 2), "1", None], ids=repr)
@pytest.mark.parametrize(
    "call",
    [lambda rows: hermite_form(rows, 2), lambda rows: integer_kernel(rows, 2)],
    ids=["hermite_form", "integer_kernel"],
)
def test_lattice_functions_take_only_int_entries(call, entry):
    # the entry sits in the last row, after a valid one
    with pytest.raises(InputError):
        call([[1, 0], [entry, 0]])
    with pytest.raises(InputError):
        call([[1, 0], (0, entry)])
    assert call([[1, 0], [0, 1]]) is not None


def test_saturate():
    lat = saturate(AB, [(2, 0)])
    assert lat.annihilator == ((0, 1),) and lat.rank == 1
    assert integer_kernel(lat.annihilator, 2) == ((1, 0),)
    assert lattice_contains(lat, (1, 0)) and not lattice_contains(lat, (0, 1))
    lat2 = saturate(AB, [(2, 3)])
    assert integer_kernel(lat2.annihilator, 2) == ((2, 3),)  # already primitive
    assert lattice_contains(lat2, (4, 6)) and not lattice_contains(lat2, (1, 1))
    assert saturate(AB, []).rank == 0
    with pytest.raises(InputError):
        saturate(AB, [(Fraction(1, 2), 0)])


def test_inexact_values_rejected():
    with pytest.raises(InputError):
        make_character(AB, {"a": 0.1})
    with pytest.raises(InputError):
        make_character(AB, {"a": 2.0})
    with pytest.raises(InputError):
        make_character(AB, {"b": True})
    with pytest.raises(InputError):
        saturate(AB, [(True, 0)])
    with pytest.raises(InputError):
        saturate(AB, [(1.0, 0)])
    assert make_character(AB, {"a": Fraction(1, 10), "b": 3}).values == (Fraction(1, 10), 3)


def test_character_constructor_and_scaling_reject_inexact_values():
    for values in ((0.1, 0), (Fraction(1), 2.0), (True, 0), (0, False)):
        with pytest.raises(InputError):
            Character(AB, values)
    c = Character(AB, (Fraction(1, 10), 3))
    assert c.values == (Fraction(1, 10), 3)
    for q in (0.5, 2.0, True):
        with pytest.raises(InputError):
            c.scaled(q)
    assert c.scaled(Fraction(-1, 2)).values == (Fraction(-1, 20), Fraction(-3, 2))
    assert c.negated().values == (Fraction(-1, 10), -3)


def test_saturate_idempotent_random():
    rng = random.Random(29)
    # the added combinations and probes draw from their own generator, so
    # the first 150 trials keep the inputs they always had
    extra = random.Random(31)
    for trial in range(450):
        # the first 150 trials are small; later ones reach dimension 10 and
        # add integer combinations of the vectors, so the span is deficient
        dim = rng.randrange(1, 5) if trial < 150 else rng.randrange(1, 11)
        basis = GeneratorBasis(tuple(f"g{i}" for i in range(dim)))
        vecs = [
            tuple(rng.randrange(-4, 5) for _ in range(dim))
            for _ in range(rng.randrange(3))
        ]
        if trial >= 150:
            for _ in range(extra.randrange(3)):
                coeffs = [extra.randrange(-3, 4) for _ in vecs]
                vecs.append(tuple(sum(c * v[j] for c, v in zip(coeffs, vecs)) for j in range(dim)))
        lat = saturate(basis, vecs)
        rows = integer_kernel(lat.annihilator, dim)
        assert saturate(basis, rows) == lat
        for v in vecs:
            assert lattice_contains(lat, v)
        # membership in the saturation equals rational span membership
        probe = tuple(rng.randrange(-3, 4) for _ in range(dim))
        assert lattice_contains(lat, probe) == in_span(vecs, probe, dim)
        # the stored annihilator is the vectors' integer kernel, and it is
        # what kill_character returns
        assert lat.annihilator == integer_kernel(vecs, dim)
        assert [r.values for r in kill_character(lat).rows] == list(lat.annihilator)
        assert lat.rank == len(rows) == len(dense_hermite_form(vecs, dim))
        for _ in range(4):
            scale = extra.randrange(-2, 3)
            probe = (
                tuple(scale * x for x in extra.choice(vecs))
                if vecs and extra.random() < 0.5
                else tuple(extra.randrange(-3, 4) for _ in range(dim))
            )
            assert lattice_contains(lat, probe) == in_span(vecs, probe, dim)


def test_lattice_membership_rejects_inexact_entries():
    for probe in ((True, 0), (1.0, 0.0), (Fraction(1), 0), (1, 0, 0)):
        with pytest.raises(InputError):
            saturate(AB, [(1, 0), probe])
    assert saturate(AB, [(1, 0), (3, 0)]) == saturate(AB, [(1, 0)])


def test_pair_rejects_inexact_entries():
    c = make_character(AB, {"a": 1})
    for vec in ((0.1, 0), (1, 2.0), (True, 0), (0, False)):
        with pytest.raises(InputError):
            c.pair(vec)
    assert c.pair((3, 5)) == 3
    assert c.pair((Fraction(1, 2), 0)) == Fraction(1, 2)


def test_one_integer_kernel_per_obstruction_and_kill(monkeypatch):
    calls = []
    kernel = characters.integer_kernel

    def counted(rows, dim):
        calls.append(dim)
        return kernel(rows, dim)

    monkeypatch.setattr(characters, "integer_kernel", counted)
    dim = braid.PureBraidBasis(5).dim
    vectors = [tuple(1 if k == i else 0 for k in range(dim)) for i in (0, 4)]
    braid.nf_obstruction_demo(5, vectors)
    assert calls == [dim]
    calls.clear()
    g = Graph(["v1", "v2", "v3", "v4"], [("v1", "v2"), ("v2", "v3"), ("v3", "v4")])
    raag.kill_and_test(g, [word(g.vertices, ["v1", "v2"])])
    assert calls == [4]


def test_kill_character():
    lat = saturate(AB, [(2, 3)])
    kc = kill_character(lat)
    assert [tuple(r.values) for r in kc.rows] == [(3, -2)]
    # empty lattice: the whole dual space survives
    full = kill_character(saturate(AB, []))
    assert [tuple(r.values) for r in full.rows] == [(1, 0), (0, 1)]
    # full lattice: nothing kills it
    assert kill_character(saturate(AB, [(1, 0), (0, 1)])).rows == ()


def test_kill_character_annihilates_exactly():
    rng = random.Random(71)
    for _ in range(150):
        dim = rng.randrange(1, 5)
        basis = GeneratorBasis(tuple(f"g{i}" for i in range(dim)))
        vecs = [
            tuple(rng.randrange(-4, 5) for _ in range(dim))
            for _ in range(rng.randrange(3))
        ]
        lat = saturate(basis, vecs)
        kc = kill_character(lat)
        assert len(kc.rows) == dim - lat.rank == dim - len(dense_hermite_form(vecs, dim))
        for row in kc.rows:
            for v in vecs:
                assert row.pair(v) == 0
        # the kernel of the killing rows is the vectors' rational span again
        kernel = integer_kernel([tuple(int(x) for x in r.values) for r in kc.rows], dim)
        assert len(kernel) == len(dense_hermite_form(vecs, dim))
        assert all(in_span(kernel, v, dim) for v in vecs)


def test_generic_point_frozen_schedule():
    # full plane, bad = x-axis: (1,0) rejected at t=0, (1,1) accepted at t=1
    gp = generic_point_avoiding(AB, [(1, 0), (0, 1)], [[(0, 1)]])
    assert gp.point.values == (Fraction(1), Fraction(1))
    assert gp.covering is None
    # no bad subspaces: the first basis vector wins immediately
    gp3 = generic_point_avoiding(ABC, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [])
    assert gp3.point.values == (Fraction(1), Fraction(0), Fraction(0))


def test_generic_point_covered():
    gp = generic_point_avoiding(AB, [(1, 0)], [[(0, 1)]])
    assert gp.point is None and gp.covering == 0
    # the first covering subspace is reported
    gp2 = generic_point_avoiding(AB, [(1, 0)], [[(1, 1)], [(0, 1)]])
    assert gp2.covering == 1


def test_generic_point_trivial_subspace():
    gp = generic_point_avoiding(AB, [], [])
    assert gp.point.is_zero()


def test_generic_point_random_avoids():
    rng = random.Random(83)
    for _ in range(100):
        dim = rng.randrange(1, 5)
        basis = GeneratorBasis(tuple(f"g{i}" for i in range(dim)))
        spanning = [
            tuple(rng.randrange(-3, 4) for _ in range(dim))
            for _ in range(rng.randrange(1, 3))
        ]
        bad = [
            [tuple(rng.randrange(-2, 3) for _ in range(dim))]
            for _ in range(rng.randrange(3))
        ]
        gp = generic_point_avoiding(basis, spanning, bad)
        if gp.point is not None:
            # inside the span
            denom = 1
            for v in gp.point.values:
                denom = denom * v.denominator
            scaled = tuple(int(v * denom) for v in gp.point.values)
            assert in_span(spanning, scaled, dim)
            for eqs in bad:
                assert any(
                    sum(Fraction(e) * x for e, x in zip(eq, gp.point.values)) != 0
                    for eq in eqs
                )
        else:
            eqs = bad[gp.covering]
            rows = hermite_form(spanning, dim)
            for row in rows:
                for eq in eqs:
                    assert sum(e * x for e, x in zip(eq, row)) == 0
