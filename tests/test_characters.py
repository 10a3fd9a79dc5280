import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from bnskit.cli import parse_character_file
from bnskit.words import word
from bnskit import braid, characters, loop, raag

from .oracles import dense_hermite_form

AB = GeneratorBasis(("a", "b"))
ABC = GeneratorBasis(("a", "b", "c"))


def dense(rows, dim):
    """Lattice rows, each given as the (column, value) pairs of its nonzero
    entries in column order, written out as dim-tuples."""
    out = []
    for row in rows:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns)) and all(a for _, a in row), row
        values = [0] * dim
        for j, a in row:
            values[j] = a
        out.append(tuple(values))
    return tuple(out)


def in_span(rows, vec, dim):
    """Is vec in the rational span of the rows?  By the oracle's rank."""
    return len(dense_hermite_form(list(rows) + [vec], dim)) == len(dense_hermite_form(rows, dim))


def lattice_contains(lattice, vec):
    """Does vec pair to zero with every row of the lattice's annihilator?"""
    return not any(sum(a * b for a, b in zip(row, vec)) for row in dense(lattice.annihilator, len(vec)))


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


def canonical(values):
    """Is every integral value an int (and not a bool), every other one a Fraction?"""
    return all(type(v) is (int if v.denominator == 1 else Fraction) for v in values)


# an exact value: an int, or a Fraction that is integral about a third of the time
EXACT = st.one_of(st.integers(-30, 30), st.builds(Fraction, st.integers(-30, 30), st.integers(1, 3)))
B4 = braid.FAMILY.basis(4)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(
    values=st.lists(EXACT, min_size=B4.dim, max_size=B4.dim),
    q=EXACT,
    widen=st.integers(1, 4),
    vectors=st.lists(st.lists(st.integers(-3, 3), min_size=B4.dim, max_size=B4.dim), max_size=3),
    other=st.sampled_from([0.5, 2.0, -0.0, True, False, "1/2", "1e3", "nan", None, [1], Decimal(1)]),
    at=st.integers(0, B4.dim - 1),
)
def test_integral_values_are_ints_everywhere(values, q, widen, vectors, other, at):
    """Every way to build a character stores an integral value as an int and
    any other as a Fraction, so 2 and Fraction(4, 2) give the same character,
    repr and hash; any value that is neither an int nor a Fraction (a float,
    a bool, a str, None, a list, a Decimal) is an InputError at each entry
    point, not a value for `Fraction` to read."""
    gens = B4.generators
    c = Character(gens, values)
    assert canonical(c.values) and c.values == tuple(values)
    # the same values, each as a Fraction: Fraction(4, 2) is Fraction(2, 1)
    as_fractions = [Fraction(v) for v in values]
    text = "".join(f"{name} = {v.numerator * widen}/{v.denominator * widen}\n" for name, v in zip(gens.names, as_fractions))
    for same in (
        Character(gens, as_fractions),
        Character(gens, iter(as_fractions)),
        make_character(gens, dict(zip(gens.names, as_fractions))),
        make_character(gens, dict(zip(gens.names, values))),
        parse_character_file(text, gens),
    ):
        assert canonical(same.values)
        assert same == c and repr(same) == repr(c) and hash(same) == hash(c)
    for scale in (q, Fraction(q)):
        scaled = c.scaled(scale)
        assert canonical(scaled.values) and scaled.values == tuple([v * q for v in values])
    assert canonical(c.negated().values) and c.negated().values == tuple([-v for v in values])
    for vector in vectors:
        paired = c.pair(vector)
        assert canonical([paired]) and paired == sum(v * x for v, x in zip(values, vector))
    # zero off strands 1-3, so the character projects onto them
    on_three = Character(gens, [v if 4 not in pair else 0 for pair, v in zip(B4.pairs, values)])
    projected = braid.project_character(4, (1, 2, 3), on_three)
    assert canonical(projected.values)
    assert projected.values == tuple([v for pair, v in zip(B4.pairs, values) if 4 not in pair])
    for row in kill_character(saturate(gens, vectors)).rows:
        assert canonical(row.values) and all(row.pair(vector) == 0 for vector in vectors)
    point = generic_point_avoiding(gens, [as_fractions], []).point
    assert canonical(point.values)
    # one such value anywhere is refused, not converted
    bad = [*values[:at], other, *values[at + 1:]]
    refused = [
        lambda: Character(gens, bad),
        lambda: make_character(gens, dict(zip(gens.names, bad))),
        lambda: c.scaled(other),
        lambda: c.pair([*[0] * at, other, *[0] * (B4.dim - at - 1)]),
        lambda: saturate(gens, [*vectors, [*[0] * at, other, *[0] * (B4.dim - at - 1)]]),
        lambda: generic_point_avoiding(gens, [bad], []),
    ]
    for call in refused:
        with pytest.raises(InputError):
            call()


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
    assert dense(hermite_form([(2, 4), (1, 1)], 2), 2) == ((1, 1), (0, 2))
    assert hermite_form([(0, 0)], 2) == ()
    assert dense(hermite_form([(-1, 0), (0, -1)], 2), 2) == ((1, 0), (0, 1))
    # pivots positive, entries above reduced into [0, pivot)
    rows = dense(hermite_form([(3, 7), (0, 5)], 2), 2)
    assert rows == ((3, 2), (0, 5))


def test_hermite_form_idempotent_and_span_preserving():
    rng = random.Random(53)
    for _ in range(200):
        dim = rng.randrange(1, 5)
        rows = [
            tuple(rng.randrange(-5, 6) for _ in range(dim))
            for _ in range(rng.randrange(4))
        ]
        h = dense(hermite_form(rows, dim), dim)
        assert dense(hermite_form(h, dim), dim) == h
        for row in rows:
            assert in_span(h, row, dim)
        for row in h:
            assert in_span(rows, row, dim)


def test_integer_kernel_goldens():
    assert dense(integer_kernel([(1, 2, 3)], 3), 3) == ((1, 1, -1), (0, 3, -2))
    assert dense(integer_kernel([], 2), 2) == ((1, 0), (0, 1))
    assert integer_kernel([(1, 0), (0, 1)], 2) == ()


def test_integer_kernel_properties():
    rng = random.Random(67)
    for _ in range(200):
        dim = rng.randrange(1, 5)
        rows = [
            tuple(rng.randrange(-4, 5) for _ in range(dim))
            for _ in range(rng.randrange(3))
        ]
        ker = dense(integer_kernel(rows, dim), dim)
        for k in ker:
            assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in rows)
        assert len(ker) == dim - len(dense_hermite_form(rows, dim))
        # kernels are saturated: double kernel recovers the rational row space
        back = dense(integer_kernel(ker, dim), dim)
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
        h = dense(hermite_form(rows, dim), dim)
        assert h == tuple(dense_hermite_form(rows, dim))
        ker = dense(integer_kernel(rows, dim), dim)
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
    assert dense(integer_kernel([], 5), 5) == tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    full = [[rng.randint(-4, 4) for _ in range(12)] for _ in range(14)]
    assert len(dense_hermite_form(full, 12)) == 12
    assert integer_kernel(full, 12) == ()
    assert dense(hermite_form(full, 12), 12) == tuple(dense_hermite_form(full, 12))
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
    assert dense(lat.annihilator, 2) == ((0, 1),) and lat.rank == 1
    assert dense(integer_kernel(dense(lat.annihilator, 2), 2), 2) == ((1, 0),)
    assert lattice_contains(lat, (1, 0)) and not lattice_contains(lat, (0, 1))
    lat2 = saturate(AB, [(2, 3)])
    assert dense(integer_kernel(dense(lat2.annihilator, 2), 2), 2) == ((2, 3),)  # already primitive
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
        rows = dense(integer_kernel(dense(lat.annihilator, dim), dim), dim)
        assert saturate(basis, rows) == lat
        for v in vecs:
            assert lattice_contains(lat, v)
        # membership in the saturation equals rational span membership
        probe = tuple(rng.randrange(-3, 4) for _ in range(dim))
        assert lattice_contains(lat, probe) == in_span(vecs, probe, dim)
        # the stored annihilator is the vectors' integer kernel, and it is
        # what kill_character returns
        assert lat.annihilator == integer_kernel(vecs, dim)
        assert tuple([r.values for r in kill_character(lat).rows]) == dense(lat.annihilator, dim)
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
    """One elimination of the augmented matrix [V^T | I] per run: the
    kernel's echelon pass, m + dim columns wide for m vectors."""
    calls = []
    echelon = characters._echelon

    def counted(rows, width):
        calls.append(width)
        return echelon(rows, width)

    monkeypatch.setattr(characters, "_echelon", counted)
    dim = braid.PureBraidBasis(5).dim
    vectors = [tuple(1 if k == i else 0 for k in range(dim)) for i in (0, 4)]
    braid.nf_obstruction_demo(5, vectors)
    assert calls == [2 + dim]
    calls.clear()
    g = Graph(["v1", "v2", "v3", "v4"], [("v1", "v2"), ("v2", "v3"), ("v3", "v4")])
    raag.kill_and_test(g, [word(g.vertices, ["v1", "v2"])])
    assert calls == [1 + 4]


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("family", [braid, loop], ids=["braid", "loop"])
def test_annihilator_is_stored_sparse(family, n):
    """The annihilator of two dense vectors keeps only its nonzero entries,
    a few per row: at most 8 per generator in all, where dense rows would
    hold dim each, about dim^2 in all."""
    rng = random.Random(1)
    generators = family.FAMILY.basis(n).generators
    vectors = [tuple(rng.randint(-9, 9) for _ in range(generators.dim)) for _ in range(2)]
    lat = saturate(generators, vectors)
    assert len(lat.annihilator) == generators.dim - 2
    assert sum(map(len, lat.annihilator)) <= 8 * generators.dim


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("family", [braid, loop], ids=["braid", "loop"])
def test_kernel_row_operations_stay_quadratic_in_n(monkeypatch, family, n):
    """Saturating two dense vectors takes at most 32 n^2 kernel row
    operations, a few per generator; there are about n^2/2 generators for
    braids and n^2 for loops.  The counts read 6.0 / 5.7 / 1.0 n^2 for
    braids and 5.4 / 9.5 / 13.7 n^2 for loops at n = 16 / 32 / 64, so the
    bound leaves more than twice the room; reducing every row against every
    other, about dim^2 operations, would pass it at least 30-fold at n = 64."""
    calls = []
    add_multiple = characters._add_multiple

    def counted(row, q, other):
        calls.append(q)
        add_multiple(row, q, other)

    monkeypatch.setattr(characters, "_add_multiple", counted)
    rng = random.Random(1)
    generators = family.FAMILY.basis(n).generators
    vectors = [tuple(rng.randint(-9, 9) for _ in range(generators.dim)) for _ in range(2)]
    assert len(saturate(generators, vectors).annihilator) == generators.dim - 2
    assert 0 < len(calls) <= 32 * n**2


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
        kernel = dense(integer_kernel([tuple(int(x) for x in r.values) for r in kc.rows], dim), dim)
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
            rows = dense(hermite_form(spanning, dim), dim)
            for row in rows:
                for eq in eqs:
                    assert sum(e * x for e, x in zip(eq, row)) == 0
