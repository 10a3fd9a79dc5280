import random
from fractions import Fraction

import pytest

from bnskit import Graph, InputError, PreconditionError, make_character
from bnskit.words import word
from bnskit import raag

from .oracles import bench_oracles, sigma_alive


P3 = Graph("abc", [("a", "b"), ("b", "c")])
C4 = Graph("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
C5 = Graph(
    [f"v{i}" for i in range(1, 6)],
    [(f"v{i}", f"v{i % 5 + 1}") for i in range(1, 6)],
)
C6 = Graph(
    [f"u{i}" for i in range(6)], [(f"u{i}", f"u{(i + 1) % 6}") for i in range(6)]
)
K3 = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
K4 = Graph("abcd", [(x, y) for i, x in enumerate("abcd") for y in "abcd"[i + 1:]])


def chi(g, assignments):
    return make_character(raag.vertex_basis(g), assignments)


def test_membership_goldens():
    v = raag.sigma_membership(P3, chi(P3, {"a": 1, "c": 1}))
    assert (v.status, v.reason, v.offending) == (
        raag.OUT,
        raag.LIVING_DISCONNECTED,
        ("a", "c"),
    )
    assert v.inside is False
    v2 = raag.sigma_membership(P3, chi(P3, {"a": 1}))
    assert (v2.status, v2.reason) == (raag.OUT, raag.NOT_DOMINATING)
    assert v2.offending == ("c",)
    v3 = raag.sigma_membership(P3, chi(P3, {"b": Fraction(1, 7)}))
    assert v3.status == raag.IN and v3.reason is None
    v4 = raag.sigma_membership(P3, chi(P3, {"a": 1, "b": -2, "c": Fraction(3, 2)}))
    assert v4.inside


def test_membership_zero_character():
    v = raag.sigma_membership(P3, chi(P3, {}))
    assert (v.status, v.reason) == (raag.OUT, raag.ZERO_CHARACTER)
    assert v.offending == ("a", "b", "c")


def test_membership_connectivity_reported_before_domination():
    # living {a,c} in P3 is both disconnected and non-dominating is false;
    # build a graph where both reasons apply at once
    g = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    v = raag.sigma_membership(g, chi(g, {"a": 1, "d": 1}))
    assert v.reason == raag.LIVING_DISCONNECTED


def test_membership_wrong_basis():
    with pytest.raises(InputError):
        raag.sigma_membership(P3, chi(C4, {"w": 1}))


def test_membership_negation_symmetry_random():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 6)
        names = [f"v{i}" for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [(names[i], names[j]) for i, j in pairs if rng.random() < 0.5]
        g = Graph(names, edges)
        c = make_character(
            raag.vertex_basis(g),
            {nm: rng.choice((-2, -1, 0, 1, 2)) for nm in names},
        )
        assert raag.sigma_membership(g, c) == raag.sigma_membership(g, c.negated())
    # positive and negative rays on graphs the subset-scan oracles cannot reach
    rng = random.Random(1340)
    seen = set()
    for _ in range(200):
        n = rng.randrange(6, 41)
        names = [f"v{i}" for i in range(n)]
        p = rng.choice((0.05, 0.1, 0.3, 0.6))
        edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = Graph(names, edges)
        c = make_character(
            raag.vertex_basis(g),
            {nm: rng.choice((-2, -1, 0, 1, 2, Fraction(1, 3))) for nm in names},
        )
        v = raag.sigma_membership(g, c)
        assert raag.sigma_membership(g, c.scaled(Fraction(7, 2))) == v
        assert raag.sigma_membership(g, c.scaled(Fraction(-2, 5))) == v
        seen.add(v.reason or v.status)
    assert seen == {raag.IN, raag.LIVING_DISCONNECTED, raag.NOT_DOMINATING}, seen


def test_membership_against_independent_oracle_random():
    rng = random.Random(37)
    for _ in range(400):
        n = rng.randrange(1, 6)
        names = [f"v{i}" for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picked = [p for p in pairs if rng.random() < 0.5]
        g = Graph(names, [(names[i], names[j]) for i, j in picked])
        masks = bench_oracles().masks_of(n, picked)
        values = {nm: rng.choice((-1, 0, 1, 2)) for nm in names}
        c = make_character(raag.vertex_basis(g), values)
        living = 0
        for i, nm in enumerate(names):
            if values[nm]:
                living |= 1 << i
        expected = living != 0 and sigma_alive(n, masks, living)
        assert raag.sigma_membership(g, c).inside == expected


def _random_factor(rng, prefix):
    """A random graph on 1-20 vertices named prefix0, prefix1, ..., and a
    value for each vertex, all zero in about a quarter of the draws."""
    n = rng.randrange(1, 21)
    names = [f"{prefix}{i}" for i in range(n)]
    p = rng.choice((0.1, 0.3, 0.6, 0.9))
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    pool = (0,) if rng.random() < 0.25 else rng.choice(((-1, 0, 1), (0, 0, 0, 2, Fraction(1, 3)), (1, 2)))
    return Graph(names, edges), {name: rng.choice(pool) for name in names}


def test_membership_on_free_and_direct_products():
    """A disjoint union of two graphs presents a free product, where every
    character is OUT.  A join presents a direct product, where a character
    is OUT exactly when it is zero, or zero on one factor and OUT on the
    other.  Both follow from the living-subgraph criterion, and hold on the
    2-40 vertices checked here, past the subset-scan oracle's reach."""
    rng = random.Random(1341)
    seen = set()
    for _ in range(200):
        (ga, va), (gb, vb) = _random_factor(rng, "a"), _random_factor(rng, "b")
        names, edges, values = ga.vertices + gb.vertices, [*ga.edges, *gb.edges], {**va, **vb}
        union = Graph(names, edges)
        assert not raag.sigma_membership(union, chi(union, values)).inside
        join = Graph(names, edges + [(x, y) for x in ga.vertices for y in gb.vertices])
        zero_a, zero_b = not any(va.values()), not any(vb.values())
        out_a = not raag.sigma_membership(ga, chi(ga, va)).inside
        out_b = not raag.sigma_membership(gb, chi(gb, vb)).inside
        expected = (zero_a and zero_b) or (zero_a and out_b) or (zero_b and out_a)
        assert (not raag.sigma_membership(join, chi(join, values)).inside) == expected
        if zero_a == zero_b:
            seen.add("zero" if zero_a else "both living")
        else:
            seen.add("one zero, the other " + ("OUT" if out_a and out_b else "IN"))
    assert seen == {"zero", "both living", "one zero, the other IN", "one zero, the other OUT"}, seen


def test_complement_supports_define_dead_characters():
    # every character vanishing on a listed support is outside
    for g in (P3, C4, C5):
        for support in raag.sigma_complement_supports(g):
            live = [v for v in g.vertices if v not in support]
            for bits in range(1 << len(live)):
                values = {v: 1 if bits >> i & 1 else 0 for i, v in enumerate(live)}
                assert not raag.sigma_membership(g, chi(g, values)).inside


def dead(g, gens):
    return raag.kill_and_test(g, gens).dead


def test_dying_vertices():
    gens = [word(P3.vertices, "aab"), word(P3.vertices, "bbb")]
    assert dead(P3, gens) == ("a", "b")
    assert dead(P3, [word(P3.vertices, "b")]) == ("b",)
    assert dead(P3, []) == ()


def test_dying_vertices_requires_commuting_generators():
    gens = [word(P3.vertices, "a"), word(P3.vertices, "c")]
    with pytest.raises(PreconditionError):
        raag.kill_and_test(P3, gens)


def test_kill_and_test_dead_support_is_exact():
    res = raag.kill_and_test(P3, [word(P3.vertices, "b")])
    assert res.dead == ("b",)
    assert [v for v, q in zip(P3.vertices, res.specialized.values) if q == 0] == ["b"]


def test_kill_and_test_rejects_full_rank():
    gens = [word(K3.vertices, x) for x in "abc"]
    with pytest.raises(PreconditionError):
        raag.kill_and_test(K3, gens)


def test_kill_and_test_rejects_non_commuting():
    with pytest.raises(PreconditionError):
        raag.kill_and_test(P3, [word(P3.vertices, "a"), word(P3.vertices, "c")])


def test_split_report_goldens():
    r = raag.virtual_split_report(C5, 3)
    assert r.min_separating_clique is None
    assert r.verdicts == (raag.NO_SPLIT,) * 4
    assert r.nf_certified and r.note is None and not r.is_clique

    r2 = raag.virtual_split_report(P3, 2)
    assert r2.min_separating_clique == 1
    assert r2.witness == ("b",)
    assert r2.verdicts == (raag.NO_SPLIT, raag.SPLITS, raag.SPLITS)
    assert not r2.nf_certified

    r3 = raag.virtual_split_report(K3, 1)
    assert r3.is_clique
    assert r3.verdicts == (raag.NO_CLAIM, raag.NO_CLAIM)
    assert not r3.nf_certified
    assert r3.note is not None

    with pytest.raises(InputError):
        raag.virtual_split_report(P3, -1)


@pytest.mark.parametrize("max_k", [True, False, 1.0, 2.5, "2", None], ids=repr)
def test_split_report_max_k_must_be_int(max_k):
    # True was reported as max_k=True, 1.0 failed inside range
    with pytest.raises(InputError):
        raag.virtual_split_report(P3, max_k)


def test_compare_goldens():
    assert raag.commensurability_compare(C5, P3).verdict == raag.NOT_COMMENSURABLE
    r = raag.commensurability_compare(C5, C6)
    assert r.verdict == raag.INCONCLUSIVE
    assert r.invariant1 is None and r.invariant2 is None
    assert raag.commensurability_compare(K3, K4).verdict == raag.NOT_COMMENSURABLE
    assert raag.commensurability_compare(K3, K3).verdict == raag.INCONCLUSIVE
    assert raag.commensurability_compare(K3, C5).verdict == raag.NOT_COMMENSURABLE
