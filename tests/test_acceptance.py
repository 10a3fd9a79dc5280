"""Acceptance gate: one test per shipped guarantee, run with `pytest -v`.

Each test prints an `ACCEPTANCE NN PASS` line on success and enforces its
stated time budget where one exists.  Oracles come from tests.oracles and
never call the package.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from bnskit import Graph, make_character
from bnskit.characters import abelianize, saturate
from bnskit.graphs import is_clique, min_separating_clique_witness
from bnskit.words import word
from bnskit import braid, loop, raag
from bnskit.characters import Character, GeneratorBasis, kill_character
from bnskit.cli import run
from bnskit.obstruction import CERTIFICATE, COVERED
from bnskit.words import (
    Word,
    f2z,
    f2z_generate_free,
    raag_normal_form,
)

from .oracles import (
    ISO_CLASSES,
    adjacency_masks,
    all_labeled_graphs,
    brute_min_separating_clique,
    brute_min_separating_clique_witness,
    dead_subspaces,
    dense_hermite_form,
    rewriting_canon,
    sigma_alive,
)

FIVE = tuple("abcde")


def named_graph(names, edges):
    return Graph(names, [(names[i], names[j]) for i, j in edges])


# ---------------------------------------------------------------------------
# 1. membership agrees with an independent connected+dominating evaluation
#    over every labeled 5-vertex graph and every nonzero sign pattern


def test_acceptance_01_membership_matches_oracle_on_all_5_vertex_graphs():
    start = time.monotonic()
    patterns = [p for p in product((-1, 0, 1), repeat=5) if any(p)]
    frac_patterns = [tuple(Fraction(x) for x in p) for p in patterns]
    living_masks = [sum(1 << i for i, x in enumerate(p) if x) for p in patterns]
    checked = 0
    for edges, masks in all_labeled_graphs(5):
        g = named_graph(FIVE, edges)
        basis = raag.vertex_basis(g)
        for values, living in zip(frac_patterns, living_masks):
            inside = raag.sigma_membership(g, Character(basis, values)).inside
            assert inside == sigma_alive(5, masks, living), (edges, values)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 1024 * (3**5 - 1)
    assert elapsed < 30, f"budget exceeded: {elapsed:.1f}s"
    print("ACCEPTANCE 01 PASS")


# ---------------------------------------------------------------------------
# 2. badness of a dead support is monotone under enlargement, and
#    sigma_complement_supports lists exactly the minimal bad supports


def test_acceptance_02_monotone_badness_and_minimal_supports():
    start = time.monotonic()
    full = (1 << 5) - 1
    # proper subsets only: the full support belongs to the zero character,
    # which sits outside the sign-pattern family
    for edges, masks in all_labeled_graphs(5):
        bad = [not sigma_alive(5, masks, full & ~d) for d in range(full)]
        for d in range(full):
            if not bad[d]:
                continue
            for v in range(5):
                if not d >> v & 1 and d | (1 << v) != full:
                    assert bad[d | (1 << v)], (edges, d, v)
        minimal = [
            d
            for d in range(full)
            if bad[d]
            and all(not bad[d & ~(1 << v)] for v in range(5) if d >> v & 1)
        ]
        g = named_graph(FIVE, edges)
        listed = raag.sigma_complement_supports(g)
        got = {frozenset(s) for s in listed}
        expect = {
            frozenset(FIVE[v] for v in range(5) if d >> v & 1) for d in minimal
        }
        assert got == expect, edges
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"budget exceeded: {elapsed:.1f}s"
    print("ACCEPTANCE 02 PASS")


# ---------------------------------------------------------------------------
# 3. separating-clique golden values, each cross-checked by brute force


def test_acceptance_03_separating_clique_goldens():
    cases = [
        # path on three vertices
        ([(0, 1), (1, 2)], 3, 1),
        # square
        ([(0, 1), (1, 2), (2, 3), (3, 0)], 4, None),
        # pentagon
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5, None),
        # two triangles sharing one vertex
        ([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], 5, 1),
        # two triangles sharing one edge
        ([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], 4, 2),
        # disconnected
        ([(0, 1)], 3, 0),
    ]
    names = tuple("abcde")
    for edges, n, expect in cases:
        g = named_graph(names[:n], edges)
        masks = adjacency_masks(n, edges)
        witness = min_separating_clique_witness(g)
        got = None if witness is None else len(witness)
        assert got == expect, (edges, got)
        assert got == brute_min_separating_clique(n, masks)
        brute = brute_min_separating_clique_witness(n, masks)
        assert witness == (None if brute is None else tuple(names[i] for i in brute))
    print("ACCEPTANCE 03 PASS")


# ---------------------------------------------------------------------------
# 4. killing a commuting-generator subgroup: the killing rows cut out the
#    generators' span, dying-vertex bounds, clique shape, conjugation/power
#    invariance


def random_graph(rng, n):
    names = tuple("abcdef"[:n])
    edges = [
        (names[i], names[j])
        for i, j in combinations(range(n), 2)
        if rng.random() < 0.5
    ]
    return Graph(names, edges)


def random_clique(rng, g):
    verts = list(g.vertices)
    rng.shuffle(verts)
    clique = []
    for v in verts:
        if all(g.adjacent(v, u) for u in clique):
            clique.append(v)
        if len(clique) == 3:
            break
    return clique


def random_clique_word(rng, g, clique, max_len=4):
    letters = [
        (rng.choice(clique), rng.choice((1, -1)))
        for _ in range(rng.randrange(1, max_len + 1))
    ]
    return Word(g.vertices, letters)


def word_power(w, k):
    out = Word(w.alphabet)
    step = w if k > 0 else w.inverse()
    for _ in range(abs(k)):
        out = out * step
    return out


def dead_vertices(g, gens):
    """The vertices dying under every character that kills the commuting
    words: the dead vertices of `raag.kill_and_test`, for any subgroup,
    proper or not."""
    lattice = saturate(raag.vertex_basis(g), raag._commuting_vectors(g, gens))
    return raag._split_dead(g, lattice)[0]


def test_acceptance_04_kill_machinery_properties():
    start = time.monotonic()
    rng = random.Random(4242)
    for _ in range(1000):
        g = random_graph(rng, rng.randrange(1, 7))
        clique = random_clique(rng, g)
        gens = [
            random_clique_word(rng, g, clique) for _ in range(rng.randrange(1, 4))
        ]
        basis = raag.vertex_basis(g)
        vectors = [abelianize(basis, w) for w in gens]
        killing = kill_character(saturate(basis, vectors))
        assert all(row.pair(v) == 0 for row in killing.rows for v in vectors)
        rank = len(dense_hermite_form(vectors, basis.dim))
        assert len(killing.rows) == basis.dim - rank

        dead = dead_vertices(g, gens)
        # a vertex dies exactly when its unit vector is in the generators' span
        units = [tuple(int(i == j) for j in range(basis.dim)) for i in range(basis.dim)]
        assert dead == tuple(
            v for v, unit in zip(g.vertices, units) if len(dense_hermite_form(vectors + [unit], basis.dim)) == rank
        )
        assert len(dead) <= len(gens)
        assert is_clique(g, dead)

        conjugator = Word(
            g.vertices,
            [
                (rng.choice(g.vertices), rng.choice((1, -1)))
                for _ in range(rng.randrange(0, 4))
            ],
        )
        conjugated = [conjugator * w * conjugator.inverse() for w in gens]
        powered = [word_power(w, rng.choice((-3, -2, -1, 1, 2, 3))) for w in gens]
        assert dead_vertices(g, conjugated) == dead
        assert dead_vertices(g, powered) == dead
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    print("ACCEPTANCE 04 PASS")


# ---------------------------------------------------------------------------
# 5. on the 5- and 6-cycles every proper commuting subgroup can be killed
#    with both rays of the specialized character staying inside


def test_acceptance_05_cycles_stay_inside_after_killing():
    rng = random.Random(515)
    for n, names in ((5, [f"v{i}" for i in range(1, 6)]), (6, [f"u{i}" for i in range(6)])):
        g = Graph(names, [(names[i], names[(i + 1) % n]) for i in range(n)])
        edges = list(g.edges)
        for _ in range(200):
            clique = list(rng.choice(edges)) if rng.random() < 0.7 else [rng.choice(names)]
            gens = [
                random_clique_word(rng, g, clique)
                for _ in range(rng.randrange(1, 3))
            ]
            if rng.random() < 0.5:
                c = Word(
                    g.vertices,
                    [
                        (rng.choice(names), rng.choice((1, -1)))
                        for _ in range(rng.randrange(0, 3))
                    ],
                )
                gens = [c * w * c.inverse() for w in gens]
            res = raag.kill_and_test(g, gens)
            assert res.verdict_plus.inside and res.verdict_minus.inside, gens
    print("ACCEPTANCE 05 PASS")


# ---------------------------------------------------------------------------
# 6. golden braid characters


def pb_chi(n, assignments):
    return make_character(braid.PureBraidBasis(n).generators, assignments)


def test_acceptance_06_braid_goldens():
    v3 = braid.sigma_membership(
        3, pb_chi(3, {"S(1,2)": 1, "S(1,3)": 1, "S(2,3)": -2})
    )
    assert (v3.status, v3.kept, v3.base) == (braid.OUT, (1, 2, 3), braid.PB3_SUM)

    c4 = Character(
        braid.PureBraidBasis(4).generators,
        tuple(Fraction(x) for x in (1, 1, -2, -2, 1, 1)),
    )
    assert not braid.sigma_membership(4, c4).inside
    v4 = braid.sigma_membership(4, c4)
    assert (v4.status, v4.kept, v4.base) == (
        braid.OUT,
        (1, 2, 3, 4),
        braid.PB4_EXCEPTIONAL,
    )

    e12 = pb_chi(5, {"S(1,2)": 1})
    assert braid.sigma_membership(5, e12).inside
    # independent route: e12 lies in none of the finitely many dead subspaces
    for _, _, equations in dead_subspaces("braid", 5):
        assert any(e12.pair(eq) != 0 for eq in equations)
    print("ACCEPTANCE 06 PASS")


# ---------------------------------------------------------------------------
# 7. verdicts are invariant under negation and nonzero rational scaling


VALUE_POOL = [0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
SCALE_POOL = [Fraction(5, 3), Fraction(-7, 2), 3, -1, Fraction(1, 4), Fraction(-2, 5)]


def random_pb_character(rng, n):
    basis = braid.PureBraidBasis(n).generators
    return Character(basis, tuple(Fraction(rng.choice(VALUE_POOL)) for _ in basis.names))


def random_plb_character(rng, n):
    basis = loop.LoopBraidBasis(n).generators
    return Character(basis, tuple(Fraction(rng.choice(VALUE_POOL)) for _ in basis.names))


def test_acceptance_07_scaling_and_negation_invariance():
    rng = random.Random(7007)
    for n in (3, 4, 5, 6):
        for _ in range(1000):
            c = random_pb_character(rng, n)
            v = braid.sigma_membership(n, c)
            assert braid.sigma_membership(n, c.negated()) == v
            assert braid.sigma_membership(n, c.scaled(rng.choice(SCALE_POOL))) == v
    for n in (2, 3, 4, 5, 6):
        for _ in range(1000):
            c = random_plb_character(rng, n)
            v = loop.sigma_membership(n, c)
            assert loop.sigma_membership(n, c.negated()) == v
            assert loop.sigma_membership(n, c.scaled(rng.choice(SCALE_POOL))) == v
    print("ACCEPTANCE 07 PASS")


# ---------------------------------------------------------------------------
# 8. witness pairs die under the character and reduce to free images


def sample_pb_dead(rng, n):
    basis = braid.PureBraidBasis(n)
    if n >= 4 and rng.random() < 0.4:
        kept = sorted(rng.sample(range(1, n + 1), 4))
        while True:
            x, y = rng.choice(VALUE_POOL), rng.choice(VALUE_POOL)
            if x or y:
                break
        t1, t2, t3, t4 = kept
        return make_character(
            basis.generators,
            {
                basis.name(t1, t2): x,
                basis.name(t3, t4): x,
                basis.name(t1, t3): y,
                basis.name(t2, t4): y,
                basis.name(t1, t4): -x - y,
                basis.name(t2, t3): -x - y,
            },
        )
    kept = sorted(rng.sample(range(1, n + 1), 3))
    while True:
        a, b = rng.choice(VALUE_POOL), rng.choice(VALUE_POOL)
        if a or b:
            break
    t1, t2, t3 = kept
    return make_character(
        basis.generators,
        {basis.name(t1, t2): a, basis.name(t1, t3): b, basis.name(t2, t3): -a - b},
    )


def sample_plb_dead(rng, n):
    basis = loop.LoopBraidBasis(n)
    if n >= 3 and rng.random() < 0.5:
        kept = sorted(rng.sample(range(1, n + 1), 3))
        values = {}
        nonzero = False
        for target in kept:
            sources = [s for s in kept if s != target]
            v = rng.choice(VALUE_POOL)
            nonzero = nonzero or v != 0
            values[basis.name(sources[0], target)] = v
            values[basis.name(sources[1], target)] = -v
        if not nonzero:
            values[basis.name(kept[1], kept[0])] = 2
            values[basis.name(kept[2], kept[0])] = -2
        return make_character(basis.generators, values)
    i, j = rng.sample(range(1, n + 1), 2)
    while True:
        a, b = rng.choice(VALUE_POOL), rng.choice(VALUE_POOL)
        if a or b:
            break
    return make_character(
        basis.generators, {basis.name(i, j): a, basis.name(j, i): b}
    )


def assert_pb_witness_sound(n, c, pair):
    basis = braid.PureBraidBasis(n)
    for w in (pair.u, pair.v):
        assert c.pair(abelianize(basis.generators, w)) == 0
    ru = braid.pb3_reduce(braid.project_word(n, pair.designated, pair.u))
    rv = braid.pb3_reduce(braid.project_word(n, pair.designated, pair.v))
    assert f2z_generate_free(ru, rv)


def assert_plb_witness_sound(n, c, pair):
    basis = loop.LoopBraidBasis(n)
    for w in (pair.u, pair.v):
        assert c.pair(abelianize(basis.generators, w)) == 0
    ru = loop.plb2_reduce(loop.project_word(n, pair.designated, pair.u))
    rv = loop.plb2_reduce(loop.project_word(n, pair.designated, pair.v))
    assert f2z_generate_free(f2z(ru.letters), f2z(rv.letters))


def test_acceptance_08_witness_soundness():
    rng = random.Random(8818)
    for n in (4, 5, 6):
        for _ in range(200):
            c = sample_pb_dead(rng, n)
            assert not braid.sigma_membership(n, c).inside
            assert_pb_witness_sound(n, c, braid.witness_pair(n, c))
    for n in (3, 4, 5):
        for _ in range(200):
            c = sample_plb_dead(rng, n)
            assert not loop.sigma_membership(n, c).inside
            assert_plb_witness_sound(n, c, loop.witness_pair(n, c))
    print("ACCEPTANCE 08 PASS")


# ---------------------------------------------------------------------------
# 9. the obstruction pipeline always lands in exactly one verified branch


def check_obstruction(rep, family, n, basis_names, vectors):
    c = rep.character
    if rep.branch == CERTIFICATE:
        assert rep.covering is None and rep.witness is None
        assert rep.verdict_plus.inside and rep.verdict_minus.inside
        assert not c.is_zero()
        for v in vectors:
            assert c.pair(v) == 0
        return "certificate"
    assert rep.branch == COVERED
    assert rep.verdict_plus is None and rep.verdict_minus is None
    assert rep.covering is not None and rep.witness is not None
    # every character killing the lattice satisfies the covering equations
    basis = GeneratorBasis(basis_names)
    killing = kill_character(saturate(basis, vectors))
    equations = dead_equations(family, n)[rep.covering.kind, rep.covering.kept]
    for row in killing.rows:
        for eq in equations:
            assert row.pair(eq) == 0
    assert not family.sigma_membership(n, c).inside
    if family is braid:
        assert_pb_witness_sound(n, c, rep.witness)
    else:
        assert_plb_witness_sound(n, c, rep.witness)
    return "covered"


def dead_equations(family, n):
    """The oracle's dead subspaces of the family on n strands, as
    (kind, kept) -> equations."""
    name = "braid" if family is braid else "loop"
    return {(kind, kept): equations for kind, kept, equations in dead_subspaces(name, n)}


def codim3_equations(family, n):
    # the only dead subspaces a rank-3 lattice can fill out completely
    kind = braid.PB4_EXCEPTIONAL if family is braid else loop.PLB3_EQUATIONS
    return next((eqs for (k, _), eqs in dead_equations(family, n).items() if k == kind), None)


def test_acceptance_09_obstruction_pipeline_totality():
    rng = random.Random(9099)
    seen = set()
    for family, ns in ((braid, (4, 5)), (loop, (3, 4))):
        for n in ns:
            if family is braid:
                names = braid.PureBraidBasis(n).names
            else:
                names = loop.LoopBraidBasis(n).names
            dim = len(names)
            rows = codim3_equations(family, n) if n == ns[0] else None
            for _ in range(100):
                if rows is not None and rng.random() < 0.3:
                    # land inside the one subspace wide enough to cover
                    vectors = [
                        tuple(
                            sum(c * row[k] for c, row in zip(coefs, rows))
                            for k in range(dim)
                        )
                        for coefs in (
                            [rng.randrange(-2, 3) for _ in rows] for _ in range(3)
                        )
                    ]
                else:
                    vectors = [
                        tuple(rng.randrange(-2, 3) for _ in range(dim))
                        for _ in range(rng.randrange(1, 4))
                    ]
                rep = family.nf_obstruction_demo(n, vectors)
                seen.add(check_obstruction(rep, family, n, names, vectors))
    assert seen == {"certificate", "covered"}, seen
    print("ACCEPTANCE 09 PASS")


# ---------------------------------------------------------------------------
# 10. normal form agrees with breadth-first rewriting; full twist reduction


def test_acceptance_10_normal_form_matches_rewriting():
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        names = tuple("abcd"[:n])
        for edges in ISO_CLASSES[n]:
            adj = [[False] * n for _ in range(n)]
            for i, j in edges:
                adj[i][j] = adj[j][i] = True
            canon = rewriting_canon(n, adj, 6)
            g = named_graph(names, edges)
            for codes, expect in canon.items():
                w = Word(
                    names,
                    [(names[c >> 1], -1 if c & 1 else 1) for c in codes],
                )
                nf = raag_normal_form(g, w)
                got = tuple(
                    (names.index(nm) << 1) | (0 if s == 1 else 1)
                    for nm, s in nf.letters
                )
                assert got == expect, (edges, codes)
            del canon

    basis = braid.PureBraidBasis(3)
    twist = word(basis.names, ["S(1,2)", "S(1,3)", "S(2,3)"])
    z = braid.pb3_reduce(twist)
    assert len(z.free_part) == 0 and z.central == 1
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    print("ACCEPTANCE 10 PASS")


# ---------------------------------------------------------------------------
# 11. CLI golden corpus: every subcommand, every exit code, frozen porcelain


DATA = Path(__file__).parent / "data"

CLI_CORPUS = [
    (
        ["graph", "analyze", "p3.graph"],
        0,
        (
            "clique=false",
            "connected=true",
            "edges=a-b,b-c",
            "finite_out=false",
            "link_in_star=a,b",
            "min_separating_clique=1",
            "separating_closed_star=none",
            "vertices=a,b,c",
            "witness=b",
        ),
    ),
    (
        ["graph", "analyze", "c4.graph"],
        0,
        (
            "clique=false",
            "connected=true",
            "edges=w-x,w-z,x-y,y-z",
            "finite_out=false",
            "link_in_star=w,y",
            "min_separating_clique=none",
            "separating_closed_star=none",
            "vertices=w,x,y,z",
            "witness=none",
        ),
    ),
    (
        ["raag", "sigma", "p3.graph", "chi_ac.char"],
        0,
        ("reason=living-disconnected", "status=out", "witness=a,c"),
    ),
    (["raag", "sigma", "p3.graph", "chi_b.char"], 0, ("status=in",)),
    (
        ["raag", "kill", "c5.graph", "kill_v1.words"],
        0,
        (
            "dead=v1",
            "killing=v2:1|v3:1|v4:1|v5:1",
            "lattice_rank=1",
            "specialized=v2:1 v3:1 v4:1 v5:1",
            "verdict_minus=in",
            "verdict_plus=in",
        ),
    ),
    (["raag", "complement", "c4.graph"], 0, ("count=2", "supports=w,y x,z")),
    (
        ["raag", "split-report", "p3.graph", "--max-k", "3"],
        0,
        (
            "clique=false",
            "max_k=3",
            "min_separating_clique=1",
            "nf_certified=false",
            "verdicts=0:certified-no-split 1:splits 2:splits 3:splits",
            "witness=b",
        ),
    ),
    (
        ["raag", "split-report", "k3.graph", "--max-k", "2"],
        0,
        (
            "clique=true",
            "max_k=2",
            "min_separating_clique=none",
            "nf_certified=false",
            "note=the group is free abelian: it splits over a corank-one "
            "subgroup as an ascending extension, so no non-splitting "
            "certificate applies",
            "verdicts=0:no-claim 1:no-claim 2:no-claim",
            "witness=none",
        ),
    ),
    (
        ["raag", "compare", "c5.graph", "c6.graph"],
        0,
        (
            "clique1=false",
            "clique2=false",
            "invariant1=none",
            "invariant2=none",
            "verdict=inconclusive",
        ),
    ),
    (
        ["raag", "compare", "c5.graph", "p3.graph"],
        0,
        (
            "clique1=false",
            "clique2=false",
            "invariant1=none",
            "invariant2=1",
            "verdict=not-commensurable",
        ),
    ),
    (
        ["braid", "sigma", "-n", "3", "pb3_dead.char"],
        0,
        ("base=pb3-sum", "kept=1,2,3", "status=out", "witness=projection"),
    ),
    (["braid", "sigma", "-n", "5", "pb5_e12.char"], 0, ("status=in",)),
    (
        ["braid", "witness", "-n", "5", "pb5_dead.char"],
        0,
        (
            "designated=1,2,4",
            "free=true",
            "pairing_u=0",
            "pairing_v=0",
            "u=S(1,4)",
            "v=S(2,4)",
        ),
    ),
    (
        ["braid", "obstruct", "-n", "5", "e12.vec"],
        0,
        (
            "branch=certificate",
            "character=S(1,3):1",
            "verdict_minus=in",
            "verdict_plus=in",
        ),
    ),
    (
        [
            "braid",
            "obstruct",
            "-n",
            "4",
            "bd_cov1.vec",
            "bd_cov2.vec",
            "bd_cov3.vec",
            "bd_cov4.vec",
        ],
        0,
        (
            "branch=covered",
            "character=S(1,2):1 S(1,3):1 S(1,4):-2 S(2,3):-2 S(2,4):1 S(3,4):1",
            "covering=pb4-exceptional:1,2,3,4",
            "designated=1,2,3",
            "u=S(1,2) S(3,4)^-1",
            "v=S(1,3) S(2,4)^-1",
        ),
    ),
    (
        ["loop", "sigma", "-n", "3", "plb3_eq.char"],
        0,
        ("base=plb3-equations", "kept=1,2,3", "status=out", "witness=projection"),
    ),
    (["loop", "sigma", "-n", "4", "plb4_alive.char"], 0, ("status=in",)),
    (
        ["loop", "witness", "-n", "4", "plb4_dead.char"],
        0,
        (
            "designated=1,2",
            "free=true",
            "pairing_u=0",
            "pairing_v=0",
            "u=A(1,2)",
            "v=A(2,1)",
        ),
    ),
    (
        ["loop", "obstruct", "-n", "3", "lp_cov1.vec", "lp_cov2.vec", "lp_cov3.vec"],
        0,
        (
            "branch=covered",
            "character=A(1,2):2 A(1,3):3 A(2,1):1 A(2,3):-3 A(3,1):-1 A(3,2):-2",
            "covering=plb3-equations:1,2,3",
            "designated=1,2",
            "u=A(1,2) A(3,2)",
            "v=A(2,1) A(3,1)",
        ),
    ),
    (
        ["loop", "obstruct", "-n", "4", "lp_e12.vec"],
        0,
        (
            "branch=certificate",
            "character=A(1,3):1 A(1,4):1 A(2,1):1 A(2,3):1 A(2,4):1 A(3,1):1 "
            "A(3,2):1 A(3,4):1 A(4,1):1 A(4,2):1 A(4,3):1",
            "verdict_minus=in",
            "verdict_plus=in",
        ),
    ),
    (
        ["graph", "analyze", "bad_edge.graph"],
        1,
        ("error=line 2: edge 'a-q' uses an undeclared vertex",),
    ),
    (
        ["braid", "sigma", "-n", "3", "malformed.char"],
        1,
        ("error=line 1: malformed rational '1/0'",),
    ),
    (
        ["braid", "sigma", "-n", "2", "pb3_dead.char"],
        2,
        ("error=pure braid computations need at least 3 strands",),
    ),
    (
        ["loop", "witness", "-n", "4", "plb4_alive.char"],
        2,
        ("error=the character is inside the invariant; no witness exists",),
    ),
]


def resolve_argv(argv):
    return [
        str(DATA / a) if "." in a and not a.startswith("-") else a for a in argv
    ]


def test_acceptance_11_cli_golden_corpus():
    assert len(CLI_CORPUS) >= 15
    commands = {tuple(argv[:2]) for argv, _, _ in CLI_CORPUS}
    assert commands == {
        ("graph", "analyze"),
        ("raag", "sigma"),
        ("raag", "kill"),
        ("raag", "complement"),
        ("raag", "split-report"),
        ("raag", "compare"),
        ("braid", "sigma"),
        ("braid", "witness"),
        ("braid", "obstruct"),
        ("loop", "sigma"),
        ("loop", "witness"),
        ("loop", "obstruct"),
    }
    assert {code for _, code, _ in CLI_CORPUS} == {0, 1, 2}
    for argv, exit_code, porcelain in CLI_CORPUS:
        for _ in range(2):  # byte-identical on repetition
            report = run(resolve_argv(argv))
            assert report.exit_code == exit_code, (argv, report.human)
            assert report.porcelain == porcelain, (argv, report.porcelain)
    print("ACCEPTANCE 11 PASS")
