import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from bnskit import DomainError, InputError, PreconditionError, make_character
from bnskit.characters import abelianize
from bnskit.words import f2z_generate_free, word
from bnskit import braid
from bnskit.obstruction import CERTIFICATE, COVERED

from .oracles import dead_subspaces, projection_sigma


def basis(n):
    return braid.PureBraidBasis(n)


def chi(n, assignments):
    return make_character(basis(n).generators, assignments)


def random_character(rng, n, pool=(-2, -1, 0, 0, 1, 1, 2, Fraction(1, 2), Fraction(-3, 2))):
    names = basis(n).generators.names
    return make_character(basis(n).generators, {nm: rng.choice(pool) for nm in names})


def sample_projection_dead(rng, n):
    """A character supported on a random 3-subset with values summing to zero."""
    kept = sorted(rng.sample(range(1, n + 1), 3))
    a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
    if a == 0 and b == 0:
        a = 1
    pairs = list(combinations(kept, 2))
    values = dict(zip((f"S({i},{j})" for i, j in pairs), (a, b, -a - b)))
    return chi(n, values)


def sample_exceptional_dead(rng, n):
    """A character supported on a 4-subset satisfying the exceptional relations."""
    kept = sorted(rng.sample(range(1, n + 1), 4))
    x, y = rng.randrange(-3, 4), rng.randrange(-3, 4)
    if x == 0 and y == 0:
        x = 1
    t1, t2, t3, t4 = kept
    values = {
        f"S({t1},{t2})": x,
        f"S({t3},{t4})": x,
        f"S({t1},{t3})": y,
        f"S({t2},{t4})": y,
        f"S({t1},{t4})": -x - y,
        f"S({t2},{t3})": -x - y,
    }
    return chi(n, values)


def test_basis_layout():
    b = basis(4)
    assert b.generators.names == (
        "S(1,2)",
        "S(1,3)",
        "S(1,4)",
        "S(2,3)",
        "S(2,4)",
        "S(3,4)",
    )
    assert b.dim == 6
    assert b.index(2, 4) == 4 and b.index(4, 2) == 4
    with pytest.raises(PreconditionError):
        basis(2)
    with pytest.raises(InputError):
        b.index(1, 5)


@pytest.mark.parametrize("n", [4.0, 5.5, 37.0, True, "4", None], ids=repr)
def test_strand_count_must_be_int(n):
    # 4.0 found the cached 4-strand basis by hash and answered; with no
    # cached basis, range raised a bare TypeError
    c = chi(4, {"S(1,2)": 1, "S(1,3)": -1})
    for call in (
        lambda: braid.PureBraidBasis(n),
        lambda: braid.sigma_membership(n, c),
        lambda: braid.project_character(n, (1, 2, 3), c),
        lambda: braid.witness_pair(n, c),
        lambda: braid.dead_subspaces(n),
        lambda: braid.nf_obstruction_demo(n, [[1, 0, 0, 0, 0, 0]]),
    ):
        with pytest.raises(InputError):
            call()
    assert braid.sigma_membership(4, c).base == "pb3-sum"


def test_project_character():
    c = chi(4, {"S(1,2)": 1})
    p = braid.project_character(4, (1, 2, 3), c)
    assert p is not None and p.values == (1, 0, 0)
    assert braid.project_character(4, (1, 2, 3), chi(4, {"S(1,4)": 1})) is None
    c5 = chi(5, {"S(2,4)": 7})
    p5 = braid.project_character(5, (2, 4, 5), c5)
    assert p5.values == (7, 0, 0)
    with pytest.raises(InputError):
        braid.project_character(4, (1, 2), c)
    with pytest.raises(InputError):
        braid.project_character(4, (1, 2, 9), c)


def test_projection_coherence_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice((4, 5, 6))
        c = random_character(rng, n)
        m = rng.choice((3, 4))
        kept = tuple(sorted(rng.sample(range(1, n + 1), m)))
        p = braid.project_character(n, kept, c)
        touched = [
            nm
            for nm in basis(n).generators.names
            if c(nm) != 0
            and not set(map(int, nm[2:-1].split(","))) <= set(kept)
        ]
        if touched:
            assert p is None
        else:
            relabel = {s: i + 1 for i, s in enumerate(kept)}
            for i, j in combinations(kept, 2):
                assert p(f"S({relabel[i]},{relabel[j]})") == c(f"S({i},{j})")


def test_pb3_dead():
    assert not braid.sigma_membership(3, chi(3, {"S(1,2)": 1, "S(1,3)": 1, "S(2,3)": -2})).inside
    assert braid.sigma_membership(3, chi(3, {"S(1,2)": 1})).inside
    assert not braid.sigma_membership(3, chi(3, {})).inside


def test_pb4_dead():
    exceptional = chi(
        4,
        {"S(1,2)": 1, "S(1,3)": 1, "S(1,4)": -2, "S(2,3)": -2, "S(2,4)": 1, "S(3,4)": 1},
    )
    assert not braid.sigma_membership(4, exceptional).inside
    projected = chi(4, {"S(1,2)": 1, "S(1,3)": -1})
    assert not braid.sigma_membership(4, projected).inside
    assert braid.sigma_membership(4, chi(4, {"S(1,2)": 1})).inside


def test_sigma_membership_goldens():
    v = braid.sigma_membership(3, chi(3, {"S(1,2)": 1, "S(1,3)": 1, "S(2,3)": -2}))
    assert (v.status, v.witness, v.kept, v.base) == (
        braid.OUT,
        braid.PROJECTION,
        (1, 2, 3),
        braid.PB3_SUM,
    )
    assert braid.sigma_membership(5, chi(5, {"S(1,2)": 1})).inside
    dead5 = chi(5, {"S(1,2)": 1, "S(1,3)": 1, "S(2,3)": -2})
    v5 = braid.sigma_membership(5, dead5)
    assert (v5.status, v5.kept) == (braid.OUT, (1, 2, 3))
    z = braid.sigma_membership(4, chi(4, {}))
    assert (z.status, z.witness) == (braid.OUT, braid.ZERO)
    with pytest.raises(PreconditionError):
        braid.sigma_membership(2, chi(3, {}))


def test_sigma_membership_matches_direct_equations_small_n():
    # the oracle evaluates the base groups' displayed equations on every
    # kept strand set; dense random draws are almost never dead on four
    # strands, so constructed and zero-heavy 4-strand draws follow them
    rng = random.Random(23)
    draws = []
    for _ in range(300):
        n = rng.choice((3, 4))
        draws.append((n, random_character(rng, n)))
    extra = random.Random(37)
    for _ in range(200):
        draw = extra.choice(
            (
                lambda: sample_projection_dead(extra, 4),
                lambda: sample_exceptional_dead(extra, 4),
                lambda: random_character(extra, 4, pool=(0, 0, 0, 0, 0, 1, -1)),
            )
        )
        draws.append((4, draw()))
    seen = Counter()
    for n, c in draws:
        values = {
            tuple(map(int, nm[2:-1].split(","))): value
            for nm, value in zip(c.basis.names, c.values)
            if value != 0
        }
        v = braid.sigma_membership(n, c)
        assert (v.status, v.witness, v.kept, v.base) == projection_sigma("braid", n, values)
        seen[n, v.base or v.witness or v.status] += 1
    for kind in ("pb3-sum", "pb4-exceptional", "zero", "in"):
        assert seen[4, kind] >= 5, seen


def test_sigma_membership_matches_subspace_union_n5_n6():
    # Out iff the character satisfies the equations of some dead subspace
    rng = random.Random(31)
    for n in (5, 6):
        subs = [equations for _, _, equations in dead_subspaces("braid", n)]
        for _ in range(150):
            c = rng.choice(
                (
                    lambda: random_character(rng, n),
                    lambda: sample_projection_dead(rng, n),
                    lambda: sample_exceptional_dead(rng, n),
                )
            )()
            if c.is_zero():
                continue
            in_union = any(all(c.pair(eq) == 0 for eq in equations) for equations in subs)
            assert braid.sigma_membership(n, c).inside == (not in_union)


def test_scaling_and_negation_invariance():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.choice((3, 4, 5, 6))
        c = rng.choice((random_character, sample_projection_dead))(rng, n)
        v = braid.sigma_membership(n, c)
        assert braid.sigma_membership(n, c.negated()) == v
        assert braid.sigma_membership(n, c.scaled(Fraction(5, 3))) == v
        assert braid.sigma_membership(n, c.scaled(-7)) == v


def test_witness_pair_projection_case():
    c = chi(5, {"S(2,3)": 1, "S(2,4)": 1, "S(3,4)": -2})
    pair = braid.witness_pair(5, c)
    assert str(pair.u) == "S(1,2)"
    assert str(pair.v) == "S(1,3)"
    assert pair.designated == (1, 2, 3)


def test_witness_pair_exceptional_case():
    c = chi(
        4,
        {"S(1,2)": 1, "S(1,3)": 1, "S(1,4)": -2, "S(2,3)": -2, "S(2,4)": 1, "S(3,4)": 1},
    )
    pair = braid.witness_pair(4, c)
    assert str(pair.u) == "S(1,2) S(3,4)^-1"
    assert str(pair.v) == "S(1,3) S(2,4)^-1"
    assert pair.designated == (1, 2, 3)
    # the exceptional words project to the F2 generators on strands {1,2,3}
    pu = braid.project_word(4, pair.designated, pair.u)
    pv = braid.project_word(4, pair.designated, pair.v)
    assert str(braid.pb3_reduce(pu).free_part) == "A"
    assert str(braid.pb3_reduce(pv).free_part) == "B"


def test_witness_pair_errors():
    with pytest.raises(DomainError):
        braid.witness_pair(4, chi(4, {"S(1,2)": 1}))  # alive
    with pytest.raises(DomainError):
        braid.witness_pair(4, chi(4, {}))  # zero
    with pytest.raises(PreconditionError):
        braid.witness_pair(3, chi(3, {"S(1,2)": 1, "S(1,3)": -1}))


def test_witness_soundness_up_to_seven_strands():
    rng = random.Random(59)
    for n in (4, 5, 6, 7):
        for _ in range(40):
            c = rng.choice((sample_projection_dead, sample_exceptional_dead))(rng, n)
            if braid.sigma_membership(n, c).inside:
                continue
            pair = braid.witness_pair(n, c)
            gens = basis(n).generators
            assert c.pair(abelianize(gens, pair.u)) == 0
            assert c.pair(abelianize(gens, pair.v)) == 0
            ru = braid.pb3_reduce(braid.project_word(n, pair.designated, pair.u))
            rv = braid.pb3_reduce(braid.project_word(n, pair.designated, pair.v))
            assert f2z_generate_free(ru, rv)


def test_project_word():
    w = word(basis(4).generators.names, ["S(1,4)", "S(1,2)"])
    assert str(braid.project_word(4, (1, 2, 3), w)) == "S(1,2)"
    w2 = word(basis(4).generators.names, [("S(2,3)", -1), "S(1,4)"])
    p2 = braid.project_word(4, (2, 3, 4), w2)
    assert str(p2) == "S(1,2)^-1"


def test_pb3_reduce():
    names = basis(3).generators.names
    full_twist = word(names, ["S(1,2)", "S(1,3)", "S(2,3)"])
    r = braid.pb3_reduce(full_twist)
    assert len(r.free_part) == 0 and r.central == 1
    single = braid.pb3_reduce(word(names, ["S(1,2)"]))
    assert str(single.free_part) == "A" and single.central == 0
    # the full twist is central: conjugating anything by it is trivial
    s13 = word(names, ["S(1,3)"])
    conj = braid.pb3_reduce(full_twist * s13 * full_twist.inverse())
    assert str(conj.free_part) == "B" and conj.central == 0


def test_abelianization_contradiction_mirror():
    # nonzero multiples of distinct band generators never agree in Z^3
    gens = basis(3).generators
    e12 = abelianize(gens, word(gens.names, ["S(1,2)"]))
    e13 = abelianize(gens, word(gens.names, ["S(1,3)"]))
    for q in (-2, -1, 1, 2):
        for r in (-2, -1, 1, 3):
            for a in (-1, 1, 2):
                for b in (-3, 1, 2):
                    qa = tuple(q * a * x for x in e12)
                    rb = tuple(r * b * x for x in e13)
                    assert qa != rb


def test_obstruction_certificate_branch():
    rep = braid.nf_obstruction_demo(5, [(1, 0, 0, 0, 0, 0, 0, 0, 0, 0)])
    assert rep.branch == CERTIFICATE
    assert rep.character("S(1,2)") == 0
    assert rep.verdict_plus.inside and rep.verdict_minus.inside
    assert rep.witness is None and rep.covering is None

    empty = braid.nf_obstruction_demo(4, [])
    assert empty.branch == CERTIFICATE
    assert not empty.character.is_zero()


def test_obstruction_covered_branch():
    from bnskit.characters import integer_kernel

    # generators spanning the annihilated lattice of the exceptional subspace
    rows = [(1, 0, -1, -1, 0, 1), (0, 1, -1, -1, 1, 0)]
    gens = integer_kernel(rows, 6)
    rep = braid.nf_obstruction_demo(4, list(gens))
    assert rep.branch == COVERED
    assert rep.covering.kind == braid.PB4_EXCEPTIONAL
    assert rep.covering.kept == (1, 2, 3, 4)
    assert str(rep.witness.u) == "S(1,2) S(3,4)^-1"
    assert str(rep.witness.v) == "S(1,3) S(2,4)^-1"
    assert rep.verdict_plus is None and rep.verdict_minus is None
    # the sample character kills both witness words
    gens_basis = basis(4).generators
    assert rep.character.pair(abelianize(gens_basis, rep.witness.u)) == 0


def test_obstruction_at_the_strand_limit(tmp_path):
    """Braid obstruct at the largest strand count, n = 64 (2,016 generators),
    on two seeded vectors; the answer is checked, not the time taken."""
    from bnskit.cli import run

    rng = random.Random(64)
    dim = basis(64).dim
    vectors = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(2)]
    rep = braid.nf_obstruction_demo(64, vectors)
    assert rep.branch == CERTIFICATE
    assert rep.verdict_plus.inside and rep.verdict_minus.inside
    assert all(rep.character.pair(v) == 0 for v in vectors)
    path = tmp_path / "v.vec"
    path.write_text("S(1,2) = 1\n")
    assert run(["braid", "obstruct", "-n", "65", str(path)]).exit_code == 2


def test_obstruction_rejects_small_n():
    with pytest.raises(PreconditionError):
        braid.nf_obstruction_demo(3, [])
