import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bnskit import DomainError, InputError, PreconditionError, make_character
from bnskit.characters import abelianize
from bnskit.words import free_commute, word
from bnskit import loop
from bnskit.obstruction import CERTIFICATE, COVERED

from .oracles import dead_subspaces, family_pairs, projection_inside


def basis(n):
    return loop.LoopBraidBasis(n)


def chi(n, assignments):
    return make_character(basis(n).generators, assignments)


def random_character(rng, n, pool=(-2, -1, 0, 0, 1, 1, 2, Fraction(1, 2))):
    names = basis(n).generators.names
    return make_character(basis(n).generators, {nm: rng.choice(pool) for nm in names})


def sample_pair_dead(rng, n):
    """Supported on one ordered pair's two generators, otherwise arbitrary."""
    i, j = rng.sample(range(1, n + 1), 2)
    a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
    if a == 0 and b == 0:
        a = 1
    return chi(n, {f"A({i},{j})": a, f"A({j},{i})": b})


def sample_equations_dead(rng, n):
    """Supported on a 3-subset with zero inflow at each of its indices."""
    t = sorted(rng.sample(range(1, n + 1), 3))
    values = {}
    for c in t:
        sources = [a for a in t if a != c]
        v = rng.randrange(-3, 4)
        values[f"A({sources[0]},{c})"] = v
        values[f"A({sources[1]},{c})"] = -v
    if all(v == 0 for v in values.values()):
        values[f"A({t[1]},{t[0]})"] = 2
        values[f"A({t[2]},{t[0]})"] = -2
    return chi(n, values)


def test_basis_layout():
    b = basis(3)
    assert b.generators.names == (
        "A(1,2)",
        "A(1,3)",
        "A(2,1)",
        "A(2,3)",
        "A(3,1)",
        "A(3,2)",
    )
    assert b.dim == 6
    assert b.index(3, 1) == 4
    assert basis(2).generators.names == ("A(1,2)", "A(2,1)")
    with pytest.raises(PreconditionError):
        basis(1)
    with pytest.raises(InputError):
        b.index(1, 1)


def test_project_character():
    assert loop.project_character(3, (1, 2), chi(3, {"A(1,2)": 1})).values == (1, 0)
    assert loop.project_character(3, (1, 2), chi(3, {"A(1,3)": 1})) is None
    p = loop.project_character(4, (2, 4), chi(4, {"A(2,4)": 3, "A(4,2)": -1}))
    assert p.values == (3, -1)
    with pytest.raises(InputError):
        loop.project_character(3, (1,), chi(3, {}))


def test_plb2_dead_always():
    assert not loop.sigma_membership(2, chi(2, {"A(1,2)": 5})).inside
    assert not loop.sigma_membership(2, chi(2, {})).inside


def test_plb3_dead():
    equations = chi(
        3,
        {"A(2,1)": 1, "A(3,1)": -1, "A(1,2)": 2, "A(3,2)": -2, "A(1,3)": 3, "A(2,3)": -3},
    )
    assert not loop.sigma_membership(3, equations).inside
    projection = chi(3, {"A(1,2)": 1, "A(2,1)": 1})
    assert not loop.sigma_membership(3, projection).inside
    assert loop.sigma_membership(3, chi(3, {"A(1,2)": 1, "A(1,3)": 1, "A(2,3)": 1})).inside


def test_sigma_membership_goldens():
    v2 = loop.sigma_membership(2, chi(2, {"A(1,2)": 1}))
    assert (v2.status, v2.witness, v2.kept, v2.base) == (
        loop.OUT,
        loop.PROJECTION,
        (1, 2),
        loop.PLB2_ALL,
    )
    eq = chi(
        3,
        {"A(2,1)": 1, "A(3,1)": -1, "A(1,2)": 2, "A(3,2)": -2, "A(1,3)": 3, "A(2,3)": -3},
    )
    v3 = loop.sigma_membership(3, eq)
    assert (v3.status, v3.kept, v3.base) == (loop.OUT, (1, 2, 3), loop.PLB3_EQUATIONS)
    # a single pair stays projectable to its own 2-index group, hence dead
    v4 = loop.sigma_membership(4, chi(4, {"A(1,2)": 1}))
    assert (v4.status, v4.kept, v4.base) == (loop.OUT, (1, 2), loop.PLB2_ALL)
    everywhere = chi(4, {name: 1 for name in basis(4).names})
    assert loop.sigma_membership(4, everywhere).inside
    z = loop.sigma_membership(3, chi(3, {}))
    assert (z.status, z.witness) == (loop.OUT, loop.ZERO)
    with pytest.raises(PreconditionError):
        loop.sigma_membership(1, chi(2, {}))


def test_sigma_membership_matches_subspace_union():
    rng = random.Random(17)
    for n in (4, 5):
        subs = [equations for _, _, equations in dead_subspaces("loop", n)]
        for _ in range(150):
            c = rng.choice(
                (
                    lambda: random_character(rng, n),
                    lambda: sample_pair_dead(rng, n),
                    lambda: sample_equations_dead(rng, n),
                )
            )()
            if c.is_zero():
                continue
            in_union = any(all(c.pair(eq) == 0 for eq in equations) for equations in subs)
            assert loop.sigma_membership(n, c).inside == (not in_union)


def test_scaling_and_negation_invariance():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.choice((2, 3, 4, 5, 6))
        c = rng.choice((random_character, sample_pair_dead))(rng, n)
        v = loop.sigma_membership(n, c)
        assert loop.sigma_membership(n, c.negated()) == v
        assert loop.sigma_membership(n, c.scaled(Fraction(3, 7))) == v
        assert loop.sigma_membership(n, c.scaled(-2)) == v


def test_witness_pair_projection_case():
    # dead via kept={2,3}: least deleted 1, least kept 2
    c = chi(4, {"A(2,3)": 1, "A(3,2)": -5})
    pair = loop.witness_pair(4, c)
    assert str(pair.u) == "A(1,2)"
    assert str(pair.v) == "A(2,1)"
    assert pair.designated == (1, 2)


def test_witness_pair_exceptional_case():
    c = chi(
        3,
        {"A(2,1)": 1, "A(3,1)": -1, "A(1,2)": 2, "A(3,2)": -2, "A(1,3)": 3, "A(2,3)": -3},
    )
    pair = loop.witness_pair(3, c)
    assert str(pair.u) == "A(1,2) A(3,2)"
    assert str(pair.v) == "A(2,1) A(3,1)"
    assert pair.designated == (1, 2)
    pu = loop.plb2_reduce(loop.project_word(3, pair.designated, pair.u))
    pv = loop.plb2_reduce(loop.project_word(3, pair.designated, pair.v))
    assert str(pu) == "A" and str(pv) == "B"


def test_witness_pair_errors():
    with pytest.raises(PreconditionError):
        loop.witness_pair(2, chi(2, {"A(1,2)": 1}))
    with pytest.raises(DomainError):
        loop.witness_pair(4, chi(4, {name: 1 for name in basis(4).names}))  # alive
    with pytest.raises(DomainError):
        loop.witness_pair(3, chi(3, {}))  # zero


@pytest.mark.parametrize("n", [3.0, 4.5, 37.0, True, "3", None], ids=repr)
def test_loop_count_must_be_int(n):
    c = chi(3, {"A(1,2)": 1, "A(2,1)": -1})
    for call in (
        lambda: loop.LoopBraidBasis(n),
        lambda: loop.sigma_membership(n, c),
        lambda: loop.witness_pair(n, c),
        lambda: loop.nf_obstruction_demo(n, [[1, 0, 0, 0, 0, 0]]),
    ):
        with pytest.raises(InputError):
            call()
    assert not loop.sigma_membership(3, c).inside


def test_witness_soundness():
    rng = random.Random(61)
    for n in (3, 4, 5, 6):
        for _ in range(40):
            c = rng.choice((sample_pair_dead, sample_equations_dead))(rng, n)
            assert not loop.sigma_membership(n, c).inside
            pair = loop.witness_pair(n, c)
            gens = basis(n).generators
            assert c.pair(abelianize(gens, pair.u)) == 0
            assert c.pair(abelianize(gens, pair.v)) == 0
            ru = loop.plb2_reduce(loop.project_word(n, pair.designated, pair.u))
            rv = loop.plb2_reduce(loop.project_word(n, pair.designated, pair.v))
            assert not free_commute(ru, rv)


def test_project_word_and_reduce():
    names3 = basis(3).generators.names
    w = word(names3, ["A(1,3)", "A(1,2)"])
    assert str(loop.project_word(3, (1, 2), w)) == "A(1,2)"
    names2 = basis(2).generators.names
    r = loop.plb2_reduce(word(names2, ["A(1,2)", "A(2,1)", ("A(1,2)", -1)]))
    assert str(r) == "A B A^-1"
    assert len(loop.plb2_reduce(word(names2, ["A(1,2)", ("A(1,2)", -1)]))) == 0


def test_abelianization_contradiction_mirror():
    gens = basis(2).generators
    e12 = abelianize(gens, word(gens.names, ["A(1,2)"]))
    e21 = abelianize(gens, word(gens.names, ["A(2,1)"]))
    for q in (-2, -1, 1, 2):
        for r in (-1, 1, 3):
            for a in (-1, 1, 2):
                for b in (-2, 1, 2):
                    assert tuple(q * a * x for x in e12) != tuple(r * b * x for x in e21)


def test_obstruction_certificate_branch():
    rep = loop.nf_obstruction_demo(3, [])
    assert rep.branch == CERTIFICATE
    assert rep.verdict_plus.inside and rep.verdict_minus.inside

    e12 = tuple(1 if nm == "A(1,2)" else 0 for nm in basis(4).generators.names)
    rep4 = loop.nf_obstruction_demo(4, [e12])
    assert rep4.branch == CERTIFICATE
    assert rep4.character("A(1,2)") == 0


def test_obstruction_covered_branch():
    from bnskit.characters import integer_kernel

    rows = [(1, 0, 0, 0, 0, -1), (0, 1, 0, -1, 0, 0), (0, 0, 1, 0, -1, 0)]
    # the kernel rows are (column, value) pairs; the pipeline reads dense vectors
    gens = [tuple(dict(row).get(j, 0) for j in range(6)) for row in integer_kernel(rows, 6)]
    rep = loop.nf_obstruction_demo(3, gens)
    assert rep.branch == COVERED
    assert rep.covering.kind == loop.PLB3_EQUATIONS
    assert str(rep.witness.u) == "A(1,2) A(3,2)"
    assert str(rep.witness.v) == "A(2,1) A(3,1)"


def test_obstruction_at_the_strand_limit(tmp_path):
    """Loop obstruct at the largest loop count, n = 64 (4,032 generators),
    on two seeded vectors; the answer is checked, not the time taken."""
    from bnskit.cli import run

    rng = random.Random(64)
    dim = basis(64).dim
    vectors = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(2)]
    rep = loop.nf_obstruction_demo(64, vectors)
    assert rep.branch == CERTIFICATE
    assert rep.verdict_plus.inside and rep.verdict_minus.inside
    assert all(rep.character.pair(v) == 0 for v in vectors)
    # both rays are inside by the oracle too, not only by the package's verdicts
    values = {p: v for p, v in zip(family_pairs("loop", 64), rep.character.values) if v}
    assert projection_inside("loop", 64, values)
    assert projection_inside("loop", 64, {p: -v for p, v in values.items()})
    path = tmp_path / "v.vec"
    path.write_text("A(1,2) = 1\n")
    assert run(["loop", "obstruct", "-n", "65", str(path)]).exit_code == 2


def test_obstruction_covered_at_the_strand_limit():
    """The covered branch at n = 64: the vectors span everything that the
    plb2-all subspace on loops {1,2} kills, so every killing character
    lies in it, and the witness words' free images do not commute."""
    pairs = family_pairs("loop", 64)
    vectors = []
    for k, (i, j) in enumerate(pairs):
        if max(i, j) > 2:
            vectors.append([0] * len(pairs))
            vectors[-1][k] = 1
    rep = loop.nf_obstruction_demo(64, vectors)
    assert rep.branch == COVERED
    assert (rep.covering.kind, rep.covering.kept) == (loop.PLB2_ALL, (1, 2))
    sample = [(k, v) for k, v in enumerate(rep.character.values) if v]
    assert all(sum(vec[k] * v for k, v in sample) == 0 for vec in vectors)
    pair = rep.witness
    ru = loop.plb2_reduce(loop.project_word(64, pair.designated, pair.u))
    rv = loop.plb2_reduce(loop.project_word(64, pair.designated, pair.v))
    assert not free_commute(ru, rv)


# runs one command line in a forked child, which prints its porcelain and
# its peak resident set in KB: exec carries over the peak of the process that
# started the probe (the test runner), fork starts from the probe's own size
_PEAK_PROBE = """
import os, resource, sys
from bnskit import cli
if os.fork() == 0:
    report = cli.run(sys.argv[1:])
    print("\\n".join(report.porcelain))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    os._exit(report.exit_code)
_, status = os.wait()
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_covered_obstruct_at_the_strand_limit_stays_under_100_mb(tmp_path):
    """`loop obstruct -n 64` on the covered branch, one unit-vector file
    per generator off loops {1,2}: 4,030 files.  Read as dense vectors they
    held about 130 MB; read as rows the whole process stays under 100 MB."""
    paths = []
    for name in loop.LoopBraidBasis(64).names:
        if name not in ("A(1,2)", "A(2,1)"):
            path = tmp_path / f"{len(paths)}.vec"
            path.write_text(f"{name} = 1\n")
            paths.append(str(path))
    assert len(paths) == 4030
    src = str(Path(loop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, "--porcelain", "loop", "obstruct", "-n", "64", *paths],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    *porcelain, peak_kb = done.stdout.splitlines()
    assert "branch=covered" in porcelain and "covering=plb2-all:1,2" in porcelain
    assert int(peak_kb) < 100 * 1024


def test_obstruction_rejects_small_n():
    with pytest.raises(PreconditionError):
        loop.nf_obstruction_demo(2, [])
