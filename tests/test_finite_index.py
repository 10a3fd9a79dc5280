"""The paper's theorem as a relation between a graph group and a subgroup of
finite index, checked through the command line with no oracle.

Fix a vertex v of a graph G and an integer p >= 2, and let H be the kernel
of A_G -> Z/p that sends v to 1 and every other vertex to 0.  The
Reidemeister-Schreier method with the transversal 1, v, ..., v^(p-1) gives
H as follows.

- Generators: x_i = v^i x v^-i for each vertex x != v and each i < p, and
  v^p.  The other Schreier generators, v^i v v^-(i+1) for i < p - 1, are 1.
- Relations: v^i r v^-i rewritten, for each relator r and each i < p.
  - r = [v, x] for x in lk(v) gives x_(i+1) = x_i for i < p - 1, and
    v^p x_0 v^-p = x_(p-1).  So the p copies of x are one generator x,
    and it commutes with v^p.
  - r = [x, y] for an edge xy of G - v gives [x_i, y_i] for each i.

So H is the graph group A_D, where D is p copies of G glued along the star
of v, with v standing for v^p: each x in lk(v) once, p copies x.i of each
vertex x outside the star, and one vertex for v^p joined to lk(v).  For
p = 2 this is the double of G along a star (Kim & Koberda 2013).

Two relations follow.
- A_G and A_D are commensurable.  By the paper's theorem the size of the
  smallest separating clique is a commensurability invariant of non-clique
  graphs, so `raag compare G D` never prints `not-commensurable`, and for a
  non-clique G the `raag split-report` verdict rows of G and D agree.
- A character lies in the first sigma invariant of a group exactly when its
  restriction to a subgroup of finite index lies in that of the subgroup
  (Bieri, Neumann & Strebel 1987).  A character c of A_G restricts to A_D
  as c(x) on every copy of x and p c(v) on v^p, so `raag sigma` says IN on
  (G, c) exactly when it says IN on (D, c restricted).

The graphs are small random graphs, and cones over them and disjoint unions
of them, as in `test_separators.py`, so that the invariant also takes the
values 0, 2 and 3.  The cases are seeded, so every run checks the same ones.
"""

import random

from bnskit import cli


def star_cover(vertices, edges, v, p):
    """The vertices and edges of D, and for each vertex of D the vertex of
    G it copies, with v for v^p."""
    link = {a if b == v else b for a, b in edges if v in (a, b)}
    outside = [x for x in vertices if x != v and x not in link]
    power = f"{v}^{p}"
    source = {x: x for x in link} | {power: v}
    source |= {f"{x}.{i}": x for i in range(p) for x in outside}
    names = lambda x: [x] if x in link else [f"{x}.{i}" for i in range(p)]
    cover_edges = [(power, x) for x in link]
    for a, b in edges:
        if v in (a, b):
            continue
        if a in link or b in link:
            cover_edges += [(x, y) for x in names(a) for y in names(b)]
        else:
            cover_edges += [(f"{a}.{i}", f"{b}.{i}") for i in range(p)]
    return list(source), cover_edges, source


def random_graph(rng):
    """A graph on at most 12 vertices: a random graph on 1-6 vertices, then
    up to three steps, each a cone over the graph or a disjoint union with a
    random graph on 1-3 vertices."""
    n = rng.randrange(1, 7)
    vertices = [f"v{i}" for i in range(n)]
    density = rng.choice((0.3, 0.5, 0.8))
    edges = [(a, b) for i, a in enumerate(vertices) for b in vertices[i + 1:] if rng.random() < density]
    for step in range(rng.randrange(4)):
        if rng.random() < 0.6:
            apex = f"a{step}"
            edges += [(x, apex) for x in vertices]
            vertices.append(apex)
        else:
            other = [f"u{step}.{i}" for i in range(rng.randrange(1, 4))]
            edges += [(a, b) for i, a in enumerate(other) for b in other[i + 1:] if rng.random() < density]
            vertices += other
    return vertices, edges


def graph_text(vertices, edges):
    return f"vertices: {' '.join(vertices)}\nedges: {' '.join(f'{a}-{b}' for a, b in edges)}\n"


def porcelain(argv):
    report = cli.run(["--porcelain", *map(str, argv)])
    assert report.exit_code == 0, (argv, report.porcelain)
    return dict(line.split("=", 1) for line in report.porcelain)


def test_index_p_subgroups_keep_the_invariant_and_the_sigma_verdicts(tmp_path):
    rng = random.Random(2017)
    invariants, statuses = set(), set()
    g_file, d_file = tmp_path / "g.graph", tmp_path / "d.graph"
    c_file, r_file = tmp_path / "c.char", tmp_path / "r.char"
    for _ in range(400):
        vertices, edges = random_graph(rng)
        v, p = rng.choice(vertices), rng.choice((2, 3, 5))
        cover, cover_edges, source = star_cover(vertices, edges, v, p)
        g_file.write_text(graph_text(vertices, edges))
        d_file.write_text(graph_text(cover, cover_edges))
        compared = porcelain(["raag", "compare", g_file, d_file])
        assert compared["verdict"] != "not-commensurable", (vertices, edges, v, p)
        if compared["clique1"] == "false":
            g_split = porcelain(["raag", "split-report", "--max-k", 4, g_file])
            d_split = porcelain(["raag", "split-report", "--max-k", 4, d_file])
            assert g_split["verdicts"] == d_split["verdicts"], (vertices, edges, v, p)
            invariants.add(compared["invariant1"])
        values = {x: rng.choice((0, 0, 1, -1, 2)) for x in vertices}
        c_file.write_text("".join(f"{x} = {a}\n" for x, a in values.items()))
        r_file.write_text("".join(f"{y} = {values[x] * (p if x == v else 1)}\n" for y, x in source.items()))
        status = porcelain(["raag", "sigma", g_file, c_file])["status"]
        assert porcelain(["raag", "sigma", d_file, r_file])["status"] == status, (vertices, edges, values, v, p)
        statuses.add(status)
    assert invariants >= {"none", "0", "1", "2", "3"}, invariants
    assert statuses == {"in", "out"}
