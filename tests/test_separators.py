"""Separating cliques and complement supports against subset-scan oracles."""

import random
from pathlib import Path

import pytest

from bnskit import Graph, PreconditionError, cli, graphs, raag
from bnskit.graphs import MAX_MINIMAL_SEPARATORS, min_separating_clique_witness

from .oracles import all_labeled_graphs, bench_oracles

ORACLES = bench_oracles()

DATA = Path(__file__).parent / "data"


def named(n, edges):
    # labels out of step with the vertex order, so only the order can decide ties
    names = [f"v{(5 * i + 3) % 13}" for i in range(n)]
    return names, Graph(names, [(names[i], names[j]) for i, j in edges])


def witness_names(names, n, masks):
    """The oracle's first separating clique in (size, lex) order, by name."""
    witness = ORACLES.min_separating_clique(n, masks)
    return None if witness is None else tuple(names[i] for i in ORACLES.bits(witness))


def check_against_oracles(n, edges, masks):
    names, g = named(n, edges)
    assert min_separating_clique_witness(g) == witness_names(names, n, masks), edges
    expect = [tuple(names[i] for i in ORACLES.bits(s)) for s in ORACLES.complement_supports(n, masks)]
    assert raag.sigma_complement_supports(g) == expect, edges


def test_separators_on_every_graph_up_to_six_vertices():
    checked = 0
    for n in range(7):
        for edges, masks in all_labeled_graphs(n):
            check_against_oracles(n, edges, masks)
            checked += 1
    assert checked == 33868


def test_separators_on_random_graphs_with_seven_to_nine_vertices():
    rng = random.Random(3031)
    for _ in range(300):
        n = rng.randrange(7, 10)
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        check_against_oracles(n, edges, ORACLES.masks_of(n, edges))


def cycle(n):
    names = [f"c{i}" for i in range(n)]
    return Graph(names, [(names[i], names[(i + 1) % n]) for i in range(n)])


def test_cycle_complement_is_every_non_adjacent_pair():
    g = cycle(30)
    pairs = [
        (g.vertices[i], g.vertices[j])
        for i in range(30)
        for j in range(i + 2, 30)
        if (i, j) != (0, 29)
    ]
    assert len(pairs) == 405
    assert raag.sigma_complement_supports(g) == pairs


def test_long_cycle_has_no_separating_clique():
    assert min_separating_clique_witness(cycle(40)) is None


def test_witness_on_random_graphs_with_ten_to_twelve_vertices():
    rng = random.Random(1212)
    for _ in range(200):
        n = rng.randrange(10, 13)
        p = rng.choice((0.15, 0.25, 0.4, 0.6))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        names, g = named(n, edges)
        assert min_separating_clique_witness(g) == witness_names(names, n, ORACLES.masks_of(n, edges)), edges


def theta(k, pendant=False):
    # s and t joined by k paths s-a_i-b_i-t: exponentially many minimal
    # separators, and no clique one
    vertices, edges = ["s", "t"], []
    for i in range(k):
        vertices += [f"a{i}", f"b{i}"]
        edges += [("s", f"a{i}"), (f"a{i}", f"b{i}"), (f"b{i}", "t")]
    if pendant:
        vertices.append("p")
        edges.append(("s", "p"))
    return Graph(vertices, edges)


def graph_file(tmp_path, g, name="g"):
    path = tmp_path / f"{name}.graph"
    edges = " ".join(f"{a}-{b}" for a, b in g.edges)
    path.write_text(f"vertices: {' '.join(g.vertices)}\nedges: {edges}\n")
    return str(path)


def test_theta_graphs_have_no_separating_clique():
    for k in range(2, 41):
        assert min_separating_clique_witness(theta(k)) is None, k
        assert min_separating_clique_witness(theta(k, pendant=True)) == ("s",), k


def test_analyze_theta_graph_with_pendant_vertex(tmp_path):
    g = theta(40, pendant=True)
    assert len(g.vertices) == 83
    report = cli.run(["--porcelain", "graph", "analyze", graph_file(tmp_path, g)])
    assert report.exit_code == 0
    assert "min_separating_clique=1" in report.porcelain
    assert "witness=s" in report.porcelain


def test_complement_stops_at_the_separator_cap(tmp_path):
    report = cli.run(["--porcelain", "raag", "complement", graph_file(tmp_path, theta(20))])
    assert report.exit_code == 2
    assert report.porcelain == (f"error=graph has more than {MAX_MINIMAL_SEPARATORS} minimal separators",)
    # theta(k) has 2^k + 2k + 1 minimal separators, all inclusion-minimal
    # separating sets: 4,121 for k = 12, 2,071 for k = 11
    with pytest.raises(PreconditionError):
        raag.sigma_complement_supports(theta(12))
    assert len(raag.sigma_complement_supports(theta(11))) == 2**11 + 23


def test_witness_work_grows_polynomially_on_theta_graphs(monkeypatch):
    # counts neighbour-mask unions, the unit of work of every graph search here
    calls = 0
    reach = graphs._reach

    def counted(adj, mask):
        nonlocal calls
        calls += 1
        return reach(adj, mask)

    monkeypatch.setattr(graphs, "_reach", counted)
    counts = {}
    for k in range(4, 41):
        calls = 0
        assert min_separating_clique_witness(theta(k)) is None
        counts[k] = calls
        if k % 2 == 0 and k >= 8:
            # doubling k doubles the vertex count; cubic work would give 8
            assert counts[k] <= 8 * counts[k // 2], (k, counts[k // 2], counts[k])


def test_invariant_commands_list_no_minimal_separators(tmp_path, monkeypatch):
    paths = sorted(str(p) for p in DATA.glob("*.graph"))
    paths += [graph_file(tmp_path, theta(6), "theta"), graph_file(tmp_path, theta(6, True), "pendant")]
    paths.append(graph_file(tmp_path, cycle(9), "cycle"))
    argvs = []
    for path in paths:
        argvs += [["graph", "analyze", path], ["raag", "split-report", path, "--max-k", "3"]]
        argvs += [["raag", "compare", path, other] for other in paths]
    argvs += [["--porcelain", *argv] for argv in argvs]
    expect = [cli.run(argv) for argv in argvs]

    def refuse(adj):
        raise AssertionError("minimal separators listed")

    monkeypatch.setattr(graphs, "_minimal_separators", refuse)
    for argv, report in zip(argvs, expect):
        got = cli.run(argv)
        assert (got.exit_code, got.human, got.porcelain) == (
            report.exit_code, report.human, report.porcelain
        ), argv
    assert any(report.exit_code == 0 for report in expect)


def test_complement_takes_one_component_pass_per_closure_step(monkeypatch):
    # one connectivity check, one pass per vertex to seed the closure, and
    # one per vertex of each minimal separator, which also decides its
    # inclusion-minimality: C_n has n(n - 3)/2 of them, of two vertices each
    calls = 0
    components = graphs._components

    def counted(adj, mask):
        nonlocal calls
        calls += 1
        return components(adj, mask)

    monkeypatch.setattr(graphs, "_components", counted)
    for n in range(6, 31):
        calls = 0
        assert len(raag.sigma_complement_supports(cycle(n))) == n * (n - 3) // 2
        assert calls == 1 + n + n * (n - 3), (n, calls)


def glued(rng, n, k):
    """Edges of a connected graph on n vertices: a k-clique, then blocks of
    3-6 new vertices, each block joined to every vertex of an earlier
    k-clique and, inside, a cycle or a random graph.  Each block adds a
    k-clique of its glue and one of its own vertices, to glue onto later."""
    edges = {(a, b) for a in range(k) for b in range(a + 1, k)}
    cliques = [tuple(range(k))]
    count = k
    while count < n:
        glue = rng.choice(cliques)
        new = range(count, min(count + rng.randrange(3, 7), n))
        count = new.stop
        edges |= {(a, v) for a in glue for v in new}
        if len(new) > 3 and rng.random() < 0.5:
            edges |= {(v - 1, v) for v in new[1:]} | {(new[0], new[-1])}
        else:
            p = rng.choice((0.4, 0.7, 0.9))
            edges |= {(a, b) for a in new for b in new if a < b and rng.random() < p}
        cliques.append(glue[1:] + (rng.choice(new),))
    return edges


def ring(m, t):
    """Edges of m cliques of t vertices in a ring, each joined to the next:
    no separating clique, and m(m - 3)/2 minimal separators."""
    bag = [range(i * t, i * t + t) for i in range(m)]
    edges = {(a, b) for members in bag for a in members for b in members if a < b}
    edges |= {(min(a, b), max(a, b)) for i in range(m) for a in bag[i] for b in bag[i - 1]}
    return edges


def sample_graph(rng):
    choice = rng.random()
    if choice < 0.6:
        n, p = rng.randrange(2, 15), rng.choice((0.15, 0.3, 0.5, 0.8))
        edges = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
    elif choice < 0.9:
        # sizes spread evenly on a log scale, to keep the 300-vertex ones few
        n = round(15 * 20 ** rng.random())
        edges = glued(rng, n, rng.randrange(1, 6))
    else:
        m, t = rng.randrange(4, 11), round(30 ** rng.random())
        n, edges = m * t, ring(m, t)
    # distinct labels out of step with the vertex order, up to 1,009 vertices
    names = [f"v{(7 * i + 3) % 1009}" for i in range(n)]
    return Graph(names, [(names[a], names[b]) for a, b in sorted(edges)])


def test_cones_and_unions_at_sizes_past_the_oracles():
    """Every separating set of the cone over G (an apex joined to every
    vertex, last in vertex order) holds the apex, and leaves a separating
    set of G without it; the cone's cliques are G's, with or without the
    apex.  So its smallest separating clique and its inclusion-minimal
    separating sets are G's with the apex added, in the same order.  A disjoint
    union of two nonempty graphs is disconnected: witness () and supports
    [()].  Checked on 200 seeded graphs of 2 to about 300 vertices, each
    under the separator cap."""
    rng = random.Random(1326)
    witness_sizes = set()
    previous = Graph(["p"])
    for _ in range(200):
        g = sample_graph(rng)
        witness = min_separating_clique_witness(g)
        witness_sizes.add(None if witness is None else len(witness))
        cone = Graph(g.vertices + ("apex",), g.edges + tuple((v, "apex") for v in g.vertices))
        expect = None if witness is None else witness + ("apex",)
        assert min_separating_clique_witness(cone) == expect, g
        supports = raag.sigma_complement_supports(g)
        assert raag.sigma_complement_supports(cone) == [s + ("apex",) for s in supports], g
        union = Graph(
            g.vertices + tuple("u" + v for v in previous.vertices),
            g.edges + tuple(("u" + a, "u" + b) for a, b in previous.edges),
        )
        assert min_separating_clique_witness(union) == (), g
        assert raag.sigma_complement_supports(union) == [()], g
        previous = g
    assert witness_sizes >= {None, 0, 1, 2, 3, 4, 5}, witness_sizes
