import random

import pytest

from bnskit import Graph, InputError
from bnskit.cli import run
from bnskit.graphs import (
    induced_subgraph,
    is_clique,
    is_connected,
    is_separating,
    out_finiteness_predicates,
)

from .oracles import bench_oracles

ORACLES = bench_oracles()


def graph_from_indices(n, edges):
    names = [f"v{i}" for i in range(n)]
    return Graph(names, [(names[i], names[j]) for i, j in edges])


P3 = Graph("abc", [("a", "b"), ("b", "c")])
C4 = Graph("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
C5 = graph_from_indices(5, [(i, (i + 1) % 5) for i in range(5)])
K3 = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
STAR = Graph("cxyz", [("c", "x"), ("c", "y"), ("c", "z")])
TWO_PARTS = Graph("abcd", [("a", "b"), ("c", "d")])


def test_construction_validation():
    with pytest.raises(InputError):
        Graph("aab")
    with pytest.raises(InputError):
        Graph("ab", [("a", "a")])
    with pytest.raises(InputError):
        Graph("ab", [("a", "q")])
    with pytest.raises(InputError):
        Graph("ab", [("a", "b"), ("b", "a")])
    # an edge that is not a pair is named, not a bare ValueError or TypeError
    for edge in (("a", "b", "c"), ("a",), (), 5, None):
        with pytest.raises(InputError, match="not a pair"):
            Graph(["a", "b"], [edge])


def test_vertex_order_and_lookup():
    g = Graph("cab", [("a", "b")])
    assert g.vertices == ("c", "a", "b")
    assert g.index("a") == 1
    assert g.neighbors("a") == ("b",)
    assert g.adjacent("a", "b") and not g.adjacent("a", "c")
    assert g.sort_vertices({"b", "c"}) == ("c", "b")
    with pytest.raises(InputError):
        g.index("q")


def test_edges_normalized():
    g = Graph("ab", [("b", "a")])
    assert g.edges == (("a", "b"),)
    assert g == Graph("ab", [("a", "b")])


def test_induced_subgraph():
    h = induced_subgraph(P3, ["a", "c"])
    assert h.vertices == ("a", "c") and h.edges == ()
    h2 = induced_subgraph(C4, ["w", "x", "y"])
    assert h2.edges == (("w", "x"), ("x", "y"))


def test_connectivity_conventions():
    assert is_connected(P3)
    assert not is_connected(TWO_PARTS)
    assert not is_connected(Graph(""))  # empty graph is not connected
    assert is_connected(Graph("a"))


def test_clique_predicate():
    assert is_clique(P3, [])
    assert is_clique(P3, ["a", "b"])
    assert not is_clique(P3, ["a", "c"])
    assert is_clique(K3, "abc")


def test_separating_conventions():
    assert is_separating(P3, ["b"])
    assert not is_separating(P3, ["a"])
    # removing everything never separates
    assert not is_separating(P3, "abc")
    # the empty set separates a disconnected graph
    assert is_separating(TWO_PARTS, [])
    assert not is_separating(P3, [])


def test_out_finiteness_star_graph():
    # a leaf's closed star separates the two remaining leaves
    rep = out_finiteness_predicates(STAR)
    assert rep.separating_closed_star == "x"
    assert rep.link_in_star == ("x", "c")
    assert not rep.finite


def test_out_finiteness_goldens():
    rep = out_finiteness_predicates(P3)
    assert rep.separating_closed_star is None
    assert rep.link_in_star == ("a", "b")
    assert not rep.finite
    # C5: no separating closed stars, no nested links
    rep5 = out_finiteness_predicates(C5)
    assert rep5.separating_closed_star is None
    assert rep5.link_in_star is None
    assert rep5.finite
    # K4: star of anything is everything, removal leaves nothing
    k4 = graph_from_indices(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    rep4 = out_finiteness_predicates(k4)
    assert rep4.separating_closed_star is None
    assert rep4.link_in_star == ("v0", "v1")


def test_connectivity_against_union_find():
    rng = random.Random(811)
    for _ in range(300):
        n = rng.randrange(1, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.4]
        g = graph_from_indices(n, edges)
        masks = ORACLES.masks_of(n, edges)
        assert is_connected(g) == ORACLES.connected(masks, (1 << n) - 1)
        # induced subgraphs too, built directly
        subset = rng.randrange(1, 1 << n)
        keep = [f"v{i}" for i in range(n) if subset >> i & 1]
        kept = [(f"v{i}", f"v{j}") for i, j in edges if subset >> i & 1 and subset >> j & 1]
        assert is_connected(Graph(keep, kept)) == ORACLES.connected(masks, subset)


def _porcelain(*argv):
    report = run(["--porcelain", *argv])
    assert report.exit_code == 0, report.porcelain
    return dict(line.split("=", 1) for line in report.porcelain)


def test_vertex_order_leaves_the_invariants_unchanged(tmp_path):
    """Listing a graph file's vertices in another order is the same graph:
    the analysis values and the complement supports stay, and the two
    orders compare as inconclusive with equal invariants."""
    rng = random.Random(1212)
    for k in range(400):
        n = rng.randint(1, 12)
        names = [f"v{i}" for i in range(n)]
        density = rng.random()
        edges = " ".join(f"{a}-{b}" for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < density)
        paths = []
        for order in (names, rng.sample(names, n)):
            paths.append(tmp_path / f"{k}-{len(paths)}.graph")
            paths[-1].write_text(f"vertices: {' '.join(order)}\nedges: {edges}\n")
        analyses = [_porcelain("graph", "analyze", str(path)) for path in paths]
        keys = ("clique", "connected", "min_separating_clique", "finite_out")
        assert [analyses[0][key] for key in keys] == [analyses[1][key] for key in keys]
        supports = [
            {frozenset(support.split(",")) for support in _porcelain("raag", "complement", str(path))["supports"].split()}
            for path in paths
        ]
        assert supports[0] == supports[1]
        compared = _porcelain("raag", "compare", *map(str, paths))
        assert compared["verdict"] == "inconclusive"
        assert (compared["clique1"], compared["invariant1"]) == (compared["clique2"], compared["invariant2"])
