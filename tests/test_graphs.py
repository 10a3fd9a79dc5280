import random

import pytest

from bnskit import Graph, InputError
from bnskit.graphs import (
    induced_subgraph,
    is_clique,
    is_connected,
    is_separating,
    min_separating_clique_witness,
    out_finiteness_predicates,
)

from .oracles import (
    adjacency_masks,
    brute_min_separating_clique,
    mask_connected,
)


def graph_from_indices(n, edges):
    names = [f"v{i}" for i in range(n)]
    return Graph(names, [(names[i], names[j]) for i, j in edges])


P3 = Graph("abc", [("a", "b"), ("b", "c")])
C4 = Graph("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])
C5 = graph_from_indices(5, [(i, (i + 1) % 5) for i in range(5)])
K3 = Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
STAR = Graph("cxyz", [("c", "x"), ("c", "y"), ("c", "z")])
BOWTIE = graph_from_indices(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
DIAMOND = graph_from_indices(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
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


def test_min_separating_clique_goldens():
    assert min_separating_clique_witness(P3) == ("b",)
    assert min_separating_clique_witness(C4) is None
    assert min_separating_clique_witness(C5) is None
    assert min_separating_clique_witness(BOWTIE) == ("v2",)
    assert min_separating_clique_witness(DIAMOND) == ("v1", "v2")
    assert min_separating_clique_witness(TWO_PARTS) == ()
    assert min_separating_clique_witness(K3) is None


def test_min_separating_clique_witness_is_separating_clique():
    for g in (P3, C4, C5, BOWTIE, DIAMOND, TWO_PARTS, K3, STAR):
        w = min_separating_clique_witness(g)
        if w is not None:
            assert is_clique(g, w)
            assert is_separating(g, w)


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
        masks = adjacency_masks(n, edges)
        assert is_connected(g) == mask_connected(n, masks, (1 << n) - 1)
        # induced subgraphs too, built directly
        subset = rng.randrange(1, 1 << n)
        keep = [f"v{i}" for i in range(n) if subset >> i & 1]
        kept = [(f"v{i}", f"v{j}") for i, j in edges if subset >> i & 1 and subset >> j & 1]
        assert is_connected(Graph(keep, kept)) == mask_connected(n, masks, subset)


def test_min_separating_clique_against_brute_force():
    rng = random.Random(219)
    for _ in range(150):
        n = rng.randrange(1, 7)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.random() < 0.45]
        witness = min_separating_clique_witness(graph_from_indices(n, edges))
        assert (None if witness is None else len(witness)) == brute_min_separating_clique(
            n, adjacency_masks(n, edges)
        )
