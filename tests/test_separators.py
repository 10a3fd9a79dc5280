"""Separating cliques and complement supports against subset-scan oracles."""

import random

from bnskit import Graph, raag
from bnskit.graphs import min_separating_clique_witness

from .oracles import (
    adjacency_masks,
    all_labeled_graphs,
    brute_complement_supports,
    brute_min_separating_clique_witness,
)


def named(n, edges):
    # labels out of step with the vertex order, so only the order can decide ties
    names = [f"v{(5 * i + 3) % 11}" for i in range(n)]
    return names, Graph(names, [(names[i], names[j]) for i, j in edges])


def check_against_oracles(n, edges, masks):
    names, g = named(n, edges)
    witness = brute_min_separating_clique_witness(n, masks)
    expect = None if witness is None else tuple(names[i] for i in witness)
    assert min_separating_clique_witness(g) == expect, edges
    expect = [tuple(names[i] for i in s) for s in brute_complement_supports(n, masks)]
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
        check_against_oracles(n, edges, adjacency_masks(n, edges))


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
