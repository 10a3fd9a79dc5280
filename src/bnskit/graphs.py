"""Finite simple graphs with a fixed vertex order.

Vertex labels are opaque strings; all determinism (clique enumeration,
tie-breaking, reported witnesses) comes from the declared vertex order, never
from label semantics.  Conventions that the rest of the package relies on:

* the empty graph is not connected;
* removing all vertices is not separating (separation needs a disconnected,
  hence nonempty, remainder);
* for a disconnected graph the empty set is already separating, so
  min_separating_clique == 0 exactly for disconnected graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional

from .errors import InputError


class Graph:
    """A finite simple graph.

    >>> g = Graph("abc", [("a", "b"), ("b", "c")])
    >>> g.neighbors("b")
    ('a', 'c')
    >>> is_connected(g)
    True
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex label")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        adjacency: dict[str, set[str]] = {v: set() for v in self.vertices}
        seen: set[frozenset[str]] = set()
        for a, b in edges:
            if a not in self._index or b not in self._index:
                raise InputError(f"edge endpoint {a!r}-{b!r} is not a listed vertex")
            if a == b:
                raise InputError(f"self-loop at {a!r}")
            key = frozenset((a, b))
            if key in seen:
                raise InputError(f"duplicate edge {a!r}-{b!r}")
            seen.add(key)
            adjacency[a].add(b)
            adjacency[b].add(a)
        self._adjacency = {v: frozenset(nbrs) for v, nbrs in adjacency.items()}
        self.edges = tuple(
            [(a, b) for a, b in combinations(self.vertices, 2) if b in self._adjacency[a]]
        )

    @cached_property
    def _nonadjacency(self) -> tuple[int, ...]:
        # bit i of entry j: vertex i is neither vertex j nor adjacent to it
        return tuple(
            [
                sum(
                    1 << i
                    for i, vi in enumerate(self.vertices)
                    if i != j and vi not in self._adjacency[vj]
                )
                for j, vj in enumerate(self.vertices)
            ]
        )

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def neighbors(self, v: str) -> tuple[str, ...]:
        self.index(v)
        return self.sort_vertices(self._adjacency[v])

    def adjacent(self, a: str, b: str) -> bool:
        self.index(b)
        return b in self._adjacency[a]

    def sort_vertices(self, s: Iterable[str]) -> tuple[str, ...]:
        """Canonical form of a vertex set: sorted by vertex order, no repeats."""
        out = sorted(set(s), key=self.index)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.vertices!r}, {self.edges!r})"


@dataclass(frozen=True)
class OutFinitenessReport:
    """Witnesses against finiteness of the outer automorphism group.

    separating_closed_star: first vertex whose closed star separates, if any.
    link_in_star: first pair (v, w), v != w, with lk(v) contained in st(w).
    Both absent together is the finiteness criterion.
    """

    separating_closed_star: Optional[str]
    link_in_star: Optional[tuple[str, str]]

    @property
    def finite(self) -> bool:
        return self.separating_closed_star is None and self.link_in_star is None


def induced_subgraph(g: Graph, s: Iterable[str]) -> Graph:
    keep = g.sort_vertices(s)
    kept = set(keep)
    return Graph(keep, ((a, b) for a, b in g.edges if a in kept and b in kept))


def is_connected(g: Graph) -> bool:
    """Breadth-first connectivity; the empty graph counts as not connected."""
    if not g.vertices:
        return False
    seen = {g.vertices[0]}
    frontier = [g.vertices[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g._adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == len(g.vertices)


def is_dominating(g: Graph, s: Iterable[str]) -> bool:
    """True iff every vertex outside s has a neighbor in s."""
    inside = set(g.sort_vertices(s))
    return all(
        v in inside or g._adjacency[v] & inside for v in g.vertices
    )


def is_clique(g: Graph, s: Iterable[str]) -> bool:
    """Empty sets and singletons are cliques."""
    vs = g.sort_vertices(s)
    return all(g.adjacent(a, b) for a, b in combinations(vs, 2))


def connected_components(g: Graph) -> list[tuple[str, ...]]:
    seen: set[str] = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for x in frontier:
                for w in g._adjacency[x]:
                    if w not in comp:
                        comp.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= comp
        comps.append(g.sort_vertices(comp))
    return comps


def is_separating(g: Graph, s: Iterable[str]) -> bool:
    """True iff removing s leaves a disconnected remainder.

    The remainder must be nonempty and have at least two components; in
    particular removing everything never separates, while for a disconnected
    graph the empty set already does.

    >>> p3 = Graph("abc", [("a", "b"), ("b", "c")])
    >>> is_separating(p3, ["b"])
    True
    >>> is_separating(p3, ["a"])
    False
    """
    removed = set(g.sort_vertices(s))
    rest = [v for v in g.vertices if v not in removed]
    if not rest:
        return False
    h = induced_subgraph(g, rest)
    return len(connected_components(h)) >= 2


def iter_cliques(g: Graph):
    """All cliques in order of increasing size, lexicographic within a size."""
    for k in range(len(g.vertices) + 1):
        for combo in combinations(g.vertices, k):
            if is_clique(g, combo):
                yield combo


def min_separating_clique_witness(g: Graph) -> Optional[tuple[str, ...]]:
    """First separating clique in (size, lex) enumeration order, if any."""
    for clique in iter_cliques(g):
        if is_separating(g, clique):
            return clique
    return None


def min_separating_clique(g: Graph) -> Optional[int]:
    """Size of the smallest separating clique; None when no clique separates.

    >>> min_separating_clique(Graph("abc", [("a", "b"), ("b", "c")]))
    1
    >>> min_separating_clique(Graph("abcd", [("a","b"),("b","c"),("c","d"),("d","a")])) is None
    True
    """
    witness = min_separating_clique_witness(g)
    return None if witness is None else len(witness)


def closed_star(g: Graph, v: str) -> tuple[str, ...]:
    return g.sort_vertices((v,) + g.neighbors(v))


def out_finiteness_predicates(g: Graph) -> OutFinitenessReport:
    """Scan for separating closed stars and for links inside other stars.

    The first vertex (in vertex order) with separating closed star and the
    first pair (v, w) with lk(v) a subset of st(w) are reported; a graph with
    neither has finite outer automorphism group.
    """
    star_witness = None
    for v in g.vertices:
        if is_separating(g, closed_star(g, v)):
            star_witness = v
            break
    pair_witness = None
    for v in g.vertices:
        link = g._adjacency[v]
        for w in g.vertices:
            if w == v:
                continue
            if link <= g._adjacency[w] | {w}:
                pair_witness = (v, w)
                break
        if pair_witness:
            break
    return OutFinitenessReport(star_witness, pair_witness)
