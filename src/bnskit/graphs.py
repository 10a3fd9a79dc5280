"""Finite simple graphs with a fixed vertex order.

Vertex labels are opaque strings; all determinism (clique enumeration,
tie-breaking, reported witnesses) comes from the declared vertex order, never
from label semantics.  Conventions that the rest of the package relies on:

* the empty graph is not connected;
* removing all vertices is not separating (separation needs a disconnected,
  hence nonempty, remainder);
* for a disconnected graph the empty set is already separating, so the
  smallest separating clique is empty exactly for disconnected graphs.

Two searches answer the separation questions.  The smallest separating
clique, the paper's commensurability invariant, comes from one depth-first
pass in linear time when the graph is disconnected (it is empty) or has a
cut vertex (it is the first one).  Otherwise it is read off the clique
minimal separators that one MCS-M pass finds, in polynomial time.  The
inclusion-minimal separating sets behind `raag complement` come from
listing every minimal separator, and a graph can have exponentially many,
so that list stops past MAX_MINIMAL_SEPARATORS.  The listing's closure
step from a minimal separator S also tells whether S is inclusion-minimal,
with no pass of its own: exactly when no component C of G - (S + N(x)),
x in S, has N(C) inside S (proved at `_separating_sets`).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError, PreconditionError
from .records import Record


class Graph(Record):
    """A finite simple graph.

    >>> g = Graph("abc", [("a", "b"), ("b", "c")])
    >>> g.neighbors("b")
    ('a', 'c')
    >>> is_connected(g)
    True
    """

    __slots__ = ("vertices", "edges", "_index", "_masks", "_nonadjacency")
    _fields = ("vertices", "edges")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex label")
        index = {v: i for i, v in enumerate(vertices)}
        # bit i of masks[j]: vertex i is adjacent to vertex j
        masks = [0] * len(vertices)
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {edge!r} is not a pair of vertices") from None
            if a not in index or b not in index:
                raise InputError(f"edge endpoint {a!r}-{b!r} is not a listed vertex")
            if a == b:
                raise InputError(f"self-loop at {a!r}")
            i, j = index[a], index[b]
            if masks[i] >> j & 1:
                raise InputError(f"duplicate edge {a!r}-{b!r}")
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self._fill(vertices, index, masks)

    @classmethod
    def _checked(cls, vertices: tuple[str, ...], index: dict[str, int], masks: list[int]) -> "Graph":
        """A graph from parts that already passed the constructor's checks:
        distinct vertices, their positions, and symmetric loop-free masks."""
        g = object.__new__(cls)
        g._fill(vertices, index, masks)
        return g

    def _fill(self, vertices: tuple[str, ...], index: dict[str, int], masks: list[int]) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_masks", tuple(masks))
        # bit i of entry j: vertex i is neither vertex j nor adjacent to it
        full = (1 << len(vertices)) - 1
        object.__setattr__(self, "_nonadjacency", tuple([full & ~(m | 1 << j) for j, m in enumerate(masks)]))
        # each edge from the bits of its lower end's mask above that end: the
        # order of all pairs, in time linear in the edges (`_bits` inlined: a
        # list per vertex made this slower than the pair test at 8-16 vertices)
        vs = vertices
        edges = []
        for i, m in enumerate(masks):
            m >>= i + 1
            while m:
                low = m & -m
                edges.append((vs[i], vs[i + low.bit_length()]))
                m ^= low
        object.__setattr__(self, "edges", tuple(edges))

    def _mask(self, s: Iterable[str]) -> int:
        mask = 0
        for v in s:
            mask |= 1 << self.index(v)
        return mask

    def _names(self, mask: int) -> tuple[str, ...]:
        return tuple([self.vertices[i] for i in _bits(mask)])

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._names(self._masks[self.index(v)])

    def adjacent(self, a: str, b: str) -> bool:
        return bool(self._masks[self.index(a)] >> self.index(b) & 1)

    def sort_vertices(self, s: Iterable[str]) -> tuple[str, ...]:
        """Canonical form of a vertex set: sorted by vertex order, no repeats."""
        out = sorted(set(s), key=self.index)
        return tuple(out)


# ---------------------------------------------------------------------------
# bitmask core: a vertex set is an int whose bit i stands for vertex i, and
# adj is a graph's tuple of neighbour masks


def _bits(mask: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _reach(adj: Sequence[int], mask: int) -> int:
    """Union of the neighbour masks of the vertices in mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def _components(adj: Sequence[int], mask: int) -> Iterator[tuple[int, int]]:
    """Connected components of the subgraph induced on mask, in the order of
    their first vertex, as pairs of masks: the component, and the union of
    its vertices' neighbour masks."""
    while mask:
        frontier = mask & -mask
        comp = near = 0
        while frontier:
            comp |= frontier
            mask ^= frontier
            # `_reach` of the frontier, inlined: the separator closure
            # spends most of its time in this loop
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            near |= reach
            frontier = reach & mask
        yield comp, near


def _splits(adj: Sequence[int], mask: int) -> bool:
    """Does the subgraph induced on mask have two or more components?"""
    return len(list(islice(_components(adj, mask), 2))) == 2


def _is_clique(adj: Sequence[int], mask: int) -> bool:
    return all(not mask & ~(adj[i] | 1 << i) for i in _bits(mask))


def _size_then_order(mask: int) -> tuple[int, list[int]]:
    return mask.bit_count(), _bits(mask)


def _first_cut_vertex(adj: Sequence[int]) -> Optional[int]:
    """One depth-first pass (Hopcroft & Tarjan 1973) in O(n + m) mask
    steps: 0 for a disconnected graph, the mask of the first cut vertex in
    vertex order for a connected graph that has one, and None for a
    connected graph with none and for the empty graph.

    The search starts at vertex 0 and keeps its own stack, since a long
    path is deeper than the recursion limit.  number[v] counts the vertices
    found up to v, and low[v] is the least number that the subtree of v
    reaches by one edge.  The neighbours found before v are its ancestors,
    so low[v] starts as the least of their numbers.  A vertex p cuts off
    the subtree of a child v exactly when low[v] >= number[p]; the root
    cuts only when it has two or more children.
    """
    n = len(adj)
    if not n:
        return None
    number, low = [0] * n, [0] * n
    number[0] = low[0] = found = seen = 1
    stack, near = [0], [adj[0]]
    cuts = root_children = 0
    while stack:
        rest = near[-1] & ~seen
        if rest:
            bit = rest & -rest
            seen |= bit
            u = bit.bit_length() - 1
            found += 1
            number[u] = least = found
            back = adj[u] & seen
            # comparisons, not min(): min() made the pass 30% slower on graphs
            # of 8-16 vertices
            while back:
                ancestor = back & -back
                back ^= ancestor
                if number[ancestor.bit_length() - 1] < least:
                    least = number[ancestor.bit_length() - 1]
            low[u] = least
            stack.append(u)
            near.append(adj[u])
        else:
            v = stack.pop()
            near.pop()
            if stack:
                p = stack[-1]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= number[p]:
                    cuts |= 1 << p
                    root_children += not p
    if found < n:
        return 0
    if root_children < 2:
        cuts &= ~1
    return cuts & -cuts or None


def _triangulation_separators(adj: Sequence[int]) -> Iterator[int]:
    """The minimal separators of a minimal triangulation H of the graph,
    from one MCS-M pass (Berry, Blair, Heggernes & Peyton 2004) read as in
    MCS-M+ (Berry, Pogorelcnik & Simonet 2010), n - 1 at most; a set may
    come more than once.

    MCS-M numbers the vertices one by one, each time taking an unnumbered
    vertex of largest label, the first in vertex order on ties.  Numbering
    v raises the label of each unnumbered u that v reaches by a path whose
    inner vertices are unnumbered with labels below u's, and makes uv an
    edge of H.  So madj(v), the H-neighbours numbered before v, is the set
    of vertices that raised v's label, and the label is |madj(v)|.  When the
    chosen vertex's label is not above the previous one's, madj of it is a
    minimal separator of H, and every minimal separator of H comes so.

    The search from v walks the labels upwards.  At threshold j, `reached`
    is v with all it reaches through unnumbered vertices of label below j,
    and the label-j vertices beside it are the ones raised.  A higher
    threshold only lets the walk through more vertices, so `reached` grows
    and is never rebuilt.
    """
    n = len(adj)
    madj = [0] * n
    # by_label[j]: the unnumbered vertices of label j
    by_label = [(1 << n) - 1] + [0] * n
    top, previous = 0, -1
    for _ in range(n):
        while not by_label[top]:
            top -= 1
        v = by_label[top] & -by_label[top]
        by_label[top] ^= v
        i = v.bit_length() - 1
        if top <= previous:
            yield madj[i]
        previous = top
        reached, near, passable, raised = v, adj[i], 0, []
        for j in range(top + 1):
            hit = near & by_label[j]
            passable |= by_label[j]
            frontier = hit
            while frontier:
                reached |= frontier
                near |= _reach(adj, frontier)
                frontier = near & passable & ~reached
            if hit:
                raised.append((j, hit))
        for j, hit in raised:
            by_label[j] ^= hit
            by_label[j + 1] |= hit
            for u in _bits(hit):
                madj[u] |= v
        top += 1


def _minimal_separators(adj: Sequence[int]) -> Iterator[tuple[int, bool]]:
    """Every minimal separator S of a connected graph, once each, paired
    with whether S is an inclusion-minimal separating set.

    A minimal separator is a vertex set S such that G - S has two full
    components, components C with N(C) = S.  Berry, Bordat & Cogis (2000):
    N(C) for each component C of G - N[v] is one, and closing these under
    S -> N(C) for the components C of G - (S + N(x)), x in S, finds them all.
    The step from S also decides its inclusion-minimality, with no pass of
    its own: S is inclusion-minimal exactly when no N(C) of the step lies
    inside S (see `_separating_sets`).
    """
    full = (1 << len(adj)) - 1
    seen = set()
    todo = []

    def add(closed: int, s: int) -> bool:
        """Queue N(C) for each component C of G - closed; False when some
        N(C) lies inside s."""
        none_inside = True
        for comp, near in _components(adj, full & ~closed):
            n_c = near & ~comp
            if not n_c & ~s:
                none_inside = False
            if n_c not in seen:
                seen.add(n_c)
                todo.append(n_c)
        return none_inside

    for v, nbrs in enumerate(adj):
        add(nbrs | 1 << v, 0)
    while todo:
        s = todo.pop()
        # a list, not a generator, so that all() cannot cut the step short
        yield s, all([add(s | adj[x], s) for x in _bits(s)])


# the most minimal separators `_separating_sets` enumerates: a graph can have
# exponentially many (more than 2^k for k disjoint paths of length 3
# between two vertices), so an unchecked list could run for hours
MAX_MINIMAL_SEPARATORS = 4096


def _separating_sets(g: Graph) -> list[int]:
    """The inclusion-minimal separating sets, by size, then vertex order.

    A graph with more than MAX_MINIMAL_SEPARATORS minimal separators is a
    PreconditionError.

    A disconnected graph has only the empty one.  In a connected graph a
    separating set S is inclusion-minimal exactly when every component C of
    G - S is full, N(C) = S.  If some C is not, N(C) is a smaller separating
    set: it cuts C off from the rest, which holds a second component of
    G - S.  If all are, removing any T inside S but missing s in S leaves a
    connected graph, since s and every other vertex of S - T has a neighbour
    in each component.  Such an S has two full components, so it is a
    minimal separator.

    Which minimal separators these are is read off the closure step that
    `_minimal_separators` takes from each.  A minimal separator S is
    inclusion-minimal exactly when, for every x in S, no component C of
    G - (S + N(x)) has N(C) inside S:

    * If such a C exists, it is connected, misses S and has all its
      neighbours in S, so it is a whole component of G - S.  It misses
      N(x), so x is not in N(C), and C is not full.
    * If some component D of G - S is not full, it has no neighbour x in S.
      Then D misses S + N(x) and has all its neighbours in S, so D is a
      component of G - (S + N(x)) with N(D) inside S.

    The step computes N(C) for each of those components anyway, so the
    test costs no component pass.
    """
    adj = g._masks
    full = (1 << len(adj)) - 1
    if _splits(adj, full):
        return [0]
    separators = list(islice(_minimal_separators(adj), MAX_MINIMAL_SEPARATORS + 1))
    if len(separators) > MAX_MINIMAL_SEPARATORS:
        raise PreconditionError(
            f"graph has more than {MAX_MINIMAL_SEPARATORS} minimal separators"
        )
    found = [s for s, least in separators if least]
    found.sort(key=_size_then_order)
    return found


class OutFinitenessReport(Record):
    """Witnesses against finiteness of the outer automorphism group.

    separating_closed_star: first vertex whose closed star separates, if any.
    link_in_star: first pair (v, w), v != w, with lk(v) contained in st(w).
    Both absent together is the finiteness criterion.
    """

    __slots__ = ("separating_closed_star", "link_in_star")

    @property
    def finite(self) -> bool:
        return self.separating_closed_star is None and self.link_in_star is None


def induced_subgraph(g: Graph, s: Iterable[str]) -> Graph:
    keep = g.sort_vertices(s)
    kept = set(keep)
    return Graph(keep, ((a, b) for a, b in g.edges if a in kept and b in kept))


def is_connected(g: Graph) -> bool:
    """The empty graph counts as not connected."""
    full = (1 << len(g.vertices)) - 1
    return bool(full) and next(_components(g._masks, full))[0] == full


def is_clique(g: Graph, s: Iterable[str]) -> bool:
    """Empty sets and singletons are cliques."""
    return _is_clique(g._masks, g._mask(s))


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
    full = (1 << len(g.vertices)) - 1
    return _splits(g._masks, full & ~g._mask(s))


def min_separating_clique_witness(g: Graph) -> Optional[tuple[str, ...]]:
    """First separating clique in (size, vertex order), if any; () for a
    disconnected graph.

    The candidates are the sets `_triangulation_separators` yields that are
    cliques of G, fewer than n of them; the witness is the first candidate
    in that order.  It is the first separating clique:

    * A smallest separating clique K has no separating proper subset, since
      each would be a smaller separating clique.  So K is an
      inclusion-minimal separating set.
    * Such a set is a minimal separator (see `_separating_sets`), and K is a
      clique, so K is a clique minimal separator of G.
    * A clique minimal separator crosses no other minimal separator, so it
      is a minimal separator of every minimal triangulation H of G (Berry,
      Pogorelcnik & Simonet 2010).  So every smallest separating clique is
      a candidate.
    * Every candidate S is a minimal separator of H and a clique of G.  H
      has the vertices of G and more edges, so each component of H - S is a
      union of components of G - S, and S separates G too.  So no candidate
      is smaller than K.

    The candidates of the smallest size are thus exactly the smallest
    separating cliques.

    The pass runs only on a connected graph with no cut vertex; one
    depth-first pass, `_first_cut_vertex`, answers every other graph.  A
    disconnected graph has K = ().  A connected graph is not separated by
    (), and a single vertex is a clique, so the smallest separating cliques
    of a connected graph with a cut vertex are exactly its cut vertices,
    and the first in (size, vertex order) is the cut vertex of least index.

    >>> min_separating_clique_witness(Graph("abc", [("a", "b"), ("b", "c")]))
    ('b',)
    >>> min_separating_clique_witness(Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])) is None
    True
    """
    adj = g._masks
    witness = _first_cut_vertex(adj)
    if witness is None:
        cliques = [s for s in _triangulation_separators(adj) if _is_clique(adj, s)]
        witness = min(cliques, key=_size_then_order) if cliques else None
    return None if witness is None else g._names(witness)


def out_finiteness_predicates(g: Graph) -> OutFinitenessReport:
    """Scan for separating closed stars and for links inside other stars.

    The first vertex (in vertex order) with separating closed star and the
    first pair (v, w) with lk(v) a subset of st(w) are reported; a graph with
    neither has finite outer automorphism group.

    lk(v) lies inside st(w) exactly when w is in st(u) for every u in
    lk(v), since u in st(w) and w in st(u) say the same.  So the w for v
    are the vertices other than v that lie in st(u) for every neighbour u
    of v, one mask intersection per edge; an isolated v has every other
    vertex.  The first pair is the first v that has such a w, with its
    first w.
    """
    adj = g._masks
    vs = g.vertices
    full = (1 << len(adj)) - 1
    star_witness = next(
        (v for i, v in enumerate(vs) if _splits(adj, full & ~(adj[i] | 1 << i))),
        None,
    )
    pair_witness = None
    for i, rest in enumerate(adj):
        within = full & ~(1 << i)
        while rest and within:
            low = rest & -rest
            within &= adj[low.bit_length() - 1] | low
            rest ^= low
        if within:
            pair_witness = vs[i], vs[(within & -within).bit_length() - 1]
            break
    return OutFinitenessReport(star_witness, pair_witness)
