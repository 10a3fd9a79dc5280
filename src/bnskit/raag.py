"""Sigma invariants and splitting certificates for right-angled Artin groups.

The group of a graph has one vertex generator per vertex, with commuting
relations along edges.  Membership of a character in the invariant is read
off the living subgraph (the vertices where the character is nonzero): the
character is inside exactly when that subgraph is connected and dominating.
The zero character counts as outside.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .errors import InputError, PreconditionError, _lazy, _quote, require_int
from .graphs import (
    Graph,
    _components,
    _separating_sets,
    is_clique,
    min_separating_clique_witness,
)
from .records import Record

# run only by vertex_basis, _commuting_vectors and kill_and_test, so the
# commands that read a graph alone do not compile them
characters = _lazy(".characters")
words = _lazy(".words")

IN = "in"
OUT = "out"

ZERO_CHARACTER = "zero-character"
LIVING_DISCONNECTED = "living-disconnected"
NOT_DOMINATING = "not-dominating"


class RaagSigmaVerdict(Record):
    """Membership verdict; reason and offending vertices only when outside."""

    __slots__ = ("status", "reason", "offending")

    @property
    def inside(self) -> bool:
        return self.status == IN


def vertex_basis(g: Graph) -> characters.GeneratorBasis:
    return characters.GeneratorBasis(g.vertices)


def _check_character(g: Graph, c: characters.Character) -> None:
    if c.basis.names != g.vertices:
        raise InputError("character basis must be the graph's vertex tuple")


def sigma_membership(g: Graph, c: characters.Character) -> RaagSigmaVerdict:
    """Decide membership via the living subgraph, connectivity first.

    >>> from .characters import make_character
    >>> g = Graph("abc", [("a", "b"), ("b", "c")])
    >>> sigma_membership(g, make_character(vertex_basis(g), {"a": 1, "c": 1}))
    RaagSigmaVerdict(status='out', reason='living-disconnected', offending=('a', 'c'))
    """
    _check_character(g, c)
    living = 0
    for i, x in enumerate(c.values):
        if x:
            living |= 1 << i
    if not living:
        return RaagSigmaVerdict(OUT, ZERO_CHARACTER, g.vertices)
    adj = g._masks
    if next(_components(adj, living))[0] != living:
        return RaagSigmaVerdict(OUT, LIVING_DISCONNECTED, g._names(living))
    undominated = tuple(
        [v for i, v in enumerate(g.vertices) if not (living >> i & 1 or adj[i] & living)]
    )
    if undominated:
        return RaagSigmaVerdict(OUT, NOT_DOMINATING, undominated)
    return RaagSigmaVerdict(IN, None, None)


def sigma_complement_supports(g: Graph) -> list[tuple[str, ...]]:
    """Inclusion-minimal vertex sets forcing every vanishing character outside.

    A set W qualifies when every character that dies on all of W (and maybe
    more) lies outside the invariant; badness is monotone under enlarging W,
    so the minimal sets determine all of them.  Proper subsets of the vertex
    set only; results sorted by size then vertex order.

    These are the inclusion-minimal separating sets (Meier-VanWyk 1995).  W
    is bad exactly when no component of G - W dominates G: a connected,
    dominating living set outside W lies in one component, which then
    dominates too, and a dominating component is such a living set.  If
    G - W has two or more components, none dominates, since no vertex of one
    has a neighbour in another; so every separating set is bad.  If G - W is
    connected and W is bad, some w in W has all its neighbours in W; then
    N(w), a proper subset of W, separates w from the nonempty rest, and W is
    not minimal.  So the minimal bad sets are the minimal separating ones.
    A disconnected graph gives [()].

    >>> g = Graph("abc", [("a", "b"), ("b", "c")])
    >>> sigma_complement_supports(g)
    [('b',)]
    """
    return [g._names(s) for s in _separating_sets(g)]


def _commuting_vectors(
    g: Graph, basis: characters.GeneratorBasis, gens: Sequence[words.Word]
) -> list[tuple[int, ...]]:
    """The abelianized generator words over basis, g's vertex basis, once
    they are checked to be over g's vertices and to commute pairwise."""
    for w in gens:
        if w.alphabet != g.vertices:
            raise InputError("generator word alphabet must equal the graph's vertices")
    for u, v in combinations(gens, 2):
        if not words.raag_commute(g, u, v):
            raise PreconditionError(f"generator words {_quote(str(u))} and {_quote(str(v))} do not commute")
    return [characters.abelianize(basis, w) for w in gens]


def _split_dead(g: Graph, lattice: characters.SaturatedLattice) -> tuple[tuple[str, ...], list[int]]:
    """Dead vertices, whose unit vectors lie in the lattice because no
    annihilator row holds their column, and the indices of the living ones."""
    living = {j for row in lattice.annihilator for j, _ in row}
    return tuple([v for i, v in enumerate(g.vertices) if i not in living]), sorted(living)


class KillTestResult(Record):
    """Outcome of killing a proper abelian subgroup and testing the sphere."""

    __slots__ = ("lattice", "specialized", "dead", "verdict_plus", "verdict_minus")


def kill_and_test(g: Graph, gens: Sequence[words.Word]) -> KillTestResult:
    """Kill a proper subgroup generated by commuting words, then test both rays.

    The saturation of the abelianized generators is annihilated by the rows
    of `result.lattice.annihilator`, which `raag kill` prints as `killing=`;
    a deterministic generic combination of those rows produces a single
    character whose dead support is exactly the dying vertex clique.
    Both that character and its negative get a membership verdict.
    """
    basis = vertex_basis(g)
    vectors = _commuting_vectors(g, basis, gens)
    lattice = characters.saturate(basis, vectors)
    if lattice.rank == basis.dim:
        raise PreconditionError(
            "generators span the whole abelianization; the subgroup is not proper"
        )
    dead, alive = _split_dead(g, lattice)
    # each living column is nonzero on some annihilator row, so its zero set
    # is a proper subspace of their span
    specialized = characters._first_combination(
        basis, lattice.annihilator, lambda c: all(c.values[i] for i in alive)
    )
    return KillTestResult(
        lattice,
        specialized,
        dead,
        sigma_membership(g, specialized),
        sigma_membership(g, specialized.negated()),
    )


# the largest rank a split report covers: it holds one verdict per rank,
# so an unchecked max_k could exhaust memory
MAX_SPLIT_RANK = 1000

NO_SPLIT = "certified-no-split"
SPLITS = "splits"
NO_CLAIM = "no-claim"


class SplitReport(Record):
    """Splitting behavior over free abelian edge groups of rank 0..max_k."""

    __slots__ = (
        "vertex_count", "edge_count", "is_clique", "max_k", "min_separating_clique", "witness", "verdicts",
        "nf_certified", "note",
    )


CLIQUE_NOTE = (
    "the group is free abelian: it splits over a corank-one subgroup "
    "as an ascending extension, so no non-splitting certificate applies"
)


def virtual_split_report(g: Graph, max_k: int) -> SplitReport:
    """Certificates and witnesses for virtual splittings over Z^k, 0 <= k <= max_k.

    For a clique the report abstains (free abelian groups split trivially).
    Otherwise a smallest separating clique of size m witnesses a splitting
    over Z^m, and for k < m no finite-index subgroup splits over any Z^k;
    if no separating clique exists at all the group is certified to never
    virtually split over a subgroup without non-abelian free subgroups.
    max_k must be an int; one above MAX_SPLIT_RANK is a PreconditionError.
    """
    if require_int(max_k, "max_k") < 0:
        raise InputError("max_k must be nonnegative")
    if max_k > MAX_SPLIT_RANK:
        raise PreconditionError(f"split reports support max_k at most {MAX_SPLIT_RANK}")
    clique = is_clique(g, g.vertices)
    witness = None if clique else min_separating_clique_witness(g)
    m = None if witness is None else len(witness)
    verdicts = tuple(
        NO_CLAIM if clique else NO_SPLIT if m is None or k < m else SPLITS for k in range(max_k + 1)
    )
    return SplitReport(
        len(g.vertices),
        len(g.edges),
        clique,
        max_k,
        m,
        witness,
        verdicts,
        not clique and m is None,
        CLIQUE_NOTE if clique else None,
    )


NOT_COMMENSURABLE = "not-commensurable"
INCONCLUSIVE = "inconclusive"


class CompareResult(Record):
    """Commensurability comparison through the minimal splitting rank."""

    __slots__ = ("clique1", "clique2", "invariant1", "invariant2", "verdict")


def commensurability_compare(g1: Graph, g2: Graph) -> CompareResult:
    """Compare two graph groups by commensurability invariants.

    The minimal separating clique size is a commensurability invariant for
    non-clique graphs; a clique graph group is commensurable to no other
    graph group than its own, so cliques are compared by vertex count.
    """
    clique1 = is_clique(g1, g1.vertices)
    clique2 = is_clique(g2, g2.vertices)
    inv1 = None if clique1 else min_separating_clique_witness(g1)
    inv2 = None if clique2 else min_separating_clique_witness(g2)
    size1 = None if inv1 is None else len(inv1)
    size2 = None if inv2 is None else len(inv2)
    if clique1 and clique2:
        verdict = (
            INCONCLUSIVE if len(g1.vertices) == len(g2.vertices) else NOT_COMMENSURABLE
        )
    elif clique1 != clique2:
        verdict = NOT_COMMENSURABLE
    elif size1 != size2:
        verdict = NOT_COMMENSURABLE
    else:
        verdict = INCONCLUSIVE
    return CompareResult(clique1, clique2, size1, size2, verdict)
