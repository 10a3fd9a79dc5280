"""Sigma invariants and splitting certificates for right-angled Artin groups.

The group of a graph has one vertex generator per vertex, with commuting
relations along edges.  Membership of a character in the invariant is read
off the living subgraph (the vertices where the character is nonzero): the
character is inside exactly when that subgraph is connected and dominating.
The zero character counts as outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .characters import (
    Character,
    GeneratorBasis,
    SaturatedLattice,
    VectorCharacter,
    abelianize,
    generic_point_avoiding,
    kill_character,
    saturate,
)
from .errors import InputError, PreconditionError
from .graphs import (
    Graph,
    induced_subgraph,
    is_clique,
    is_connected,
    min_separating_clique_witness,
)
from .words import Word, raag_commute

IN = "in"
OUT = "out"

ZERO_CHARACTER = "zero-character"
LIVING_DISCONNECTED = "living-disconnected"
NOT_DOMINATING = "not-dominating"


@dataclass(frozen=True)
class RaagSigmaVerdict:
    """Membership verdict; reason and offending vertices only when outside."""

    status: str
    reason: Optional[str] = None
    offending: Optional[tuple[str, ...]] = None

    @property
    def inside(self) -> bool:
        return self.status == IN


def vertex_basis(g: Graph) -> GeneratorBasis:
    return GeneratorBasis(g.vertices)


def _check_character(g: Graph, c: Character) -> None:
    if c.basis.names != g.vertices:
        raise InputError("character basis must be the graph's vertex tuple")


def sigma_membership(g: Graph, c: Character) -> RaagSigmaVerdict:
    """Decide membership via the living subgraph, connectivity first.

    >>> from .characters import make_character
    >>> g = Graph("abc", [("a", "b"), ("b", "c")])
    >>> sigma_membership(g, make_character(vertex_basis(g), {"a": 1, "c": 1}))
    RaagSigmaVerdict(status='out', reason='living-disconnected', offending=('a', 'c'))
    """
    _check_character(g, c)
    living = tuple([v for v, x in zip(g.vertices, c.values) if x != 0])
    if not living:
        return RaagSigmaVerdict(OUT, ZERO_CHARACTER, g.vertices)
    alive = set(living)
    seen = {living[0]}
    frontier = [living[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g._adjacency[v]:
                if w in alive and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    if len(seen) != len(living):
        return RaagSigmaVerdict(OUT, LIVING_DISCONNECTED, living)
    undominated = tuple(
        [v for v in g.vertices if v not in alive and not (g._adjacency[v] & alive)]
    )
    if undominated:
        return RaagSigmaVerdict(OUT, NOT_DOMINATING, undominated)
    return RaagSigmaVerdict(IN)


def _living_alive(g: Graph, living: tuple[str, ...]) -> bool:
    """Is the character with exactly this living set inside the invariant?"""
    if not living:
        return False
    sub = induced_subgraph(g, living)
    if not is_connected(sub):
        return False
    alive = set(living)
    return all(v in alive or g._adjacency[v] & alive for v in g.vertices)


def sigma_complement_supports(g: Graph) -> list[tuple[str, ...]]:
    """Inclusion-minimal vertex sets forcing every vanishing character outside.

    A set W qualifies when every character that dies on all of W (and maybe
    more) lies outside the invariant; badness is monotone under enlarging W,
    so the minimal sets determine all of them.  Proper subsets of the vertex
    set only; results sorted by size then vertex order.

    >>> g = Graph("abc", [("a", "b"), ("b", "c")])
    >>> sigma_complement_supports(g)
    [('b',)]
    """
    verts = g.vertices
    minimal: list[tuple[str, ...]] = []
    for size in range(len(verts)):
        for w in combinations(verts, size):
            wset = set(w)
            if any(set(m) <= wset for m in minimal):
                continue
            rest = [v for v in verts if v not in wset]
            bad = True
            for k in range(1, len(rest) + 1):
                for living in combinations(rest, k):
                    if _living_alive(g, living):
                        bad = False
                        break
                if not bad:
                    break
            if bad:
                minimal.append(w)
    return minimal


def _commuting_vectors(g: Graph, gens: Sequence[Word]) -> list[tuple[int, ...]]:
    basis = vertex_basis(g)
    for w in gens:
        if w.alphabet != g.vertices:
            raise InputError("generator word alphabet must equal the graph's vertices")
    for u, v in combinations(gens, 2):
        if not raag_commute(g, u, v):
            raise PreconditionError(
                f"generator words {str(u)!r} and {str(v)!r} do not commute"
            )
    return [abelianize(basis, w) for w in gens]


def dying_vertices(g: Graph, gens: Sequence[Word]) -> tuple[str, ...]:
    """Vertex generators dying under every character that kills the subgroup.

    Requires the generator words to commute pairwise; the result is then
    always a clique.  A vertex dies exactly when its basis vector lies in the
    rational span of the abelianized generators.
    """
    lattice = saturate(vertex_basis(g), _commuting_vectors(g, gens))
    return _split_dead(g, lattice)[0]


def _unit(dim: int, i: int) -> tuple[int, ...]:
    return tuple([1 if k == i else 0 for k in range(dim)])


def _split_dead(g: Graph, lattice: SaturatedLattice) -> tuple[tuple[str, ...], list[int]]:
    """Dead vertices, whose unit vectors lie in the lattice, and the indices
    of the living ones."""
    dead, alive = [], []
    for i, v in enumerate(g.vertices):
        if lattice.contains(_unit(len(g.vertices), i)):
            dead.append(v)
        else:
            alive.append(i)
    return tuple(dead), alive


@dataclass(frozen=True)
class KillTestResult:
    """Outcome of killing a proper abelian subgroup and testing the sphere."""

    lattice: SaturatedLattice
    killing: VectorCharacter
    specialized: Character
    dead: tuple[str, ...]
    verdict_plus: RaagSigmaVerdict
    verdict_minus: RaagSigmaVerdict


def kill_and_test(g: Graph, gens: Sequence[Word]) -> KillTestResult:
    """Kill a proper subgroup generated by commuting words, then test both rays.

    The saturation of the abelianized generators is annihilated by a vector
    character; a deterministic generic combination of its rows produces a
    single character whose dead support is exactly the dying vertex clique.
    Both that character and its negative get a membership verdict.
    """
    basis = vertex_basis(g)
    vectors = _commuting_vectors(g, gens)
    lattice = saturate(basis, vectors)
    if lattice.rank == basis.dim:
        raise PreconditionError(
            "generators span the whole abelianization; the subgroup is not proper"
        )
    dead, alive = _split_dead(g, lattice)
    killing = kill_character(lattice)
    bad = [(_unit(basis.dim, i),) for i in alive]
    found = generic_point_avoiding(basis, killing.rows, bad)
    assert found.point is not None, "annihilator always escapes the live hyperplanes"
    specialized = found.point
    return KillTestResult(
        lattice,
        killing,
        specialized,
        dead,
        sigma_membership(g, specialized),
        sigma_membership(g, specialized.negated()),
    )


NO_SPLIT = "certified-no-split"
SPLITS = "splits"
NO_CLAIM = "no-claim"


@dataclass(frozen=True)
class SplitReport:
    """Splitting behavior over free abelian edge groups of rank 0..max_k."""

    vertex_count: int
    edge_count: int
    is_clique: bool
    max_k: int
    min_separating_clique: Optional[int]
    witness: Optional[tuple[str, ...]]
    verdicts: tuple[str, ...]
    nf_certified: bool
    note: Optional[str]


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
    """
    if max_k < 0:
        raise InputError("max_k must be nonnegative")
    clique = is_clique(g, g.vertices)
    if clique:
        return SplitReport(
            len(g.vertices),
            len(g.edges),
            True,
            max_k,
            None,
            None,
            tuple(NO_CLAIM for _ in range(max_k + 1)),
            False,
            CLIQUE_NOTE,
        )
    witness = min_separating_clique_witness(g)
    m = None if witness is None else len(witness)
    verdicts = tuple(
        NO_SPLIT if (m is None or k < m) else SPLITS for k in range(max_k + 1)
    )
    return SplitReport(
        len(g.vertices),
        len(g.edges),
        False,
        max_k,
        m,
        witness,
        verdicts,
        m is None,
        None,
    )


NOT_COMMENSURABLE = "not-commensurable"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CompareResult:
    """Commensurability comparison through the minimal splitting rank."""

    clique1: bool
    clique2: bool
    invariant1: Optional[int]
    invariant2: Optional[int]
    verdict: str


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
