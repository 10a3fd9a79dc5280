"""Sigma invariant computations shared by pure braid and pure loop braid groups.

Both families have one generator per pair of strands: unordered bands S(i,j)
for pure braids, ordered moves A(i,j) for pure loop braids, listed
lexicographically.  Deleting strands is a homomorphism onto the group on the
kept strands, and a character is outside the invariant exactly when it is
zero, or when such a deletion projects it onto a dead character of one of two
small base groups.  Each family is one `ProjectionFamily` entry holding its
base groups, their equations, sample dead characters and witness words as
data; the methods here do the rest for both.

Membership has a closed form.  Let T be the set of strands touched by the
nonzero values.  A character projects onto a kept set exactly when T lies
inside it, and the base equations then read the same values whatever the
other kept strands are.  A kept set larger than T never adds a dead
projection: a nonzero braid character on at most two strands is a single
band, whose sum is not zero, and on a 4-strand set with an untouched strand
the exceptional equations pair each band at that strand with its
complementary band, forcing all six values to zero; for loops every
character on two loops is dead already.  So the first dead projection in
(size, lex) order is T itself, when T has the size of a base group and that
base group's equations hold on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Optional, Sequence

from .characters import Character, GeneratorBasis, make_character
from .errors import DomainError, InputError, PreconditionError
from .obstruction import DeadSubspace, ObstructionReport, WitnessPair, run_obstruction
from .words import F2ZElement, Word

IN = "in"
OUT = "out"

ZERO = "zero"
PROJECTION = "projection"

Pair = tuple[int, int]
# a word as (i, j, sign) moves along the generator of the pair (i, j)
Moves = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class BaseGroup:
    """A small group whose dead characters are cut out by linear equations.

    Pairs are relative to a kept set: (a, b) is the generator between its
    a-th and b-th strand.
    """

    kind: str
    size: int
    equations: tuple[Mapping[Pair, int], ...]
    sample: Mapping[Pair, int]  # a nonzero dead character


@dataclass(frozen=True, eq=False)
class ProjectionFamily:
    """One family of groups, described by its generators and base groups."""

    group: str  # "pure braid"
    unit: str  # what one index counts: "strand"
    letter: str  # generator name prefix
    ordered: bool  # one generator per ordered pair, or per unordered pair
    small: BaseGroup
    large: BaseGroup
    # words for the exceptional subspace of the large base on all strands
    exceptional_pair: tuple[Moves, Moves]
    # deleted strand, kept strands -> two dying generators with free images
    free_pair: Callable[[int, tuple[int, ...]], tuple[Pair, Pair]]
    # a word over the small base group -> its image in F2 x Z
    reduce: Callable[[Word], F2ZElement]
    _bases: dict = field(default_factory=dict, init=False, repr=False)

    def basis(self, n: int) -> "PairBasis":
        """The generators on n strands, built once per strand count."""
        found = self._bases.get(n)
        if found is None:
            found = self._bases[n] = PairBasis(self, n)
        return found

    def _check_basis(self, basis: "PairBasis", c: Character) -> None:
        if c.basis != basis.generators:
            raise InputError(f"character is not over this {self.unit} count's generators")

    def _deletion(self, n: int, kept: Sequence[int]) -> tuple[dict[int, int], "PairBasis"]:
        """Kept strands relabeled 1..m preserving order, and the basis on m strands."""
        kept_t = sorted(set(kept))
        if any(i < 1 or i > n for i in kept_t):
            raise InputError(f"kept {self.unit}s must lie in 1..n")
        if len(kept_t) < self.small.size:
            raise InputError(
                f"a {self.group} projection needs at least {self.small.size} kept {self.unit}s"
            )
        return {s: a + 1 for a, s in enumerate(kept_t)}, self.basis(len(kept_t))

    def project_character(self, n: int, kept: Sequence[int], c: Character) -> Optional[Character]:
        """Restriction of c to the group on the kept strands, if it exists.

        Deleting the other strands is a homomorphism; the character factors
        through it exactly when it vanishes on every generator touching a
        deleted strand.  Kept strands are relabeled 1..m preserving order.
        """
        basis = self.basis(n)
        self._check_basis(basis, c)
        relabel, target = self._deletion(n, kept)
        values = [Fraction(0)] * target.dim
        for (i, j), value in zip(basis.pairs, c.values):
            if i in relabel and j in relabel:
                values[target.index(relabel[i], relabel[j])] = value
            elif value != 0:
                return None
        return Character(target.generators, tuple(values))

    def project_word(self, n: int, kept: Sequence[int], w: Word) -> Word:
        """Delete strands from a word: generators touching a deleted strand vanish."""
        basis = self.basis(n)
        if w.alphabet != basis.names:
            raise InputError(f"word alphabet is not over this {self.unit} count's generators")
        relabel, target = self._deletion(n, kept)
        letters = []
        for name, sign in w.letters:
            i, j = basis.pair_of[name]
            if i in relabel and j in relabel:
                letters.append((target.name(relabel[i], relabel[j]), sign))
        return Word(target.names, letters)

    def sigma_membership(self, n: int, c: Character) -> "ProjectionVerdict":
        """First dead projection in (size, lex) order, in closed form."""
        basis = self.basis(n)
        self._check_basis(basis, c)
        touched = set()
        for pair, value in zip(basis.pairs, c.values):
            if value != 0:
                touched.update(pair)
        if not touched:
            return ProjectionVerdict(OUT, ZERO)
        kept = tuple(sorted(touched))
        for base in (self.small, self.large):
            if len(kept) == base.size and _equations_hold(basis, base, kept, c):
                return ProjectionVerdict(OUT, PROJECTION, kept, base.kind)
        return ProjectionVerdict(IN)

    def witness_pair(self, n: int, c: Character) -> WitnessPair:
        """Two kernel words of c whose small-base projections generate freely.

        A projection witness leaves a deleted strand j; `free_pair` names two
        generators at j, which die under c, and their images in the small
        base on j and the least kept strands are free generators.  The
        exceptional subspace on all strands uses `exceptional_pair` instead.
        Needs at least as many strands as the large base and an outside,
        nonzero character.
        """
        if n < self.large.size:
            raise PreconditionError(f"witness pairs need at least {self.large.size} {self.unit}s")
        verdict = self.sigma_membership(n, c)
        if verdict.inside:
            raise DomainError("the character is inside the invariant; no witness exists")
        if verdict.witness == ZERO:
            raise DomainError("the zero character does not admit a witness pair")
        basis = self.basis(n)
        kept = verdict.kept
        if len(kept) == n:
            u, v = (_moves_word(basis, moves) for moves in self.exceptional_pair)
            return WitnessPair(u, v, tuple(range(1, self.small.size + 1)))
        j = next(s for s in range(1, n + 1) if s not in kept)
        p, q = self.free_pair(j, kept)
        u, v = (_moves_word(basis, ((*pair, 1),)) for pair in (p, q))
        return WitnessPair(u, v, tuple(sorted({*p, *q})))

    def dead_subspaces(self, n: int) -> list[DeadSubspace]:
        """The finite union of subspaces making up the dead set, as equations.

        One subspace per kept set of each base size, smaller first, each in
        lex order: generators touching a deleted strand vanish, and the base
        equations hold on the kept strands, relabeled.
        """
        basis = self.basis(n)
        out = []
        for base in (self.small, self.large):
            for kept in combinations(range(1, n + 1), base.size):
                eqs = []
                for k, (i, j) in enumerate(basis.pairs):
                    if i not in kept or j not in kept:
                        row = [0] * basis.dim
                        row[k] = 1
                        eqs.append(tuple(row))
                for equation in base.equations:
                    row = [0] * basis.dim
                    for (a, b), coefficient in equation.items():
                        row[basis.index(kept[a - 1], kept[b - 1])] = coefficient
                    eqs.append(tuple(row))
                out.append(DeadSubspace(base.kind, kept, tuple(eqs)))
        return out

    def _sample_dead_character(self, n: int, sub: DeadSubspace) -> Character:
        basis = self.basis(n)
        base = self.small if sub.kind == self.small.kind else self.large
        kept = sub.kept
        return make_character(
            basis.generators,
            {basis.name(kept[a - 1], kept[b - 1]): v for (a, b), v in base.sample.items()},
        )

    def nf_obstruction_demo(self, n: int, vectors: Sequence[Sequence[int]]) -> ObstructionReport:
        """Either certify a killing character alive on both rays, or exhibit the
        covering dead subspace together with its free-subgroup witness pair."""
        if n < self.large.size:
            raise PreconditionError(
                f"the obstruction demonstration needs at least {self.large.size} {self.unit}s"
            )
        return run_obstruction(
            self.basis(n).generators,
            vectors,
            self.dead_subspaces(n),
            lambda sub: self._sample_dead_character(n, sub),
            lambda c: self.sigma_membership(n, c),
            lambda c: self.witness_pair(n, c),
        )


class PairBasis:
    """Generator bookkeeping for one family on n strands."""

    def __init__(self, family: ProjectionFamily, n: int):
        if n < family.small.size:
            raise PreconditionError(
                f"{family.group} computations need at least {family.small.size} {family.unit}s"
            )
        self.family = family
        self.n = n
        strands = range(1, n + 1)
        self.pairs = tuple(
            (i, j) for i in strands for j in strands if i < j or (family.ordered and i != j)
        )
        self.names = tuple(f"{family.letter}({i},{j})" for i, j in self.pairs)
        self.generators = GeneratorBasis(self.names)
        self.pair_of = dict(zip(self.names, self.pairs))
        self._index = {pair: k for k, pair in enumerate(self.pairs)}
        if not family.ordered:
            self._index.update({(j, i): k for k, (i, j) in enumerate(self.pairs)})

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def index(self, i: int, j: int) -> int:
        try:
            return self._index[(i, j)]
        except KeyError:
            raise InputError(f"no generator {self.family.letter}({i},{j})") from None

    def name(self, i: int, j: int) -> str:
        return self.names[self.index(i, j)]


@dataclass(frozen=True)
class ProjectionVerdict:
    """Membership verdict; outside verdicts carry their projection witness."""

    status: str
    witness: Optional[str] = None
    kept: Optional[tuple[int, ...]] = None
    base: Optional[str] = None

    @property
    def inside(self) -> bool:
        return self.status == IN


def _equations_hold(basis: PairBasis, base: BaseGroup, kept: tuple[int, ...], c: Character) -> bool:
    value = lambda a, b: c.values[basis.index(kept[a - 1], kept[b - 1])]
    return all(
        sum(coefficient * value(a, b) for (a, b), coefficient in equation.items()) == 0
        for equation in base.equations
    )


def _moves_word(basis: PairBasis, moves: Moves) -> Word:
    return Word(basis.names, [(basis.name(i, j), sign) for i, j, sign in moves])
