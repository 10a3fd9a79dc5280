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
complementary band, forcing all six values to zero; for loops the inflow
equations on three loops force a character living on two of them to zero.

So a nonzero character lies in at most one dead subspace, the one whose
kept set is T: it lies there when T has the size of a base group and that
base group's equations hold on it.  Two facts follow, and with them the
obstruction pipeline needs no list of dead subspaces:

- Rows span a subspace inside a dead subspace exactly when the strands they
  touch together have the size of a base group and its equations hold on
  every row, since a generic element of the span touches all those strands.
  That subspace is unique.  When no row is nonzero every dead subspace
  holds the span, and the first in `dead_subspaces` order is named.
- A character avoids every dead subspace exactly when `sigma_membership`
  says IN, so each candidate of the generic point search is tested by it.
"""

from __future__ import annotations

from itertools import combinations, compress
from typing import Optional, Sequence

from .characters import Character, GeneratorBasis, Row, make_character
from .errors import DomainError, InputError, PreconditionError, require_int
from .obstruction import ObstructionReport, run_obstruction
from .records import Record
from .words import Word

IN = "in"
OUT = "out"

ZERO = "zero"
PROJECTION = "projection"

# a word as (i, j, sign) moves along the generator of the pair (i, j)
Moves = tuple[tuple[int, int, int], ...]

# the most strands a pair basis is built for: its O(n^2) generators are made
# before any input is read, so an unchecked n could exhaust memory
MAX_STRANDS = 64

# pair bases by (family, n), each built once; a family hashes by identity
_BASES: dict[tuple["ProjectionFamily", int], "PairBasis"] = {}


class BaseGroup(Record):
    """A small group whose dead characters are cut out by linear equations.

    Pairs are relative to a kept set: (a, b) is the generator between its
    a-th and b-th strand.
    """

    __slots__ = (
        "kind", "size", "equations",
        "sample",  # a nonzero dead character
    )


class ProjectionFamily(Record):
    """One family of groups, described by its generators and base groups.

    Two families are equal only when they are the same object.
    """

    __slots__ = (
        "group",
        "unit",  # what one index counts: "strand"
        "letter",  # generator name prefix
        "ordered",  # one generator per ordered pair, or per unordered pair
        "small", "large",
        # words for the exceptional subspace of the large base on all strands
        "exceptional_pair",
        # deleted strand, kept strands -> two dying generators with free images
        "free_pair",
        # a word over the small base group -> its freely reduced image in F2
        "reduce",
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def basis(self, n: int) -> "PairBasis":
        """The generators on n strands, built once per strand count; n must
        be an int, checked before the lookup, since 4.0 would find 4."""
        key = (self, require_int(n, "n"))
        found = _BASES.get(key)
        if found is None:
            found = _BASES[key] = PairBasis(self, n)
        return found

    def _check_basis(self, basis: "PairBasis", c: Character) -> None:
        if c.basis != basis.generators:
            raise InputError(f"character is not over this {self.unit} count's generators")

    def _deletion(self, n: int, kept: Sequence[int]) -> tuple[dict[int, int], "PairBasis"]:
        """Kept strands relabeled 1..m preserving order, and the basis on m strands."""
        kept_t = sorted({require_int(s, f"a kept {self.unit}") for s in kept})
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
        values = [0] * target.dim
        for (i, j), value in zip(basis.pairs, c.values):
            if i in relabel and j in relabel:
                values[target.index(relabel[i], relabel[j])] = value
            elif value:
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
        nonzero = tuple(compress(enumerate(c.values), c.values))
        if not nonzero:
            return ProjectionVerdict(OUT, ZERO, None, None)
        held = basis._dead_holding((nonzero,))
        if held is None:
            return ProjectionVerdict(IN, None, None, None)
        kind, kept = held
        return ProjectionVerdict(OUT, PROJECTION, kept, kind)

    def witness_pair(self, n: int, c: Character) -> WitnessPair:
        """Two kernel words of c whose small-base projections generate freely.

        A projection witness leaves a deleted strand j; `free_pair` names two
        generators at j, which die under c, and their images in the small
        base on j and the least kept strands are free generators.  The
        exceptional subspace on all strands uses `exceptional_pair` instead.
        Needs at least as many strands as the large base and an outside,
        nonzero character.
        """
        if require_int(n, "n") < self.large.size:
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
        """The finite union of subspaces making up the dead set.

        One subspace per kept set of each base size, smaller first, each in
        lex order: generators touching a deleted strand vanish, and the base
        equations hold on the kept strands, relabeled.  The list is built on
        each call; the obstruction pipeline decides covering without it.
        """
        basis = self.basis(n)
        return [
            DeadSubspace(base.kind, kept, basis)
            for base in (self.small, self.large)
            for kept in combinations(range(1, n + 1), base.size)
        ]

    def nf_obstruction_demo(self, n: int, vectors: Sequence[Sequence[int]]) -> ObstructionReport:
        """Either certify a killing character alive on both rays, or exhibit the
        covering dead subspace together with its free-subgroup witness pair."""
        return run_obstruction(self, n, vectors)


class PairBasis:
    """Generator bookkeeping for one family on n strands."""

    def __init__(self, family: ProjectionFamily, n: int):
        if n < family.small.size:
            raise PreconditionError(
                f"{family.group} computations need at least {family.small.size} {family.unit}s"
            )
        if n > MAX_STRANDS:
            raise PreconditionError(
                f"{family.group} computations support at most {MAX_STRANDS} {family.unit}s"
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

    def _dead_holding(self, rows: Sequence[Row]) -> Optional[tuple[str, tuple[int, ...]]]:
        """Kind and kept strands of the dead subspace holding every row, or
        None; unique by the module docstring's lemma, and the first one when
        no row is nonzero."""
        small, large = self.family.small, self.family.large
        touched = set()
        for row in rows:
            for k, _ in row:
                touched.update(self.pairs[k])
            if len(touched) > large.size:
                return None
        kept = tuple(sorted(touched)) or tuple(range(1, small.size + 1))
        for base in (small, large):
            if len(kept) == base.size and all(_equations_hold(self, base, kept, dict(row)) for row in rows):
                return base.kind, kept
        return None

    def covering(self, rows: Sequence[Row]) -> Optional[DeadSubspace]:
        """The dead subspace holding every row, or None."""
        held = self._dead_holding(rows)
        return None if held is None else DeadSubspace(*held, self)

    def index(self, i: int, j: int) -> int:
        try:
            return self._index[(i, j)]
        except KeyError:
            raise InputError(f"no generator {self.family.letter}({i},{j})") from None

    def name(self, i: int, j: int) -> str:
        return self.names[self.index(i, j)]


class DeadSubspace(Record):
    """One dead subspace: the characters vanishing on every generator that
    touches a strand outside kept, whose values on the kept strands satisfy
    the equations of the base group named by kind."""

    __slots__ = ("kind", "kept", "basis")

    @property
    def base(self) -> BaseGroup:
        family = self.basis.family
        return family.small if self.kind == family.small.kind else family.large

    def sample(self) -> Character:
        """The base group's nonzero dead character, moved onto the kept strands."""
        basis, kept = self.basis, self.kept
        return make_character(
            basis.generators,
            {basis.name(kept[a - 1], kept[b - 1]): v for (a, b), v in self.base.sample.items()},
        )


class WitnessPair(Record):
    """Two kernel words that stay free after projecting to designated strands."""

    __slots__ = ("u", "v", "designated")


class ProjectionVerdict(Record):
    """Membership verdict; outside verdicts carry their projection witness."""

    __slots__ = ("status", "witness", "kept", "base")

    @property
    def inside(self) -> bool:
        return self.status == IN


def _equations_hold(basis: PairBasis, base: BaseGroup, kept: tuple[int, ...], row: dict[int, int]) -> bool:
    value = lambda a, b: row.get(basis.index(kept[a - 1], kept[b - 1]), 0)
    return all(
        sum(coefficient * value(a, b) for (a, b), coefficient in equation.items()) == 0
        for equation in base.equations
    )


def _moves_word(basis: PairBasis, moves: Moves) -> Word:
    return Word(basis.names, [(basis.name(i, j), sign) for i, j, sign in moves])
