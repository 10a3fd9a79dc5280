"""Rational characters on a finitely generated group, exactly.

A character is a rational-valued linear functional on the abelianization,
recorded by its values on an ordered generator basis.  Everything here is
exact integer / Fraction arithmetic: no floating point is used anywhere in
the package, so equality tests against zero are trustworthy.

The integer lattice routines (Hermite form, kernels, saturation) are small
and self-contained; arbitrary-precision ints make them safe at the sizes
this package works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DomainError, InputError
from .words import Word

Row = tuple[int, ...]


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered generator names for the group being studied."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise InputError("a generator basis needs at least one name")
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate generator name in basis")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown generator {name!r}") from None


@dataclass(frozen=True)
class Character:
    """A rational character, stored by its value on each basis generator."""

    basis: GeneratorBasis
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.basis.dim:
            raise InputError("character length does not match basis dimension")
        object.__setattr__(
            self, "values", tuple([Fraction(v) for v in self.values])
        )

    def __call__(self, name: str) -> Fraction:
        return self.values[self.basis.index(name)]

    def is_zero(self) -> bool:
        return not any(self.values)

    def scaled(self, q: Fraction | int) -> "Character":
        q = Fraction(q)
        return Character(self.basis, tuple([v * q for v in self.values]))

    def negated(self) -> "Character":
        return self.scaled(-1)

    def pair(self, vec: Sequence[int]) -> Fraction:
        """Value of the character on a group element given by exponent vector."""
        if len(vec) != self.basis.dim:
            raise InputError("vector length does not match basis dimension")
        return sum((v * x for v, x in zip(self.values, vec)), Fraction(0))


def make_character(
    basis: GeneratorBasis, assignments: dict[str, Fraction | int]
) -> Character:
    """Build a character from a sparse name -> value mapping.

    Values must be exact: a float or a bool is rejected, not converted.
    """
    values = [Fraction(0)] * basis.dim
    for name, value in assignments.items():
        if isinstance(value, (bool, float)):
            raise InputError(f"value of {name!r} must be exact, got {type(value).__name__}")
        values[basis.index(name)] = Fraction(value)
    return Character(basis, tuple(values))


def dead_support(c: Character) -> tuple[str, ...]:
    """Generators on which the character vanishes, in basis order."""
    return tuple([n for n, v in zip(c.basis.names, c.values) if v == 0])


def live_support(c: Character) -> tuple[str, ...]:
    return tuple([n for n, v in zip(c.basis.names, c.values) if v != 0])


def abelianize(basis: GeneratorBasis, w: Word) -> Row:
    """Exponent-sum vector of a word, in basis order."""
    if w.alphabet != basis.names:
        raise InputError("word alphabet must equal the basis names")
    out = [0] * basis.dim
    index = {n: i for i, n in enumerate(basis.names)}
    for g, s in w.letters:
        out[index[g]] += s
    return tuple(out)


# ---------------------------------------------------------------------------
# integer lattice arithmetic


def _echelon(rows: list[list[int]], pivot_cols: int) -> tuple[list[list[int]], int]:
    """Bring rows to echelon form over the first pivot_cols columns.

    Only unimodular row operations are used (swap, negate, add an integer
    multiple), so the row lattice of the full matrix is preserved.
    """
    mat = [row[:] for row in rows]
    m = len(mat)
    rank = 0
    for col in range(pivot_cols):
        while True:
            nz = [i for i in range(rank, m) if mat[i][col]]
            if not nz:
                break
            pick = min(nz, key=lambda i: (abs(mat[i][col]), i))
            if pick != rank:
                mat[rank], mat[pick] = mat[pick], mat[rank]
            pivot = mat[rank][col]
            clean = True
            for i in range(rank + 1, m):
                if mat[i][col]:
                    q = mat[i][col] // pivot
                    if q:
                        mat[i] = [a - q * b for a, b in zip(mat[i], mat[rank])]
                    if mat[i][col]:
                        clean = False
            if clean:
                break
        if rank < m and mat[rank][col]:
            rank += 1
    return mat, rank


def _pivot_col(row: Sequence[int]) -> int:
    for j, a in enumerate(row):
        if a:
            return j
    raise ValueError("zero row has no pivot")


def hermite_form(rows: Iterable[Sequence[int]], dim: int) -> tuple[Row, ...]:
    """Canonical row Hermite form: positive pivots, entries above reduced."""
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != dim:
            raise InputError("row length does not match dimension")
    mat, rank = _echelon(rows, dim)
    mat = mat[:rank]
    for i, row in enumerate(mat):
        if row[_pivot_col(row)] < 0:
            mat[i] = [-a for a in row]
    # left-to-right: reducing with row i only disturbs columns right of its
    # pivot, which later iterations re-reduce
    for i in range(rank):
        col = _pivot_col(mat[i])
        pivot = mat[i][col]
        for k in range(i):
            q = mat[k][col] // pivot
            if q:
                mat[k] = [a - q * b for a, b in zip(mat[k], mat[i])]
    return tuple(tuple(row) for row in mat)


def integer_kernel(rows: Iterable[Sequence[int]], dim: int) -> tuple[Row, ...]:
    """Hermite basis of all integer vectors orthogonal to every given row.

    Such a kernel lattice is automatically saturated.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    aug = []
    for j in range(dim):
        aug.append([rows[k][j] for k in range(m)] + [1 if t == j else 0 for t in range(dim)])
    mat, _ = _echelon(aug, m)
    kernel = [row[m:] for row in mat if not any(row[:m])]
    return hermite_form(kernel, dim)


def integer_rank(rows: Iterable[Sequence[int]], dim: int) -> int:
    return len(hermite_form(rows, dim))


def span_contains(rows: Sequence[Sequence[int]], vec: Sequence[int], dim: int) -> bool:
    """Is vec inside the rational span of the rows?"""
    base = integer_rank(rows, dim)
    return integer_rank(list(rows) + [list(vec)], dim) == base


@dataclass(frozen=True)
class SaturatedLattice:
    """A saturated sublattice of Z^dim, stored by its Hermite basis rows."""

    basis: GeneratorBasis
    rows: tuple[Row, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, vec: Sequence[int]) -> bool:
        """Integer membership; equals rational-span membership by saturation."""
        if len(vec) != self.basis.dim:
            raise InputError("vector length does not match basis dimension")
        v = list(vec)
        for row in self.rows:
            col = _pivot_col(row)
            if v[col] % row[col]:
                return False
            q = v[col] // row[col]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return not any(v)


def saturate(basis: GeneratorBasis, vectors: Iterable[Sequence[int]]) -> SaturatedLattice:
    """Smallest saturated lattice containing the vectors.

    Equals (rational span of the vectors) intersected with the integer
    lattice; computed as the kernel of the kernel, both of which are exact.
    """
    vectors = [list(v) for v in vectors]
    for v in vectors:
        if len(v) != basis.dim:
            raise InputError("vector length does not match basis dimension")
        for a in v:
            if not isinstance(a, int) or isinstance(a, bool):
                raise InputError("saturate expects integer vectors")
    orthogonal = integer_kernel(vectors, basis.dim)
    return SaturatedLattice(basis, integer_kernel(orthogonal, basis.dim))


@dataclass(frozen=True)
class VectorCharacter:
    """Linearly independent characters treated as one vector-valued map."""

    basis: GeneratorBasis
    rows: tuple[Character, ...]

    def __post_init__(self):
        for row in self.rows:
            if row.basis != self.basis:
                raise InputError("vector character row over the wrong basis")


def kill_character(lattice: SaturatedLattice) -> VectorCharacter:
    """Characters whose common kernel is exactly the span of the lattice.

    Returns dim - rank rows: the Hermite basis of the integer annihilator.
    Every generator vector inside the lattice dies under all rows; every
    vector outside survives at least one row.
    """
    basis = lattice.basis
    rows = integer_kernel(lattice.rows, basis.dim)
    chars = tuple(
        [Character(basis, tuple([Fraction(a) for a in row])) for row in rows]
    )
    return VectorCharacter(basis, chars)


def canonical_class(c: Character) -> Character:
    """Primitive integer representative of the positive ray of c.

    Only positive scaling is allowed: a character and its negative represent
    different points of the character sphere.
    """
    if c.is_zero():
        raise DomainError("the zero character has no canonical ray representative")
    denom = lcm(*(v.denominator for v in c.values))
    ints = [int(v * denom) for v in c.values]
    g = gcd(*ints)
    return Character(c.basis, tuple([Fraction(a // g) for a in ints]))


@dataclass(frozen=True)
class GenericPoint:
    """Outcome of the deterministic generic point search.

    point is None exactly when the whole subspace is inside one of the bad
    subspaces, in which case covering says which one.
    """

    point: Optional[Character]
    covering: Optional[int]


EquationSystem = Sequence[Sequence[Fraction | int]]


def _integer_basis(
    basis: GeneratorBasis, spanning: Sequence[Character | Sequence[Fraction | int]]
) -> tuple[Row, ...]:
    cleared = []
    for row in spanning:
        if isinstance(row, Character):
            if row.basis != basis:
                raise InputError("spanning character over the wrong basis")
            values = row.values
        else:
            values = tuple([Fraction(x) for x in row])
            if len(values) != basis.dim:
                raise InputError("spanning vector length does not match basis dimension")
        denom = lcm(1, *(v.denominator for v in values))
        cleared.append([int(v * denom) for v in values])
    return hermite_form(cleared, basis.dim)


def generic_point_avoiding(
    basis: GeneratorBasis,
    spanning: Sequence[Character | Sequence[Fraction | int]],
    bad: Sequence[EquationSystem],
) -> GenericPoint:
    """Deterministic point of a subspace avoiding finitely many bad subspaces.

    The subspace U is given by spanning rows (characters or plain rational
    vectors), each bad subspace by the rational equations cutting it out.  If U sits inside some bad subspace
    the search is hopeless and that index is reported instead.  Otherwise
    candidates sum the canonical U-basis with coefficients (1, t, t^2, ...)
    for t = 0, 1, 2, ... and the first candidate off every bad subspace is
    returned; a Vandermonde argument makes termination certain.
    """
    u_rows = _integer_basis(basis, spanning)
    k = len(u_rows)

    def satisfies(vec: Sequence[Fraction | int], equations: EquationSystem) -> bool:
        return all(
            not sum((Fraction(e) * x for e, x in zip(eq, vec)), Fraction(0))
            for eq in equations
        )

    for index, equations in enumerate(bad):
        for eq in equations:
            if len(eq) != basis.dim:
                raise InputError("equation length does not match basis dimension")
        if all(satisfies(row, equations) for row in u_rows):
            return GenericPoint(None, index)

    if k == 0:
        return GenericPoint(Character(basis, tuple(Fraction(0) for _ in range(basis.dim))), None)

    t = 0
    while True:
        coeffs = [t**i for i in range(k)]
        candidate = [
            sum(c * row[j] for c, row in zip(coeffs, u_rows))
            for j in range(basis.dim)
        ]
        if not any(satisfies(candidate, eqs) for eqs in bad):
            return GenericPoint(
                Character(basis, tuple([Fraction(a) for a in candidate])), None
            )
        t += 1
