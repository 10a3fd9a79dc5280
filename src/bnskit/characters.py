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

from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Callable, Iterable, Sequence

from .errors import InputError
from .records import Record
from .words import Word

Row = tuple[int, ...]


class GeneratorBasis(Record):
    """Ordered generator names for the group being studied."""

    __slots__ = ("names", "_positions")
    _fields = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise InputError("a generator basis needs at least one name")
        positions = {name: i for i, name in enumerate(names)}
        if len(positions) != len(names):
            raise InputError("duplicate generator name in basis")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_positions", positions)

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise InputError(f"unknown generator {name!r}") from None


def _exact(value, what: str = "a character value"):
    """Pass an exact value through; a float or a bool is an InputError."""
    if isinstance(value, (bool, float)):
        raise InputError(f"{what} must be exact, got {type(value).__name__}")
    return value


class Character(Record):
    """A rational character, stored by its value on each basis generator."""

    __slots__ = ("basis", "values")

    def __init__(self, basis: GeneratorBasis, values: Iterable[Fraction | int]):
        # read once, so an iterator works too; a tuple is not copied
        values = tuple(values)
        if len(values) != basis.dim:
            raise InputError("character length does not match basis dimension")
        object.__setattr__(self, "basis", basis)
        # a Fraction is immutable, so one is kept as it is
        object.__setattr__(
            self, "values", tuple([v if type(v) is Fraction else Fraction(_exact(v)) for v in values])
        )

    def __call__(self, name: str) -> Fraction:
        return self.values[self.basis.index(name)]

    def is_zero(self) -> bool:
        return not any(self.values)

    def scaled(self, q: Fraction | int) -> "Character":
        q = Fraction(_exact(q))
        return Character(self.basis, tuple([v * q for v in self.values]))

    def negated(self) -> "Character":
        return Character(self.basis, tuple([-v for v in self.values]))

    def pair(self, vec: Sequence[int]) -> Fraction:
        """Value of the character on a group element given by exponent vector."""
        if len(vec) != self.basis.dim:
            raise InputError("vector length does not match basis dimension")
        entries = [_exact(x, "a vector entry") for x in vec]
        return sum((v * x for v, x in zip(self.values, entries)), Fraction(0))


def make_character(
    basis: GeneratorBasis, assignments: dict[str, Fraction | int]
) -> Character:
    """Build a character from a sparse name -> value mapping.

    Values must be exact: a float or a bool is rejected, not converted.
    """
    values = [Fraction(0)] * basis.dim
    for name, value in assignments.items():
        values[basis.index(name)] = Fraction(_exact(value, f"value of {name!r}"))
    return Character(basis, tuple(values))


def abelianize(basis: GeneratorBasis, w: Word) -> Row:
    """Exponent-sum vector of a word, in basis order."""
    if w.alphabet != basis.names:
        raise InputError("word alphabet must equal the basis names")
    out = [0] * basis.dim
    index = basis._positions
    for g, s in w.letters:
        out[index[g]] += s
    return tuple(out)


# ---------------------------------------------------------------------------
# integer lattice arithmetic
#
# One sparse elimination core serves the Hermite form and the kernel: a row
# is a dict from column to nonzero int.  `_echelon` brings rows to echelon
# form column by column, and `_normalized` makes the result canonical.
# Dense tuples are built only for the caller.

SparseRow = dict[int, int]


def _add_multiple(row: SparseRow, q: int, other: SparseRow) -> None:
    """row += q * other in place, for q nonzero, keeping only nonzero entries."""
    for col, b in other.items():
        a = row.get(col, 0) + q * b
        if a:
            row[col] = a
        else:
            del row[col]


def _echelon(rows: Iterable[SparseRow], width: int) -> dict[int, SparseRow]:
    """An echelon basis of the lattice of rows with columns below width,
    keyed by pivot column.

    Rows wait in buckets by their first column, and columns are taken in
    increasing order, so every row in a column's bucket is zero before it.
    There the row of least absolute value (the last of those) reduces the
    others, until one row is left nonzero in the column: the Euclid steps of
    all of them at once, which keeps the entries small.  A row that leaves
    the column waits in the bucket of its next column.  Only unimodular row
    operations are used, so the row lattice is preserved.
    """
    buckets: dict[int, list[SparseRow]] = {}
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
    echelon = {}
    for col in range(width):
        rest = buckets.pop(col, None)
        if rest is None:
            continue
        while len(rest) > 1:
            pivot_row = min(reversed(rest), key=lambda r: abs(r[col]))
            pivot = pivot_row[col]
            still = [pivot_row]
            for row in rest:
                if row is not pivot_row:
                    _add_multiple(row, -(row[col] // pivot), pivot_row)
                    if col in row:
                        still.append(row)
                    elif row:
                        buckets.setdefault(min(row), []).append(row)
            rest = still
        echelon[col] = rest[0]
    return echelon


def _normalized(echelon: dict[int, SparseRow], start: int = 0) -> list[SparseRow]:
    """The basis rows pivoting at start or later, in canonical Hermite form:
    positive pivots, entries above each pivot reduced into [0, pivot).

    Rows pivoting at start or later are zero before start, so normalized
    they are the Hermite basis of their own lattice.  Back-reduction runs
    left to right and touches only the rows holding an entry in the pivot
    column: reducing with one row disturbs only columns right of its pivot,
    which later steps re-reduce.
    """
    pivots = sorted(col for col in echelon if col >= start)
    holders: dict[int, set[int]] = {col: set() for col in pivots}
    for col in pivots:
        row = echelon[col]
        if row[col] < 0:
            for c in row:
                row[c] = -row[c]
        for c in row:
            if c != col and c in holders:
                holders[c].add(col)
    for col in pivots:
        row = echelon[col]
        pivot = row[col]
        for k in holders.pop(col):
            above = echelon[k]
            q = above[col] // pivot
            if q:
                _add_multiple(above, -q, row)
                for c in row:
                    held = holders.get(c)
                    if held is not None:
                        if c in above:
                            held.add(k)
                        else:
                            held.discard(k)
    return [echelon[col] for col in pivots]


def _dense(row: SparseRow, start: int, width: int) -> Row:
    out = [0] * width
    for col, a in row.items():
        out[col - start] = a
    return tuple(out)


def _checked_rows(rows: Iterable[Sequence[int]], dim: int) -> list[Sequence[int]]:
    """The rows as sequences, if each is an int vector of length dim; any
    other entry (a float, a bool, a Fraction) is an InputError."""
    rows = [r if isinstance(r, (tuple, list)) else list(r) for r in rows]
    for r in rows:
        if len(r) != dim:
            raise InputError("row length does not match dimension")
        # the entry types, collected at C speed, are few
        for kind in set(map(type, r)):
            if not issubclass(kind, int) or kind is bool:
                raise InputError(f"lattice rows must hold ints, got {kind.__name__}")
    return rows


def hermite_form(rows: Iterable[Sequence[int]], dim: int) -> tuple[Row, ...]:
    """Canonical row Hermite form: positive pivots, entries above reduced.

    Only unimodular row operations are used (swap, negate, add an integer
    multiple), so the row lattice is preserved.
    """
    echelon = _echelon([{col: a for col, a in enumerate(r) if a} for r in _checked_rows(rows, dim)], dim)
    return tuple([_dense(row, 0, dim) for row in _normalized(echelon)])


def integer_kernel(rows: Iterable[Sequence[int]], dim: int) -> tuple[Row, ...]:
    """Hermite basis of all integer vectors orthogonal to every given row.

    Such a kernel lattice is automatically saturated.  In an echelon form
    of the augmented matrix [V^T | I] the rows that are zero on the first m
    columns are a basis of the kernel, after those m columns; normalized,
    they are its Hermite basis.  The identity block starts sparse.  Where
    the least pivots tie, `_echelon` takes the last row, which in the first
    column is the one with the latest identity column; the rows it reduces
    gain an identity entry after their own, so the kernel rows mostly come
    out of the first m columns already in echelon form, with few entries.
    """
    rows = _checked_rows(rows, dim)
    m = len(rows)
    augmented = []
    for j in range(dim):
        row = {k: r[j] for k, r in enumerate(rows) if r[j]}
        row[m + j] = 1
        augmented.append(row)
    return tuple([_dense(row, m, dim) for row in _normalized(_echelon(augmented, m + dim), m)])


def _lattice_vector(basis: GeneratorBasis, vec: Sequence[int]) -> list[int]:
    """The vector as a list, if it is an int vector of the basis dimension."""
    v = list(vec)
    if len(v) != basis.dim:
        raise InputError("vector length does not match basis dimension")
    for a in v:
        if not isinstance(a, int) or isinstance(a, bool):
            raise InputError("saturate expects integer vectors")
    return v


class SaturatedLattice(Record):
    """A saturated sublattice of Z^dim, stored by the Hermite basis of its
    integer annihilator: exactly the vectors pairing to zero with each row."""

    __slots__ = ("basis", "annihilator")

    @property
    def rank(self) -> int:
        return self.basis.dim - len(self.annihilator)


def saturate(basis: GeneratorBasis, vectors: Iterable[Sequence[int]]) -> SaturatedLattice:
    """Smallest saturated lattice containing the vectors.

    Equals (rational span of the vectors) intersected with the integer
    lattice: the kernel of the vectors' integer kernel, which is kept.
    """
    vectors = [_lattice_vector(basis, v) for v in vectors]
    return SaturatedLattice(basis, integer_kernel(vectors, basis.dim))


class VectorCharacter(Record):
    """Linearly independent characters treated as one vector-valued map."""

    __slots__ = ("basis", "rows")

    def __init__(self, basis: GeneratorBasis, rows: Iterable[Character]):
        rows = tuple(rows)
        for row in rows:
            if row.basis != basis:
                raise InputError("vector character row over the wrong basis")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "rows", rows)


def kill_character(lattice: SaturatedLattice) -> VectorCharacter:
    """Characters whose common kernel is exactly the span of the lattice.

    Returns dim - rank rows: the Hermite basis of the integer annihilator.
    Every generator vector inside the lattice dies under all rows; every
    vector outside survives at least one row.
    """
    basis = lattice.basis
    return VectorCharacter(basis, tuple([Character(basis, row) for row in lattice.annihilator]))


class GenericPoint(Record):
    """Outcome of the deterministic generic point search.

    point is None exactly when the whole subspace is inside one of the bad
    subspaces, in which case covering says which one.
    """

    __slots__ = ("point", "covering")


EquationSystem = Sequence[Sequence[Fraction | int]]


def _cleared(values: Sequence[Fraction | int]) -> list[int]:
    """The values times the positive lcm of their denominators."""
    denom = lcm(1, *[v.denominator for v in values])
    return [v.numerator * (denom // v.denominator) for v in values]


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
            # an int clears as it is, so integer rows skip the Fraction
            values = [x if type(x) is int else Fraction(_exact(x, "a spanning value")) for x in row]
            if len(values) != basis.dim:
                raise InputError("spanning vector length does not match basis dimension")
        cleared.append(_cleared(values))
    return hermite_form(cleared, basis.dim)


def _cleared_equations(dim: int, system: EquationSystem) -> list[tuple[tuple[int, int], ...]]:
    """Each equation of a bad subspace as its nonzero (column, coefficient)
    terms, after clearing its denominators by their positive lcm, which keeps
    its zero set.  An equation that is zero everywhere is dropped."""
    equations = []
    for eq in system:
        if len(eq) != dim:
            raise InputError("equation length does not match basis dimension")
        values = _cleared([Fraction(_exact(e, "an equation coefficient")) for e in eq])
        terms = tuple([(j, a) for j, a in enumerate(values) if a])
        if terms:
            equations.append(terms)
    return equations


def _holds(equations: Sequence[tuple[tuple[int, int], ...]], rows: Sequence[Sequence[int]]) -> bool:
    """Does the subspace the equations cut out hold every row?"""
    return not any(sum(a * row[j] for j, a in terms) for terms in equations for row in rows)


def _first_combination(
    basis: GeneratorBasis, rows: Sequence[Row], accepts: Callable[[Character], bool]
) -> Character:
    """The first sum of the rows with coefficients (1, t, t^2, ...), for
    t = 0, 1, 2, ..., that accepts takes.

    Terminates when accepts rejects only the points of finitely many proper
    subspaces of the rows' span: for independent rows, any len(rows) of the
    candidates are independent (a Vandermonde determinant), so each such
    subspace holds fewer than len(rows) of them.
    """
    columns = list(range(basis.dim))
    # each row's nonzero columns, found at C speed once the row is needed:
    # the rows are mostly zero, and t = 0 needs only the first
    supports: list[list[int]] = []
    t = 0
    while True:
        values = [0] * basis.dim
        coeff = 1
        for i, row in enumerate(rows):
            if i == len(supports):
                supports.append(list(compress(columns, row)))
            for j in supports[i]:
                values[j] += coeff * row[j]
            coeff *= t
            if not coeff:
                break
        candidate = Character(basis, tuple(values))
        if accepts(candidate):
            return candidate
        t += 1


def generic_point_avoiding(
    basis: GeneratorBasis,
    spanning: Sequence[Character | Sequence[Fraction | int]],
    bad: Sequence[EquationSystem],
) -> GenericPoint:
    """Deterministic point of a subspace avoiding finitely many bad subspaces.

    The subspace U is given by spanning rows (characters or plain rational
    vectors), each bad subspace by the dense rational equations cutting it
    out; all values must be exact, and every system is checked before the
    search.  If U sits inside some bad subspace the search is hopeless and
    the first such index is reported instead.  Otherwise candidates sum the
    canonical U-basis with coefficients (1, t, t^2, ...) for t = 0, 1, 2, ...
    and the first candidate off every bad subspace is returned; a
    Vandermonde argument makes termination certain.
    """
    u_rows = _integer_basis(basis, spanning)
    systems = [_cleared_equations(basis.dim, system) for system in bad]
    for index, equations in enumerate(systems):
        if _holds(equations, u_rows):
            return GenericPoint(None, index)
    if not u_rows:
        return GenericPoint(Character(basis, tuple([Fraction(0)] * basis.dim)), None)
    point = _first_combination(
        basis, u_rows, lambda c: not any(_holds(equations, (c.values,)) for equations in systems)
    )
    return GenericPoint(point, None)
