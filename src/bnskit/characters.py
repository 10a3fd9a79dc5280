"""Rational characters on a finitely generated group, exactly.

A character is a rational-valued linear functional on the abelianization,
recorded by its values on an ordered generator basis.  Everything here is
exact integer / Fraction arithmetic: no floating point is used anywhere in
the package, so equality tests against zero are trustworthy.  Each value has
one canonical form: an int when it is integral, otherwise a Fraction in
lowest terms.  The lattice data the package works with (subgroup vectors,
annihilator rows, killing characters) are ints, so they stay ints.

The integer lattice routines (Hermite form, kernels, saturation) are small
and self-contained; arbitrary-precision ints make them safe at the sizes
this package works with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import InputError, require_int
from .records import Record

if TYPE_CHECKING:  # annotations only: a character alone needs no word module
    from .words import Word

# a lattice row: the (column, value) pairs of its nonzero entries, in column order
Row = tuple[tuple[int, int], ...]


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
    """Pass an exact value through: an int that is not a bool, or a
    Fraction.  Anything else (a float, a bool, a str, None) is an
    InputError naming its type, not a value for `Fraction` to read."""
    if isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise InputError(f"{what} must be an int or a Fraction, got {type(value).__name__}")


def _rational(value, what: str = "a character value") -> int | Fraction:
    """The canonical form of an exact value: an int when it is integral,
    otherwise a Fraction in lowest terms.  Any other value is an
    InputError."""
    q = value if type(value) is Fraction else Fraction(_exact(value, what))
    return q.numerator if q.denominator == 1 else q


class Character(Record):
    """A rational character, stored by its value on each basis generator.

    Each value is an int when it is integral, otherwise a Fraction:

    >>> Character(GeneratorBasis("ab"), [Fraction(4, 2), Fraction(1, 2)]).values
    (2, Fraction(1, 2))
    """

    __slots__ = ("basis", "values")

    def __init__(self, basis: GeneratorBasis, values: Iterable[int | Fraction]):
        # read once, so an iterator works too; a tuple is not copied
        values = tuple(values)
        if len(values) != basis.dim:
            raise InputError("character length does not match basis dimension")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "values", tuple([v if type(v) is int else _rational(v) for v in values]))

    def __call__(self, name: str) -> int | Fraction:
        return self.values[self.basis.index(name)]

    def is_zero(self) -> bool:
        return not any(self.values)

    def scaled(self, q: int | Fraction) -> "Character":
        q = q if type(q) is int else _rational(q)
        return Character(self.basis, tuple([v * q for v in self.values]))

    def negated(self) -> "Character":
        return Character(self.basis, tuple([-v for v in self.values]))

    def pair(self, vec: Sequence[int]) -> int | Fraction:
        """Value of the character on a group element given by exponent vector."""
        if len(vec) != self.basis.dim:
            raise InputError("vector length does not match basis dimension")
        # every entry is checked, even where the character is zero
        entries = [x if type(x) is int else _rational(x, "a vector entry") for x in vec]
        total = sum([v * x for v, x in zip(self.values, entries) if v], 0)
        return total if type(total) is int else _rational(total)


def make_character(
    basis: GeneratorBasis, assignments: dict[str, int | Fraction]
) -> Character:
    """Build a character from a sparse name -> value mapping.

    Values must be exact, an int or a Fraction: a float, a bool or a str
    is rejected, not converted.
    """
    values = [0] * basis.dim
    for name, value in assignments.items():
        values[basis.index(name)] = value if type(value) is int else _rational(value, f"value of {name!r}")
    return Character(basis, tuple(values))


def abelianize(basis: GeneratorBasis, w: Word) -> tuple[int, ...]:
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
# Callers get each row as its nonzero (column, value) pairs, a `Row`.

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


def _pairs(row: SparseRow, start: int) -> Row:
    return tuple(sorted([(col - start, a) for col, a in row.items()]))


def _sparse(rows: Iterable[Sequence[int]], dim: int) -> list[Row]:
    """Dense rows as `Row`s, if each is an int vector of length dim; any
    other entry (a float, a bool, a Fraction) is an InputError.  The
    boundary between the dense entry points and the sparse core, so it also
    checks that dim is a nonnegative int."""
    if require_int(dim, "dim") < 0:
        raise InputError("dim must be nonnegative")
    rows = [r if isinstance(r, (tuple, list)) else list(r) for r in rows]
    for r in rows:
        if len(r) != dim:
            raise InputError("row length does not match dimension")
        # the entry types, collected at C speed, are few
        for kind in set(map(type, r)):
            if not issubclass(kind, int) or kind is bool:
                raise InputError(f"lattice rows must hold ints, got {kind.__name__}")
    # the nonzero entries, found at C speed: input vectors may be mostly zero
    return [tuple(compress(enumerate(r), r)) for r in rows]


def hermite_form(rows: Iterable[Sequence[int]], dim: int) -> tuple[Row, ...]:
    """Canonical row Hermite form: positive pivots, entries above reduced.

    Only unimodular row operations are used (swap, negate, add an integer
    multiple), so the row lattice is preserved.
    """
    echelon = _echelon([dict(row) for row in _sparse(rows, dim)], dim)
    return tuple([_pairs(row, 0) for row in _normalized(echelon)])


def _bad_entry(j, a, last: int, dim: int) -> None:
    """Raise the InputError for an entry (j, a) of a `Row` that fails the
    fast check in `_kernel`, after an entry at column last; an int subclass
    other than bool passes."""
    require_int(j, "a row's column")
    require_int(a, "a row's value")
    if not 0 <= j < dim:
        raise InputError(f"column {j} is outside 0..{dim - 1}")
    if j <= last:
        raise InputError(f"columns must increase, got {j} after {last}")
    if not a:
        raise InputError(f"column {j} holds a zero")


def _kernel(rows: Sequence[Row], dim: int) -> tuple[Row, ...]:
    """`integer_kernel` of rows given as `Row`s: sequences of pairs, nonzero
    int values at int columns that increase and lie below dim, as any other
    row or entry is an InputError."""
    m = len(rows)
    augmented = [{m + j: 1} for j in range(dim)]
    for k, row in enumerate(rows):
        last = -1
        try:
            for j, a in row:
                if type(j) is not int or type(a) is not int or not last < j < dim or not a:
                    _bad_entry(j, a, last, dim)
                augmented[j][k] = a
                last = j
        except (TypeError, ValueError):
            raise InputError(f"row {k} is not a sequence of (column, value) pairs") from None
    return tuple([_pairs(row, m) for row in _normalized(_echelon(augmented, m + dim), m)])


def integer_kernel(rows: Iterable[Sequence[int]], dim: int) -> tuple[Row, ...]:
    """Hermite basis of all integer vectors orthogonal to every given row.

    Such a kernel lattice is automatically saturated.  In an echelon form
    of the augmented matrix [V^T | I] the rows that are zero on the first m
    columns are a basis of the kernel, after those m columns; normalized,
    they are its Hermite basis.  The identity block starts sparse, and the
    first m columns are filled from the rows' nonzero entries.  Where
    the least pivots tie, `_echelon` takes the last row, which in the first
    column is the one with the latest identity column; the rows it reduces
    gain an identity entry after their own, so the kernel rows mostly come
    out of the first m columns already in echelon form, with few entries.

    >>> integer_kernel([(1, 2, 3)], 3)
    (((0, 1), (1, 1), (2, -1)), ((1, 3), (2, -2)))
    """
    return _kernel(_sparse(rows, dim), dim)


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
    rows = []
    for row in lattice.annihilator:
        values = [0] * basis.dim
        for j, a in row:
            values[j] = a
        rows.append(Character(basis, values))
    return VectorCharacter(basis, rows)


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
            values = [x if type(x) is int else _rational(x, "a spanning value") for x in row]
            if len(values) != basis.dim:
                raise InputError("spanning vector length does not match basis dimension")
        cleared.append(_cleared(values))
    return hermite_form(cleared, basis.dim)


def _cleared_equations(dim: int, system: EquationSystem) -> list[Row]:
    """Each equation of a bad subspace as its nonzero (column, coefficient)
    terms, after clearing its denominators by their positive lcm, which keeps
    its zero set.  An equation that is zero everywhere is dropped."""
    equations = []
    for eq in system:
        if len(eq) != dim:
            raise InputError("equation length does not match basis dimension")
        values = _cleared([e if type(e) is int else _rational(e, "an equation coefficient") for e in eq])
        terms = tuple([(j, a) for j, a in enumerate(values) if a])
        if terms:
            equations.append(terms)
    return equations


def _holds(equations: Sequence[Row], rows: Iterable[Row]) -> bool:
    """Does the subspace the equations cut out hold every row?"""
    rows = [dict(row) for row in rows]
    return not any(sum([a * row.get(j, 0) for j, a in terms]) for terms in equations for row in rows)


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
    t = 0
    while True:
        values = [0] * basis.dim
        coeff = 1
        for row in rows:
            for j, a in row:
                values[j] += coeff * a
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
        return GenericPoint(Character(basis, (0,) * basis.dim), None)
    point = _first_combination(
        basis, u_rows, lambda c: not any(_holds(equations, [enumerate(c.values)]) for equations in systems)
    )
    return GenericPoint(point, None)
