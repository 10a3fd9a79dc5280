"""Words in free groups, graph groups, and the rank-2-free-times-center model.

A word is a sequence of signed letters over a fixed ordered alphabet.  The
alphabet order induces the letter order a < a^-1 < b < b^-1 < ... which in
turn induces the ShortLex order (length first, then lexicographic) used for
graph group normal forms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .errors import InputError, require_int
from .records import Record

if TYPE_CHECKING:  # annotations only: a word alone needs no graph module
    from .graphs import Graph

Letter = tuple[str, int]


class Word:
    """An unreduced word: ordered alphabet plus signed letters."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Iterable[str], letters: Iterable[Letter] = ()):
        alphabet = tuple(alphabet)
        known = set(alphabet)
        if len(known) != len(alphabet):
            raise InputError("duplicate generator name in alphabet")
        checked = []
        for letter in letters:
            try:
                g, s = letter
            except (TypeError, ValueError):
                raise InputError(f"letter {letter!r} is not a (generator, sign) pair") from None
            if g not in known:
                raise InputError(f"letter {g!r} is not in the alphabet")
            if type(s) is not int or s not in (1, -1):
                raise InputError(f"letter sign must be +1 or -1, got {s!r}")
            checked.append((g, s))
        self.alphabet = alphabet
        self.letters = tuple(checked)

    @classmethod
    def _checked(cls, alphabet: tuple[str, ...], letters: tuple[Letter, ...]) -> "Word":
        """A word from parts that already passed the constructor's checks."""
        w = object.__new__(cls)
        w.alphabet = alphabet
        w.letters = letters
        return w

    def inverse(self) -> "Word":
        return Word._checked(self.alphabet, tuple([(g, -s) for g, s in reversed(self.letters)]))

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise InputError("cannot multiply words over different alphabets")
        return Word._checked(self.alphabet, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.letters))

    def __repr__(self) -> str:
        return f"Word({self.alphabet!r}, {self.letters!r})"

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(g if s == 1 else g + "^-1" for g, s in self.letters)


def word(alphabet: Iterable[str], text: Iterable[str | Letter]) -> Word:
    """Convenience builder: word("ab", ["a", ("b", -1), "a"])."""
    letters = []
    for item in text:
        if isinstance(item, str):
            letters.append((item, 1))
        else:
            letters.append(item)
    return Word(alphabet, letters)


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    >>> str(free_reduce(word("ab", ["a", ("b", -1), "b", ("a", -1)])))
    '1'
    """
    stack: list[Letter] = []
    for g, s in w.letters:
        if stack and stack[-1] == (g, -s):
            stack.pop()
        else:
            stack.append((g, s))
    return Word._checked(w.alphabet, tuple(stack))


def free_commute(u: Word, v: Word) -> bool:
    """Do u and v commute in the free group on their shared alphabet?"""
    comm = u * v * u.inverse() * v.inverse()
    return not free_reduce(comm).letters


F2_ALPHABET = ("A", "B")


class F2ZElement(Record):
    """An element of (free group on A, B) x (infinite cyclic center)."""

    __slots__ = ("free_part", "central")

    def __init__(self, free_part: Word, central: int):
        if free_part.alphabet != F2_ALPHABET:
            raise InputError("free part must be a word over the A, B alphabet")
        if free_reduce(free_part) != free_part:
            raise InputError("free part must be freely reduced")
        object.__setattr__(self, "free_part", free_part)
        object.__setattr__(self, "central", require_int(central, "the central part"))


def f2z(letters: Iterable[str | Letter], central: int = 0) -> F2ZElement:
    return F2ZElement(free_reduce(word(F2_ALPHABET, letters)), central)


def _geodesic(g: Graph, w: Word) -> list[tuple[int, int]]:
    """A geodesic word equal to w in the graph group of g, as (index, sign).

    One left-to-right pass keeps a geodesic prefix: a letter x^e scans back
    from the prefix's end past letters that commute with x and are not x; if
    the scan stops on x^-e that letter is deleted, otherwise x^e is appended.
    The prefix stays geodesic, since a geodesic word times x^e is geodesic
    unless x^-e can be commuted to its end, and then deleting it gives the
    least possible length (Crisp, Godelle & Wiest 2009).  So the result is
    empty exactly when w equals 1.
    """
    if w.alphabet != g.vertices:
        raise InputError("word alphabet must equal the graph's vertex tuple")
    # bit i of nonadj[j]: generator i does not commute with generator j
    nonadj = g._nonadjacency
    index = g._index

    letters: list[tuple[int, int]] = []
    for name, s in w.letters:
        gi = index[name]
        blocker = nonadj[gi]
        j = len(letters) - 1
        while j >= 0 and letters[j][0] != gi and not blocker >> letters[j][0] & 1:
            j -= 1
        if j >= 0 and letters[j] == (gi, -s):
            del letters[j]
        else:
            letters.append((gi, s))
    return letters


def raag_normal_form(g: Graph, w: Word) -> Word:
    """ShortLex normal form of w in the graph group of g.

    Among all geodesic rewritings of `_geodesic(g, w)`, pick the
    ShortLex-least one by greedily emitting the least letter that can
    commute to the front; it is the same for every geodesic input.

    >>> from .graphs import Graph
    >>> g = Graph("ab", [("a", "b")])
    >>> str(raag_normal_form(g, word("ab", ["b", "a", ("b", -1)])))
    'a'
    """
    letters = _geodesic(g, w)
    nonadj = g._nonadjacency
    out: list[tuple[int, int]] = []
    while letters:
        best = -1
        best_key = None
        seen = 0
        for pos, (gp, sp) in enumerate(letters):
            if not (seen & nonadj[gp]):
                key = (gp, 0 if sp == 1 else 1)
                if best_key is None or key < best_key:
                    best_key = key
                    best = pos
            seen |= 1 << gp
        out.append(letters.pop(best))
    return Word._checked(g.vertices, tuple([(g.vertices[i], s) for i, s in out]))


def raag_commute(g: Graph, u: Word, v: Word) -> bool:
    """Do u and v commute in the graph group of g?

    >>> from .graphs import Graph
    >>> g = Graph("abc", [("a", "b"), ("b", "c")])
    >>> raag_commute(g, word("abc", "aab"), word("abc", "bbb"))
    True
    """
    return not _geodesic(g, u * v * u.inverse() * v.inverse())
