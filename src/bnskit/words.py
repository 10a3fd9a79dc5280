"""Words in free groups, graph groups, and the rank-2-free-times-center model.

A word is a sequence of signed letters over a fixed ordered alphabet.  The
alphabet order induces the letter order a < a^-1 < b < b^-1 < ... which in
turn induces the ShortLex order (length first, then lexicographic) used for
graph group normal forms.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InputError, require_int
from .graphs import Graph
from .records import Record

Letter = tuple[str, int]


class Word:
    """An unreduced word: ordered alphabet plus signed letters."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Iterable[str], letters: Iterable[Letter] = ()):
        alphabet = tuple(alphabet)
        known = set(alphabet)
        if len(known) != len(alphabet):
            raise InputError("duplicate generator name in alphabet")
        letters = tuple([(g, s) for g, s in letters])
        for g, s in letters:
            if g not in known:
                raise InputError(f"letter {g!r} is not in the alphabet")
            if type(s) is not int or s not in (1, -1):
                raise InputError(f"letter sign must be +1 or -1, got {s!r}")
        self.alphabet = alphabet
        self.letters = letters

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


def f2z_multiply(x: F2ZElement, y: F2ZElement) -> F2ZElement:
    return F2ZElement(free_reduce(x.free_part * y.free_part), x.central + y.central)


def f2z_commute(x: F2ZElement, y: F2ZElement) -> bool:
    """Centers always commute, so only the free parts matter."""
    return free_commute(x.free_part, y.free_part)


def f2z_generate_free(x: F2ZElement, y: F2ZElement) -> bool:
    """Do x and y generate a rank-2 free subgroup modulo the center?

    Two elements of a free group do so exactly when they fail to commute;
    a trivial free part commutes with everything, so it is covered too.
    """
    return not f2z_commute(x, y)


def raag_normal_form(g: Graph, w: Word) -> Word:
    """ShortLex normal form of w in the graph group of g.

    Two phases.  First, repeatedly delete pairs x^e ... x^-e whose separating
    letters all commute with x; when no such pair is left the word is
    geodesic.  Second, among all geodesic rewritings pick the ShortLex-least
    one by greedily emitting the least letter that can commute to the front.

    >>> g = Graph("ab", [("a", "b")])
    >>> str(raag_normal_form(g, word("ab", ["b", "a", ("b", -1)])))
    'a'
    """
    if w.alphabet != g.vertices:
        raise InputError("word alphabet must equal the graph's vertex tuple")
    # bit i of nonadj[j]: generator i does not commute with generator j
    nonadj = g._nonadjacency
    index = g._index
    letters = [(index[name], s) for name, s in w.letters]

    shrinking = True
    while shrinking:
        shrinking = False
        length = len(letters)
        for i in range(length - 1):
            gi, si = letters[i]
            blocker = nonadj[gi]
            for j in range(i + 1, length):
                gj, sj = letters[j]
                if gj == gi:
                    if sj == -si:
                        del letters[j]
                        del letters[i]
                        shrinking = True
                        break
                elif blocker & (1 << gj):
                    break
            if shrinking:
                break

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

    >>> g = Graph("abc", [("a", "b"), ("b", "c")])
    >>> raag_commute(g, word("abc", "aab"), word("abc", "bbb"))
    True
    """
    comm = u * v * u.inverse() * v.inverse()
    return not raag_normal_form(g, comm).letters
