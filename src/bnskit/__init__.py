"""Exact computations around the first sigma invariant of some finitely
generated groups: right-angled Artin groups presented by finite graphs, pure
braid groups, and pure loop braid groups.

Everything runs over the rationals with exact arithmetic; no floating point
appears anywhere in a verdict.

The package namespace holds only what the README's Library section uses:
`Graph`, `make_character` and the error classes.  Every other name is
imported from its own module, e.g. `from bnskit import braid` or
`from bnskit.characters import saturate`.  `import bnskit` runs only the
error module; `Graph` loads the graph module and `make_character` the
character module on first use.

Tuples on hot paths are built from lists, not generators.  CPython resizes a
tuple built from a generator after allocating it, and files the freed result
in a per-size free list that only a full garbage collection empties; long
runs of small operations grew the process by megabytes that way.
"""

from .errors import BnsError, DomainError, InputError, ParseError, PreconditionError

__all__ = [
    "BnsError",
    "DomainError",
    "Graph",
    "InputError",
    "ParseError",
    "PreconditionError",
    "make_character",
]

__version__ = "0.1.0"


def __getattr__(name):
    # Graph and make_character load their modules on first use, so a
    # process that never uses them does not compile them
    if name == "Graph":
        from .graphs import Graph

        return Graph
    if name == "make_character":
        from .characters import make_character

        return make_character
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
