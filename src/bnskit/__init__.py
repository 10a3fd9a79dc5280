"""Exact computations around the first sigma invariant of some finitely
generated groups: right-angled Artin groups presented by finite graphs, pure
braid groups, and pure loop braid groups.

Everything runs over the rationals with exact arithmetic; no floating point
appears anywhere in a verdict.

Tuples on hot paths are built from lists, not generators.  CPython resizes a
tuple built from a generator after allocating it, and files the freed result
in a per-size free list that only a full garbage collection empties; long
runs of small operations grew the process by megabytes that way.
"""

from .errors import BnsError, DomainError, InputError, ParseError, PreconditionError
from .graphs import (
    Graph,
    OutFinitenessReport,
    closed_star,
    connected_components,
    induced_subgraph,
    is_clique,
    is_connected,
    is_dominating,
    is_separating,
    min_separating_clique,
    min_separating_clique_witness,
    out_finiteness_predicates,
)
from .words import (
    F2ZElement,
    Word,
    f2z,
    f2z_commute,
    f2z_generate_free,
    f2z_inverse,
    f2z_multiply,
    free_commute,
    free_reduce,
    raag_commute,
    raag_normal_form,
    word,
)
from .characters import (
    Character,
    GeneratorBasis,
    GenericPoint,
    SaturatedLattice,
    VectorCharacter,
    abelianize,
    canonical_class,
    dead_support,
    generic_point_avoiding,
    hermite_form,
    integer_kernel,
    integer_rank,
    kill_character,
    live_support,
    make_character,
    saturate,
    span_contains,
)
from .obstruction import ObstructionReport, WitnessPair, run_obstruction
from .projection import DeadSubspace
from . import braid, loop, raag

__all__ = [
    "BnsError",
    "Character",
    "DeadSubspace",
    "DomainError",
    "F2ZElement",
    "GeneratorBasis",
    "GenericPoint",
    "Graph",
    "InputError",
    "ObstructionReport",
    "OutFinitenessReport",
    "ParseError",
    "PreconditionError",
    "SaturatedLattice",
    "VectorCharacter",
    "Word",
    "WitnessPair",
    "abelianize",
    "braid",
    "canonical_class",
    "closed_star",
    "connected_components",
    "dead_support",
    "f2z",
    "f2z_commute",
    "f2z_generate_free",
    "f2z_inverse",
    "f2z_multiply",
    "free_commute",
    "free_reduce",
    "generic_point_avoiding",
    "hermite_form",
    "induced_subgraph",
    "integer_kernel",
    "integer_rank",
    "is_clique",
    "is_connected",
    "is_dominating",
    "is_separating",
    "kill_character",
    "live_support",
    "loop",
    "make_character",
    "min_separating_clique",
    "min_separating_clique_witness",
    "out_finiteness_predicates",
    "raag",
    "raag_commute",
    "raag_normal_form",
    "run_obstruction",
    "saturate",
    "span_contains",
    "word",
]

__version__ = "0.1.0"
