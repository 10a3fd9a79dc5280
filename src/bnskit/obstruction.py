"""Shared machinery for the free-subgroup obstruction demonstrations.

Both braid-like families describe the complement of their sigma invariant as
a finite union of rational dead subspaces.  Given an abelianized subgroup,
either some character kills it while avoiding every dead subspace (a
certificate that the construction stays inside the invariant on both rays),
or the whole annihilator is trapped inside one dead subspace, and that
subspace carries an explicit two-word witness reproducing a free subgroup
after projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .characters import (
    Character,
    GeneratorBasis,
    Row,
    SparseSystem,
    generic_point_avoiding,
    saturate,
)
from .words import Word

CERTIFICATE = "certificate"
COVERED = "covered"


@dataclass(frozen=True)
class DeadSubspace:
    """One rational subspace of dead characters in dimension dim, cut out by
    the sparse integer equations of its system."""

    kind: str
    kept: tuple[int, ...]
    system: SparseSystem
    dim: int

    @property
    def equations(self) -> tuple[Row, ...]:
        """The equations as dense rows, built on every access and not kept."""
        return self.system.rows(self.dim)


@dataclass(frozen=True)
class WitnessPair:
    """Two kernel words that stay free after projecting to designated strands."""

    u: Word
    v: Word
    designated: tuple[int, ...]


@dataclass(frozen=True)
class ObstructionReport:
    branch: str
    character: Character
    verdict_plus: Optional[object] = None
    verdict_minus: Optional[object] = None
    covering: Optional[DeadSubspace] = None
    witness: Optional[WitnessPair] = None
    guidance: str = ""


CERTIFICATE_GUIDANCE = (
    "the displayed character and its negative both lie inside the invariant "
    "and vanish on the given subgroup, so the subgroup sits inside a kernel "
    "with no non-abelian free subgroups above it on either ray"
)

COVERED_GUIDANCE = (
    "every character killing the subgroup lies in the covering dead subspace; "
    "any elements mapping onto the two abelianized witnesses have "
    "non-commuting projections to the designated strands, hence generate a "
    "rank-2 free subgroup inside the kernel"
)


def run_obstruction(
    basis: GeneratorBasis,
    vectors: Sequence[Sequence[int]],
    subspaces: Sequence[DeadSubspace],
    sample_character: Callable[[DeadSubspace], Character],
    membership: Callable[[Character], object],
    witness_pair: Callable[[Character], WitnessPair],
) -> ObstructionReport:
    """Run the two-branch obstruction pipeline over a generator lattice."""
    lattice = saturate(basis, vectors)
    found = generic_point_avoiding(basis, lattice.annihilator, [s.system for s in subspaces])
    if found.point is not None:
        return ObstructionReport(
            CERTIFICATE,
            found.point,
            verdict_plus=membership(found.point),
            verdict_minus=membership(found.point.negated()),
            guidance=CERTIFICATE_GUIDANCE,
        )
    covering = subspaces[found.covering]
    sample = sample_character(covering)
    return ObstructionReport(
        COVERED,
        sample,
        covering=covering,
        witness=witness_pair(sample),
        guidance=COVERED_GUIDANCE,
    )
