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

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .characters import Character, GeneratorBasis, Row, _first_combination, saturate
from .records import Record

if TYPE_CHECKING:
    from .projection import DeadSubspace

CERTIFICATE = "certificate"
COVERED = "covered"


class WitnessPair(Record):
    """Two kernel words that stay free after projecting to designated strands."""

    __slots__ = ("u", "v", "designated")


class ObstructionReport(Record):
    __slots__ = ("branch", "character", "verdict_plus", "verdict_minus", "covering", "witness", "guidance")


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
    covering: Callable[[Sequence[Row]], Optional[DeadSubspace]],
    sample_character: Callable[[DeadSubspace], Character],
    membership: Callable[[Character], object],
    witness_pair: Callable[[Character], WitnessPair],
) -> ObstructionReport:
    """Run the two-branch obstruction pipeline over a generator lattice.

    covering names the dead subspace holding all the annihilator rows, or
    None; a character avoids every dead subspace when membership says inside.
    """
    annihilator = saturate(basis, vectors).annihilator
    covered = covering(annihilator)
    if covered is None:
        point = _first_combination(basis, annihilator, lambda c: membership(c).inside)
        return ObstructionReport(
            CERTIFICATE,
            point,
            verdict_plus=membership(point),
            verdict_minus=membership(point.negated()),
            covering=None,
            witness=None,
            guidance=CERTIFICATE_GUIDANCE,
        )
    sample = sample_character(covered)
    return ObstructionReport(
        COVERED,
        sample,
        verdict_plus=None,
        verdict_minus=None,
        covering=covered,
        witness=witness_pair(sample),
        guidance=COVERED_GUIDANCE,
    )
