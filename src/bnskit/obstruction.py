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

from typing import Sequence

from .characters import Row, _first_combination, _kernel
from .errors import PreconditionError, require_int
from .records import Record

CERTIFICATE = "certificate"
COVERED = "covered"


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


def _demo_basis(family, n: int):
    """The family's `PairBasis` on n strands, if the demonstration runs there."""
    if require_int(n, "n") < family.large.size:
        raise PreconditionError(
            f"the obstruction demonstration needs at least {family.large.size} {family.unit}s"
        )
    return family.basis(n)


def run_obstruction(family, n: int, rows: Sequence[Row]) -> ObstructionReport:
    """Run the two-branch obstruction pipeline for a `ProjectionFamily` on n
    strands, on the lattice vectors given as `Row`s; a character avoids
    every dead subspace when `sigma_membership` says IN."""
    basis = _demo_basis(family, n)
    annihilator = _kernel(rows, basis.dim)
    covered = basis.covering(annihilator)
    if covered is None:
        membership = lambda c: family.sigma_membership(n, c)
        point = _first_combination(basis.generators, annihilator, lambda c: membership(c).inside)
        return ObstructionReport(
            CERTIFICATE,
            point,
            verdict_plus=membership(point),
            verdict_minus=membership(point.negated()),
            covering=None,
            witness=None,
            guidance=CERTIFICATE_GUIDANCE,
        )
    # the sample's own dead subspace is the covering one, so its witness
    # pair is that subspace's
    return ObstructionReport(
        COVERED,
        covered.sample(),
        verdict_plus=None,
        verdict_minus=None,
        covering=covered,
        witness=family._witness(basis, covered.kept),
        guidance=COVERED_GUIDANCE,
    )
