"""Deciding when the chart coordinates are Bochner up to rescaling.

The obstruction lives in the forbidden monomials of the potential: bidegree
(1, q >= 2) or (p >= 2, 1); every expansion and jet refuses an off-diagonal
(1,1) term.  They all sit in the potential's (1, .) and (., 1) parts,
which forbidden_jet computes in packed integers without the full
expansion; forbidden_report writes both halves from one form, so it is
conjugate-closed by construction.  At degree three all candidates are trinomials
of four explicit kinds; the tests enumerate that catalog directly and check
it against the determinant expansion.

A verdict is degree-stamped: emptiness of the forbidden report is certified
up to the audited total degree, or at every degree for the untruncated jet
(degree None).  The verdict reads one row per distinct form into
feasibility.echelon; a full-rank basis is NEVER_BOCHNER, and below full
rank rref gives the constraints and the LP the orthant answer.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter

from .expansion import (LOWEST_VERDICT_DEGREE, PackedJet, check_degree,
                        forbidden_jet)
from .feasibility import echelon, positive_solution_exists, rref
from .lie_core import PaintedDiagram
from .poly import CoeffForm, Monomial, render_signed_sum


@dataclass(frozen=True)
class ForbiddenReport:
    """Forbidden monomials with their exact coefficient forms, sorted.

    degree_checked is None for a scan of every degree.
    """

    entries: tuple[tuple[Monomial, CoeffForm], ...]
    degree_checked: int | None

    def is_empty(self) -> bool:
        return not self.entries

    def truncate(self, degree: int | None) -> "ForbiddenReport":
        """The report at degree, or at every degree for None: entries sort
        by total degree first, so its entries are a prefix of these.  A
        degree too low to hold a forbidden monomial is refused."""
        if degree is not None:
            degree = check_degree(degree, LOWEST_VERDICT_DEGREE)
        checked = self.degree_checked
        if checked is not None and (degree is None or degree > checked):
            raise ValueError(f"a report checked to degree {checked} cannot "
                             f"certify {degree or 'every degree'}")
        if degree is None:
            return self
        end = bisect.bisect_right(self.entries, degree, key=lambda e: e[0].total)
        return ForbiddenReport(self.entries[:end], degree)


def forbidden_report(jet: PackedJet) -> ForbiddenReport:
    """The forbidden monomials of a jet, checked through its truncation
    degree (every degree when untruncated), sorted on the monomials: z_v
    zb^m and z^m zb_v for each m of degree >= 2, built off the jet's
    decoded exponents, each distinct form built once."""
    top, exps = jet.packing.top, jet.exps
    of = Monomial._of_bidegree
    made: dict[tuple, CoeffForm] = {}
    entries = []
    for v, forms in jet.forms.items():
        zv = ((v, 1),)
        for m, lam in forms.items():
            d = m >> top
            if d < 2:
                continue
            key = (d, *lam.items())
            form = made.get(key)
            if form is None:
                # the jet inserts labels in black order, so equal forms
                # share a key; CoeffForm sorts them in any case
                den = math.factorial(d)
                form = made[key] = CoeffForm(
                    (k, Fraction(n, den)) for k, n in key[1:])
            e = exps[m]
            entries.append((of(zv, e, 1, d), form))
            entries.append((of(e, zv, d, 1), form))
    entries.sort(key=itemgetter(0))
    return ForbiddenReport(tuple(entries), jet.degree)


class BochnerStatus(Enum):
    BOCHNER_FOR_ALL_C = "BochnerForAllC"
    BOCHNER_IFF = "BochnerIff"
    NEVER_BOCHNER = "NeverBochner"


@dataclass(frozen=True)
class BochnerVerdict:
    """Outcome of the classification for one painted diagram.

    constraints: reduced-row-echelon rows over the parameters, one tuple of
    rationals per row, columns ordered like black.  Present only for
    BOCHNER_IFF; the reduced system always admits a strictly positive
    solution there.  witness: a minimal forbidden monomial with its form,
    present only for NEVER_BOCHNER; when some surviving form is sign
    definite on the positive orthant the witness carries one.
    """

    status: BochnerStatus
    black: tuple[int, ...]
    degree_checked: int | None
    constraints: tuple[tuple[Fraction, ...], ...] = ()
    witness: tuple[Monomial, CoeffForm] | None = None


def verdict_from_report(report: ForbiddenReport,
                        black: tuple[int, ...]) -> BochnerVerdict:
    """Solve the homogeneous system {coefficient forms = 0} over the
    rationals and intersect with the open positive orthant."""
    degree = report.degree_checked
    if report.is_empty():
        return BochnerVerdict(BochnerStatus.BOCHNER_FOR_ALL_C, black, degree)
    first = {}  # each distinct form with its first entry, in report order
    for entry in report.entries:
        first.setdefault(entry[1], entry)
    lams = (dict(f.terms) for f in first)
    basis = echelon([lam.get(p, 0) for p in black] for lam in lams)
    # at full column rank only c = 0 solves the rows: the basis is a
    # nonsingular square system, and no rref or LP is needed
    if len(basis) < len(black):
        reduced = rref(basis)
        if positive_solution_exists(reduced):
            return BochnerVerdict(
                BochnerStatus.BOCHNER_IFF, black, degree,
                constraints=tuple(reduced),
            )
    form = next((f for f in first if f.orthant_sign()), report.entries[0][1])
    return BochnerVerdict(BochnerStatus.NEVER_BOCHNER, black, degree,
                          witness=first[form])


def classify(diagram: PaintedDiagram,
             degree: int | None = 3) -> BochnerVerdict:
    """Classify a painted diagram at the given audit degree, or at every
    degree when degree is None.

    The forbidden coefficient forms give a homogeneous linear system in the
    parameters; the coordinates are Bochner up to rescaling exactly for the
    positive parameter vectors solving it.
    """
    report = forbidden_report(forbidden_jet(diagram, degree))
    return verdict_from_report(report, diagram.black)


def render_constraint(row, black: tuple[int, ...]) -> str:
    """One RREF row as an equation, e.g. 'c1 = 2*c4'."""
    nz = [(p, x) for p, x in zip(black, row) if x]
    if not nz:
        return "0 = 0"
    (lead_pos, lead), rest = nz[0], nz[1:]
    if not rest:
        return f"c{lead_pos} = 0"
    rhs = render_signed_sum((f"c{p}", -x / lead) for p, x in rest)
    return f"c{lead_pos} = {rhs}"
