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
(degree None).  Each forbidden form is one homogeneous row in the c_k and
a higher degree only adds rows, so the report at a lower degree is a
prefix of a deeper one: verdicts walks the distinct forms once, in report
order, and answers every requested degree from one feasibility.echelon
elimination that each degree's rows extend.  At a degree, a full-rank
basis is NEVER_BOCHNER, and below full rank rref gives the constraints and
the LP the orthant answer; verdict_from_report is the one-degree walk.
"""

from __future__ import annotations

import bisect
import math
import operator
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

    def end(self, degree: int | None) -> int:
        """The number of entries through degree, or every entry for None:
        entries sort by total degree first, so the report at degree is
        this prefix of them.  A degree too low to hold a forbidden monomial,
        or above the degree this report was checked to, is refused."""
        if degree is not None:
            degree = check_degree(degree, LOWEST_VERDICT_DEGREE)
        checked = self.degree_checked
        if checked is not None and (degree is None or degree > checked):
            raise ValueError(f"a report checked to degree {checked} cannot "
                             f"certify {degree or 'every degree'}")
        if degree is None or degree == checked:
            return len(self.entries)
        return bisect.bisect_right(self.entries, degree,
                                   key=lambda e: e[0].total)

    def truncate(self, degree: int | None) -> "ForbiddenReport":
        """The report at degree, or at every degree for None: the first
        end(degree) entries."""
        end = self.end(degree)
        if degree is None:
            return self
        return ForbiddenReport(self.entries[:end], operator.index(degree))


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


def verdicts(report: ForbiddenReport, black: tuple[int, ...],
             degrees: tuple[int | None, ...]) -> list[BochnerVerdict]:
    """The verdict at each of degrees, ascending, None (every degree) last,
    from one walk over the report's distinct forms in report order.

    Each verdict solves the homogeneous system {coefficient forms = 0} of
    the report at its degree over the rationals and intersects it with the
    open positive orthant.  A higher degree only adds rows, so each
    degree's forms extend the echelon basis of the degree before, and every
    distinct form is read once: an empty prefix is BOCHNER_FOR_ALL_C, a
    full-rank basis NEVER_BOCHNER, and below full rank rref and the LP on
    the prefix's basis decide.  A NEVER_BOCHNER witness is the prefix's
    first entry with a sign-definite form, else its first entry.
    """
    entries = report.entries
    seen = set()
    basis = []
    definite = None  # the first entry read with a sign-definite form
    read = 0
    out = []
    for degree in degrees:
        end = report.end(degree)
        if end < read:
            raise ValueError(f"verdict degrees must ascend, got {degrees!r}")
        new = []  # the prefix's distinct forms not read before, in order
        for entry in entries[read:end]:
            form = entry[1]
            if form not in seen:
                seen.add(form)
                new.append(form)
                if definite is None and form.orthant_sign():
                    definite = entry
        read = end
        if len(basis) < len(black):
            lams = (dict(f.terms) for f in new)
            basis = echelon(([lam.get(p, 0) for p in black] for lam in lams),
                            basis)
        degree = None if degree is None else operator.index(degree)
        if not end:
            out.append(BochnerVerdict(BochnerStatus.BOCHNER_FOR_ALL_C, black,
                                      degree))
            continue
        # at full column rank only c = 0 solves the rows: the basis is a
        # nonsingular square system, and no rref or LP is needed
        if len(basis) < len(black):
            reduced = rref(basis)
            if positive_solution_exists(reduced):
                out.append(BochnerVerdict(BochnerStatus.BOCHNER_IFF, black,
                                          degree, constraints=tuple(reduced)))
                continue
        out.append(BochnerVerdict(BochnerStatus.NEVER_BOCHNER, black, degree,
                                  witness=definite or entries[0]))
    return out


def verdict_from_report(report: ForbiddenReport,
                        black: tuple[int, ...]) -> BochnerVerdict:
    """The verdict of the whole report: the one-degree call of verdicts."""
    return verdicts(report, black, (report.degree_checked,))[0]


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
