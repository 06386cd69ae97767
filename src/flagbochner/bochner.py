"""Deciding when the chart coordinates are Bochner up to rescaling.

The obstruction lives in the forbidden monomials of the potential: bidegree
(1, q >= 2), (p >= 2, 1), or off-diagonal (1,1), which every expansion and
jet refuses (expansion._check_potential).  They all sit in the
potential's (1, .) and (., 1) parts, which forbidden_jet computes without
the full expansion, checking the torus weight of every term it returns;
forbidden_report checks conjugate closure, since it also reads diastasis
expansions.  At degree three all candidates are trinomials
of four explicit kinds; the tests enumerate that catalog directly and check
it against the determinant expansion.

A verdict is degree-stamped: emptiness of the forbidden report is certified
up to the audited total degree, or at every degree for the untruncated jet
(degree None).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .expansion import forbidden_jet
from .feasibility import positive_solution_exists, primitive_row, rref
from .lie_core import PaintedDiagram
from .poly import (
    CoeffForm,
    EngineInvariantError,
    Monomial,
    Polynomial,
    render_signed_sum,
)


def is_forbidden_bidegree(p: int, q: int) -> bool:
    return (p == 1 and q >= 2) or (q == 1 and p >= 2)


@dataclass(frozen=True)
class ForbiddenReport:
    """Forbidden monomials with their exact coefficient forms, sorted.

    degree_checked is None for a scan of every degree.
    """

    entries: tuple[tuple[Monomial, CoeffForm], ...]
    degree_checked: int | None

    def is_empty(self) -> bool:
        return not self.entries

    def truncate(self, degree: int) -> "ForbiddenReport":
        """The report of the potential truncated at degree: entries sort by
        total degree first, so its entries are a prefix of these."""
        if self.degree_checked is not None and degree > self.degree_checked:
            raise ValueError(f"a report checked to degree "
                             f"{self.degree_checked} cannot certify {degree}")
        end = bisect.bisect_right(self.entries, degree, key=lambda e: e[0].total)
        return ForbiddenReport(self.entries[:end], degree)


def forbidden_report(poly: Polynomial) -> ForbiddenReport:
    """The forbidden monomials of a potential expansion or jet, checked
    through its truncation degree (every degree when untruncated)."""
    entries = []
    for m, f in poly.items_sorted():
        if is_forbidden_bidegree(*m.bidegree):
            entries.append((m, f))
    report = ForbiddenReport(tuple(entries), poly.trunc)
    by_mono = dict(report.entries)
    for m, f in report.entries:
        if by_mono.get(m.conj()) != f:
            raise EngineInvariantError(
                "forbidden report is not conjugate-closed; the potential "
                "expansion is not real"
            )
    return report


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


def _constraint_rows(report: ForbiddenReport,
                     black: tuple[int, ...]) -> list[tuple[int, ...]]:
    """One primitive integer row per distinct direction of the coefficient
    forms, columns ordered like black, in order of first appearance.  Many
    monomials share one form, so each distinct form is read once."""
    col = {p: i for i, p in enumerate(black)}
    rows = {}
    for form in dict.fromkeys(f for _, f in report.entries):
        row = [0] * len(black)
        for k, lam in form.terms:
            row[col[k]] = lam
        rows[primitive_row(row)] = None
    return list(rows)


def _select_witness(report: ForbiddenReport):
    for m, f in report.entries:
        if f.orthant_sign():
            return (m, f)
    return report.entries[0]


def verdict_from_report(report: ForbiddenReport,
                        black: tuple[int, ...]) -> BochnerVerdict:
    """Solve the homogeneous system {coefficient forms = 0} over the
    rationals and intersect with the open positive orthant."""
    degree = report.degree_checked
    if report.is_empty():
        return BochnerVerdict(BochnerStatus.BOCHNER_FOR_ALL_C, black, degree)
    reduced = rref(_constraint_rows(report, black))
    # at full column rank only c = 0 solves the rows; no LP is needed
    if len(reduced) < len(black) and positive_solution_exists(reduced):
        return BochnerVerdict(
            BochnerStatus.BOCHNER_IFF, black, degree,
            constraints=tuple(reduced),
        )
    return BochnerVerdict(
        BochnerStatus.NEVER_BOCHNER, black, degree,
        witness=_select_witness(report),
    )


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
