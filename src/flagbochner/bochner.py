"""Deciding when the chart coordinates are Bochner up to rescaling.

The obstruction lives in the forbidden monomials of the potential expansion:
bidegree (1, q >= 2), (p >= 2, 1), or off-diagonal (1,1).  At degree three
all candidates are trinomials, and the trinomials of a Gram minor fall into
four explicit families with weights +1/2, -1/2, -1, +1; the catalog is
enumerated directly and cross-checked against the determinant expansion.

A verdict is degree-stamped: emptiness of the forbidden report is certified
only up to the audited total degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .expansion import DiastasisExpansion, diastasis
from .feasibility import positive_solution_exists, rref
from .lie_core import PaintedDiagram
from .matrices import CoordinateAtlas
from .poly import (
    CoeffForm,
    EngineInvariantError,
    Monomial,
    Polynomial,
    render_signed_sum,
)

_HALF = Fraction(1, 2)

TRINOMIAL_WEIGHTS = {
    "I": _HALF,
    "II": -_HALF,
    "III": Fraction(-1),
    "IV": Fraction(1),
}


@dataclass(frozen=True)
class Trinomial:
    """One catalog entry: the kind, the matrix indices used (1-based), the
    kind weight, the signed coefficient after entry signs, and the degree-3
    monomial it contributes."""

    kind: str
    indices: tuple[int, ...]
    weight: Fraction
    coeff: Fraction
    monomial: Monomial


def catalog_trinomials(atlas: CoordinateAtlas, r: int) -> list[Trinomial]:
    """All nonvanishing bidegree-(1,2) trinomials of Delta_r of the Gram
    matrix, enumerated by kind.

    Kinds, with Zb denoting a conjugated entry (indices are 1-based):
      I   +1/2 * Z[s,i]  Zb[s,t] Zb[t,i]   i <= r,        s,t = 1..m
      II  -1/2 * Z[i,j]  Zb[i,s] Zb[s,j]   i,j <= r, i!=j, s = 1..m
      III  -1  * Z[s,i]  Zb[s,j] Zb[j,i]   i,j <= r, i!=j, s = 1..m
      IV   +1  * Z[a,b]  Zb[a,c] Zb[c,b]   a,b,c <= r pairwise distinct
    """
    m = atlas.Z.size
    if r > m:
        raise ValueError(f"minor size {r} exceeds matrix size {m}")
    ent = atlas.entry_map()

    def z(i: int, j: int):
        return ent.get((i - 1, j - 1))

    out: list[Trinomial] = []

    def emit(kind, indices, holo, anti_pair):
        v1, s1 = holo
        (v2, s2), (v3, s3) = anti_pair
        weight = TRINOMIAL_WEIGHTS[kind]
        coeff = weight * s1 * s2 * s3
        anti = Monomial.variable(v2, anti=True) * Monomial.variable(v3, anti=True)
        mono = Monomial.variable(v1) * anti
        out.append(Trinomial(kind, indices, weight, coeff, mono))

    for i in range(1, r + 1):
        for s in range(1, m + 1):
            zsi = z(s, i)
            if zsi is None:
                continue
            for t in range(1, m + 1):
                zst = z(s, t)
                zti = z(t, i)
                if zst is None or zti is None:
                    continue
                emit("I", (i, s, t), zsi, (zst, zti))

    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i == j:
                continue
            zij = z(i, j)
            if zij is not None:
                for s in range(1, m + 1):
                    zis = z(i, s)
                    zsj = z(s, j)
                    if zis is None or zsj is None:
                        continue
                    emit("II", (i, j, s), zij, (zis, zsj))
            zji = z(j, i)
            if zji is None:
                continue
            for s in range(1, m + 1):
                zsi = z(s, i)
                zsj = z(s, j)
                if zsi is None or zsj is None:
                    continue
                emit("III", (i, j, s), zsi, (zsj, zji))

    for a in range(1, r + 1):
        for b in range(1, r + 1):
            for c in range(1, r + 1):
                if a == b or a == c or b == c:
                    continue
                zab = z(a, b)
                zac = z(a, c)
                zcb = z(c, b)
                if zab is None or zac is None or zcb is None:
                    continue
                emit("IV", (a, b, c), zab, (zac, zcb))

    return out


def catalog_sum(trinomials: list[Trinomial]) -> Polynomial:
    acc = Polynomial.zero()
    for t in trinomials:
        acc = acc + Polynomial({t.monomial: CoeffForm.constant(t.coeff)})
    return acc


def is_forbidden_bidegree(p: int, q: int) -> bool:
    return (p == 1 and q >= 2) or (q == 1 and p >= 2)


@dataclass(frozen=True)
class ForbiddenReport:
    """Forbidden monomials with their exact coefficient forms, sorted.

    Off-diagonal (1,1) monomials are included in the scan even though the
    expansion invariants already exclude them; finding one here means the
    engine itself is broken.
    """

    entries: tuple[tuple[Monomial, CoeffForm], ...]
    degree_checked: int

    def is_empty(self) -> bool:
        return not self.entries

    def form_of(self, monomial: Monomial) -> CoeffForm | None:
        for m, f in self.entries:
            if m == monomial:
                return f
        return None

    def coefficient_forms(self) -> list[CoeffForm]:
        return [f for _, f in self.entries]


def forbidden_report(expansion: DiastasisExpansion) -> ForbiddenReport:
    entries = []
    for m, f in expansion.poly.items_sorted():
        p, q = m.bidegree
        bad_11 = (p, q) == (1, 1) and m.holo[0][0] != m.anti[0][0]
        if is_forbidden_bidegree(p, q) or bad_11:
            entries.append((m, f))
    report = ForbiddenReport(tuple(entries), expansion.degree)
    by_mono = dict(report.entries)
    for m, f in report.entries:
        g = by_mono.get(m.conj())
        if g is None or g != f:
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
    degree_checked: int
    constraints: tuple[tuple[Fraction, ...], ...] = ()
    witness: tuple[Monomial, CoeffForm] | None = None


def _constraint_rows(report: ForbiddenReport,
                     black: tuple[int, ...]) -> list[tuple[Fraction, ...]]:
    seen = set()
    rows = []
    for _, form in report.entries:
        if form.const:
            raise EngineInvariantError(
                "forbidden coefficient has a constant part; symbolic "
                "expansion expected"
            )
        row = tuple(form.coeff_of(p) for p in black)
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return rows


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
    rows = _constraint_rows(report, black)
    reduced = rref(rows)
    if positive_solution_exists(reduced):
        return BochnerVerdict(
            BochnerStatus.BOCHNER_IFF, black, degree,
            constraints=tuple(reduced),
        )
    return BochnerVerdict(
        BochnerStatus.NEVER_BOCHNER, black, degree,
        witness=_select_witness(report),
    )


def classify(diagram: PaintedDiagram, degree: int = 3) -> BochnerVerdict:
    """Classify a painted diagram at the given audit degree.

    The forbidden coefficient forms give a homogeneous linear system in the
    parameters; the coordinates are Bochner up to rescaling exactly for the
    positive parameter vectors solving it.
    """
    expansion = diastasis(diagram, degree, "symbolic")
    return verdict_from_report(forbidden_report(expansion), diagram.black)


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
