"""The every-degree audit, too slow for the tier-1 suite.

On every painting of rank <= 8 with 1-4 black nodes (the sweep's caps,
1,065 paintings), the verdict at every degree, from the untruncated jet,
must have the status and constraints of the degree-3 verdict.  Tier-1
audits the same claim at rank <= 7 with 1-3 black nodes
(test_bochner.test_untruncated_jet_keeps_degree_three_verdicts).  On each
painting the audit also checks engine routes against their references in
tests/oracles.py, which tier-1 checks only up to 3 black nodes: the
untruncated report against oracles.report_by_sorting on the jet's
Polynomial form (oracles.jet_polynomial), the verdict, whose echelon basis
stops at full rank, against oracles.verdict_by_full_elimination at every
degree and at degree 3, the verdicts of one walk over the untruncated
report at degrees 3, 4, 5, 6 and every degree against the one-degree
verdicts of the report truncated there, and the Poincare polynomial
against oracles.poincare_by_division on the root heights.

On every painting a single case accepts (rank <= 8, any number of black
nodes, 1,370 paintings) it checks the chart that build_Z reads off the
painting's blocks: its variables must be the sorted roots of -Q, Q as
oracles.black_roots defines it, its entry map must place them through
oracles.root_vector, dict order included, and nilpotency_index must count
the nonzero powers of Z.  Tier-1 checks the variables and the entry map
up to 3 black nodes and the index up to rank 6.  Run from the repository
root:

    PYTHONPATH=src python tests/audit_every_degree.py

Exit 0 when every check holds on every painting, 1 otherwise.
"""

import sys

from oracles import (
    black_roots,
    height,
    jet_polynomial,
    placed_entries,
    poincare_by_division,
    report_by_sorting,
    verdict_by_full_elimination,
)

from flagbochner import classify
from flagbochner.bochner import forbidden_report, verdict_from_report, verdicts
from flagbochner.expansion import forbidden_jet
from flagbochner.lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    iter_black_sets,
    poincare,
)
from flagbochner.matrices import build_Z, nilpotency_index, z_powers

PAINTINGS = 1065
CHARTS = 1370
WALK_DEGREES = (3, 4, 5, 6, None)


def every_degree_problems(dia) -> list[str]:
    jet = forbidden_jet(dia, None)
    report = forbidden_report(jet)
    every = verdict_from_report(report, dia.black)
    v3 = classify(dia, 3)
    problems = []
    if (every.status, every.constraints) != (v3.status, v3.constraints):
        problems.append(f"{every.status.value} at every degree, "
                        f"{v3.status.value} at degree 3")
    if report.entries != report_by_sorting(jet_polynomial(jet)):
        problems.append("report differs from its definition")
    for r in (report, report.truncate(3)):
        if (verdict_from_report(r, dia.black)
                != verdict_by_full_elimination(r, dia.black)):
            problems.append(f"verdict at degree {r.degree_checked} differs "
                            "from the full elimination")
    walked = verdicts(report, dia.black, WALK_DEGREES)
    for degree, got in zip(WALK_DEGREES, walked, strict=True):
        if got != verdict_from_report(report.truncate(degree), dia.black):
            problems.append(f"walked verdict at degree {degree} differs from "
                            "the verdict of that truncation")
    heights = [height(dia.group, r) for r in black_roots(dia)]
    coeffs = poincare(dia)
    if coeffs[::2] != poincare_by_division(heights) or any(coeffs[1::2]):
        problems.append("Poincare polynomial differs from the height product")
    return problems


def main() -> int:
    checked = charts = failed = 0
    for fam, min_rank in ((Family.SU, 2), (Family.SP, 1),
                          (Family.SO_EVEN, 3), (Family.SO_ODD, 1)):
        for rank in range(min_rank, 9):
            group = GroupSpec(fam, rank)
            for black in iter_black_sets(group, group.num_simple):
                try:
                    dia = PaintedDiagram(group, black)
                except PaintingError:
                    continue
                atlas = build_Z(dia)
                problems = []
                if atlas.vars != tuple(sorted(-r for r in black_roots(dia))):
                    problems.append("chart variables differ from -Q")
                if (list(atlas.entries.items())
                        != list(placed_entries(atlas).items())):
                    problems.append("chart entries differ from the "
                                    "reference root vectors")
                if nilpotency_index(atlas) != 1 + len(
                        list(z_powers(atlas, atlas.packing))):
                    problems.append("nilpotency index differs from the "
                                    "count of nonzero powers of Z")
                charts += 1
                if len(black) <= 4:
                    problems += every_degree_problems(dia)
                    checked += 1
                for problem in problems:
                    print(f"{dia.label()}: {problem}")
                failed += bool(problems)
    print(f"{checked} paintings at every degree, {charts} charts, "
          f"{failed} failing a check")
    return 0 if (checked, charts) == (PAINTINGS, CHARTS) and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
