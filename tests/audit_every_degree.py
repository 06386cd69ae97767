"""The every-degree audit, too slow for the tier-1 suite.

On every painting of rank <= 8 with 1-4 black nodes (the sweep's caps,
1,065 paintings), the verdict at every degree, from the untruncated jet,
must have the status and constraints of the degree-3 verdict.  Tier-1
audits the same claim at rank <= 7 with 1-3 black nodes
(test_bochner.test_untruncated_jet_keeps_degree_three_verdicts).  On each
painting the audit also checks two engine routes against their references
in tests/oracles.py, which tier-1 checks only up to 3 black nodes: the
untruncated report against oracles.report_by_sorting, and the Poincare
polynomial against oracles.poincare_by_division on the root heights.  Run
from the repository root:

    PYTHONPATH=src python tests/audit_every_degree.py

Exit 0 when every check holds on every painting, 1 otherwise.
"""

import sys

from oracles import height, poincare_by_division, report_by_sorting

from flagbochner import classify
from flagbochner.bochner import forbidden_report, verdict_from_report
from flagbochner.expansion import forbidden_jet
from flagbochner.lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    black_roots,
    iter_black_sets,
    poincare,
)

PAINTINGS = 1065


def main() -> int:
    checked = failed = 0
    for fam, min_rank in ((Family.SU, 2), (Family.SP, 1),
                          (Family.SO_EVEN, 3), (Family.SO_ODD, 1)):
        for rank in range(min_rank, 9):
            group = GroupSpec(fam, rank)
            for black in iter_black_sets(group, 4):
                try:
                    dia = PaintedDiagram(group, black)
                except PaintingError:
                    continue
                jet = forbidden_jet(dia, None)
                report = forbidden_report(jet)
                every = verdict_from_report(report, dia.black)
                v3 = classify(dia, 3)
                problems = []
                if (every.status, every.constraints) != (v3.status,
                                                         v3.constraints):
                    problems.append(f"{every.status.value} at every degree, "
                                    f"{v3.status.value} at degree 3")
                if report.entries != report_by_sorting(jet):
                    problems.append("report differs from its definition")
                heights = [height(group, r) for r in black_roots(dia)]
                coeffs = poincare(dia)
                if (coeffs[::2] != poincare_by_division(heights)
                        or any(coeffs[1::2])):
                    problems.append("Poincare polynomial differs from the "
                                    "height product")
                for problem in problems:
                    print(f"{dia.label()}: {problem}")
                failed += bool(problems)
                checked += 1
    print(f"{checked} paintings, {failed} failing a check")
    return 0 if checked == PAINTINGS and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
