"""The every-degree audit, too slow for the tier-1 suite.

On every painting of rank <= 8 with 1-4 black nodes (the sweep's caps,
1,065 paintings), the verdict at every degree, classify(diagram, None),
must have the status and constraints of the degree-3 verdict.  Tier-1
audits the same claim at rank <= 7 with 1-3 black nodes
(test_bochner.test_untruncated_jet_keeps_degree_three_verdicts).  Run from
the repository root:

    PYTHONPATH=src python tests/audit_every_degree.py

Exit 0 when every verdict holds at every degree, 1 otherwise.
"""

import sys

from flagbochner import classify
from flagbochner.lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    iter_black_sets,
)

PAINTINGS = 1065


def main() -> int:
    checked = changed = 0
    for fam, min_rank in ((Family.SU, 2), (Family.SP, 1),
                          (Family.SO_EVEN, 3), (Family.SO_ODD, 1)):
        for rank in range(min_rank, 9):
            group = GroupSpec(fam, rank)
            for black in iter_black_sets(group, 4):
                try:
                    dia = PaintedDiagram(group, black)
                except PaintingError:
                    continue
                every, v3 = classify(dia, None), classify(dia, 3)
                if (every.status, every.constraints) != (v3.status,
                                                         v3.constraints):
                    print(f"{dia.label()}: {every.status.value} at every "
                          f"degree, {v3.status.value} at degree 3")
                    changed += 1
                checked += 1
    print(f"{checked} paintings, {changed} with a verdict that changes "
          "above degree 3")
    return 0 if checked == PAINTINGS and not changed else 1


if __name__ == "__main__":
    sys.exit(main())
