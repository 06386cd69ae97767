"""Exact rational linear algebra for homogeneous constraint systems.

Two questions arise downstream: what is a canonical basis for a system of
homogeneous linear constraints, and does the solution set meet the open
positive orthant.  Both are answered exactly: the basis by the one
fraction-free elimination on integer rows, echelon, and its back-substitution
rref; the orthant question (which a verdict asks only below full column rank)
by a phase-one simplex over Fraction on c = 1 + u, u >= 0, with Bland's rule.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .poly import EngineInvariantError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def primitive_row(row) -> tuple[int, ...]:
    """An int or Fraction row as coprime integers in the same direction,
    leading entry positive; a zero row stays zero."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints) or 1
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return tuple(x // g for x in ints)


def _clear(row, basis) -> tuple[int, ...]:
    """A primitive row with the leading column of each (leading column, row)
    basis pair cleared in turn by cross-multiplication; a basis row vanishes
    left of its leading column, so the columns cleared before it stay clear."""
    for lead, b in basis:
        x = row[lead]
        if x:
            row = primitive_row([b[lead] * y - x * z for y, z in zip(row, b)])
    return row


def echelon(rows, basis=()) -> list[tuple[int, ...]]:
    """A fraction-free echelon basis of int or Fraction rows, sorted by
    leading column: each row in turn as a primitive integer row cleared
    against the basis.  The basis starts as basis, one that echelon
    returned below full column rank, so an elimination can resume over
    more rows without reading its earlier ones again.  Reading stops at one
    row per column, full column rank, so rows may be built lazily."""
    # (leading column, row)
    basis = [(next(i for i, x in enumerate(r) if x), r) for r in basis]
    for row in rows:
        row = _clear(primitive_row(row), basis)
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            bisect.insort(basis, (lead, row))
            if len(basis) == len(row):
                break
    return [row for _, row in basis]


def rref(rows) -> list[tuple[Fraction, ...]]:
    """Reduced row-echelon form of int or Fraction rows: the nonzero rows as
    Fractions with pivot 1, sorted by pivot column.  It back-substitutes
    echelon(rows), from the last row up, then divides by the pivots; at full
    column rank it is the identity."""
    basis = [(next(i for i, x in enumerate(r) if x), r) for r in echelon(rows)]
    for k in reversed(range(len(basis))):
        lead, row = basis[k]
        basis[k] = lead, _clear(row, basis[k + 1:])
    return [tuple(Fraction(x, r[lead]) for x in r) for lead, r in basis]


def _phase_one_feasible(a: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Feasibility of {A u = b, u >= 0} by minimizing artificial variables."""
    m = len(a)
    if m == 0:
        return True
    n = len(a[0])
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-x for x in a[i]])
            rhs.append(-b[i])
        else:
            rows.append(list(a[i]))
            rhs.append(b[i])
    # tableau columns: n structural, m artificial, then rhs
    tab = [rows[i] + [_ONE if j == i else _ZERO for j in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    # objective: minimize the artificial sum; reduced costs start as the
    # column sums over the constraint rows (artificial columns cost zero)
    obj = [sum(tab[i][j] for i in range(m)) for j in range(n)]
    obj += [_ZERO] * m
    obj.append(sum(rhs))

    total_cols = n + m
    while True:
        enter = next((j for j in range(total_cols) if obj[j] > 0), None)
        if enter is None:
            return obj[-1] == 0
        ratios = [
            (tab[i][-1] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            # the artificial sum is bounded below by 0, so a column that
            # improves it without limit means the tableau is corrupt
            raise EngineInvariantError("unbounded phase-one objective")
        _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
        pivot = tab[leave][enter]
        tab[leave] = [x / pivot for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                factor = tab[i][enter]
                tab[i] = [x - factor * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter]:
            factor = obj[enter]
            obj = [x - factor * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter


def positive_solution_exists(rows: list[tuple[Fraction, ...]]) -> bool:
    """Is there c with all coordinates strictly positive and row . c = 0 for
    every row?  Scale invariance lets c > 0 become c >= 1, then c = 1 + u."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return True
    a = [list(r) for r in rows]
    b = [-sum(r) for r in rows]
    return _phase_one_feasible(a, b)
