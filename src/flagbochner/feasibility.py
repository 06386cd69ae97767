"""Exact rational linear algebra for homogeneous constraint systems.

Two questions arise downstream: what is a canonical basis for a system of
homogeneous linear constraints, and does the solution set meet the open
positive orthant.  Both are answered exactly: the basis by fraction-free
elimination on integer rows, and the orthant question (which a verdict asks
only below full column rank) by a phase-one simplex over Fraction on
c = 1 + u, u >= 0, with Bland's rule for termination.
"""

from __future__ import annotations

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


def rref(rows) -> list[tuple[Fraction, ...]]:
    """Reduced row-echelon form of int or Fraction rows; returns the nonzero
    rows as Fractions with pivot 1, sorted by pivot column.

    Elimination stays in the integers: a row is cleared against the pivot
    row by cross-multiplication and then divided by the gcd of its entries.
    """
    mat = [primitive_row(r) for r in rows if any(r)]
    if not mat:
        return []
    row = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        prow = mat[row]
        p = prow[col]
        for r in range(len(mat)):
            factor = mat[r][col]
            if r != row and factor:
                mat[r] = primitive_row(
                    [p * x - factor * y for x, y in zip(mat[r], prow)])
        row += 1
        if row == len(mat):
            break
    # rows below the last pivot are zero; the pivots come in column order
    out = []
    for r in mat[:row]:
        p = next(x for x in r if x)
        out.append(tuple(Fraction(x, p) for x in r))
    return out


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
