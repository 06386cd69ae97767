"""Slow, transparent reference computations that the engine is tested against.

Each oracle follows its textbook definition with no memoization or
pruning; they share only the polynomial ring and the sparse matrix type
with the engine.
"""

import itertools

from flagbochner.poly import Polynomial, SymbolicMatrix


def leibniz_minor(mat: SymbolicMatrix, l: int, rows=None) -> Polynomial:
    """Determinant of mat[rows, :l] as a signed sum over permutations;
    rows defaults to the leading l rows."""
    rows = tuple(range(l)) if rows is None else tuple(rows)
    acc = Polynomial.zero(mat.trunc)
    for perm in itertools.permutations(range(l)):
        inversions = sum(
            1 for i in range(l) for j in range(i + 1, l) if perm[i] > perm[j]
        )
        prod = Polynomial.one(mat.trunc)
        for col, i in enumerate(perm):
            prod = prod * mat.entry(rows[i], col)
            if prod.is_zero():
                break
        acc = acc + (-prod if inversions % 2 else prod)
    return acc


def gram(e: SymbolicMatrix) -> SymbolicMatrix:
    """The Gram matrix E^H E."""
    return e.conj_transpose() @ e


def cauchy_binet_minor(e: SymbolicMatrix, l: int) -> Polynomial:
    """Delta_l(E^H E) as the sum over l-row sets S of |det E[S, :l]|^2."""
    acc = Polynomial.zero(e.trunc)
    for rows in itertools.combinations(range(e.size), l):
        d = leibniz_minor(e, l, rows)
        acc = acc + d * d.conj()
    return acc


def mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """The product a * b from its definition: multiply every pair of terms
    in order, accumulating and dropping sums that cancel to zero, then drop
    the terms over the degree bound."""
    trunc = a.trunc if a.trunc is not None else b.trunc
    out = {}
    for m1, f1 in a.terms.items():
        for m2, f2 in b.terms.items():
            m = m1 * m2
            g = out.get(m)
            s = f1 * f2 if g is None else g + f1 * f2
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
    return Polynomial(
        {
            m: f for m, f in out.items()
            if trunc is None or sum(e for _, e in m.holo + m.anti) <= trunc
        },
        trunc,
    )
