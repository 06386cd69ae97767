"""Slow, transparent reference computations that the engine is tested against.

Each oracle follows its textbook definition with no memoization, pruning
or batching; they share only the Root type, the chart's entry map and the
polynomial ring with the engine, and build the root data (positive_roots,
black_roots, the reference for the block rule that build_Z reads -Q by),
the realization of every root (root_vector, the reference for the
entries build_Z places) and the symbolic matrices themselves (Matrix,
with Matrix.chart for Z).
The one exception is the reference Gram route on Monomials and Fractions
(Matrix arithmetic, minor_det, log1p_expand, linear_combination,
gram_logs, combine_logs): the engine's packed route must equal it term for
term, dict order included, so it keeps a memoised Laplace expansion and
the loops whose order the engine follows.  product_jet, the jet as the products exp Z exp(-Z) that
the engine formed before its recursion, also runs on the engine's packed
exp Z and packed product.
The engine's packed jet is read back into a Polynomial by jet_polynomial;
report_by_sorting is the forbidden report by its definition, with the
conjugate-closure check, for that form and for any expansion; and
verdict_by_full_elimination decides a report with gauss_jordan over every
row and the engine's phase-one LP, the reference for the verdict's
echelon basis that stops at full rank.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from flagbochner.lie_core import Family, Root
from flagbochner.bochner import BochnerStatus, BochnerVerdict, ForbiddenReport
from flagbochner.expansion import (PackedJet, _accumulate, _packed_exp,
                                   _truncated_product)
from flagbochner.feasibility import positive_solution_exists
from flagbochner import matrices
from flagbochner.matrices import build_Z
from flagbochner.poly import CoeffForm, EngineInvariantError, Monomial, Polynomial


# ------------------------------------------------------ matrix arithmetic

class Matrix:
    """Sparse square matrix with Polynomial entries, zero entries unstored,
    and the arithmetic of the reference route."""

    __slots__ = ("size", "entries", "trunc")

    def __init__(self, size: int, entries=None, trunc=None):
        self.size = size
        self.trunc = trunc
        clean: dict[tuple[int, int], Polynomial] = {}
        if entries:
            for (i, j), p in entries.items():
                if not (0 <= i < size and 0 <= j < size):
                    raise IndexError(f"entry ({i},{j}) outside {size}x{size}")
                pt = p if p.trunc == trunc else p.truncate(trunc)
                if not pt.is_zero():
                    clean[(i, j)] = pt
        self.entries = clean

    @classmethod
    def chart(cls, atlas) -> "Matrix":
        """The symbolic Z of a chart: sign * z_v at each of its entries."""
        return cls(atlas.size, {
            key: Polynomial.variable(v, sign=s)
            for key, (v, s) in atlas.entries.items()
        })

    @classmethod
    def identity(cls, size: int, trunc=None) -> "Matrix":
        one = Polynomial.one(trunc)
        return cls(size, {(i, i): one for i in range(size)}, trunc)

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries.get((i, j), Polynomial.zero(self.trunc))

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        trunc = _combine_trunc(self.trunc, other.trunc)
        out = dict(self.entries)
        for key, p in other.entries.items():
            q = out.get(key)
            s = p if q is None else q + p
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return Matrix(self.size, out, trunc)

    def scale(self, factor) -> "Matrix":
        return Matrix(
            self.size, {k: p * factor for k, p in self.entries.items()},
            self.trunc,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        trunc = _combine_trunc(self.trunc, other.trunc)
        by_row: dict[int, list[tuple[int, Polynomial]]] = {}
        for (k, j), q in other.entries.items():
            by_row.setdefault(k, []).append((j, q))
        out: dict[tuple[int, int], Polynomial] = {}
        for (i, k), p in self.entries.items():
            for j, q in by_row.get(k, ()):
                prod = p * q
                if prod.is_zero():
                    continue
                key = (i, j)
                acc = out.get(key)
                s = prod if acc is None else acc + prod
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return Matrix(self.size, out, trunc)

    def conj_transpose(self) -> "Matrix":
        return Matrix(
            self.size,
            {(j, i): p.conj() for (i, j), p in self.entries.items()},
            self.trunc,
        )

    def truncate(self, degree) -> "Matrix":
        return Matrix(
            self.size,
            {k: p.truncate(degree) for k, p in self.entries.items()},
            degree,
        )

    def evaluate(self, zvals):
        """Dense nested-list numeric value."""
        out = [[0j] * self.size for _ in range(self.size)]
        for (i, j), p in self.entries.items():
            out[i][j] = p.evaluate(zvals)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.size == other.size
            and self.trunc == other.trunc
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.size}x{self.size}, {len(self.entries)} entries)"


def _combine_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a != b:
        raise ValueError(f"mismatched truncation bounds: {a} vs {b}")
    return a


def leibniz_minor(mat: Matrix, l: int, rows=None) -> Polynomial:
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


def gram(e: Matrix) -> Matrix:
    """The Gram matrix E^H E."""
    return e.conj_transpose() @ e


def cauchy_binet_minor(e: Matrix, l: int) -> Polynomial:
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
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return Polynomial(
        {
            m: f for m, f in out.items()
            if trunc is None or sum(e for _, e in m.holo + m.anti) <= trunc
        },
        trunc,
    )


# ------------------------------------------------------------ root data

def _unit(rank: int, i: int, sign: int = 1) -> Root:
    coeffs = [0] * rank
    coeffs[i - 1] = sign
    return Root(tuple(coeffs))


def _pair(rank: int, i: int, j: int, si: int, sj: int) -> Root:
    coeffs = [0] * rank
    coeffs[i - 1] += si
    coeffs[j - 1] += sj
    return Root(tuple(coeffs))


def positive_roots(group) -> tuple[Root, ...]:
    """R+ with respect to the canonical simple basis, sorted."""
    d = group.rank
    fam = group.family
    roots: list[Root] = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            roots.append(_pair(d, i, j, 1, -1))
            if fam is not Family.SU:
                roots.append(_pair(d, i, j, 1, 1))
    if fam is Family.SP:
        roots.extend(_unit(d, i, 2) for i in range(1, d + 1))
    elif fam is Family.SO_ODD:
        roots.extend(_unit(d, i) for i in range(1, d + 1))
    return tuple(sorted(roots))


def twice_simple_coefficients(group, root: Root) -> tuple[int, ...]:
    """Twice the expansion coefficients of a root over the simple basis, as
    integers, in closed form from the prefix sums s_k = c_1 + ... + c_k of
    its e-coordinates:

    * SU:     (2 s_1, ..., 2 s_{d-1}); raises unless s_d = 0 (the span)
    * Sp:     (2 s_1, ..., 2 s_{d-1}, s_d)
    * SOodd:  (2 s_1, ..., 2 s_d)
    * SOeven: (2 s_1, ..., 2 s_{d-2}, 2 s_{d-1} - s_d, s_d)
    """
    s = list(itertools.accumulate(root.coeffs))
    last = s.pop()
    twice = [x + x for x in s]
    family = group.family
    if family is Family.SU:
        if last:
            raise ValueError(f"{root!r} is not in the span of the simple basis")
    elif family is Family.SO_ODD:
        twice.append(last + last)
    elif family is Family.SP:
        twice.append(last)
    else:
        twice[-1] -= last
        twice.append(last)
    return tuple(twice)


def black_roots(diagram) -> tuple[Root, ...]:
    """Q: the positive roots with nonzero coefficient on some black simple
    root, sorted, by their definition; the reference for the block rule
    that matrices.build_Z reads -Q by.  The black part R_M of the root
    system is Q u -Q."""
    group = diagram.group
    black_idx = [p - 1 for p in diagram.black]
    out = []
    for r in positive_roots(group):
        twice = twice_simple_coefficients(group, r)
        if any(twice[i] for i in black_idx):
            out.append(r)
    return tuple(out)


def all_roots(group) -> frozenset[Root]:
    """R = R+ and its negatives."""
    pos = positive_roots(group)
    return frozenset(pos) | frozenset(-r for r in pos)


def simple_roots(group) -> tuple:
    """The canonical simple basis, indexed 1..num_simple: e_i - e_{i+1},
    then 2e_d (Sp), e_{d-1} + e_d (SOeven) or e_d (SOodd)."""
    d = group.rank

    def root(*coords):
        coeffs = [0] * d
        for i, c in coords:
            coeffs[i - 1] += c
        return Root(tuple(coeffs))

    basis = [root((i, 1), (i + 1, -1)) for i in range(1, d)]
    if group.family is Family.SP:
        basis.append(root((d, 2)))
    elif group.family is Family.SO_EVEN:
        basis.append(root((d - 1, 1), (d, 1)))
    elif group.family is Family.SO_ODD:
        basis.append(root((d, 1)))
    return tuple(basis)


def simple_coefficients(group, root) -> tuple:
    """Exact expansion coefficients of a root over the simple basis: half
    of twice_simple_coefficients, an int where it is integral
    and a Fraction where it is not (only Sp and SOeven halve s_d)."""
    return tuple(c >> 1 if c % 2 == 0 else Fraction(c, 2)
                 for c in twice_simple_coefficients(group, root))


def elimination_coefficients(group, root) -> tuple:
    """Expansion coefficients of a root over the simple basis, solved by a
    Fraction Gaussian elimination; raises if root is not in the span."""
    basis = simple_roots(group)
    n = group.rank
    m = len(basis)
    # Gaussian elimination on the n x (m+1) augmented system
    aug = [
        [Fraction(basis[j].coeffs[i]) for j in range(m)] + [Fraction(root.coeffs[i])]
        for i in range(n)
    ]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, n) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        scale = aug[row][col]
        aug[row] = [x / scale for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == n:
            break
    for r in range(row, n):
        if aug[r][m]:
            raise ValueError(f"{root!r} is not in the span of the simple basis")
    coeffs = [Fraction(0)] * m
    for r, c in pivots:
        coeffs[c] = aug[r][m]
    return tuple(coeffs)


def height(group, root) -> int:
    """Sum of the simple-basis coefficients, from the integer closed form
    twice_simple_coefficients; defined for positive roots."""
    twice = twice_simple_coefficients(group, root)
    if not all(c >= 0 for c in twice) or not any(twice):
        raise ValueError(f"{root!r} is not a positive root of {group.label()}")
    # an odd entry is a half-integral coefficient
    if any(c % 2 for c in twice):
        raise EngineInvariantError("non-integral simple-root expansion")
    return sum(twice) >> 1


def elimination_height(group, root) -> int:
    """Sum of the elimination's coefficients; raises ValueError unless they
    are nonnegative integers, not all zero."""
    coeffs = elimination_coefficients(group, root)
    if not all(c >= 0 and c.denominator == 1 for c in coeffs) or not any(coeffs):
        raise ValueError(f"{root!r} has no height in {group.label()}")
    return int(sum(coeffs))


def prefix_sum_coefficients(group, root) -> tuple:
    """The simple-basis coefficients in Fractions, from the prefix sums s_k
    of the e-coordinates: s_1..s_{d-1} (SU, which needs s_d = 0),
    s_1..s_{d-1}, s_d / 2 (Sp), s_1..s_d (SOodd) and s_1..s_{d-2},
    s_{d-1} - s_d / 2, s_d / 2 (SOeven)."""
    s = [Fraction(x) for x in itertools.accumulate(root.coeffs)]
    if group.family is Family.SU:
        if s[-1]:
            raise ValueError(f"{root!r} is not in the span of the simple basis")
        return tuple(s[:-1])
    if group.family is Family.SO_ODD:
        return tuple(s)
    half = s[-1] / 2
    if group.family is Family.SP:
        return (*s[:-1], half)
    return (*s[:-2], s[-2] - half, half)


def prefix_sum_height(group, root) -> int:
    """Sum of the Fraction prefix-sum coefficients; raises ValueError unless
    they are nonnegative integers, not all zero."""
    coeffs = prefix_sum_coefficients(group, root)
    if not all(c >= 0 and c.denominator == 1 for c in coeffs) or not any(coeffs):
        raise ValueError(f"{root!r} has no height in {group.label()}")
    return int(sum(coeffs))


def poincare_from_heights(heights) -> tuple:
    """Coefficients in t of prod (1 - t^(h+1)) / (1 - t^h) over the heights,
    as the power series prod (1 - t^(h+1)) * prod sum_k t^(k h) cut at
    degree len(heights), the degree of the quotient polynomial."""
    top = len(heights)
    series = [1] + [0] * top
    for h in heights:
        # times 1 / (1 - t^h): running sum with stride h
        for i in range(h, top + 1):
            series[i] += series[i - h]
        # times 1 - t^(h+1)
        for i in range(top, h, -1):
            series[i] -= series[i - h - 1]
    return tuple(series)


def _times_binomial(poly: list, k: int) -> list:
    """poly * (1 - t^k)."""
    out = poly + [0] * k
    for i, c in enumerate(poly):
        out[i + k] -= c
    return out


def poincare_by_division(heights) -> tuple:
    """Coefficients in t of prod (1 - t^(h+1)) / (1 - t^h) over the heights:
    both products multiplied out in full, then the numerator divided by the
    denominator by long division from the low end, which must leave no
    remainder."""
    num = den = [1]
    for h in heights:
        num = _times_binomial(num, h + 1)
        den = _times_binomial(den, h)
    rem = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot)):
        quot[i] = rem[i]  # den[0] = 1
        for j, c in enumerate(den):
            rem[i + j] -= quot[i] * c
    if any(rem):
        raise ValueError("the product is not a polynomial")
    return tuple(quot)


def root_vector(group, alpha: Root) -> tuple:
    """E_alpha in the fixed realization, group.matrix_size square, as its
    one or two nonzero entries (row, col, sign), each sign +-1.  Each
    branch is one shape of root of the family; any other alpha raises."""
    d = group.rank
    fam = group.family
    sup = ([(i + 1, c) for i, c in enumerate(alpha.coeffs) if c]
           if len(alpha.coeffs) == d else [])
    signs = [c for _, c in sup]
    if signs in ([1, -1], [-1, 1]):  # e_i - e_j, i and j swapped for -1, 1
        (i, ci), (j, _) = sup
        if ci == -1:
            i, j = j, i
        if fam is Family.SU:
            return ((i - 1, j - 1, 1),)
        return ((i - 1, j - 1, 1), (d + j - 1, d + i - 1, -1))
    if fam is not Family.SU and signs in ([1, 1], [-1, -1]):
        (i, ci), (j, _) = sup
        skew = 1 if fam is Family.SP else -1
        if ci == 1:  # e_i + e_j, upper-right block
            return ((i - 1, d + j - 1, 1), (j - 1, d + i - 1, skew))
        # -e_i - e_j, lower-left block
        return ((d + i - 1, j - 1, 1), (d + j - 1, i - 1, skew))
    if fam is Family.SP and signs in ([2], [-2]):
        # +-2e_i, single entry keeps signs in {-1, +1}
        i = sup[0][0]
        if signs[0] == 2:
            return ((i - 1, d + i - 1, 1),)
        return ((d + i - 1, i - 1, 1),)
    if fam is Family.SO_ODD and signs in ([1], [-1]):
        # SO(2d+1) short roots +-e_i use the last row and column
        i = sup[0][0]
        if signs[0] == 1:
            return ((i - 1, 2 * d, 1), (2 * d, d + i - 1, -1))
        return ((d + i - 1, 2 * d, 1), (2 * d, i - 1, -1))
    raise ValueError(f"{alpha!r} is not a root of {group.label()}")


def placed_entries(atlas) -> dict:
    """The entry map that places atlas.vars through root_vector, variable
    by variable, as build_Z assembles Z."""
    return {(r, c): (v, s) for v, alpha in enumerate(atlas.vars)
            for r, c, s in root_vector(atlas.diagram.group, alpha)}


def cartan_diagonal(group, hs) -> list:
    """Diagonal of a Cartan element for functional values e_i = hs[i-1]."""
    hs = list(hs)
    if len(hs) != group.rank:
        raise ValueError("need one value per e_i")
    if group.family is Family.SU:
        return hs
    diag = hs + [-h for h in hs]
    if group.family is Family.SO_ODD:
        diag.append(0 * hs[0])
    return diag


def validate_Q(group, q, r_m) -> bool:
    """True iff q is maximal closed nonsymmetric in r_m: q and -q partition
    r_m, and q is closed under addition within the full root system."""
    qs = set(q)
    ms = set(r_m)
    if not qs <= ms:
        return False
    neg = {-r for r in qs}
    if qs | neg != ms or qs & neg:
        return False
    roots = all_roots(group)
    for a, b in itertools.combinations(qs, 2):
        s = a + b
        if s in roots and s not in qs:
            return False
    return True


def black_part(diagram) -> frozenset[Root]:
    """R_M: the roots with a nonzero coefficient on some black simple root,
    by the elimination; Q u -Q, for Q as black_roots defines it."""
    group = diagram.group
    return frozenset(
        r for r in all_roots(group)
        if any(elimination_coefficients(group, r)[p - 1] for p in diagram.black)
    )


def white_roots(diagram) -> frozenset[Root]:
    """The roots of the Levi factor: those off every black simple root."""
    return all_roots(diagram.group) - black_part(diagram)


def is_admissible(diagram, l: int) -> bool:
    """Direct invariance check for the minor Delta_l: no white-root vector
    may carry an entry from the leading l rows into the trailing columns."""
    for root in sorted(white_roots(diagram)):
        for r, c, _ in root_vector(diagram.group, root):
            if r < l <= c:
                return False
    return True


# ---------------------------------------------------- trinomial catalog

TRINOMIAL_WEIGHTS = {
    "I": Fraction(1, 2),
    "II": Fraction(-1, 2),
    "III": Fraction(-1),
    "IV": Fraction(1),
}


@dataclass(frozen=True)
class Trinomial:
    """One catalog entry: the kind, the matrix indices used (1-based), the
    kind weight, the signed coefficient after entry signs, and the degree-3
    monomial it contributes."""

    kind: str
    indices: tuple
    weight: Fraction
    coeff: Fraction
    monomial: Monomial


def catalog_trinomials(atlas, r: int) -> list:
    """All nonvanishing bidegree-(1,2) trinomials of Delta_r of the Gram
    matrix, enumerated by kind.

    Kinds, with Zb denoting a conjugated entry (indices are 1-based):
      I   +1/2 * Z[s,i]  Zb[s,t] Zb[t,i]   i <= r,        s,t = 1..m
      II  -1/2 * Z[i,j]  Zb[i,s] Zb[s,j]   i,j <= r, i!=j, s = 1..m
      III  -1  * Z[s,i]  Zb[s,j] Zb[j,i]   i,j <= r, i!=j, s = 1..m
      IV   +1  * Z[a,b]  Zb[a,c] Zb[c,b]   a,b,c <= r pairwise distinct
    """
    m = atlas.size
    if r > m:
        raise ValueError(f"minor size {r} exceeds matrix size {m}")
    ent = atlas.entries

    def z(i: int, j: int):
        return ent.get((i - 1, j - 1))

    out = []

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


def catalog_sum(trinomials) -> Polynomial:
    acc = Polynomial.zero()
    for t in trinomials:
        acc = acc + Polynomial({t.monomial: t.coeff})
    return acc


# ------------------------------------------------------------ powers of Z

def nilpotent_powers(z: Matrix, last=None):
    """Yield (k, Z^k) for k = 1, 2, ... while Z^k is nonzero, each power
    the symbolic product Z^(k-1) @ Z, stopping after k = last when given.
    A nonzero Z^size means Z is not nilpotent."""
    power = z
    k = 1
    while not power.is_zero():
        if k >= z.size:
            raise EngineInvariantError("Z is not nilpotent")
        yield k, power
        if k == last:
            return
        k += 1
        power = power @ z


def nilpotency_index(atlas) -> int:
    """Smallest k with Z^k identically zero, by symbolic matrix powers."""
    return 1 + sum(1 for _ in nilpotent_powers(Matrix.chart(atlas)))


def exp_Z(atlas, degree):
    """exp(Z) as the matrix sum I + Z + Z^2/2 + ... of truncated symbolic
    powers, stopping at Z^degree or at the first zero power."""
    z = Matrix.chart(atlas).truncate(degree)
    acc = Matrix.identity(z.size, degree)
    for k, power in nilpotent_powers(z, degree):
        acc = acc + power.scale(Fraction(1, math.factorial(k)))
    return acc


# ------------------------------------------------- reference Gram route

def minor_det(mat: Matrix, l: int) -> Polynomial:
    """Determinant of the leading l x l submatrix, exact and truncation-aware.

    Laplace expansion along columns with memoization on the set of unused
    rows; zero entries are skipped, so sparse matrices stay cheap.
    """
    if l > mat.size:
        raise ValueError(f"minor size {l} exceeds matrix size {mat.size}")
    if l == 0:
        return Polynomial.one(mat.trunc)
    ent = {
        (i, j): p for (i, j), p in mat.entries.items() if i < l and j < l
    }
    memo: dict[tuple[int, ...], Polynomial] = {}

    def expand(rows: tuple[int, ...]) -> Polynomial:
        if not rows:
            return Polynomial.one(mat.trunc)
        cached = memo.get(rows)
        if cached is not None:
            return cached
        col = l - len(rows)
        acc = Polynomial.zero(mat.trunc)
        for idx, r in enumerate(rows):
            p = ent.get((r, col))
            if p is None:
                continue
            sub = expand(rows[:idx] + rows[idx + 1:])
            term = p * sub
            if idx % 2:
                term = -term
            acc = acc + term
        memo[rows] = acc
        return acc

    return expand(tuple(range(l)))


def log1p_expand(p: Polynomial, degree: int) -> Polynomial:
    """ln(1 + p) truncated to total degree <= degree; p must have no
    constant term (its minimum total degree is then >= 1)."""
    if p.constant_term():
        raise ValueError("log1p_expand requires a zero constant term")
    p = p.truncate(degree)
    acc = Polynomial.zero(degree)
    power = p
    n = 1
    while n <= degree and not power.is_zero():
        acc = acc + power * Fraction((-1) ** (n + 1), n)
        n += 1
        if n <= degree:
            power = power * p
    return acc


def linear_combination(parts, trunc) -> Polynomial:
    """sum of sign * c[k] * p over (label k, sign +-1, rational p) parts,
    one CoeffForm per monomial.  A label may recur; monomials keep the order
    of their first appearance, and those whose form cancels are dropped."""
    lams: dict[Monomial, dict[int, Fraction]] = {}
    for k, sign, p in parts:
        for m, x in p.terms.items():
            lam = lams.setdefault(m, {})
            val = x if sign > 0 else -x
            lam[k] = lam[k] + val if k in lam else val
    return Polynomial(
        {m: CoeffForm(lam.items()) for m, lam in lams.items()}, trunc
    )


def gram_logs(diagram, degree) -> list:
    """[(l, ln Delta_l(A))] for A = (exp Z)^H exp Z and each black position
    l, each log a rational Polynomial truncated to total degree <= degree."""
    atlas = build_Z(diagram)
    a = gram(exp_Z(atlas, degree))
    logs = []
    for l in diagram.black:
        arg = minor_det(a, l) - Polynomial.one(degree)
        if arg.constant_term():
            raise EngineInvariantError("minor determinant has constant term != 1")
        logs.append((l, log1p_expand(arg, degree)))
    return logs


def combine_logs(logs, coeffs, degree) -> Polynomial:
    """sum_k c_k ln Delta_{l_k}: for coeffs None a linear combination of
    the logs, else the running sum total + log * c_k, with the values
    coeffs aligned with the logs."""
    if coeffs is None:
        return linear_combination(((l, 1, p) for l, p in logs), degree)
    total = Polynomial.zero(degree)
    for (_, p), c in zip(logs, coeffs):
        total = total + p * c
    return total


# ------------------------------------------------------- forbidden jet

def leading_solve(mat, l: int, cols, trunc):
    """r -> {c: (M_l^{-1} M[:l, r])[c]} for each r in cols, where mat maps
    (row, col) to the nonzero Polynomial entries of M and its leading
    l x l block M_l is I at the origin.

    With N = M_l - I, M_l^{-1} = sum_k (-N)^k.  N has no constant term, so
    under a degree bound the series is exact once (-N)^k drops out; without
    one it ends because M_l is unipotent (N^l = 0)."""
    zero = Polynomial.zero(trunc)
    one = Polynomial.one(trunc)
    neg_n = {}
    for a in range(l):
        for b in range(l):
            n = mat.get((a, b), zero)
            if a == b:
                n = n - one
            if n.constant_term():
                raise EngineInvariantError(
                    f"leading {l}x{l} block of exp Z is not I at the origin"
                )
            if not n.is_zero():
                neg_n.setdefault(a, []).append((b, -n))
    out = {}
    for r in cols:
        x = {a: mat[(a, r)] for a in range(l) if (a, r) in mat}
        term = dict(x)
        for k in range(1, l + 1):
            # term becomes (-N)^k M[:l, r]
            nxt = {}
            for a, row in neg_n.items():
                acc = None
                for b, nab in row:
                    t = term.get(b)
                    if t is not None:
                        acc = nab * t if acc is None else acc + nab * t
                if acc is not None and not acc.is_zero():
                    nxt[a] = acc
            if not nxt:
                break
            if k == l:
                raise EngineInvariantError(
                    f"leading {l}x{l} block of exp Z is not unipotent"
                )
            for a, p in nxt.items():
                x[a] = x[a] + p if a in x else p
            term = nxt
        out[r] = x
    return out


def jet_half(mat, atlas, black, trunc) -> dict:
    """v -> sum_k c_k sum_{(r,c,s) in E_v, c < l_k <= r} s*X_{l_k}[c, r]
    over the black positions l_k, with X_l = M_l^{-1} M[:l, l:], each
    monomial's linear form in the c_k collected once, at the end."""
    ent = atlas.entries
    parts = {}
    for l in black:
        wanted = [(r, c, v, s) for (r, c), (v, s) in ent.items() if c < l <= r]
        x = leading_solve(mat, l, sorted({r for r, *_ in wanted}), trunc)
        for r, c, v, s in wanted:
            p = x[r].get(c)
            if p is not None:
                parts.setdefault(v, []).append((l, s, p))
    return {v: linear_combination(ps, trunc) for v, ps in parts.items()}


def forbidden_jet(diagram, degree) -> Polynomial:
    """The (1, q) and (p, 1) parts of the symbolic potential, to total
    degree <= degree or at every degree for None, by Neumann solves in the
    Polynomial ring: the (1, q) half from X_l = U_l^{-1} U[:l, l:] with
    U = (exp Z)^H, the (p, 1) half from the same solve on the transpose of
    exp Z."""
    atlas = build_Z(diagram)
    trunc = None if degree is None else degree - 1
    e = exp_Z(atlas, trunc)
    dz = jet_half(e.conj_transpose().entries, atlas, diagram.black, trunc)
    dzb = jet_half({(j, i): p for (i, j), p in e.entries.items()},
                   atlas, diagram.black, trunc)
    terms = {
        Monomial(((v, 1),), m.anti): f
        for v, poly in dz.items() for m, f in poly.terms.items()
    }
    terms.update(
        (Monomial(m.holo, ((v, 1),)), f)
        for v, poly in dzb.items() for m, f in poly.terms.items()
        if m.total >= 2
    )
    return Polynomial(terms, degree)


def report_by_sorting(poly) -> tuple:
    """The forbidden report's entries by their definition: every term
    sorted by total degree, then holo, then anti (a key written out here,
    not the Monomial's own tuple order, so the order is checked rather than
    reused), those of bidegree (1, q >= 2) or (p >= 2, 1) kept.  Raises
    EngineInvariantError unless the conjugate Monomial of each kept one
    carries an equal form."""
    ordered = sorted(poly.terms.items(),
                     key=lambda kv: (kv[0].total, kv[0].holo, kv[0].anti))
    entries = tuple((m, f) for m, f in ordered
                    if (m.p == 1 and m.q >= 2) or (m.q == 1 and m.p >= 2))
    by_mono = dict(entries)
    for m, f in entries:
        if by_mono.get(m.conj()) != f:
            raise EngineInvariantError("forbidden report is not "
                                       "conjugate-closed")
    return entries


def report_of(poly) -> ForbiddenReport:
    """The forbidden report of an expansion or of a jet's Polynomial
    form, by report_by_sorting, checked through the truncation degree."""
    return ForbiddenReport(report_by_sorting(poly), poly.trunc)


def exponents(pack, packed: int) -> tuple:
    """The (variable, exponent) pairs of a packed monomial, by variable."""
    return pack.decode(packed, [0] * (pack.top // pack.width))[0]


def jet_polynomial(jet) -> Polynomial:
    """The Polynomial form of a PackedJet: z_v zb^m and, for m of degree
    d >= 2, z^m zb_v, each with the form sum_l (n / d!) c_l of
    jet.forms[v][m], decoded afresh; zero forms are dropped."""
    pack = jet.packing
    terms = {}
    for v, forms in jet.forms.items():
        for m, lam in forms.items():
            d = pack.degree(m)
            form = CoeffForm((k, Fraction(n, math.factorial(d)))
                             for k, n in lam.items())
            exps = exponents(pack, m)
            terms[Monomial(((v, 1),), exps)] = form
            if d >= 2:
                terms[Monomial(exps, ((v, 1),))] = form
    return Polynomial(terms, jet.degree)


def product_jet(diagram, degree) -> Polynomial:
    """The (1, q) and (p, 1) parts of the symbolic potential, to total
    degree <= degree or at every degree for None, on the packed exp Z:
    Y_l[r, c] = sum_{a < l} E[r, a] F[a, c] with E = exp Z and F = exp(-Z),
    E with the sign (-1)^d on each term of degree d, which is E_l^{-1} on
    the leading block because no chart entry lies above a split.  Each
    product E[r, a] F[a, c] is formed once per chart entry and feeds every
    split l > a; the sum over all a is (E F)[r, c] = 0, which is checked."""
    atlas = build_Z(diagram)
    # E and F have degree <= K, the top power of Z, so every product
    # E[r, a] F[a, c] has degree <= 2K, which the chart's packing holds
    bound = 2 * (matrices.nilpotency_index(atlas) - 1)
    limit = bound if degree is None else min(degree - 1, bound)
    pack = atlas.packing
    e = _packed_exp(atlas, pack, limit)
    f = {key: {m: -n if pack.degree(m) % 2 else n for m, n in t.items()}
         for key, t in e.items()}
    mul = _truncated_product(pack, limit)
    rows = {}
    for (r, a), t in e.items():
        rows.setdefault(r, []).append((a, t))
    dz = {}
    for (r, c), (v, s) in atlas.entries.items():
        splits = [l for l in diagram.black if c < l <= r]
        if not splits:
            continue
        forms = dz.setdefault(v, {})
        total = {}
        for a, t in rows[r]:
            q = f.get((a, c))
            if q is None:
                continue
            prod = mul(t, q)
            _accumulate(total, prod, 1)
            for l in splits:
                if a < l:
                    for m, n in prod.items():
                        lam = forms.setdefault(m, {})
                        lam[l] = lam.get(l, 0) + s * n
        if total:
            raise EngineInvariantError(
                f"exp(Z) exp(-Z) is not I at chart entry ({r},{c})")
    return jet_polynomial(PackedJet(dz, {}, pack, degree))


def degree_three_jet(diagram) -> Polynomial:
    """The forbidden jet to total degree <= 3 from the blocks of Z alone,
    without exp Z: to degree 2 in z, Y_l = E[l:, :l] E_l^{-1} is
    Z21 + (Z22 Z21 - Z21 Z_l) / 2, with Z21 = Z[l:, :l], Z22 = Z[l:, l:]
    and Z_l = Z[:l, :l].  The coefficient of zb_v is the signed sum of the
    Y_{l_k}[r, c] over the entries (r, c, s) of E_v with c < l_k <= r,
    weighted by the c_k, and that of z_v is its conjugate."""
    atlas = build_Z(diagram)
    z = Matrix.chart(atlas)

    def block(rows, cols) -> Matrix:
        return Matrix(z.size, {(i, j): p for (i, j), p in z.entries.items()
                               if i in rows and j in cols})

    parts = {}
    for l in diagram.black:
        lead, tail = range(l), range(l, z.size)
        z21 = block(tail, lead)
        second = block(tail, tail) @ z21 + (z21 @ block(lead, lead)).scale(-1)
        y = z21 + second.scale(Fraction(1, 2))
        for (r, c), (v, s) in atlas.entries.items():
            if c < l <= r and (r, c) in y.entries:
                parts.setdefault(v, []).append((l, s, y.entries[(r, c)]))
    terms = {}
    for v, ps in parts.items():
        for m, f in linear_combination(ps, 2).terms.items():
            terms[Monomial(((v, 1),), m.holo)] = f
            if m.total >= 2:
                terms[Monomial(m.holo, ((v, 1),))] = f
    return Polynomial(terms, 3)


# ------------------------------------------------------- numeric lane

def numeric_Z(atlas, zvals):
    """Dense complex Z(z) at a numeric point, as nested lists."""
    m = atlas.size
    out = [[0j] * m for _ in range(m)]
    for (r, c), (v, s) in atlas.entries.items():
        out[r][c] = s * complex(zvals[v])
    return out


def potential_pointwise(atlas, black, point, coeffs) -> float:
    """sum_k c_k ln Delta_{l_k}((exp Z)^H exp Z) over the black positions
    l_k at one point, from the dense matrix exponential and numpy
    determinants."""
    z = np.array(numeric_Z(atlas, point), dtype=complex)
    m = z.shape[0]
    e = np.eye(m, dtype=complex)
    power = np.eye(m, dtype=complex)
    for k in range(1, m):
        power = power @ z / k
        e = e + power
    a = e.conj().T @ e
    acc = 0.0
    for c, l in zip(coeffs, black):
        acc += float(c) * math.log(np.linalg.det(a[:l, :l]).real)
    return acc


def hessian_fd_pointwise(diagram, coeffs, step: float = 1e-4):
    """Complex Hessian d^2/dz_a dzb_b of the potential at the origin by
    polarization, from one-point evaluations: along u = e_a, e_a + e_b and
    e_a + i e_b, (f(hu) - 2 f(0) + f(-hu)) / (2 h^2) reads H[a, a],
    H[a, a] + H[b, b] + 2 Re H[a, b] and H[a, a] + H[b, b] + 2 Im H[a, b].
    This two-sided stencil cancels odd terms whatever their torus weight;
    hessian_fd reads only the +hu half, which the torus symmetry makes
    equal to the -hu half."""
    atlas = build_Z(diagram)
    black = diagram.black
    n = atlas.nvars
    h = step
    f0 = potential_pointwise(atlas, black, [0j] * n, coeffs)

    def quad(direction) -> float:
        u = [0j] * n
        for a, x in direction:
            u[a] = x
        plus = potential_pointwise(atlas, black, [h * x for x in u], coeffs)
        minus = potential_pointwise(atlas, black, [-h * x for x in u], coeffs)
        return (plus - 2 * f0 + minus) / (2 * h * h)

    hess = np.zeros((n, n), dtype=complex)
    for a in range(n):
        hess[a, a] = quad([(a, 1)])
    for a in range(n):
        for b in range(a + 1, n):
            both = hess[a, a].real + hess[b, b].real
            re = (quad([(a, 1), (b, 1)]) - both) / 2
            im = (quad([(a, 1), (b, 1j)]) - both) / 2
            hess[a, b] = complex(re, im)
            hess[b, a] = complex(re, -im)
    return hess


def hessian_fd_real_pointwise(diagram, coeffs, step: float = 1e-4):
    """Central finite-difference complex Hessian of the potential at the
    origin, from one-point evaluations: four per mixed second derivative of
    the real coordinates (x_0, y_0, x_1, ...), and d^2/dz_a dzb_b assembled
    from four of those.  This stencil takes the Hermitian part, so it drops
    a pure (2,0) term that the polarization stencil keeps."""
    atlas = build_Z(diagram)
    black = diagram.black
    n = atlas.nvars

    def f(real_vec) -> float:
        point = [complex(real_vec[2 * a], real_vec[2 * a + 1]) for a in range(n)]
        return potential_pointwise(atlas, black, point, coeffs)

    f0 = f([0.0] * 2 * n)

    def second(a: int, b: int) -> float:
        h = step
        if a == b:
            va = [0.0] * 2 * n
            va[a] = h
            vb = [0.0] * 2 * n
            vb[a] = -h
            return (f(va) - 2 * f0 + f(vb)) / (h * h)
        acc = 0.0
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            v = [0.0] * 2 * n
            v[a] = sa * h
            v[b] = sb * h
            acc += sa * sb * f(v)
        return acc / (4 * h * h)

    hess = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            xa, ya = 2 * a, 2 * a + 1
            xb, yb = 2 * b, 2 * b + 1
            real = second(xa, xb) + second(ya, yb)
            imag = second(xa, yb) - second(ya, xb)
            hess[a, b] = 0.25 * (real + 1j * imag)
    return hess


# ------------------------------------------------------ linear constraints

def gauss_jordan(rows) -> list:
    """Reduced row-echelon form over Fraction: the nonzero rows with pivot
    1, sorted by pivot column."""
    mat = [[Fraction(x) for x in r] for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        scale = mat[row][col]
        mat[row] = [x / scale for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[row])]
        row += 1
        if row == len(mat):
            break
    out = [tuple(r) for r in mat if any(r)]
    out.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
    return out


def verdict_by_full_elimination(report, black) -> BochnerVerdict:
    """The verdict by its definition: gauss_jordan over the Fraction rows
    of the forbidden entries (a repeated row spans nothing new, so each
    enters once), then the phase-one LP on the reduced rows at any rank;
    the witness is the first entry with a sign-definite form, else the
    first entry."""
    degree = report.degree_checked
    if not report.entries:
        return BochnerVerdict(BochnerStatus.BOCHNER_FOR_ALL_C, black, degree)
    rows = dict.fromkeys(tuple(dict(f.terms).get(p, 0) for p in black)
                         for _, f in report.entries)
    reduced = gauss_jordan(list(rows))
    if positive_solution_exists(reduced):
        return BochnerVerdict(BochnerStatus.BOCHNER_IFF, black, degree,
                              constraints=tuple(reduced))
    witness = next((e for e in report.entries if e[1].orthant_sign()),
                   report.entries[0])
    return BochnerVerdict(BochnerStatus.NEVER_BOCHNER, black, degree,
                          witness=witness)
