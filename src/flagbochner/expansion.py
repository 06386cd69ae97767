"""The invariant potential and its exact truncated expansion.

For a painted diagram with black positions l_1 < ... < l_s, the potential is

    D0(z) = sum_k c_k * ln Delta_{l_k}(A),    A = (exp Z)^H exp Z,

a real-analytic function vanishing at 0.  In the split basis that matrices
fixes, the chain node e_p - e_{p+1} pairs with the invariant leading
principal minor Delta_p and the terminal node d with Delta_d, so the minor
sizes are the black positions and c_l labels ln Delta_l; PaintedDiagram
refuses the fork node d - 1 of SO(2d) and repeated nodes, and sorts black.

Its expansion to a chosen total degree, the Polynomial diastasis returns,
has exact coefficients linear in the c parameters.  It runs exp Z, the
leading block of the Gram matrix that the minors read, its Laplace minors
and the log series on packed monomials (matrices.Packing, z and zb fields
side by side) with integer numerators over d!, and builds Monomials,
Fractions and the linear forms once, for the finished terms.  Each step
keeps the loop order of the Polynomial ring route kept in tests/oracles.py,
so both list the finished terms in the same order, and the numeric lane,
which sums floats in that order, is the same to the last bit.  The
expansion is centered at the distinguished point, so it has no pure
holomorphic or antiholomorphic terms and its (1,1) part is a positive
diagonal; both facts are asserted, not assumed.

The numeric lane compares a numeric expansion (truncated_value,
symbolic_metric) with the exact potential, which eval_numeric evaluates
from numpy Gram minors at a whole stack of points in one call.

The Bochner verdict needs only the potential's (1, .) and (., 1) parts.
forbidden_jet computes them from Z alone, at every degree if asked, by the
recursion W_1 = Z21, W_(n+1) = Z W_n - W_n Z at each split, which
multiplies only by the entries +-z_v of Z, and checks the torus weight of
every term; the expansion serves the numeric lane and the tests.
"""

from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction

from .lie_core import PaintedDiagram
from .matrices import (CoordinateAtlas, Packing, add_shifted, build_Z,
                       z_powers)
from .poly import CoeffForm, EngineInvariantError, Monomial, Polynomial


class NumericDomainError(ValueError):
    """The exact potential is undefined at the requested point."""


def _parse_coeffs(diagram: PaintedDiagram, coeffs):
    """None for symbolic coeffs (None or "symbolic"), else the values, one
    per black node, from any iterable of numbers; other strings raise."""
    if isinstance(coeffs, str) and coeffs != "symbolic":
        raise ValueError(f"coeffs must be 'symbolic' or numbers, not {coeffs!r}")
    if coeffs is None or isinstance(coeffs, str):
        return None
    values = [Fraction(v) for v in coeffs]
    if len(values) != len(diagram.black):
        raise ValueError(
            f"need {len(diagram.black)} coefficients, got {len(values)}"
        )
    if any(v <= 0 for v in values):
        raise ValueError("Kaehler coefficients must be positive")
    return tuple(values)


def _check_potential(terms, nvars: int, coeff_values) -> None:
    """The checks every finished potential or jet passes, in one walk over
    its terms, a Monomial -> coefficient dict: there is no pure or
    constant term, and the (1,1) part is a positive diagonal over all
    nvars variables.  Coefficients are CoeffForms when coeff_values is
    None, and positive means every lam_k > 0; otherwise numbers."""
    seen = set()
    for m, f in terms.items():
        p, q = m.p, m.q
        if not (p and q):
            raise EngineInvariantError(
                f"pure term of bidegree ({p},{q}) in the potential" if p or q
                else "nonzero constant term in the potential"
            )
        if p != 1 or q != 1:
            continue
        v = m.holo[0][0]
        if v != m.anti[0][0]:
            raise EngineInvariantError("off-diagonal (1,1) term in the potential")
        ok = all(l > 0 for _, l in f.terms) if coeff_values is None else f > 0
        if not ok:
            raise EngineInvariantError("(1,1) coefficient is not a positive form")
        seen.add(v)
    missing = set(range(nvars)) - seen
    if missing:
        raise EngineInvariantError(
            f"variables {sorted(missing)} missing from the (1,1) part"
        )


# degree 2 is the lowest that carries the (1,1) part of the potential, and
# 3 the lowest with a forbidden monomial: a verdict below it is vacuous
LOWEST_DEGREE = 2
LOWEST_VERDICT_DEGREE = 3


def _check_degree(degree, lowest: int) -> None:
    if not isinstance(degree, int) or degree < lowest:
        raise ValueError(
            f"degree must be an integer at least {lowest}, got {degree!r}")


def _packed_exp(atlas: CoordinateAtlas, pack: Packing,
                limit: int | None) -> dict[tuple[int, int], dict[int, int]]:
    """exp Z to total degree <= limit, or untruncated for None, as
    (row, col) -> {packed: n}, in pack; a term of total degree d stands
    for n / d!, so Z^k / k! keeps the powers' integers.  Entries come
    diagonal first, then in the order the powers reach them; terms by k,
    then in the power's own order."""
    out = {(i, i): {0: 1} for i in range(atlas.size)}
    for power in z_powers(atlas, pack, limit):
        for key, terms in power.items():
            out.setdefault(key, {}).update(terms)
    return out


# The Gram route below runs the loops of the Polynomial ring route
# (tests/oracles.py) on packed monomials with integer numerators: each
# step inserts, updates and pops terms exactly as its counterpart there,
# so the finished expansion lists its terms in the same order.

def _accumulate(acc: dict[int, int], terms: dict[int, int], scale: int) -> None:
    """acc += scale * terms in place, as Polynomial.__add__ builds a sum:
    a new monomial goes last, one whose sum cancels is popped."""
    for m, n in terms.items():
        s = acc.get(m, 0) + n * scale
        if s:
            acc[m] = s
        else:
            del acc[m]


def _truncated_product(pack: Packing, degree: int):
    """p * q to total degree <= degree on the n / d! encoding, as
    Polynomial.__mul__ forms it: each term of p walks the terms of q that
    fit its budget, in q's order, so no product above degree is formed
    and no field can overflow.  n1/a! * n2/b! = n1 n2 C(a+b, a) / (a+b)!,
    so a product multiplies the numerators and one binomial."""
    if degree > pack.max_degree:
        raise EngineInvariantError(
            f"{pack.width}-bit fields cannot hold total degree {degree}"
        )
    top = pack.top
    # binom[a][b] = C(a + b, a) for a + b <= degree
    binom = [[math.comb(a + b, a) for b in range(degree + 1 - a)]
             for a in range(degree + 1)]

    def mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        items = [(m, n, m >> top) for m, n in q.items()]
        rows: dict[int, list] = {}  # by the degree of p's term
        for m1, n1 in p.items():
            d1 = m1 >> top
            row = rows.get(d1)
            if row is None:
                c = binom[d1]
                row = rows[d1] = [(m2, n2 * c[d2]) for m2, n2, d2 in items
                                  if d2 < len(c)]
            for m2, n2 in row:
                m = m1 + m2
                s = out.get(m, 0) + n1 * n2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return out

    return mul


def _packed_gram(e, shift: int, mul):
    """A = (exp Z)^H exp Z from the packed exp Z e, as the reference
    Matrix.__matmul__ forms U @ e for the conjugate transpose U:
    conjugating a holomorphic monomial moves its fields shift bits up."""
    low = (1 << shift) - 1
    u = {(j, i): {m - (m & low) + ((m & low) << shift): n
                  for m, n in t.items()}
         for (i, j), t in e.items()}
    by_row: dict[int, list] = {}
    for (k, j), q in e.items():
        by_row.setdefault(k, []).append((j, q))
    out: dict[tuple[int, int], dict[int, int]] = {}
    for (i, k), p in u.items():
        for j, q in by_row.get(k, ()):
            prod = mul(p, q)
            if not prod:
                continue
            acc = out.get((i, j))
            if acc is None:
                out[(i, j)] = prod
            else:
                _accumulate(acc, prod, 1)
                if not acc:
                    del out[(i, j)]
    return out


def _packed_minor(a, l: int, mul) -> dict[int, int]:
    """Delta_l(A) by Laplace expansion along columns, memoised on the set
    of unused rows, skipping zero entries."""
    ent = {(i, j): p for (i, j), p in a.items() if i < l and j < l}
    memo: dict[tuple[int, ...], dict[int, int]] = {}

    def expand(rows: tuple[int, ...]) -> dict[int, int]:
        if not rows:
            return {0: 1}
        cached = memo.get(rows)
        if cached is not None:
            return cached
        col = l - len(rows)
        acc: dict[int, int] = {}
        for idx, r in enumerate(rows):
            p = ent.get((r, col))
            if p is None:
                continue
            term = mul(p, expand(rows[:idx] + rows[idx + 1:]))
            _accumulate(acc, term, -1 if idx % 2 else 1)
        memo[rows] = acc
        return acc

    return expand(tuple(range(l)))


def _packed_log1p(x: dict[int, int], degree: int, lcm: int,
                  mul) -> dict[int, int]:
    """ln(1 + x) = sum_n (-1)^(n+1) x^n / n to total degree <= degree, for
    x without constant term; a term of total degree d holds n for
    n / (lcm * d!), lcm a multiple of every n in the series."""
    acc: dict[int, int] = {}
    power, n = x, 1
    while n <= degree and power:
        _accumulate(acc, power, (-1) ** (n + 1) * (lcm // n))
        n += 1
        if n <= degree:
            power = mul(power, x)
    return acc


def diastasis(diagram: PaintedDiagram, degree: int = 3,
              coeffs="symbolic") -> Polynomial:
    """Expansion of sum_k c_k ln Delta_{l_k}(A) to total degree <= degree,
    as a Polynomial truncated at degree: its coefficients are CoeffForms
    keyed by black position for symbolic coeffs, Fractions for numeric.

    Numeric coeffs pair with diagram.black, which is sorted.  Packed
    monomials hold z_v in field v and zb_v in field nvars + v."""
    _check_degree(degree, LOWEST_DEGREE)
    stored = _parse_coeffs(diagram, coeffs)
    atlas = build_Z(diagram)
    nvars = atlas.nvars
    pack = Packing(2 * nvars, degree)
    mul = _truncated_product(pack, degree)
    # the minors read only the leading L x L block of A, L the largest
    # minor, and A[i, j] takes only columns i and j of exp Z
    lead = diagram.black[-1]
    e = {key: t for key, t in _packed_exp(atlas, pack, degree).items()
         if key[1] < lead}
    a = _packed_gram(e, pack.width * nvars, mul)
    denom = math.lcm(*range(1, degree + 1))
    logs = []
    for l in diagram.black:
        arg = _packed_minor(a, l, mul)
        _accumulate(arg, {0: 1}, -1)
        if arg.get(0):
            raise EngineInvariantError("minor determinant has constant term != 1")
        logs.append(_packed_log1p(arg, degree, denom, mul))
    total: dict[int, object] = {}
    if stored is None:
        # one linear form per monomial, in order of first appearance
        for l, log in zip(diagram.black, logs):
            for m, n in log.items():
                lam = total.setdefault(m, {})
                lam[l] = lam.get(l, 0) + n
    else:
        # total + c_k * log_k, each c_k = a_k / scale with integer a_k.
        # Evaluating the symbolic forms instead gives an equal polynomial in
        # another term order: where a partial sum c_1 log_1 + c_2 log_2
        # cancels to 0 the term is popped here and re-enters last (Sp:4
        # {2,3,4} with c = 5,5,3 is one case), and truncated_value, which
        # sums floats in term order, then moves in the last bit
        scale = math.lcm(*(v.denominator for v in stored))
        for v, log in zip(stored, logs):
            _accumulate(total, log, int(v * scale))
        denom *= scale
    fact = [math.factorial(d) * denom for d in range(degree + 1)]
    # weight 1 on the zb fields: decode sums the antiholomorphic degree
    anti = [0] * nvars + [1] * nvars
    terms = {}
    for m, x in total.items():
        exps, q = pack.decode(m, anti)
        d = m >> pack.top
        cut = bisect.bisect_left(exps, (nvars,))
        mono = Monomial._of_bidegree(
            exps[:cut], tuple([(v - nvars, e) for v, e in exps[cut:]]),
            d - q, q)
        den = fact[d]
        if stored is None:
            terms[mono] = CoeffForm((k, Fraction(n, den)) for k, n in x.items())
        else:
            terms[mono] = Fraction(x, den)
    _check_potential(terms, nvars, stored)
    return Polynomial._of_clean(terms, degree)


def _sylvester_terms(atlas: CoordinateAtlas, l: int, targets, last):
    """Yield W_1 = Z21, W_2, ... at the split l, each (r, c) -> {packed: n},
    with W_(n+1) = Z W_n - W_n Z: integer and homogeneous of degree n, so
    W_n / n!, the degree-n part of Y_l, is the n / d! encoding.  A chart
    entry above the split, which would take W out of the (2, 1) block,
    raises.  Stops after a zero W, or after W_last, formed only at the
    positions in targets; last None runs until W vanishes.  Nilpotent Z
    has W_n = 0 past 2K < 2 * size (Y_l = E21 E11^{-1} has degree <= 2K),
    so a W still nonzero at that bound raises."""
    rows, cols = atlas.lines
    pack = atlas.packing
    bound = 2 * atlas.size
    w = {}
    for (r, c), (v, s) in atlas.entries.items():
        if r < l <= c:
            raise EngineInvariantError(
                f"chart entry ({r},{c}) lies above the split at {l}")
        if c < l <= r:
            w[(r, c)] = {pack.variable(v): s}
    n = 1
    while w:
        yield w
        if n == last:
            return
        if n == bound:
            raise EngineInvariantError(f"the recursion at split {l} does "
                                       f"not end by degree {bound}")
        n += 1
        keep = targets if n == last else None
        nxt: dict[tuple[int, int], dict[int, int]] = {}
        for (a, b), t in w.items():
            for r, var, s in cols.get(a, ()):  # Z[r, a] W[a, b]
                if keep is None or (r, b) in keep:
                    add_shifted(nxt.setdefault((r, b), {}), t, var, s)
            for c, var, s in rows.get(b, ()):  # W[a, b] Z[b, c]
                if keep is None or (a, c) in keep:
                    add_shifted(nxt.setdefault((a, c), {}), t, var, -s)
        w = {key: t for key, t in nxt.items() if t}


def forbidden_jet(diagram: PaintedDiagram,
                  degree: int | None = 3) -> Polynomial:
    """The (1, q) and (p, 1) parts of the symbolic potential, to total
    degree <= degree, or at every degree when degree is None.

    At zb = 0, (exp Z)^H = I, so with E = exp Z, dA/dzb_v = E_v^T E, and
    the coefficient of zb_v is
        G_v(z) = sum_k c_k tr(E_{l_k}^{-1} (E_v^T E)_{l_k})
               = sum_k c_k sum_{(r,c,s) in E_v, c < l_k <= r} s*Y_{l_k}[r, c],
    Y_l = E[l:, :l] E_l^{-1}; entries with r < l drop out because root
    vectors are off-diagonal.  The potential is real, so the coefficient
    of z_v is the conjugate of G_v.  No entry of Z lies above a split
    (r < l <= c), so Z is block lower triangular at every split, and
    Y(t) = E(t)21 E(t)11^{-1} with E(t) = exp tZ solves
    Y' = Z21 + Z22 Y - Y Z11, Y(0) = 0: Y_l = sum_n W_n / n!, the terms of
    _sylvester_terms.

    Each (v, monomial) sums its linear form in the c_l in integers, then
    gives z_v zb^m and z^m zb_v.  A diagonal unitary t maps Z to t Z t^{-1}
    and leaves the potential invariant, so on every term z_v zb^m the root
    of z_v is the sum of the roots in m; that torus weight is checked.
    """
    if degree is not None:
        _check_degree(degree, LOWEST_VERDICT_DEGREE)
    atlas = build_Z(diagram)
    # z_v times a zb-polynomial of degree <= degree - 1
    last = None if degree is None else degree - 1
    # dz[v][m] = {l: n}: the form of z^m in G_v, which is that of zb^m in
    # the coefficient of z_v.  Zero numerators and empty forms are popped.
    dz: dict[int, dict[int, dict[int, int]]] = {}
    for l in diagram.black:
        reads = {key: vs for key, vs in atlas.entries.items()
                 if key[1] < l <= key[0]}
        for w in _sylvester_terms(atlas, l, reads, last):
            for key, (v, s) in reads.items():
                t = w.get(key)
                if t is None:
                    continue
                forms = dz.setdefault(v, {})
                for m, n in t.items():
                    lam = forms.get(m)
                    if lam is None:  # n != 0: W keeps no zero term
                        forms[m] = {l: s * n}
                        continue
                    x = lam.get(l, 0) + s * n
                    if x:
                        lam[l] = x
                    else:
                        del lam[l]
                        if not lam:
                            del forms[m]
    pack = atlas.packing
    top, decode = pack.top, pack.decode
    # a root's e-coordinates in one int, 16 bits each: adding such ints
    # adds the roots while no coordinate leaves +-2**15, far above a degree
    scale = [1 << 16 * i for i in range(diagram.group.rank)]
    weights = [sum(map(operator.mul, root.coeffs, scale))
               for root in atlas.vars]
    # many terms share a form, and most forms share their numerators:
    # CoeffForms and Fractions are immutable, so each is built once.  A
    # form's labels come sorted, as the loop above inserts them
    made: dict[tuple, CoeffForm] = {}
    fracs: dict[tuple[int, int], Fraction] = {}
    of = Monomial._of_bidegree
    terms = {}
    for v, forms in dz.items():
        zv = ((v, 1),)
        wv = weights[v]
        for m, lam in forms.items():
            d = m >> top
            key = (d, *lam.items())
            form = made.get(key)
            if form is None:
                parts = []
                for k, n in lam.items():
                    x = fracs.get((n, d))
                    if x is None:
                        x = fracs[(n, d)] = Fraction(n, math.factorial(d))
                    parts.append((k, x))
                form = made[key] = CoeffForm._of_sorted(tuple(parts))
            exps, weight = decode(m, weights)
            if weight != wv:
                raise EngineInvariantError(
                    f"jet term of z_{v} breaks the torus weight")
            terms[of(zv, exps, 1, d)] = form
            if d >= 2:
                terms[of(exps, zv, d, 1)] = form
    _check_potential(terms, atlas.nvars, None)
    return Polynomial._of_clean(terms, degree)


def eval_numeric(atlas: CoordinateAtlas, points, coeffs):
    """The untruncated potential sum_k c_k ln Delta_{l_k} at each row of a
    P x nvars stack of numeric points, from numpy Gram minors, independent
    of the polynomial truncation; one value per point."""
    import numpy as np

    sizes = atlas.diagram.black
    values = [float(c) for c in coeffs]
    if len(values) != len(sizes):
        raise ValueError("one coefficient per black node is required")
    pts = np.asarray(points, dtype=complex)
    m = atlas.size
    rows, cols, var, sign = atlas.scatter
    z = np.zeros((len(pts), m, m), dtype=complex)
    z[:, rows, cols] = sign * pts[:, var]
    # exp Z = I + Z + Z^2/2 + ...; a point whose power of Z vanishes early
    # adds exact zeros until the whole stack's does
    e = z + np.eye(m)
    power = z
    for k in range(2, m):
        power = power @ z / k
        if not power.any():
            break
        e = e + power
    a = e.conj().transpose(0, 2, 1) @ e
    det = np.array([np.linalg.det(a[:, :l, :l]) for l in sizes])
    if np.any(np.abs(det.imag) > 1e-9 * np.maximum(1.0, np.abs(det.real))):
        raise EngineInvariantError("Gram minor is not numerically real")
    bad = ~(det.real > 0)
    if bad.any():
        raise NumericDomainError(
            f"Gram minor {det.real[bad][0]} is not positive at the "
            "evaluation point"
        )
    acc = np.zeros(len(pts))
    for c, row in zip(values, det.real):
        # math.log, not np.log: numpy's vector log differs from libm in
        # the last bit on some inputs, and the difference quotients of
        # hessian_fd magnify that bit
        acc += c * np.array([math.log(x) for x in row])
    return acc


def _require_numeric(poly: Polynomial) -> None:
    if any(isinstance(x, CoeffForm) for x in poly.terms.values()):
        raise ValueError("a symbolic expansion has no numeric value; "
                         "expand with numeric coeffs")


def truncated_value(poly: Polynomial, points) -> list[float]:
    """Values of a numeric expansion at each of a stack of numeric points.

    The coefficients become complex once for the whole stack; each point
    then sums its terms in the polynomial's order with the operations of
    Polynomial.evaluate, so every value is the same to the last bit."""
    _require_numeric(poly)
    terms = [(complex(x), m.holo, m.anti) for m, x in poly.terms.items()]
    out = []
    for point in points:
        z = [complex(x) for x in point]
        zb = [x.conjugate() for x in z]
        acc = 0j
        for val, holo, anti in terms:
            for v, e in holo:
                val *= z[v] ** e
            for v, e in anti:
                val *= zb[v] ** e
            acc += val
        if abs(acc.imag) > 1e-9 * max(1.0, abs(acc.real)):
            raise EngineInvariantError(
                "potential expansion is not numerically real"
            )
        out.append(acc.real)
    return out


def hessian_fd(diagram: PaintedDiagram, coeffs):
    """Complex Hessian H[v, w] = d^2 f / dz_v dzb_w of the exact potential
    f at the origin, as an N x N complex array, by polarization.

    For a direction u, f(hu) + f(-hu) - 2 f(0) = 2 h^2 Q(u) + O(h^4) with
    Q(u) = sum_{v,w} H[v, w] u_v conj(u_w), because f has no pure terms.
    u = e_v gives H[v, v]; for v < w, u = e_v + e_w gives
    H[v, v] + H[w, w] + 2 Re H[v, w] and u = e_v + i e_w gives
    H[v, v] + H[w, w] + 2 Im H[v, w].  That is N^2 directions and
    2 N^2 + 1 points, evaluated in stacks of at most 8 N - 2.  A pure part
    would not cancel: kappa Re(z_0^2) adds kappa to H[0, 0], so the
    comparison with the symbolic metric sees it."""
    import numpy as np

    atlas = build_Z(diagram)
    n = atlas.nvars
    h = 1e-4
    iv, iw = np.triu_indices(n, 1)
    k = len(iv)
    # rows: e_v, then e_v + e_w and e_v + i e_w for each v < w in turn
    u = np.zeros((n + 2 * k, n), dtype=complex)
    u[np.arange(n), np.arange(n)] = 1
    cross = n + np.arange(k)
    u[cross, iv] = u[cross, iw] = u[cross + k, iv] = 1
    u[cross + k, iw] = 1j
    points = np.concatenate((np.zeros((1, n)), h * u, -h * u))
    batch = 8 * n - 2
    vals = np.concatenate([
        eval_numeric(atlas, points[s:s + batch], coeffs)
        for s in range(0, len(points), batch)
    ])
    f0, plus, minus = vals[0], vals[1:1 + len(u)], vals[1 + len(u):]
    quad = ((plus - 2 * f0) + minus) / (2 * h * h)
    diag = quad[:n]
    both = diag[iv] + diag[iw]
    re = (quad[n:n + k] - both) / 2
    im = (quad[n + k:] - both) / 2
    hess = np.diag(diag).astype(complex)
    hess[iv, iw] = re + 1j * im
    hess[iw, iv] = re - 1j * im
    return hess


def symbolic_metric(poly: Polynomial, nvars: int):
    """The (1,1) part of a numeric expansion in nvars variables as a
    diagonal matrix, for comparison against the finite-difference
    Hessian."""
    import numpy as np

    _require_numeric(poly)
    out = np.zeros((nvars, nvars), dtype=complex)
    for m, x in poly.bidegree_part(1, 1).terms.items():
        out[m.holo[0][0], m.holo[0][0]] = float(x)
    return out
