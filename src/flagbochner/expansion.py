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
forbidden_jet computes them from exp Z alone, as the product
exp Z exp(-Z) read at each chart entry, without the Gram matrix, its
minors or the log series, and at every degree if asked; the expansion
serves the numeric lane and checks the jet in the tests.  Both routes
multiply with the one packed product, _truncated_product: the expansion
truncates at its degree, the untruncated jet sets it to a proven bound
that no product may exceed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .lie_core import PaintedDiagram
from .matrices import CoordinateAtlas, Packing, build_Z
from .poly import CoeffForm, EngineInvariantError, Monomial, Polynomial


class NumericDomainError(ValueError):
    """The exact potential is undefined at the requested point."""


def _parse_coeffs(diagram: PaintedDiagram, coeffs):
    """None for symbolic coeffs, else the values, one per black node."""
    if coeffs == "symbolic" or coeffs is None:
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
                limit: int) -> dict[tuple[int, int], dict[int, int]]:
    """exp Z to total degree <= limit as (row, col) -> {packed: n}, in
    pack; a term of total degree d stands for n / d!, so Z^k / k! keeps
    the powers' integers.  Entries come diagonal first, then in the order
    the powers reach them; terms by k, then in the power's own order.
    In the chart's own packing the powers' terms are taken as they are."""
    out = {(i, i): {0: 1} for i in range(atlas.size)}
    src = atlas.packing
    # equal widths alone do not make one format: the degree field sits
    # above the last variable
    if (pack.width, pack.top) == (src.width, src.top):
        for power in atlas.powers[:limit]:
            for key, terms in power.items():
                out.setdefault(key, {}).update(terms)
        return out
    monos: dict[int, int] = {}
    for power in atlas.powers[:limit]:
        for key, terms in power.items():
            entry = out.setdefault(key, {})
            for m, x in terms.items():
                packed = monos.get(m)
                if packed is None:
                    packed = monos[m] = src.repack(m, pack)
                entry[packed] = x
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


def _truncated_product(pack: Packing, degree: int, strict: bool = False):
    """p * q to total degree <= degree on the n / d! encoding, as
    Polynomial.__mul__ forms it: each term of p walks the terms of q that
    fit its budget, in q's order, so no product above degree is formed
    and no field can overflow.  n1/a! * n2/b! = n1 n2 C(a+b, a) / (a+b)!,
    so a product multiplies the numerators and one binomial.  When strict
    (degree a proven bound, not a truncation), a pair above degree
    raises instead of being skipped."""
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
                if strict and len(row) < len(items):
                    raise EngineInvariantError(
                        f"packed monomial above its degree bound {degree}"
                    )
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
    terms = {}
    for m, x in total.items():
        exps = pack.exponents(m)
        mono = Monomial([(v, e) for v, e in exps if v < nvars],
                        [(v - nvars, e) for v, e in exps if v >= nvars])
        den = fact[m >> pack.top]
        if stored is None:
            terms[mono] = CoeffForm((k, Fraction(n, den)) for k, n in x.items())
        else:
            terms[mono] = Fraction(x, den)
    _check_potential(terms, nvars, stored)
    return Polynomial._of_clean(terms, degree)


def _exp_of_minus(e, pack: Packing):
    """exp(-Z) from the packed exp Z e: each term of odd degree negated."""
    top = pack.top
    return {key: {m: -n if m >> top & 1 else n for m, n in t.items()}
            for key, t in e.items()}


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
    (r < l <= c), so E is block lower triangular at every split l, E_l^{-1}
    is the leading block of F = exp(-Z), and
        Y_l[r, c] = sum_{a < l} E[r, a] F[a, c].
    F is E with the sign (-1)^d on each term of degree d.  Each product
    E[r, a] F[a, c] is formed once per chart entry and feeds every split
    l > a; the sum over all a is (E F)[r, c] = 0, which is checked, so the
    a < l half of each Y_l is compared with the a >= l half.  No Neumann
    series, log series, Gram matrix or minor is formed.

    E and F have integer coefficients on packed monomials
    (matrices.Packing): a term of total degree d holds n for n / d!, exact
    because every product of such terms is again one.  Each
    (v, monomial) sums its linear form in the c_l in integers; each term
    then gets its Fractions once and gives both z_v zb^m and z^m zb_v.
    """
    if degree is not None:
        _check_degree(degree, LOWEST_VERDICT_DEGREE)
    atlas = build_Z(diagram)
    for r, c in atlas.entries:
        for l in diagram.black:
            if r < l <= c:
                raise EngineInvariantError(
                    f"chart entry ({r},{c}) lies above the split at {l}"
                )
    # E and F have degree <= K, the top power of Z, so every product
    # E[r, a] F[a, c] has degree <= 2K
    bound = 2 * len(atlas.powers)
    # z_v times a zb-polynomial of degree <= degree - 1
    strict = degree is None or degree - 1 >= bound
    limit = bound if strict else degree - 1
    # limit <= 2K, which the chart's packing holds
    pack = atlas.packing
    e = _packed_exp(atlas, pack, limit)
    f = _exp_of_minus(e, pack)
    mul = _truncated_product(pack, limit, strict)
    one = {0: 1}
    rows: dict[int, list] = {}
    for (r, a), t in e.items():
        rows.setdefault(r, []).append((a, t))
    # dz[v][m] = {l: n}: the form of z^m in G_v, which is that of zb^m in
    # the coefficient of z_v.  Zero numerators and empty forms are popped.
    dz: dict[int, dict[int, dict[int, int]]] = {}
    for (r, c), (v, s) in atlas.entries.items():
        splits = [l for l in diagram.black if c < l <= r]
        if not splits:
            continue
        forms = dz.setdefault(v, {})
        # E[r, a] F[a, c] summed over every a: (E F)[r, c], which must be 0
        total: dict[int, int] = {}
        for a, t in rows[r]:
            q = f.get((a, c))
            if q is None:
                continue
            # a factor of 1 (at a = r or a = c, mostly) needs no product
            prod = q if t == one else t if q == one else mul(t, q)
            _accumulate(total, prod, 1)
            for l in splits:
                if a >= l:
                    continue
                for m, n in prod.items():
                    lam = forms.setdefault(m, {})
                    x = lam.get(l, 0) + s * n
                    if x:
                        lam[l] = x
                    else:
                        del lam[l]
                        if not lam:
                            del forms[m]
        if total:
            raise EngineInvariantError(
                f"exp(Z) exp(-Z) is not I at chart entry ({r},{c})"
            )
    exps: dict[int, tuple[tuple[int, int], ...]] = {}
    # many terms share a form; CoeffForms are immutable, so they share one
    made: dict[tuple, CoeffForm] = {}
    terms = {}
    for v, forms in dz.items():
        zv = ((v, 1),)
        for m, lam in forms.items():
            d = pack.degree(m)
            key = (d, *lam.items())
            form = made.get(key)
            if form is None:
                fact = math.factorial(d)
                form = made[key] = CoeffForm(
                    (k, Fraction(n, fact)) for k, n in lam.items()
                )
            x = exps.get(m)
            if x is None:
                x = exps[m] = pack.exponents(m)
            terms[Monomial._of_bidegree(zv, x, 1, d)] = form
            if d >= 2:
                terms[Monomial._of_bidegree(x, zv, d, 1)] = form
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
