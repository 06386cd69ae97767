"""The invariant potential and its exact truncated expansion.

For a painted diagram with black positions j_1 < ... < j_s, each black node
pairs with one admissible leading principal minor Delta_l of the Gram matrix
A = (exp Z)^H exp Z, and the potential is

    D0(z) = sum_k c_k * ln Delta_{l_k}(A),

a real-analytic function vanishing at 0.  Its expansion to a chosen total
degree has exact coefficients linear in the c parameters.  The expansion is
centered at the distinguished point, so it has no pure holomorphic or
antiholomorphic terms and its (1,1) part is a positive diagonal; both facts
are asserted, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .lie_core import Family, PaintedDiagram
from .matrices import (
    CoordinateAtlas,
    build_Z,
    numeric_Z,
    root_vector,
)
from .poly import (
    CoeffForm,
    EngineInvariantError,
    Polynomial,
    SymbolicMatrix,
    log1p_expand,
    minor_det,
)


class NumericDomainError(ValueError):
    """The exact potential is undefined at the requested point."""


@dataclass(frozen=True)
class AdmissibleMinors:
    """Minor sizes l_1 < ... < l_s and the black-position -> size pairing."""

    indices: tuple[int, ...]
    pairing: tuple[tuple[int, int], ...]  # (black position, minor size)


def admissible_minors(diagram: PaintedDiagram) -> AdmissibleMinors:
    """Minor sizes for the painting.

    Chain nodes e_r - e_{r+1} pair with Delta_r; the terminal node (2e_d,
    e_{d-1} + e_d or e_d) pairs with Delta_d.  For SU every black node is a
    chain node, so the sizes are exactly the black positions.
    """
    d = diagram.group.rank
    fam = diagram.group.family
    pairing = []
    for pos in diagram.black:
        if fam is not Family.SU and pos == diagram.group.num_simple:
            pairing.append((pos, d))
        else:
            if fam is Family.SO_EVEN and pos == d - 1:
                raise EngineInvariantError(
                    "fork-node painting should have been rejected upstream"
                )
            pairing.append((pos, pos))
    indices = tuple(l for _, l in pairing)
    if len(set(indices)) != len(indices) or list(indices) != sorted(indices):
        raise EngineInvariantError("minor sizes are not strictly increasing")
    return AdmissibleMinors(indices, tuple(pairing))


def is_admissible(diagram: PaintedDiagram, l: int) -> bool:
    """Direct invariance check for the minor Delta_l: no white-root vector
    may carry an entry from the leading l rows into the trailing columns."""
    from .lie_core import white_roots

    for root in sorted(white_roots(diagram)):
        for r, c, _ in root_vector(diagram.group, root).entries:
            if r < l <= c:
                return False
    return True


def exp_Z(atlas: CoordinateAtlas, degree: int | None) -> SymbolicMatrix:
    """exp(Z) as a finite sum: nilpotency ends the series exactly, and a
    degree bound only drops terms of higher total degree."""
    z = atlas.Z.truncate(degree)
    acc = SymbolicMatrix.identity(z.size, degree)
    power = z
    k = 1
    while not power.is_zero():
        acc = acc + power.scale(Fraction(1, math.factorial(k)))
        k += 1
        if k > z.size:
            raise EngineInvariantError("Z is not nilpotent")
        if degree is not None and k > degree:
            break
        power = power @ z
    return acc


def gram(atlas: CoordinateAtlas, degree: int | None) -> SymbolicMatrix:
    """A = (exp Z)^H exp Z, truncated to the requested total degree."""
    e = exp_Z(atlas, degree)
    return e.conj_transpose() @ e


@dataclass(frozen=True, eq=False)
class DiastasisExpansion:
    """Truncated expansion of the potential, with its chart and minors.

    coeff_values is None for a symbolic expansion (coefficients are linear
    forms keyed by black position), or the position -> value map used.
    """

    atlas: CoordinateAtlas
    degree: int
    poly: Polynomial
    minors: AdmissibleMinors
    coeff_values: tuple[tuple[int, Fraction], ...] | None

    @property
    def diagram(self) -> PaintedDiagram:
        return self.atlas.diagram

    def truncate(self, degree: int) -> "DiastasisExpansion":
        """The same expansion cut down to total degree <= degree."""
        return replace(self, degree=degree, poly=self.poly.truncate(degree))

    def quadratic_coefficients(self) -> dict[int, CoeffForm]:
        """Variable index -> coefficient form of z_v zb_v."""
        out = {}
        for m, f in self.poly.bidegree_part(1, 1).terms.items():
            out[m.holo[0][0]] = f
        return out


def _parse_coeffs(diagram: PaintedDiagram, coeffs):
    """Returns (per-position CoeffForm multipliers, stored numeric values)."""
    if coeffs == "symbolic" or coeffs is None:
        return {p: CoeffForm.parameter(p) for p in diagram.black}, None
    values = [Fraction(v) for v in coeffs]
    if len(values) != len(diagram.black):
        raise ValueError(
            f"need {len(diagram.black)} coefficients, got {len(values)}"
        )
    if any(v <= 0 for v in values):
        raise ValueError("Kaehler coefficients must be positive")
    pairs = tuple(zip(diagram.black, values))
    return {p: CoeffForm.constant(v) for p, v in pairs}, pairs


def _check_invariants(expansion: Polynomial, coeff_values) -> None:
    for m, f in expansion.terms.items():
        p, q = m.bidegree
        if (p == 0) != (q == 0):
            raise EngineInvariantError(
                f"pure term of bidegree ({p},{q}) in the potential expansion"
            )
        if p == 0 and q == 0:
            raise EngineInvariantError("nonzero constant term in the expansion")
        if (p, q) == (1, 1):
            if m.holo[0][0] != m.anti[0][0]:
                raise EngineInvariantError(
                    "off-diagonal (1,1) term in the potential expansion"
                )
            if coeff_values is None:
                ok = f.const == 0 and all(l > 0 for _, l in f.terms) and f.terms
            else:
                ok = f.is_constant() and f.const > 0
            if not ok:
                raise EngineInvariantError(
                    "(1,1) coefficient is not a positive form"
                )


def diastasis(diagram: PaintedDiagram, degree: int = 3,
              coeffs="symbolic") -> DiastasisExpansion:
    """Expansion of sum_k c_k ln Delta_{l_k}(A) to total degree <= degree.

    Numeric coeffs pair with diagram.black, which is sorted."""
    multipliers, stored = _parse_coeffs(diagram, coeffs)
    atlas = build_Z(diagram)
    minors = admissible_minors(diagram)
    a = gram(atlas, degree)
    total = Polynomial.zero(degree)
    for pos, l in minors.pairing:
        delta = minor_det(a, l)
        arg = delta - Polynomial.one(degree)
        if not arg.constant_term().is_zero():
            raise EngineInvariantError("minor determinant has constant term != 1")
        total = total + log1p_expand(arg, degree) * multipliers[pos]
    _check_invariants(total, stored)
    expansion = DiastasisExpansion(atlas, degree, total, minors, stored)
    missing = set(range(atlas.nvars)) - set(expansion.quadratic_coefficients())
    if missing:
        raise EngineInvariantError(
            f"variables {sorted(missing)} missing from the (1,1) part"
        )
    return expansion


def _numeric_potential(atlas: CoordinateAtlas, minors: AdmissibleMinors,
                       point, coeffs) -> float:
    """sum_k c_k ln Delta_{l_k} at a numeric point, from numpy Gram minors."""
    import numpy as np

    values = [float(c) for c in coeffs]
    if len(values) != len(minors.indices):
        raise ValueError("one coefficient per admissible minor is required")
    z = np.array(numeric_Z(atlas, point), dtype=complex)
    m = z.shape[0]
    e = np.eye(m, dtype=complex)
    power = np.eye(m, dtype=complex)
    for k in range(1, m):
        power = power @ z / k
        if not power.any():
            break
        e = e + power
    a = e.conj().T @ e
    acc = 0.0
    for c, l in zip(values, minors.indices):
        det = np.linalg.det(a[:l, :l])
        if abs(det.imag) > 1e-9 * max(1.0, abs(det.real)):
            raise EngineInvariantError("Gram minor is not numerically real")
        if det.real <= 0:
            raise NumericDomainError(
                f"Gram minor {det.real} is not positive at the evaluation point"
            )
        acc += c * math.log(det.real)
    return acc


def eval_numeric(expansion: DiastasisExpansion, point, coeffs) -> float:
    """The untruncated potential at a numeric point: logs of the numeric
    Gram minors, independent of the polynomial truncation."""
    return _numeric_potential(expansion.atlas, expansion.minors, point, coeffs)


def truncated_value(expansion: DiastasisExpansion, point, coeffs=None) -> float:
    """Value of the truncated expansion at a numeric point."""
    cvals = None
    if expansion.coeff_values is None:
        if coeffs is None:
            raise ValueError("symbolic expansion needs coefficient values")
        cvals = {p: Fraction(c) for p, c in zip(
            expansion.diagram.black, coeffs)}
    val = expansion.poly.evaluate([complex(z) for z in point], cvals)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise EngineInvariantError("potential expansion is not numerically real")
    return val.real


def hessian_fd(diagram: PaintedDiagram, coeffs, step: float = 1e-4):
    """Central finite-difference complex Hessian of the exact potential at
    the origin, as an N x N complex array."""
    import numpy as np

    atlas = build_Z(diagram)
    minors = admissible_minors(diagram)
    n = atlas.nvars

    def f(real_vec) -> float:
        point = [complex(real_vec[2 * a], real_vec[2 * a + 1]) for a in range(n)]
        return _numeric_potential(atlas, minors, point, coeffs)

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


def symbolic_metric(expansion: DiastasisExpansion, coeffs=None):
    """The (1,1) part as a numeric diagonal matrix, for comparison against
    the finite-difference Hessian."""
    import numpy as np

    cvals = None
    if expansion.coeff_values is None:
        if coeffs is None:
            raise ValueError("symbolic expansion needs coefficient values")
        cvals = {p: Fraction(c) for p, c in zip(expansion.diagram.black, coeffs)}
    n = expansion.atlas.nvars
    out = np.zeros((n, n), dtype=complex)
    for v, form in expansion.quadratic_coefficients().items():
        out[v, v] = float(form.evaluate(cvals))
    return out
