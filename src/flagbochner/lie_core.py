"""Root systems and painted Dynkin diagrams for the classical groups.

A root is an integer vector in the orthonormal functional basis e_1..e_d.
The four families carry their classical realizations:

* SU(d)      (type A):  R = {e_i - e_j, i != j}, simple roots e_i - e_{i+1}
* Sp(d)      (type C):  R = {+-e_i +- e_j} with +-2e_i allowed,
                        simple roots e_i - e_{i+1} and 2e_d
* SO(2d)     (type D):  R = {+-e_i +- e_j, i != j},
                        simple roots e_i - e_{i+1} and e_{d-1} + e_d
* SO(2d+1)   (type B):  R = {+-e_i +- e_j (i != j), +-e_i},
                        simple roots e_i - e_{i+1} and e_d

Painting a subset of the simple basis black splits R into the white part
R_K (zero coefficient on every black simple root) and the black part R_M;
Q = R_M intersected with the positive roots fixes the invariant complex
structure.  Each positive Kaehler parameter c attaches to one black node.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .poly import EngineInvariantError


class Family(str, Enum):
    SU = "SU"
    SP = "Sp"
    SO_EVEN = "SOeven"
    SO_ODD = "SOodd"

    @classmethod
    def parse(cls, text: str) -> "Family":
        for fam in cls:
            if fam.value == text:
                return fam
        valid = ", ".join(f.value for f in cls)
        raise ValueError(f"unknown family {text!r} (expected one of {valid})")


class PaintingError(ValueError):
    """A painted diagram the engine refuses to analyze; .reason says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Root(NamedTuple):
    """Integer coefficient vector over e_1..e_d; ordering is lexicographic.

    A tuple of one field, so construction, hashing and comparison run in
    C; hash and order are those of (coeffs,)."""

    coeffs: tuple[int, ...]

    def __neg__(self) -> "Root":
        return Root(tuple([-c for c in self.coeffs]))

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def render(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs, 1):
            if not c:
                continue
            mag = "" if abs(c) == 1 else str(abs(c))
            parts.append(("-" if c < 0 else "+") + mag + f"e{i}")
        if not parts:
            return "0"
        head = parts[0][1:] if parts[0][0] == "+" else parts[0]
        return head + "".join(parts[1:])

    def __repr__(self):
        return f"Root({self.render()})"


def _unit(rank: int, i: int, sign: int = 1) -> Root:
    coeffs = [0] * rank
    coeffs[i - 1] = sign
    return Root(tuple(coeffs))


def _pair(rank: int, i: int, j: int, si: int, sj: int) -> Root:
    coeffs = [0] * rank
    coeffs[i - 1] += si
    coeffs[j - 1] += sj
    return Root(tuple(coeffs))


@dataclass(frozen=True)
class GroupSpec:
    """A classical compact group; rank d is the parameter in SU(d), Sp(d),
    SO(2d), SO(2d+1)."""

    family: Family
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.family is Family.SU and self.rank < 2:
            raise ValueError("SU(d) needs d >= 2")
        if self.family is Family.SO_EVEN and self.rank < 3:
            raise ValueError("SO(2d) needs d >= 3 (the fork must exist)")

    @property
    def matrix_size(self) -> int:
        d = self.rank
        if self.family is Family.SU:
            return d
        if self.family is Family.SO_ODD:
            return 2 * d + 1
        return 2 * d

    @property
    def num_simple(self) -> int:
        return self.rank - 1 if self.family is Family.SU else self.rank

    def label(self) -> str:
        d = self.rank
        if self.family is Family.SU:
            return f"SU({d})"
        if self.family is Family.SP:
            return f"Sp({d})"
        if self.family is Family.SO_EVEN:
            return f"SO({2 * d})"
        return f"SO({2 * d + 1})"


@lru_cache(maxsize=None)
def positive_roots(group: GroupSpec) -> tuple[Root, ...]:
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


def twice_simple_coefficients(group: GroupSpec, root: Root) -> tuple[int, ...]:
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


def simple_coefficients(group: GroupSpec, root: Root) -> tuple[int | Fraction, ...]:
    """Exact expansion coefficients of a root over the simple basis: half
    of twice_simple_coefficients, an int where it is integral and a
    Fraction where it is not (only Sp and SOeven halve s_d)."""
    return tuple(c >> 1 if c % 2 == 0 else Fraction(c, 2)
                 for c in twice_simple_coefficients(group, root))


def height(group: GroupSpec, root: Root) -> int:
    """Sum of the simple-basis coefficients; defined for positive roots."""
    twice = twice_simple_coefficients(group, root)
    if not all(c >= 0 for c in twice) or not any(twice):
        raise ValueError(f"{root!r} is not a positive root of {group.label()}")
    # an odd entry is a half-integral coefficient
    if any(c % 2 for c in twice):
        raise EngineInvariantError("non-integral simple-root expansion")
    return sum(twice) >> 1


@dataclass(frozen=True)
class PaintedDiagram:
    """A classical group with a nonempty set of black simple-root positions.

    Positions are 1-based indices into the canonical simple basis, each
    given once; black holds them sorted.  SO paintings whose white tail
    would be a rank-one orthogonal factor are rejected (PaintingError), as
    is painting the even-orthogonal node d-1 without node d: that diagram
    is the mirror image, under the order-two diagram flip, of the painting
    that uses node d, and only the latter is compatible with the fixed
    matrix realization used downstream.
    """

    group: GroupSpec
    black: tuple[int, ...]

    def __post_init__(self):
        black = tuple(sorted(self.black))
        for a, b in zip(black, black[1:]):
            if a == b:
                raise PaintingError(f"black lists node {a} more than once")
        object.__setattr__(self, "black", black)
        if not black:
            raise PaintingError("at least one black node is required")
        ns = self.group.num_simple
        for pos in black:
            if not 1 <= pos <= ns:
                raise PaintingError(
                    f"black node {pos} out of range 1..{ns} for {self.group.label()}"
                )
        d = self.group.rank
        if self.group.family is Family.SO_ODD and max(black) == d - 1:
            raise PaintingError(
                f"painting node {d - 1} of {self.group.label()} leaves an SO(3) "
                "tail (l = 1), which has no full set of admissible minors"
            )
        if self.group.family is Family.SO_EVEN and d - 1 in black:
            if d in black:
                raise PaintingError(
                    f"painting both fork nodes {d - 1} and {d} of "
                    f"{self.group.label()} encodes an SO(2) tail (l = 1), "
                    "which has no full set of admissible minors"
                )
            raise PaintingError(
                f"painting fork node {d - 1} of {self.group.label()} without "
                f"node {d} is the diagram-flip mirror of painting node {d}; "
                "repaint the diagram with the tail node d instead"
            )

    @property
    def b2(self) -> int:
        return len(self.black)

    def label(self) -> str:
        return f"{self.group.label()} black {{{','.join(map(str, self.black))}}}"


@lru_cache(maxsize=None)
def black_roots(diagram: PaintedDiagram) -> tuple[Root, ...]:
    """Q: the positive roots with nonzero coefficient on some black simple
    root, sorted.  The black part R_M of the root system is Q u -Q."""
    group = diagram.group
    black_idx = [p - 1 for p in diagram.black]
    out = []
    for r in positive_roots(group):
        twice = twice_simple_coefficients(group, r)
        if any(twice[i] for i in black_idx):
            out.append(r)
    return tuple(out)


class PoincarePoly:
    """Coefficients of the Poincare polynomial in the variable s.

    Construction validates the shape: constant coefficient 1, vanishing odd
    coefficients, nonnegative entries, palindromic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs or coeffs[0] != 1:
            raise EngineInvariantError("Poincare polynomial must start at 1")
        if any(c < 0 for c in coeffs):
            raise EngineInvariantError("negative Betti number")
        if any(coeffs[i] for i in range(1, len(coeffs), 2)):
            raise EngineInvariantError("odd-degree Betti number is nonzero")
        if coeffs != coeffs[::-1]:
            raise EngineInvariantError("Poincare polynomial is not palindromic")
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def b2(self) -> int:
        return self.coeffs[2] if len(self.coeffs) > 2 else 0

    def render(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}s^{i}" if i > 1 else f"{head}s")
        return " + ".join(parts)

    def __repr__(self):
        return f"PoincarePoly({self.render()})"


def _times_binomial(poly: list[int], k: int) -> list[int]:
    """poly * (1 - t^k), in O(len(poly)) steps."""
    out = poly + [0] * k
    for i, c in enumerate(poly):
        out[i + k] -= c
    return out


def _over_binomial(poly: list[int], k: int) -> list[int]:
    """poly / (1 - t^k) in O(len(poly)) steps: the power series quotient,
    a running sum with stride k, is a polynomial exactly when its top k
    coefficients vanish; raises EngineInvariantError when they do not."""
    if len(poly) <= k:
        raise EngineInvariantError("division would have negative degree")
    out = list(poly)
    for i in range(k, len(out)):
        out[i] += out[i - k]
    if any(out[-k:]):
        raise EngineInvariantError("rational-function product is not a polynomial")
    return out[:-k]


def poincare(diagram: PaintedDiagram) -> PoincarePoly:
    """Product over alpha in R_M+ of (1 - t^(h+1))/(1 - t^h), computed in
    exact integer arithmetic and re-expressed in s with t = s^2.

    With n_h roots of height h, the factor 1 - t^k has exponent
    n_{k-1} - n_k in the product, so the factors cancel before anything is
    multiplied; what is left of the denominator then divides exactly."""
    group = diagram.group
    count = Counter(height(group, r) for r in black_roots(diagram))
    exponents = [count[k - 1] - count[k] for k in range(1, max(count) + 2)]
    poly = [1]
    for k, e in enumerate(exponents, 1):
        for _ in range(e):
            poly = _times_binomial(poly, k)
    for k, e in enumerate(exponents, 1):
        for _ in range(-e):
            poly = _over_binomial(poly, k)
    coeffs_s = [0] * (2 * len(poly) - 1)
    for i, c in enumerate(poly):
        coeffs_s[2 * i] = c
    return PoincarePoly(coeffs_s)


def iter_black_sets(group: GroupSpec, max_black: int):
    """All candidate black-position sets of size 1..max_black, in
    deterministic order; includes sets the diagram validator will reject."""
    ns = group.num_simple
    for size in range(1, max_black + 1):
        if size > ns:
            return
        yield from itertools.combinations(range(1, ns + 1), size)
