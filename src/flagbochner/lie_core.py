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

    @property
    def blocks(self) -> tuple[tuple[int, ...], int]:
        """(sizes, tail): the sizes of the blocks of e-positions that the
        black nodes cut, 1..l_1, l_1 + 1..l_2, .., and for SU also
        l_s + 1..d; and the rank d - l_s of the tail group of Sp and SO,
        0 for SU.  The Levi is U(n) per block times the tail group."""
        cuts = (0, *self.black)
        if self.group.family is Family.SU:
            cuts += (self.group.rank,)
        sizes = tuple(b - a for a, b in zip(cuts, cuts[1:]))
        return sizes, self.group.rank - cuts[-1]


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


def _degrees(family: Family, rank: int) -> list[int]:
    """The degrees of the basic invariants of the family's group at rank,
    SU(d) counted as U(d): 1..d for U(d), 2, 4, .., 2d for Sp(d) and
    SO(2d+1), and 2, 4, .., 2d - 2, d for SO(2d)."""
    if family is Family.SU:
        return list(range(1, rank + 1))
    out = list(range(2, 2 * rank + 1, 2))
    if family is Family.SO_EVEN and out:
        out[-1] = rank
    return out


def poincare(diagram: PaintedDiagram) -> tuple[int, ...]:
    """The coefficients of the Poincare polynomial of G/L in s, from s^0
    up: prod_i [d_i]_t / prod_j [d'_j]_t with t = s^2 and
    [d]_t = (1 - t^d)/(1 - t), computed in exact integer arithmetic.

    The d_i are the degrees of G, the d'_j those of the Levi L: U(n) for
    each block of n positions between consecutive black nodes (and, for
    SU, after the last), and for Sp and SO the group of the same family at
    rank d - l_s.  Both lists have d entries, so the (1 - t) factors
    cancel; so do the factors 1 - t^k common to both sides, before
    anything is multiplied, and what is left of the denominator then
    divides exactly.  The result must have the shape of a Poincare
    polynomial: constant coefficient 1, nonnegative, palindromic."""
    family, rank = diagram.group.family, diagram.group.rank
    sizes, tail = diagram.blocks
    levi = [k for n in sizes for k in range(1, n + 1)]
    levi += _degrees(family, tail)
    count = Counter(_degrees(family, rank))
    count.subtract(levi)
    poly = [1]
    for k, e in count.items():
        for _ in range(e):
            poly = _times_binomial(poly, k)
    for k, e in count.items():
        for _ in range(-e):
            poly = _over_binomial(poly, k)
    if poly[0] != 1:
        raise EngineInvariantError("Poincare polynomial must start at 1")
    if any(c < 0 for c in poly):
        raise EngineInvariantError("negative Betti number")
    if poly != poly[::-1]:
        raise EngineInvariantError("Poincare polynomial is not palindromic")
    coeffs = [0] * (2 * len(poly) - 1)
    coeffs[::2] = poly
    return tuple(coeffs)


def iter_black_sets(group: GroupSpec, max_black: int):
    """All candidate black-position sets of size 1..max_black, in
    deterministic order; includes sets the diagram validator will reject."""
    ns = group.num_simple
    for size in range(1, max_black + 1):
        if size > ns:
            return
        yield from itertools.combinations(range(1, ns + 1), size)
