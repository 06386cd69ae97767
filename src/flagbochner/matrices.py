"""Matrix realizations of root vectors and the coordinate matrix Z(z).

The orthogonal groups are realized in the split quadratic-form basis: SO(2d)
preserves z_1 z_{d+1} + ... + z_d z_{2d} and SO(2d+1) preserves
2(z_1 z_{d+1} + ... + z_d z_{2d}) + z_{2d+1}^2.  In this basis the black
node at position p pairs with the invariant leading principal minor Delta_p,
which is the whole point of fixing it.  Rows and columns are 0-based.

Z(z) is the sum over alpha in -Q of z_alpha E_alpha; each variable occupies
its own matrix positions, and the assembled matrix is nilpotent.  A chart
holds Z as its entry map, (row, col) -> (variable, sign); no symbolic
matrix is built.  Its nonzero powers are computed once per chart, in
integer arithmetic on packed monomials (Packing, the one definition of
that format), and serve the nilpotency index, exp Z, the forbidden jet
and the Gram expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .lie_core import Family, GroupSpec, PaintedDiagram, Root, all_roots, black_roots
from .poly import EngineInvariantError

Entry = tuple[int, int, int]  # (row, col, sign)


def _signed_support(root: Root) -> list[tuple[int, int]]:
    """(index, coefficient) pairs with 1-based indices, coefficient != 0."""
    return [(i + 1, c) for i, c in enumerate(root.coeffs) if c]


@lru_cache(maxsize=None)
def root_vector(group: GroupSpec, alpha: Root) -> tuple[Entry, ...]:
    """E_alpha in the fixed realization, group.matrix_size square, as its
    one or two nonzero entries (row, col, sign), each sign +-1."""
    if alpha not in all_roots(group):
        raise ValueError(f"{alpha!r} is not a root of {group.label()}")
    d = group.rank
    fam = group.family
    sup = _signed_support(alpha)

    if fam is Family.SU:
        (i, ci), (j, cj) = sup
        if ci == -1:
            i, j = j, i
        return ((i - 1, j - 1, 1),)

    if len(sup) == 2:
        (i, ci), (j, cj) = sup
        if ci == 1 and cj == -1:  # e_i - e_j
            return ((i - 1, j - 1, 1), (d + j - 1, d + i - 1, -1))
        if ci == -1 and cj == 1:  # e_j - e_i
            return ((j - 1, i - 1, 1), (d + i - 1, d + j - 1, -1))
        skew = -1 if fam in (Family.SO_EVEN, Family.SO_ODD) else 1
        if ci == 1 and cj == 1:  # e_i + e_j, upper-right block
            return ((i - 1, d + j - 1, 1), (j - 1, d + i - 1, skew))
        # -e_i - e_j, lower-left block
        return ((d + i - 1, j - 1, 1), (d + j - 1, i - 1, skew))

    (i, c) = sup[0]
    if fam is Family.SP:  # +-2e_i, single entry keeps signs in {-1, +1}
        if c == 2:
            return ((i - 1, d + i - 1, 1),)
        return ((d + i - 1, i - 1, 1),)
    # SO(2d+1) short roots +-e_i use the last row and column
    if c == 1:
        return ((i - 1, 2 * d, 1), (2 * d, d + i - 1, -1))
    return ((d + i - 1, 2 * d, 1), (2 * d, i - 1, -1))


class Packing:
    """Holomorphic monomials packed into one int, the engine's integer
    monomial format.

    The exponent of z_v sits in the width-bit field at bit width * v and
    the total degree in the field above the last variable, which nothing
    bounds.  Adding packed ints multiplies monomials.  Every exponent is at
    most the total degree, so a sum of packed monomials is exact when its
    total degree is at most max_degree = 2**width - 1; when it is not, the
    degree field reads more than max_degree, whether or not a field
    overflowed into the next.  Hence, for d <= max_degree, a sum whose
    degree() reads at most d is exactly the product monomial.

    Two packings are one format when width and top agree; equal widths
    alone are not enough.  A chart's powers of Z and its forbidden jet
    share CoordinateAtlas.packing; diastasis, with a z and a zb field per
    variable, has a packing of its own and repacks the powers into it.
    """

    __slots__ = ("width", "top")

    def __init__(self, nvars: int, max_degree: int):
        self.width = max(1, max_degree.bit_length())
        self.top = self.width * nvars

    @property
    def max_degree(self) -> int:
        return (1 << self.width) - 1

    def variable(self, v: int) -> int:
        return (1 << self.width * v) + (1 << self.top)

    def degree(self, packed: int) -> int:
        return packed >> self.top

    def exponents(self, packed: int) -> tuple[tuple[int, int], ...]:
        """(variable, exponent) pairs by variable, the Monomial layout."""
        width, mask = self.width, (1 << self.width) - 1
        packed &= (1 << self.top) - 1
        out = []
        while packed:
            v = ((packed & -packed).bit_length() - 1) // width
            out.append((v, packed >> width * v & mask))
            packed &= ~(mask << width * v)
        return tuple(out)

    def repack(self, packed: int, into: "Packing") -> int:
        """The same monomial in another packing; its degree must fit."""
        out = self.degree(packed) << into.top
        for v, e in self.exponents(packed):
            out += e << into.width * v
        return out


@dataclass(frozen=True, eq=False)
class CoordinateAtlas:
    """Chart data: the ordered variables (roots of -Q) and the matrix Z.

    Variable v corresponds to vars[v].  Z is the size x size matrix whose
    nonzero entries are entries[(row, col)] = (v, sign), standing for
    sign * z_v at the positions of the matching root vector; it is
    nilpotent.
    """

    diagram: PaintedDiagram
    vars: tuple[Root, ...]
    size: int
    entries: dict[tuple[int, int], tuple[int, int]]

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def var_names(self) -> tuple[str, ...]:
        return tuple(r.render() for r in self.vars)

    @property
    def packing(self) -> "Packing":
        """The packed format of the powers of Z and of the forbidden jet:
        Z^k has degree k <= size (a power past size - 1 only exists to be
        rejected as non-nilpotent), and the jet's products have degree at
        most its proven bound 2K <= 2 * size, K < size the top power."""
        return Packing(self.nvars, 2 * self.size)

    @cached_property
    def powers(self) -> tuple[dict[tuple[int, int], dict[int, int]], ...]:
        """Z, Z^2, ... while nonzero, untruncated, with int coefficients.

        Z's entries are +-z_v, so Z^k is homogeneous of degree k and each
        monomial is one packed int (self.packing).
        Each power maps (row, col) to {packed monomial: coefficient};
        entries and terms come in the order of the sparse product
        Z^(k-1) @ Z that walks Z^(k-1)'s entries, then Z's row.
        """
        pack = self.packing
        power: dict[tuple[int, int], dict[int, int]] = {}
        rows: dict[int, list[tuple[int, int, int]]] = {}
        for (r, c), (v, s) in self.entries.items():
            var = pack.variable(v)
            power[(r, c)] = {var: s}
            rows.setdefault(r, []).append((c, var, s))
        out = []
        while power:
            if len(out) + 1 >= self.size:
                raise EngineInvariantError("Z is not nilpotent")
            out.append(power)
            nxt: dict[tuple[int, int], dict[int, int]] = {}
            for (i, k), terms in power.items():
                for j, var, s in rows.get(k, ()):
                    acc = nxt.setdefault((i, j), {})
                    for m, x in terms.items():
                        m += var
                        y = acc.get(m, 0) + x * s
                        if y:
                            acc[m] = y
                        else:
                            del acc[m]
                    if not acc:
                        del nxt[(i, j)]
            power = nxt
        return tuple(out)

    @cached_property
    def scatter(self):
        """(rows, cols, var, sign): entries as read-only numpy index
        arrays, so Z(z)[rows, cols] = sign * z[var]."""
        import numpy as np

        ent = self.entries
        arrays = (*map(np.array, zip(*ent)), *map(np.array, zip(*ent.values())))
        for a in arrays:
            a.flags.writeable = False
        return arrays


# a request needs one chart at a time, and each chart keeps its powers of
# Z, so a sweep holds only the last few charts, not all of them
@lru_cache(maxsize=8)
def build_Z(diagram: PaintedDiagram) -> CoordinateAtlas:
    """Assemble Z = sum over alpha in -Q of z_alpha E_alpha.

    Two distinct variables landing on one matrix position would make the
    chart ill-defined; that is a bug in the root vectors, not user error.
    """
    group = diagram.group
    # Q is sorted and negation reverses the lexicographic order, so the
    # variables, the roots of -Q, come sorted
    negs = tuple(-r for r in reversed(black_roots(diagram)))
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    for v, root in enumerate(negs):
        for r, c, s in root_vector(group, root):
            if (r, c) in entries:
                raise EngineInvariantError(
                    f"variable collision at matrix position ({r},{c}) while "
                    f"assembling Z for {diagram.label()}"
                )
            entries[(r, c)] = (v, s)
    return CoordinateAtlas(diagram, negs, group.matrix_size, entries)


def nilpotency_index(atlas: CoordinateAtlas) -> int:
    """Smallest k with Z^k identically zero; at most the matrix size."""
    return 1 + len(atlas.powers)
