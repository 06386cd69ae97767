"""The coordinate matrix Z(z) in a fixed matrix realization.

The orthogonal groups are realized in the split quadratic-form basis: SO(2d)
preserves z_1 z_{d+1} + ... + z_d z_{2d} and SO(2d+1) preserves
2(z_1 z_{d+1} + ... + z_d z_{2d}) + z_{2d+1}^2.  In this basis the black
node at position p pairs with the invariant leading principal minor Delta_p,
which is the whole point of fixing it.  Rows and columns are 0-based.

Z(z) is the sum over alpha in -Q of z_alpha E_alpha; each variable occupies
its own matrix positions, and the assembled matrix is nilpotent.  A chart
holds Z as its entry map, (row, col) -> (variable, sign); no symbolic
matrix is built.  -Q, each root with the entries of its E_alpha, and the
nilpotency index are read off the blocks of the painting
(PaintedDiagram.blocks), not off the root system or the powers of Z.
z_moves reads the moves of a matrix under M -> Z M and M -> M Z off that
map, on integer positions r * size + c and packed monomials (Packing, the
one definition of that format), and z_walk is the one loop that applies
them: z_powers walks the nonzero powers of Z for exp Z in the Gram
expansion, in the packing of the caller, and the forbidden jet's recursion
W_(n+1) = Z W_n - W_n Z walks on both lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .lie_core import Family, PaintedDiagram, Root
from .poly import EngineInvariantError


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
    alone are not enough.
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

    def decode(self, packed: int, weights) -> tuple[tuple, int]:
        """The (variable, exponent) pairs by variable, the Monomial layout,
        and sum weights[v] * exponent over them, in one walk over the
        nonzero fields; weights holds one number per field."""
        width, mask = self.width, (1 << self.width) - 1
        packed &= (1 << self.top) - 1
        out = []
        weight = 0
        while packed:
            v = ((packed & -packed).bit_length() - 1) // width
            shift = width * v
            e = packed >> shift & mask
            out.append((v, e))
            weight += weights[v] * e
            packed ^= e << shift
        return tuple(out), weight


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
        """The packed format of the forbidden jet: its terms W_n of degree
        n vanish past 2K < 2 * size, K < size the top power of Z."""
        return Packing(self.nvars, 2 * self.size)

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


def _position_blocks(sizes: tuple[int, ...], tail: int) -> list[int]:
    """k at index i when e-position i + 1 lies in the k-th of
    PaintedDiagram.blocks, from 0; len(sizes) in the tail."""
    return [k for k, n in enumerate(sizes) for _ in range(n)] + [len(sizes)] * tail


def _chart_roots(diagram: PaintedDiagram) -> list[tuple[Root, tuple]]:
    """-Q read off the blocks, sorted, each root with the 0-based entries
    (row, col, sign) of its E_alpha: e_j - e_i (i < j, in different
    blocks, the tail counting as one) at (j, i, 1) and, outside SU,
    (d+i, d+j, -1); for Sp and SO and i < l_s, -(e_i + e_j) (i < j) at
    (d+i, j, 1) and (d+j, i, skew), skew +1 for Sp and -1 for SO, Sp's
    -2e_i at (d+i, i, 1) and SOodd's -e_i at (d+i, 2d, 1), (2d, i, -1)."""
    family, d = diagram.group.family, diagram.group.rank
    sizes, tail = diagram.blocks
    block, l_s, z = _position_blocks(sizes, tail), d - tail, (0,) * d
    su = family is Family.SU
    # coefficient tuples spliced into zeros
    pairs = [(Root(z[:i] + (-1,) + z[i + 1:j] + (1,) + z[j + 1:]),
              ((j, i, 1),) if su else ((j, i, 1), (d + i, d + j, -1)))
             for j in range(d) for i in range(j) if block[i] != block[j]]
    if not su:
        skew = 1 if family is Family.SP else -1
        pairs += [(Root(z[:i] + (-1,) + z[i + 1:j] + (-1,) + z[j + 1:]),
                   ((d + i, j, 1), (d + j, i, skew)))
                  for i in range(l_s) for j in range(i + 1, d)]
    if family is Family.SP:
        pairs += [(Root(z[:i] + (-2,) + z[i + 1:]), ((d + i, i, 1),))
                  for i in range(l_s)]
    elif family is Family.SO_ODD:
        pairs += [(Root(z[:i] + (-1,) + z[i + 1:]),
                   ((d + i, 2 * d, 1), (2 * d, i, -1)))
                  for i in range(l_s)]
    pairs.sort()  # the roots are distinct, so only they are compared
    return pairs


# a request needs one chart at a time, so a sweep holds only the last few
# charts, not all of them
@lru_cache(maxsize=8)
def build_Z(diagram: PaintedDiagram) -> CoordinateAtlas:
    """Assemble Z = sum over alpha in -Q of z_alpha E_alpha from
    _chart_roots, the one place that decides where E_alpha sits.

    Two distinct variables landing on one matrix position would make the
    chart ill-defined; that is a bug in the generation, not user error.
    """
    pairs = _chart_roots(diagram)
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    for v, (_, vector) in enumerate(pairs):
        for r, c, s in vector:
            if (r, c) in entries:
                raise EngineInvariantError(
                    f"variable collision at matrix position ({r},{c}) while "
                    f"assembling Z for {diagram.label()}"
                )
            entries[(r, c)] = (v, s)
    return CoordinateAtlas(diagram, tuple(r for r, _ in pairs),
                           diagram.group.matrix_size, entries)


def z_moves(atlas: CoordinateAtlas, zvs) -> tuple[list, list]:
    """(left, right): the (offset, z_v packed, sign) moves of a matrix M
    keyed by the position a * size + b of M[a, b], zvs[v] the packed z_v,
    in the order of the entry map with Z's own signs.  left[a] holds the
    moves of M[a, b] under M -> Z M, Z[r, a] M[a, b] by (r - a) * size;
    right[b] those under M -> M Z, M[a, b] Z[b, c] by c - b."""
    size = atlas.size
    left = [[] for _ in range(size)]
    right = [[] for _ in range(size)]
    for (r, c), (v, s) in atlas.entries.items():
        left[c].append(((r - c) * size, zvs[v], s))
        right[r].append((c - r, zvs[v], s))
    return left, right


def z_walk(w, steps, last, bound, error):
    """Yield the matrix w, {position: {packed: n}}, then each matrix that
    one step of every position reaches, each position p moved by its
    steps[p] of z_moves' form; stop after the last-th matrix, or at the
    first zero one for last None.  A nonzero bound-th matrix raises
    EngineInvariantError(error) once yielded.  Terms add in place;
    cancelled terms and emptied positions drop out."""
    n = 1
    while w:
        yield w
        if n == last:
            return
        if n == bound:
            raise EngineInvariantError(error)
        n += 1
        nxt: dict[int, dict[int, int]] = {}
        for p, t in w.items():
            for off, var, s in steps[p]:
                acc = nxt.get(p + off)
                if acc is None:
                    nxt[p + off] = {m + var: s * x for m, x in t.items()}
                    continue
                for m, x in t.items():
                    m += var
                    y = acc.get(m, 0) + s * x
                    if y:
                        acc[m] = y
                    else:
                        del acc[m]
        w = {p: t for p, t in nxt.items() if t}


def z_powers(atlas: CoordinateAtlas, pack: Packing, limit: int | None = None):
    """Yield Z, Z^2, ... while nonzero, with int coefficients, each
    (row, col) -> {packed monomial in pack: coefficient}; stop after
    Z^limit, a positive int, or run to the first zero power for None.

    Z's entries are +-z_v, so Z^k is homogeneous of degree k and each
    monomial is one packed int; pack must hold the highest power the call
    could form, Z^size or Z^limit.  Each power is z_walk's Z^(k-1) Z, every
    position moved by the right moves of z_moves, so entries and terms come
    in the order of the sparse product that walks Z^(k-1)'s entries, then
    Z's row.  A nonzero Z^size means Z is not nilpotent: the walk raises
    right after yielding it, so no run to the end returns.
    """
    size = atlas.size
    last = size if limit is None else min(limit, size)
    if pack.max_degree < last:
        raise EngineInvariantError(
            f"{pack.width}-bit fields cannot hold total degree {last}")
    zvs = [pack.variable(v) for v in range(atlas.nvars)]
    _, right = z_moves(atlas, zvs)
    z = {r * size + c: {zvs[v]: s} for (r, c), (v, s) in atlas.entries.items()}
    for power in z_walk(z, right * size, last if last < size else None,
                        size, "Z is not nilpotent"):
        yield {divmod(p, size): t for p, t in power.items()}


def _collapse(parts: list[int], parity: int) -> None:
    """The C- (parity 1) or B- and D-collapse (parity 0) of a partition,
    in place (Collingwood-McGovern, Lemma 6.3.3): while a part of that
    parity has odd multiplicity, the last copy of the largest such q loses
    1 to the first later part below q - 1, or to a new part."""
    while True:
        odd = [q for q in set(parts) if q % 2 == parity and parts.count(q) % 2]
        if not odd:
            return
        q = max(odd)
        i = len(parts) - 1 - parts[::-1].index(q)
        parts[i] -= 1
        parts.append(0)
        parts[next(j for j in range(i + 1, len(parts)) if parts[j] < q - 1)] += 1
        if not parts[-1]:
            parts.pop()


def nilpotency_index(atlas: CoordinateAtlas) -> int:
    """Smallest k with Z^k identically zero, read off the painting.

    Every entry of Z lies strictly below the block diagonal of the flag
    order B_1..B_s, tail, B_s'..B_1' (row d + i in B_k' for e-position
    i + 1 in B_k), which proves Z nilpotent; any other entry raises.  Z
    is generic in the nilradical, so the index is the largest part of the
    Richardson orbit's Jordan type, induced from the Levi's zero orbit
    (Collingwood-McGovern, Thm 7.3.3): one part per block for SU; for Sp
    and SO, from 1^N' on the tail's N' rows, each block from last to
    first adds 2 to the first n_k parts, then collapses.
    """
    diagram = atlas.diagram
    family = diagram.group.family
    sizes, tail = diagram.blocks
    s = len(sizes)
    order = _position_blocks(sizes, tail)
    if family is not Family.SU:
        order += [2 * s - k if k < s else s for k in order]
        order += [s] * (atlas.size - len(order))
    for r, c in atlas.entries:
        if order[r] <= order[c]:
            raise EngineInvariantError(
                f"Z is not nilpotent by its flag order: entry ({r},{c}) "
                "lies on or above the block diagonal")
    if family is Family.SU:
        return s
    parts = [1] * (atlas.size - 2 * (diagram.group.rank - tail))
    for n in reversed(sizes):
        parts += [0] * (n - len(parts))
        parts[:n] = [p + 2 for p in parts[:n]]
        _collapse(parts, 1 if family is Family.SP else 0)
    return parts[0]
