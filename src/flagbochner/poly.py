"""Sparse multivariate polynomials over conjugate variable pairs.

Variables are integer indices 0..N-1; index v names a holomorphic variable
z_v together with its formal conjugate zb_v.  Every product, sum and power
in the ring has exact rational coefficients (Fraction).  The Kaehler
parameters c[k] enter only the finished symbolic potential, whose
coefficients are exact linear forms in them (CoeffForm).  The engine's
products run on packed integer monomials (matrices.Packing) and build
Monomials, Fractions, CoeffForms and Polynomials for their finished terms
only, by the public constructors; Monomial._of_bidegree, which takes a
bidegree the caller already has, is the one shortcut.  The ring
arithmetic here serves the reference routes of the tests, which add
their own sparse matrix type on top of it.  A Monomial is a tuple that
leads with (total degree, holo, anti): it sorts, compares and hashes as
that tuple, so sorting monomials puts them in the canonical order of the
forbidden report.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping

_ZERO = Fraction(0)


class EngineInvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def render_signed_sum(terms: Iterable[tuple[str, Fraction]]) -> str:
    """'a - 2*b' from (label, coefficient) pairs with nonzero coefficients."""
    parts = []
    for label, x in terms:
        mag = abs(x)
        body = label if mag == 1 else f"{mag}*{label}"
        parts.append(("-" if x < 0 else "+", body))
    if not parts:
        return "0"
    (sign, head), rest = parts[0], parts[1:]
    return ("-" if sign == "-" else "") + head + "".join(
        f" {s} {b}" for s, b in rest
    )


class CoeffForm:
    """Exact linear form sum_k lam_k * c[k] with rational lam_k, the
    coefficient type of the finished symbolic potential.

    terms pairs distinct labels k with their lam_k; zero entries are
    dropped and the rest sorted by label.  A form is false when it is zero.
    Forms are immutable and compare by value; the hash is computed once,
    and a form equals itself without a walk of its terms.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Iterable[tuple[int, Fraction]] = ()):
        self.terms = tuple(sorted((k, lam) for k, lam in terms if lam))
        self._hash = hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def evaluate(self, cvals: Mapping[int, object]):
        """Value of the form; cvals maps parameter label to a number."""
        return sum(lam * cvals[k] for k, lam in self.terms)

    def orthant_sign(self) -> int:
        """+1/-1 if the form is positive/negative on the open positive
        orthant c > 0, else 0 (zero form or indefinite)."""
        if not self.terms:
            return 0
        if all(l > 0 for _, l in self.terms):
            return 1
        if all(l < 0 for _, l in self.terms):
            return -1
        return 0

    def render(self) -> str:
        return render_signed_sum((f"c{k}", lam) for k, lam in self.terms)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, CoeffForm) and self.terms == other.terms
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CoeffForm({self.render()})"


def _merge_exponents(a, b):
    """Merge two sorted (var, exp) tuples, adding exponents."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class Monomial(tuple):
    """A product of z and zb powers, the tuple (total, holo, anti, p, q).

    holo and anti are sorted tuples of (variable index, exponent > 0); the
    bidegree is (p, q) = (sum of holo exponents, sum of anti exponents),
    and total = p + q.  The tuple leads with (total, holo, anti), so a
    monomial is its own sort key: total degree first, then the sparse
    exponent tuples.  p and q come last: holo and anti determine them, so
    they never decide a comparison.  Equality and hashing are the tuple's.
    """

    __slots__ = ()

    total = property(itemgetter(0))
    holo = property(itemgetter(1))
    anti = property(itemgetter(2))
    p = property(itemgetter(3))
    q = property(itemgetter(4))

    def __new__(cls, holo=(), anti=()):
        holo, anti = tuple(holo), tuple(anti)
        return cls._of_bidegree(holo, anti, sum(e for _, e in holo),
                                sum(e for _, e in anti))

    @classmethod
    def _of_bidegree(cls, holo, anti, p: int, q: int) -> "Monomial":
        """The monomial of the exponent tuples holo and anti, for a caller
        that already knows its bidegree (p, q); nothing is re-summed."""
        return tuple.__new__(cls, (p + q, holo, anti, p, q))

    @classmethod
    def unit(cls) -> "Monomial":
        return cls((), ())

    @classmethod
    def variable(cls, v: int, anti: bool = False) -> "Monomial":
        return cls((), ((v, 1),)) if anti else cls(((v, 1),), ())

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.p, self.q)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(
            _merge_exponents(self.holo, other.holo),
            _merge_exponents(self.anti, other.anti),
        )

    def conj(self) -> "Monomial":
        return Monomial._of_bidegree(self.anti, self.holo, self.q, self.p)

    def render(self, names) -> str:
        parts = []
        for v, e in self.holo:
            parts.append(f"z[{names[v]}]" + (f"^{e}" if e > 1 else ""))
        for v, e in self.anti:
            parts.append(f"zb[{names[v]}]" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        names = {v: str(v) for v, _ in self.holo + self.anti}
        return f"Monomial({self.render(names)})"


def _combine_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    if a != b:
        raise ValueError(f"mismatched truncation bounds: {a} vs {b}")
    return a


class Polynomial:
    """Sparse polynomial: map Monomial -> Fraction, optional degree bound.

    When trunc is set, every stored monomial has total degree <= trunc and
    all ring operations drop overflow terms.  The finished symbolic
    potential maps monomials to CoeffForms instead; it is truncated,
    sliced, sorted and compared, never added or multiplied.
    """

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None,
                 trunc: int | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, f in terms.items():
                if not f:
                    continue
                if trunc is not None and m.total > trunc:
                    continue
                clean[m] = f
        self.terms = clean
        self.trunc = trunc

    @classmethod
    def zero(cls, trunc: int | None = None) -> "Polynomial":
        return cls(None, trunc)

    @classmethod
    def constant(cls, value, trunc: int | None = None) -> "Polynomial":
        return cls({Monomial.unit(): _as_fraction(value)}, trunc)

    @classmethod
    def one(cls, trunc: int | None = None) -> "Polynomial":
        return cls.constant(1, trunc)

    @classmethod
    def variable(cls, v: int, anti: bool = False, sign: int = 1,
                 trunc: int | None = None) -> "Polynomial":
        return cls({Monomial.variable(v, anti): Fraction(sign)}, trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(Monomial.unit(), _ZERO)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        trunc = _combine_trunc(self.trunc, other.trunc)
        out = dict(self.terms)
        for m, f in other.terms.items():
            g = out.get(m)
            s = f if g is None else g + f
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(out, trunc)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -f for m, f in self.terms.items()}, self.trunc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.trunc)
            return Polynomial(
                {m: f * other for m, f in self.terms.items()}, self.trunc
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        trunc = _combine_trunc(self.trunc, other.trunc)
        out: dict[Monomial, Fraction] = {}
        # rows[budget] lists the terms of other with total <= budget, in the
        # order of other.terms.  Walking a row visits exactly the pairs that
        # fit under trunc, in all-pairs order, so out is built in the same
        # insertion order as an all-pairs loop; evaluate sums floats in
        # that order.
        items = list(other.terms.items())
        rows: dict[int, list] = {}
        for m1, f1 in self.terms.items():
            if trunc is None:
                row = items
            else:
                budget = trunc - m1.total
                row = rows.get(budget)
                if row is None:
                    row = rows[budget] = [t for t in items if t[0].total <= budget]
            for m2, f2 in row:
                m = m1 * m2
                f = f1 * f2
                g = out.get(m)
                s = f if g is None else g + f
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(out, trunc)

    __rmul__ = __mul__

    def conj(self) -> "Polynomial":
        # coefficients are real, so only variables swap
        return Polynomial({m.conj(): f for m, f in self.terms.items()}, self.trunc)

    def truncate(self, degree: int | None) -> "Polynomial":
        if degree is None:
            return Polynomial(self.terms, None)
        return Polynomial(
            {m: f for m, f in self.terms.items() if m.total <= degree}, degree
        )

    def bidegree_part(self, p: int, q: int) -> "Polynomial":
        return Polynomial(
            {m: f for m, f in self.terms.items() if m.bidegree == (p, q)},
            self.trunc,
        )

    def evaluate(self, zvals) -> complex:
        acc = 0j
        for m, f in self.terms.items():
            val = complex(f)
            for v, e in m.holo:
                val *= zvals[v] ** e
            for v, e in m.anti:
                val *= zvals[v].conjugate() ** e
            acc += val
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Polynomial({len(self.terms)} terms, trunc={self.trunc})"

