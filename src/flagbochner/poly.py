"""Sparse multivariate polynomials over conjugate variable pairs.

Variables are integer indices 0..N-1; index v names a holomorphic variable
z_v together with its formal conjugate zb_v.  Coefficients are CoeffForm
values: exact linear forms ``const + sum_k lam_k*c[k]`` with rational
entries, where the c[k] are symbolic parameters keyed by integer labels.
All arithmetic is exact; a product of two non-constant forms would leave
the linear-in-c space and raises NonlinearCoefficientError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NonlinearCoefficientError(ArithmeticError):
    """Product of two non-constant coefficient forms (degree > 1 in c)."""


class EngineInvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def render_signed_sum(terms: Iterable[tuple[str, Fraction]]) -> str:
    """'a - 2*b + 1/2' from (label, coefficient) pairs with nonzero
    coefficients; an empty label marks a constant."""
    parts = []
    for label, x in terms:
        mag = abs(x)
        body = f"{mag}*{label}" if label and mag != 1 else (label or str(mag))
        parts.append(("-" if x < 0 else "+", body))
    if not parts:
        return "0"
    (sign, head), rest = parts[0], parts[1:]
    return ("-" if sign == "-" else "") + head + "".join(
        f" {s} {b}" for s, b in rest
    )


class CoeffForm:
    """Exact linear form const + sum_k lam_k * c[k] with rational lam_k."""

    __slots__ = ("const", "terms")

    def __init__(self, const=_ZERO, terms: Iterable[tuple[int, Fraction]] = ()):
        merged: dict[int, Fraction] = {}
        for k, lam in terms:
            v = merged.get(k, _ZERO) + lam
            if v:
                merged[k] = v
            elif k in merged:
                del merged[k]
        self.const = _as_fraction(const)
        self.terms = tuple(sorted(merged.items()))

    @classmethod
    def constant(cls, value) -> "CoeffForm":
        return cls(_as_fraction(value))

    @classmethod
    def parameter(cls, label: int, scale=_ONE) -> "CoeffForm":
        """The form scale * c[label]."""
        return cls(_ZERO, ((label, _as_fraction(scale)),))

    def is_zero(self) -> bool:
        return not self.const and not self.terms

    def is_constant(self) -> bool:
        return not self.terms

    def __add__(self, other: "CoeffForm") -> "CoeffForm":
        return CoeffForm(self.const + other.const, self.terms + other.terms)

    def __neg__(self) -> "CoeffForm":
        return CoeffForm(-self.const, tuple((k, -l) for k, l in self.terms))

    def __sub__(self, other: "CoeffForm") -> "CoeffForm":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return CoeffForm(self.const * q, tuple((k, l * q) for k, l in self.terms))
        if isinstance(other, CoeffForm):
            if self.terms and other.terms:
                raise NonlinearCoefficientError(
                    "product of two non-constant forms is quadratic in c"
                )
            if other.terms:
                return other * self.const
            return self * other.const
        return NotImplemented

    __rmul__ = __mul__

    def evaluate(self, cvals: Mapping[int, object] | None = None):
        """Numeric value of the form; cvals maps parameter label to a number."""
        acc = self.const
        for k, lam in self.terms:
            if cvals is None:
                raise ValueError("form has symbolic parameters but no values given")
            acc = acc + lam * cvals[k]
        return acc

    def orthant_sign(self) -> int:
        """+1/-1 if the form is positive/negative on the open positive
        orthant c > 0, else 0 (zero form or indefinite)."""
        if self.is_zero():
            return 0
        if self.const >= 0 and all(l >= 0 for _, l in self.terms):
            return 1
        if self.const <= 0 and all(l <= 0 for _, l in self.terms):
            return -1
        return 0

    def coeff_of(self, label: int) -> Fraction:
        for k, lam in self.terms:
            if k == label:
                return lam
        return _ZERO

    def render(self, prefix: str = "c") -> str:
        terms = [(f"{prefix}{k}", lam) for k, lam in self.terms]
        if self.const:
            terms.append(("", self.const))
        return render_signed_sum(terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoeffForm)
            and self.const == other.const
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.const, self.terms))

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


class Monomial:
    """A product of z and zb powers.

    holo and anti are sorted tuples of (variable index, exponent > 0); the
    bidegree is (p, q) = (sum of holo exponents, sum of anti exponents).
    Monomials are immutable, so p, q and total are computed once here.
    """

    __slots__ = ("holo", "anti", "p", "q", "total", "_hash")

    def __init__(self, holo=(), anti=()):
        self.holo = tuple(holo)
        self.anti = tuple(anti)
        self.p = sum(e for _, e in self.holo)
        self.q = sum(e for _, e in self.anti)
        self.total = self.p + self.q
        self._hash = hash((self.holo, self.anti))

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
        return Monomial(self.anti, self.holo)

    def sort_key(self):
        # total degree first, then the sparse exponent tuples; deterministic
        return (self.total, self.holo, self.anti)

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Monomial)
            and self.holo == other.holo
            and self.anti == other.anti
        )

    def __hash__(self):
        return self._hash

    def render(self, names) -> str:
        parts = []
        for v, e in self.holo:
            parts.append(f"z[{names[v]}]" + (f"^{e}" if e > 1 else ""))
        for v, e in self.anti:
            parts.append(f"zb[{names[v]}]" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        names = {}
        idx = [v for v, _ in self.holo + self.anti]
        for v in idx:
            names[v] = str(v)
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
    """Sparse polynomial: map Monomial -> CoeffForm, optional degree bound.

    When trunc is set, every stored monomial has total degree <= trunc and
    all ring operations drop overflow terms.
    """

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: Mapping[Monomial, CoeffForm] | None = None,
                 trunc: int | None = None):
        clean: dict[Monomial, CoeffForm] = {}
        if terms:
            for m, f in terms.items():
                if f.is_zero():
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
        f = value if isinstance(value, CoeffForm) else CoeffForm.constant(value)
        return cls({Monomial.unit(): f}, trunc)

    @classmethod
    def one(cls, trunc: int | None = None) -> "Polynomial":
        return cls.constant(1, trunc)

    @classmethod
    def variable(cls, v: int, anti: bool = False, sign: int = 1,
                 trunc: int | None = None) -> "Polynomial":
        return cls({Monomial.variable(v, anti): CoeffForm.constant(sign)}, trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> CoeffForm:
        return self.terms.get(Monomial.unit(), CoeffForm())

    def __add__(self, other: "Polynomial") -> "Polynomial":
        trunc = _combine_trunc(self.trunc, other.trunc)
        out = dict(self.terms)
        for m, f in other.terms.items():
            g = out.get(m)
            s = f if g is None else g + f
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(out, trunc)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -f for m, f in self.terms.items()}, self.trunc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CoeffForm)):
            if isinstance(other, CoeffForm) and other.is_zero():
                return Polynomial.zero(self.trunc)
            if not isinstance(other, CoeffForm) and other == 0:
                return Polynomial.zero(self.trunc)
            return Polynomial(
                {m: f * other for m, f in self.terms.items()}, self.trunc
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        trunc = _combine_trunc(self.trunc, other.trunc)
        out: dict[Monomial, CoeffForm] = {}
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
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(out, trunc)

    __rmul__ = __mul__

    def conj(self) -> "Polynomial":
        # coefficient forms are real rational, so only variables swap
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

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def evaluate(self, zvals, cvals: Mapping[int, object] | None = None) -> complex:
        acc = 0j
        for m, f in self.terms.items():
            val = complex(f.evaluate(cvals))
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

    def __hash__(self):
        return hash((self.trunc, frozenset(self.terms.items())))

    def render(self, names) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, f in self.items_sorted():
            fs = f.render()
            if not f.is_constant() and (f.terms and (len(f.terms) > 1 or f.const)):
                fs = f"({fs})"
            parts.append(f"{fs}*{m.render(names)}" if m.total else fs)
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({len(self.terms)} terms, trunc={self.trunc})"


class SymbolicMatrix:
    """Sparse square matrix with Polynomial entries; zero entries unstored."""

    __slots__ = ("size", "entries", "trunc")

    def __init__(self, size: int, entries: Mapping[tuple[int, int], Polynomial]
                 | None = None, trunc: int | None = None):
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
    def identity(cls, size: int, trunc: int | None = None) -> "SymbolicMatrix":
        one = Polynomial.one(trunc)
        return cls(size, {(i, i): one for i in range(size)}, trunc)

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries.get((i, j), Polynomial.zero(self.trunc))

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
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
        return SymbolicMatrix(self.size, out, trunc)

    def __sub__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
        return self + other.scale(-1)

    def scale(self, factor) -> "SymbolicMatrix":
        return SymbolicMatrix(
            self.size,
            {k: p * factor for k, p in self.entries.items()},
            self.trunc,
        )

    def __matmul__(self, other: "SymbolicMatrix") -> "SymbolicMatrix":
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
        return SymbolicMatrix(self.size, out, trunc)

    def conj_transpose(self) -> "SymbolicMatrix":
        return SymbolicMatrix(
            self.size,
            {(j, i): p.conj() for (i, j), p in self.entries.items()},
            self.trunc,
        )

    def truncate(self, degree: int | None) -> "SymbolicMatrix":
        return SymbolicMatrix(
            self.size,
            {k: p.truncate(degree) for k, p in self.entries.items()},
            degree,
        )

    def evaluate(self, zvals, cvals=None):
        """Dense nested-list numeric value; mainly for tests."""
        out = [[0j] * self.size for _ in range(self.size)]
        for (i, j), p in self.entries.items():
            out[i][j] = p.evaluate(zvals, cvals)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymbolicMatrix)
            and self.size == other.size
            and self.trunc == other.trunc
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SymbolicMatrix({self.size}x{self.size}, {len(self.entries)} entries)"


def minor_det(mat: SymbolicMatrix, l: int) -> Polynomial:
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
    if not p.constant_term().is_zero():
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
