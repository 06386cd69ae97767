"""Exactness and ring-contract tests for the sparse polynomial core."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    Matrix,
    leibniz_minor,
    linear_combination,
    log1p_expand,
    minor_det,
)
from oracles import mul as all_pairs_mul

from flagbochner.expansion import diastasis
from flagbochner.lie_core import Family, GroupSpec, PaintedDiagram
from flagbochner.poly import CoeffForm, Monomial, Polynomial, render_signed_sum

F = Fraction


# ---------------------------------------------------------------- CoeffForm

def test_coeff_form_zero_and_merge():
    zero = CoeffForm()
    assert not zero and zero.terms == ()
    assert not CoeffForm(((1, F(0)),))
    assert CoeffForm(((2, F(1)), (1, F(0)))).terms == ((2, F(1)),)
    # c1 - c1 merges to the zero form, so its monomial is dropped
    one = Polynomial.one()
    assert linear_combination([(1, 1, one), (1, -1, one)], None).is_zero()


def test_linear_combination_builds_each_form_once_in_first_appearance_order():
    x, y = z(0), zb(0)
    p = x * F(1, 3) + y
    q = y * F(2, 7) + x * y
    got = linear_combination([(2, 1, p), (1, -1, q), (2, 1, q)], 4)
    assert got.trunc == 4
    assert list(got.terms.items()) == [
        (Monomial.variable(0), CoeffForm(((2, F(1, 3)),))),
        (Monomial.variable(0, anti=True),
         CoeffForm(((1, F(-2, 7)), (2, F(9, 7))))),
        (Monomial(((0, 1),), ((0, 1),)), CoeffForm(((1, F(-1)), (2, F(1))))),
    ]
    assert got.truncate(1).terms == {
        m: f for m, f in got.terms.items() if m.total <= 1
    }


def test_coeff_form_orthant_sign():
    assert CoeffForm(((1, F(1, 2)),)).orthant_sign() == 1
    assert CoeffForm(((3, F(-1)),)).orthant_sign() == -1
    mixed = CoeffForm(((1, F(1)), (2, F(-1))))
    assert mixed.orthant_sign() == 0
    assert CoeffForm().orthant_sign() == 0


def test_coeff_form_render():
    f = CoeffForm(((2, F(-1, 2)), (1, F(1, 2))))
    assert f.render() == "1/2*c1 - 1/2*c2"
    assert CoeffForm().render() == "0"
    assert f.evaluate({1: F(3), 2: F(1)}) == 1


def test_render_signed_sum():
    assert render_signed_sum([]) == "0"


# ----------------------------------------------------------------- Monomial

def test_monomial_mul_and_conj():
    m = Monomial.variable(0) * Monomial.variable(1, anti=True)
    assert m.bidegree == (1, 1)
    assert m.conj() == Monomial.variable(1) * Monomial.variable(0, anti=True)
    assert m.conj().conj() == m
    sq = m * m
    assert sq.holo == ((0, 2),) and sq.anti == ((1, 2),)


def test_monomial_of_known_bidegree_is_the_summed_one():
    # the conjugate is built with its bidegree swapped, not re-summed
    m = Monomial(((0, 2), (3, 1)), ((1, 1),))
    for built, summed in ((m.conj(), Monomial(m.anti, m.holo)),
                          (Monomial._of_bidegree(m.holo, m.anti, 3, 1), m)):
        assert built == summed and hash(built) == hash(summed)
        assert (built.p, built.q, built.total) == (summed.p, summed.q,
                                                  summed.total)


def test_monomial_is_its_own_sort_key_on_an_expansion():
    # on every term of a degree-5 expansion: the summed and the known
    # bidegree constructions are one monomial, and the tuple order is total
    # degree, then holo, then anti, written out here as a key
    monos = list(diastasis(PaintedDiagram(GroupSpec(Family.SP, 3), (1, 3)),
                           5, "symbolic").terms)
    assert len(monos) > 100
    for m in monos:
        built = Monomial._of_bidegree(m.holo, m.anti, m.p, m.q)
        summed = Monomial(list(m.holo), iter(m.anti))
        assert built == summed == m and hash(built) == hash(summed)
        assert (summed.total, summed.bidegree) == (m.p + m.q, (m.p, m.q))
    random.Random(0).shuffle(monos)
    assert sorted(monos) == sorted(
        monos, key=lambda m: (m.total, m.holo, m.anti))


def test_monomial_ordering_is_total_degree_first():
    a = Monomial.variable(0)
    b = Monomial.variable(0) * Monomial.variable(1)
    assert a < b
    assert sorted([b, a]) == [a, b]


# --------------------------------------------------------------- Polynomial

def z(v, trunc=None):
    return Polynomial.variable(v, trunc=trunc)


def zb(v, trunc=None):
    return Polynomial.variable(v, anti=True, trunc=trunc)


def test_mul_simple_bidegree():
    p = z(0) * zb(0)
    ((mono, coeff),) = p.terms.items()
    assert mono.bidegree == (1, 1)
    assert type(coeff) is Fraction and coeff == 1


def test_mul_truncation_drops_overflow():
    p = (z(0, 2) + z(0, 2) * zb(0, 2)) * zb(0, 2)
    assert list(p.terms) == [Monomial.variable(0) * Monomial.variable(0, anti=True)]


def test_mul_mismatched_truncation_raises():
    with pytest.raises(ValueError):
        z(0, 2) * z(0, 3)


def _dense_key(mono, nvars):
    h = [0] * nvars
    a = [0] * nvars
    for v, e in mono.holo:
        h[v] = e
    for v, e in mono.anti:
        a[v] = e
    return tuple(h) + tuple(a)


def _to_dense(poly, nvars):
    return {
        _dense_key(m, nvars): f for m, f in poly.terms.items()
    }


def _dense_mul(a, b, nvars):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, F(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def _random_poly(rng, nvars, max_terms=6, max_exp=2, trunc=None):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        holo = tuple(
            (v, rng.randint(1, max_exp))
            for v in sorted(rng.sample(range(nvars), rng.randint(0, nvars)))
        )
        anti = tuple(
            (v, rng.randint(1, max_exp))
            for v in sorted(rng.sample(range(nvars), rng.randint(0, nvars)))
        )
        coeff = F(rng.randint(-4, 4), rng.randint(1, 3))
        mono = Monomial(holo, anti)
        if coeff:
            terms[mono] = terms.get(mono, F(0)) + coeff
    return Polynomial(terms, trunc)


def test_mul_matches_dense_oracle():
    rng = random.Random(42)
    for _ in range(25):
        nvars = rng.randint(1, 4)
        a = _random_poly(rng, nvars)
        b = _random_poly(rng, nvars)
        got = _to_dense(a * b, nvars)
        want = _dense_mul(_to_dense(a, nvars), _to_dense(b, nvars), nvars)
        assert got == want


def _poly_from(entries, trunc):
    """Polynomial in z0, z1 from (holo exps, anti exps, numerator,
    denominator) entries; repeated monomials add up, so entries may
    cancel."""
    terms = {}
    for holo, anti, num, den in entries:
        mono = Monomial(
            [(v, e) for v, e in enumerate(holo) if e],
            [(v, e) for v, e in enumerate(anti) if e],
        )
        terms[mono] = terms.get(mono, F(0)) + F(num, den)
    return Polynomial(terms, trunc)


_EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2))
_INTEGER_TERMS = st.lists(
    st.tuples(_EXPS, _EXPS, st.integers(-2, 2), st.just(1)), max_size=7
)
_RATIONAL_TERMS = st.lists(
    st.tuples(_EXPS, _EXPS, st.integers(-2, 2), st.integers(1, 3)), max_size=7
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_INTEGER_TERMS, _RATIONAL_TERMS, st.one_of(st.none(), st.integers(0, 6)))
# (1 + z0 + z0^2)(z0^2 - z0 + 1): z0^2 cancels to zero and comes back last
@example(
    [((0, 0), (0, 0), 1, 1), ((1, 0), (0, 0), 1, 1), ((2, 0), (0, 0), 1, 1)],
    [((2, 0), (0, 0), 1, 1), ((1, 0), (0, 0), -1, 1), ((0, 0), (0, 0), 1, 1)],
    None,
)
def test_mul_matches_all_pairs_oracle_in_order(a_terms, b_terms, trunc):
    a = _poly_from(a_terms, trunc)
    b = _poly_from(b_terms, trunc)
    got = a * b
    want = all_pairs_mul(a, b)
    # term order matters: evaluate sums floats in dict order
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.trunc == trunc
    for m in [*a.terms, *b.terms, *got.terms]:
        assert m.p == sum(e for _, e in m.holo)
        assert m.q == sum(e for _, e in m.anti)
        assert m.total == m.p + m.q


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_RATIONAL_TERMS, _RATIONAL_TERMS, st.integers(0, 6))
def test_truncation_commutes_with_products_and_sums(a_terms, b_terms, d):
    a = _poly_from(a_terms, None)
    b = _poly_from(b_terms, None)
    assert (a * b).truncate(d) == a.truncate(d) * b.truncate(d)
    assert (a + b).truncate(d) == a.truncate(d) + b.truncate(d)


def test_conj_examples_and_involution():
    p = z(0) * z(0) * zb(1)  # z0^2 * zb1
    q = p.conj()
    ((mono, _),) = q.terms.items()
    assert mono == Monomial(((1, 1),), ((0, 2),))
    assert q.conj() == p
    assert Polynomial.one().conj() == Polynomial.one()


def test_conj_distributes_over_products():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_poly(rng, 3)
        b = _random_poly(rng, 3)
        assert (a * b).conj() == a.conj() * b.conj()


def test_ring_axioms_under_truncation():
    rng = random.Random(11)
    for _ in range(15):
        a = _random_poly(rng, 3, trunc=5)
        b = _random_poly(rng, 3, trunc=5)
        c = _random_poly(rng, 3, trunc=5)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


# ---------------------------------------------------------------- minor_det

def test_minor_det_identity():
    ident = Matrix.identity(5)
    for l in range(6):
        assert minor_det(ident, l) == Polynomial.one()


def test_minor_det_two_by_two():
    m = Matrix(2, {
        (0, 0): Polynomial.one(),
        (1, 1): Polynomial.one(),
        (0, 1): z(0),
        (1, 0): zb(0),
    })
    expected = Polynomial.one() - z(0) * zb(0)
    assert minor_det(m, 2) == expected


def _random_matrix(rng, size, trunc=None):
    entries = {}
    for i in range(size):
        for j in range(size):
            if rng.random() < 0.45:
                continue  # keep it sparse
            p = _random_poly(rng, 2, max_terms=2, max_exp=1, trunc=trunc)
            if not p.is_zero():
                entries[(i, j)] = p
    return Matrix(size, entries, trunc)


def test_minor_det_matches_leibniz_oracle():
    rng = random.Random(3)
    for _ in range(12):
        size = rng.randint(1, 6)
        mat = _random_matrix(rng, size, trunc=4)
        l = rng.randint(1, size)
        assert minor_det(mat, l) == leibniz_minor(mat, l)


def test_minor_det_block_diagonal_factorizes():
    rng = random.Random(9)
    a = _random_matrix(rng, 2)
    b = _random_matrix(rng, 2)
    entries = dict(a.entries)
    for (i, j), p in b.entries.items():
        entries[(i + 2, j + 2)] = p
    big = Matrix(4, entries)
    assert minor_det(big, 4) == minor_det(a, 2) * minor_det(b, 2)
    assert minor_det(big, 2) == minor_det(a, 2)


# ------------------------------------------------------------ log1p_expand

def test_log1p_scalar_series():
    p = z(0, 4) * zb(0, 4)
    got = log1p_expand(p, 4)
    expected = p + p * p * F(-1, 2)
    assert got == expected


def test_log1p_zero():
    assert log1p_expand(Polynomial.zero(3), 3) == Polynomial.zero(3)


def test_log1p_rejects_constant_term():
    with pytest.raises(ValueError):
        log1p_expand(Polynomial.one(3), 3)


def _exp_expand(p, degree):
    acc = Polynomial.one(degree)
    power = Polynomial.one(degree)
    fact = 1
    for n in range(1, degree + 1):
        power = power * p
        fact *= n
        acc = acc + power * F(1, fact)
        if power.is_zero():
            break
    return acc


def test_exp_log_round_trip():
    rng = random.Random(21)
    for _ in range(10):
        degree = 4
        raw = _random_poly(rng, 2, max_terms=3, max_exp=2, trunc=degree)
        # strip any constant part so the series are defined
        p = raw - Polynomial.constant(raw.constant_term(), degree)
        expp = _exp_expand(p, degree)
        back = log1p_expand(expp - Polynomial.one(degree), degree)
        assert back == p


# ------------------------------------------------------------ Matrix

def test_matrix_mul_and_conj_transpose():
    m = Matrix(2, {(0, 1): z(0)})
    sq = m @ m
    assert sq.is_zero()
    ct = m.conj_transpose()
    assert ct.entry(1, 0) == zb(0)
    prod = ct @ m
    assert prod.entry(1, 1) == zb(0) * z(0)


def test_matrix_evaluate():
    m = Matrix(2, {(0, 0): Polynomial.one(), (0, 1): z(0)})
    dense = m.evaluate([2 + 1j])
    assert dense[0][0] == 1 and dense[0][1] == 2 + 1j and dense[1][1] == 0
