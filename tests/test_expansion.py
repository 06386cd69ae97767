"""Minor sizes, exp(Z), the Gram matrix and the potential expansion."""

import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbochner import expansion as expansion_module
from flagbochner.bochner import forbidden_report
from flagbochner.cli import CaseRequest, run_case
from flagbochner.expansion import (
    NumericDomainError,
    _check_potential,
    _packed_exp,
    _packed_gram,
    _packed_minor,
    _sylvester_terms,
    _truncated_product,
    diastasis,
    eval_numeric,
    forbidden_jet,
    hessian_fd,
    symbolic_metric,
    truncated_value,
)
from flagbochner.lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    iter_black_sets,
)
from flagbochner.matrices import (
    CoordinateAtlas,
    Packing,
    build_Z,
    nilpotency_index,
)
from flagbochner.poly import CoeffForm, EngineInvariantError, Monomial, Polynomial

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

F = Fraction


def gram(atlas, degree):
    """The reference Gram matrix of the chart, to total degree <= degree."""
    return oracles.gram(oracles.exp_Z(atlas, degree))


def diagram(fam, rank, black):
    return PaintedDiagram(GroupSpec(fam, rank), black)


SAMPLE_DIAGRAMS = [
    diagram(Family.SU, 3, (1, 2)),
    diagram(Family.SU, 4, (2,)),
    diagram(Family.SP, 2, (1, 2)),
    diagram(Family.SP, 3, (1, 3)),
    diagram(Family.SO_EVEN, 4, (1, 4)),
    diagram(Family.SO_ODD, 3, (1, 3)),
    diagram(Family.SO_ODD, 3, (3,)),
]


# ------------------------------------------------------------- minor sizes

def test_direct_invariance_check_rejects_unpaired_minor():
    # SU(4), black {2}: only Delta_2 is admissible
    dia = diagram(Family.SU, 4, (2,))
    assert oracles.is_admissible(dia, 2)
    assert not oracles.is_admissible(dia, 1)
    assert not oracles.is_admissible(dia, 3)


def _paintings(max_rank):
    out = []
    for fam, minr in ((Family.SU, 2), (Family.SP, 1),
                      (Family.SO_EVEN, 3), (Family.SO_ODD, 1)):
        for rank in range(minr, max_rank + 1):
            group = GroupSpec(fam, rank)
            for black in iter_black_sets(group, 3):
                try:
                    out.append(PaintedDiagram(group, black))
                except PaintingError:
                    continue
    return out


PAINTINGS_RANK4 = _paintings(4)
PAINTINGS_RANK6 = _paintings(6)


def test_paired_minors_pass_direct_invariance_check():
    # the engine reads the minor sizes off the black positions; by the
    # definition, a white root vector carries no entry out of the leading
    # block, exactly those sizes pass among 1..num_simple
    assert len(PAINTINGS_RANK4) == 64
    for dia in PAINTINGS_RANK4:
        sizes = range(1, dia.group.num_simple + 1)
        admissible = tuple(l for l in sizes if oracles.is_admissible(dia, l))
        assert admissible == dia.black, dia


# ------------------------------------------------------------------- exp_Z

def _unpack(pack, nvars, terms) -> dict:
    """Packed terms with z_v in field v and zb_v in field nvars + v as
    {Monomial: Fraction}, in order, a numerator n of total degree d read
    as n / d!."""
    out = {}
    for m, n in terms.items():
        assert type(m) is int and type(n) is int
        exps = oracles.exponents(pack, m)
        mono = Monomial([(v, e) for v, e in exps if v < nvars],
                        [(v - nvars, e) for v, e in exps if v >= nvars])
        out[mono] = Fraction(n, math.factorial(pack.degree(m)))
    return out


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6, None])
def test_exp_Z_equals_symbolic_power_sum(degree):
    # the packed exp Z: entries, terms and their order as the matrix sum of
    # symbolic powers, formed in the expansion's packing or the chart's;
    # SU(33) packs each exponent into a 6-bit field
    assert len(PAINTINGS_RANK6) == 256
    for dia in [*PAINTINGS_RANK6, diagram(Family.SU, 33, (1, 32))]:
        atlas = build_Z(dia)
        oracle = oracles.exp_Z(atlas, degree)
        assert oracle.trunc == degree
        for pack in (Packing(2 * atlas.nvars, degree or atlas.size),
                     atlas.packing):
            engine = _packed_exp(atlas, pack, degree)
            assert list(engine) == list(oracle.entries), dia
            for key, p in oracle.entries.items():
                q = _unpack(pack, atlas.nvars, engine[key])
                assert p.trunc == degree
                assert list(q.items()) == list(p.terms.items()), (dia, key)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_diastasis_forms_no_power_of_Z_above_its_degree(monkeypatch, degree):
    # exp Z to degree d reads Z, ..., Z^d and no higher power; the powers
    # come one at a time from z_powers, which forms none past its limit
    real = expansion_module.z_powers
    seen = []

    def recorded(atlas, pack, limit=None):
        for power in real(atlas, pack, limit):
            seen.append({pack.degree(m) for t in power.values() for m in t})
            yield power

    monkeypatch.setattr(expansion_module, "z_powers", recorded)
    for dia in PAINTINGS_RANK4:
        seen.clear()
        diastasis(dia, degree)
        top = min(degree, nilpotency_index(build_Z(dia)) - 1)
        assert seen == [{k} for k in range(1, top + 1)], dia


def test_exp_is_identity_plus_z_for_one_su_block():
    atlas = build_Z(diagram(Family.SU, 4, (2,)))
    e = oracles.exp_Z(atlas, None)
    assert e == oracles.Matrix.identity(4) + oracles.Matrix.chart(atlas)


def test_exp_group_inverse():
    import math

    for dia in SAMPLE_DIAGRAMS[:5]:
        atlas = build_Z(dia)
        plus = oracles.exp_Z(atlas, None)
        neg_z = oracles.Matrix.chart(atlas).scale(-1)
        minus = oracles.Matrix.identity(atlas.size)
        power = neg_z
        n = 1
        while not power.is_zero():
            minus = minus + power.scale(F(1, math.factorial(n)))
            n += 1
            power = power @ neg_z
        assert plus @ minus == oracles.Matrix.identity(atlas.size)


def test_exp_su3_full_flag_corner_entry():
    dia = diagram(Family.SU, 3, (1, 2))
    atlas = build_Z(dia)
    e = oracles.exp_Z(atlas, None)
    vi = {name: i for i, name in enumerate(atlas.var_names())}
    z13 = Polynomial.variable(vi["-e1+e3"])
    z12 = Polynomial.variable(vi["-e1+e2"])
    z23 = Polynomial.variable(vi["-e2+e3"])
    assert e.entry(2, 0) == z13 + z23 * z12 * F(1, 2)


# -------------------------------------------------------------------- gram

def test_gram_is_identity_at_origin():
    for dia in SAMPLE_DIAGRAMS[:4]:
        atlas = build_Z(dia)
        a = gram(atlas, 3)
        dense = np.array(a.evaluate([0j] * atlas.nvars))
        assert np.allclose(dense, np.eye(atlas.size))


def test_gram_grassmannian_block_formula():
    r, d = 2, 4
    atlas = build_Z(diagram(Family.SU, d, (r,)))
    a = gram(atlas, None)
    emap = atlas.entries
    for i in range(r):
        for j in range(r):
            expected = Polynomial.one() if i == j else Polynomial.zero()
            for k in range(d):
                vk_i = emap.get((k, i))
                vk_j = emap.get((k, j))
                if vk_i is None or vk_j is None:
                    continue
                term = (
                    Polynomial.variable(vk_i[0], anti=True, sign=vk_i[1])
                    * Polynomial.variable(vk_j[0], sign=vk_j[1])
                )
                expected = expected + term
            assert a.entry(i, j) == expected


def test_gram_is_hermitian_symbolically():
    for dia in SAMPLE_DIAGRAMS:
        a = gram(build_Z(dia), 3)
        assert a == a.conj_transpose()


def _packed_route(atlas, degree):
    """The packed Gram matrix with its packing and product, to total degree
    <= degree; for None, under a bound no minor's term reaches (an exp Z
    term has degree <= K, the top power of Z, and A's at most 2K)."""
    limit = degree or 2 * (nilpotency_index(atlas) - 1) * atlas.size
    pack = Packing(2 * atlas.nvars, limit)
    mul = _truncated_product(pack, limit)
    e = _packed_exp(atlas, pack, limit)
    return _packed_gram(e, pack.width * atlas.nvars, mul), pack, mul


def _check_minors_against_oracles(dia, degree, leibniz_up_to):
    # the packed Laplace minors, read as Fractions
    atlas = build_Z(dia)
    e = oracles.exp_Z(atlas, degree)
    a, pack, mul = _packed_route(atlas, degree)
    for l in dia.black:
        engine = Polynomial(
            _unpack(pack, atlas.nvars, _packed_minor(a, l, mul)), degree)
        assert engine == oracles.cauchy_binet_minor(e, l), (dia, degree, l)
        if l <= leibniz_up_to:
            assert engine == oracles.leibniz_minor(oracles.gram(e), l)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(PAINTINGS_RANK4), st.integers(2, 6))
def test_minors_match_oracles_truncated(dia, degree):
    # Laplace on the Gram matrix = Cauchy-Binet = Leibniz; the Leibniz
    # oracle is left out for the 4 x 4 minors, where it alone takes seconds
    _check_minors_against_oracles(dia, degree, leibniz_up_to=3)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from([d for d in PAINTINGS_RANK4 if d.group.matrix_size <= 6]))
def test_minors_match_oracles_untruncated(dia):
    _check_minors_against_oracles(dia, None, leibniz_up_to=2)


# --------------------------------------------------------------- diastasis

@pytest.mark.parametrize("dia", [
    diagram(Family.SU, 3, (1, 2)),
    diagram(Family.SP, 2, (1, 2)),
    diagram(Family.SO_EVEN, 4, (1, 4)),
    diagram(Family.SO_ODD, 3, (1, 3)),
    diagram(Family.SO_ODD, 4, (2, 3, 4)),
], ids=lambda d: d.label())
def test_ring_is_rational_and_forms_are_built_last(dia, monkeypatch):
    # the Gram route keeps int monomials and numerators and forms no
    # product above the degree; Fractions and forms come only at the end,
    # equal to the reference route's term for term, in order
    degree = 6
    formed = _spy_on_products(monkeypatch)
    got = diastasis(dia, degree)
    assert formed and max(formed) <= degree
    assert all(type(lam) is Fraction
               for f in got.terms.values() for _, lam in f.terms)
    want = oracles.combine_logs(oracles.gram_logs(dia, degree), None, degree)
    assert got.trunc == want.trunc == degree
    assert list(got.terms.items()) == list(want.terms.items())


def _spy_on_products(monkeypatch) -> list:
    """The total degree of every monomial the Gram route's products form,
    as a list that fills while diastasis runs; each product is checked to
    take and return int monomials and numerators."""
    formed = []
    make = expansion_module._truncated_product

    def spied(pack, degree):
        mul = make(pack, degree)

        class Traced(int):
            def __add__(self, other):
                m = int(self) + other
                formed.append(pack.degree(m))
                return m

            __radd__ = __add__

        def checked(p, q):
            for t in (p, q):
                assert all(type(m) is int and type(n) is int
                           for m, n in t.items())
            out = mul({Traced(m): n for m, n in p.items()}, q)
            assert all(type(m) is int and type(n) is int
                       for m, n in out.items())
            return out

        return checked

    monkeypatch.setattr(expansion_module, "_truncated_product", spied)
    return formed


def _reference_cases(name: str) -> list:
    """[(painting, [coeffs, ...])] for a named set of requests"""
    if name == "numeric":
        pool = {}
        for r in workloads.all_requests("numeric"):
            dia = PaintedDiagram(r.case.group, r.case.black)
            pool.setdefault(dia, []).append(r.case.coeffs)
        return list(pool.items())
    if name == "broad":
        return [(PaintedDiagram(r.case.group, r.case.black), ["symbolic"])
                for r in workloads.all_requests("broad")]
    return [(diagram(Family.SO_ODD, 4, (1, 2, 3, 4)),
             ["symbolic", (1, 1, 1, 1)])]


@pytest.mark.parametrize("case", ["numeric-3", "numeric-5", "broad-3",
                                  "SOodd4-6"])
def test_diastasis_equals_the_reference_route(case):
    # terms, exact coefficients and dict order: truncated_value sums the
    # terms in that order, so the float lane stays the same to the last bit
    name, degree = case.split("-")
    degree = int(degree)
    checked = 0
    for dia, variants in _reference_cases(name):
        logs = oracles.gram_logs(dia, degree)
        for coeffs in variants:
            got = diastasis(dia, degree, coeffs)
            stored = None if coeffs == "symbolic" else tuple(
                map(Fraction, coeffs))
            want = oracles.combine_logs(logs, stored, degree)
            assert got.trunc == want.trunc == degree
            assert list(got.terms.items()) == list(want.terms.items()), (
                dia, coeffs)
            checked += 1
    assert checked == {"numeric": 256, "broad": 256, "SOodd4": 2}[name]


def _unpacked(pack, products) -> Polynomial:
    """The sum of packed products, each numerator n of a degree-d monomial
    read as n / d!."""
    acc = {}
    for prod in products:
        for m, n in prod.items():
            assert type(n) is int
            acc[m] = acc.get(m, 0) + n
    return Polynomial({
        Monomial(oracles.exponents(pack, m), ()):
            Fraction(n, math.factorial(pack.degree(m)))
        for m, n in acc.items()
    })


@pytest.mark.parametrize("dia", [
    diagram(Family.SU, 3, (1, 2)),
    diagram(Family.SP, 2, (1, 2)),
    diagram(Family.SO_EVEN, 4, (1, 4)),
    diagram(Family.SO_ODD, 4, (2, 3, 4)),
], ids=lambda d: d.label())
@pytest.mark.parametrize("degree", [3, None])
def test_packed_solves_are_integer_and_equal_the_rational_solve(dia, degree):
    # Y_l = E[l:, :l] E_l^{-1} as the jet's recursion forms it, the integer
    # W_n over n!, is the conjugate transpose of the Polynomial solve
    # X_l = U_l^{-1} U[:l, l:], U = (exp Z)^H, at every entry of the
    # block, not only at those the jet reads
    atlas = build_Z(dia)
    u = oracles.exp_Z(atlas, degree).conj_transpose().entries
    for l in dia.black:
        cols = range(l, atlas.size)
        block = [(r, c) for r in cols for c in range(l)]
        want = oracles.leading_solve(u, l, cols, degree)
        ws = list(_sylvester_terms(atlas, l, degree))
        for r, c in block:
            got = _unpacked(atlas.packing,
                            (w[(r, c)] for w in ws if (r, c) in w))
            expected = want[r].get(c, Polynomial.zero(degree))
            assert got.terms == {m.conj(): x
                                 for m, x in expected.terms.items()}


def test_diastasis_grassmannian_is_norm_squared_at_degree_two():
    dia = diagram(Family.SU, 4, (2,))
    expansion = diastasis(dia, 2, "symbolic")
    n = build_Z(dia).nvars
    quad = expansion.bidegree_part(1, 1).terms
    assert {m.holo[0][0] for m in quad} == set(range(n))
    assert all(f == CoeffForm(((2, F(1)),)) for f in quad.values())
    assert len(expansion.terms) == n


def test_diastasis_vanishes_at_origin():
    dia = diagram(Family.SP, 2, (1, 2))
    expansion = diastasis(dia, 3, (1, 2))
    atlas = build_Z(dia)
    assert truncated_value(expansion, [[0j] * atlas.nvars],
                           atlas.nvars) == [0.0]
    values = eval_numeric(atlas, [[0j] * atlas.nvars], [1.0, 2.0])
    assert values.tolist() == [0.0]


def test_truncated_value_stack_equals_polynomial_evaluate():
    # the stacked lane converts each coefficient once; every value must
    # still be the one-point sum to the last bit
    dia = diagram(Family.SP, 3, (1, 3))
    expansion = diastasis(dia, 4, (F(7, 3), F(5, 2)))
    nvars = build_Z(dia).nvars
    rng = random.Random(12)
    points = [[complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
               for _ in range(nvars)] for _ in range(4)]
    assert truncated_value(expansion, points, nvars) == [
        expansion.evaluate(point).real for point in points
    ]


def test_numeric_readers_refuse_a_symbolic_expansion():
    # a one-line ValueError, not a TypeError from complex(CoeffForm)
    dia = diagram(Family.SP, 2, (1, 2))
    symbolic = diastasis(dia, 3, "symbolic")
    nvars = build_Z(dia).nvars
    with pytest.raises(ValueError, match="symbolic expansion"):
        truncated_value(symbolic, [[0.01j] * nvars], nvars)
    with pytest.raises(ValueError, match="symbolic expansion"):
        symbolic_metric(symbolic, nvars)


def test_su3_full_flag_equal_coefficients_kill_cubics():
    dia = diagram(Family.SU, 3, (1, 2))
    expansion = diastasis(dia, 3, (1, 1))
    assert not expansion.bidegree_part(1, 2).terms
    assert not expansion.bidegree_part(2, 1).terms


def test_diastasis_invariants_across_samples():
    for dia in SAMPLE_DIAGRAMS:
        expansion = diastasis(dia, 4, "symbolic")
        for mono, form in expansion.terms.items():
            p, q = mono.bidegree
            assert p >= 1 and q >= 1
            if (p, q) == (1, 1):
                assert mono.holo[0][0] == mono.anti[0][0]
                # a CoeffForm has no constant part
                assert isinstance(form, CoeffForm)
                assert all(lam > 0 for _, lam in form.terms)


def test_diastasis_linear_in_coefficients():
    dia = diagram(Family.SO_EVEN, 4, (1, 4))
    sym = diastasis(dia, 3, "symbolic")
    values = (F(3, 2), F(2, 5))
    num = diastasis(dia, 3, values)
    cvals = dict(zip(dia.black, values))
    evaluated = {
        m: f.evaluate(cvals) for m, f in sym.terms.items()
    }
    collected = {
        m: f for m, f in num.terms.items()
    }
    evaluated = {m: v for m, v in evaluated.items() if v}
    assert evaluated == collected


def test_truncated_expansion_equals_lower_degree_expansion():
    for dia in SAMPLE_DIAGRAMS:
        deep = diastasis(dia, 5, "symbolic").truncate(3)
        assert deep.trunc == 3
        assert deep == diastasis(dia, 3, "symbolic")


def test_diastasis_rejects_bad_coefficients():
    # both doors read coeffs with expansion.coefficients, so each bad input
    # gets one ValueError line, the same from diastasis and CaseRequest: a
    # bare number used to raise TypeError, a mapping was read by its keys
    # and a set in hash order
    dia = diagram(Family.SU, 3, (1, 2))
    bad = [((1,), "got 1"), ((1, 2, 3), "got 3"),
           ((1, 0), "item 2 must be positive"),
           ((1, -1), "item 2 must be positive"),
           ((float("inf"), 1), "item 1 (inf) is not a rational"),
           ((None, 2), "item 1 (None) is not a rational"),
           ("12", "not '12'"), (b"12", "not b'12'"), (5, "not 5"),
           (np.float64(5), "one per black node"),
           (np.array(5), "one per black node"),
           ({1: 5}, "not {1: 5}"), ({5, 7}, "not {5, 7}"),
           ({1: 5}.keys(), "not dict_keys")]
    for coeffs, reason in bad:
        with pytest.raises(ValueError) as lib:
            diastasis(dia, 3, coeffs)
        with pytest.raises(ValueError) as req:
            CaseRequest(dia.group, dia.black, coeffs, 3, None)
        message = str(lib.value)
        assert message == str(req.value)
        assert reason in message and "\n" not in message


# ----------------------------------------------------------- forbidden jet

def test_forbidden_jet_is_the_one_sided_part_of_the_expansion():
    # every term of bidegree (1, q) or (p, 1), the (1,1) part included,
    # with the expansion's exact coefficient form
    for dia in SAMPLE_DIAGRAMS:
        for degree in (3, 4):
            jet = oracles.jet_polynomial(forbidden_jet(dia, degree))
            full = diastasis(dia, degree, "symbolic")
            assert jet.trunc == degree
            assert jet.terms == {
                m: f for m, f in full.terms.items() if 1 in m.bidegree
            }
        # the jet has no degree 2 of its own; truncated there it is the
        # (1,1) part of the degree-2 expansion
        assert jet.truncate(2).terms == diastasis(dia, 2, "symbolic").terms


WEIGHT = "breaks the torus weight"


def _patch_recursion(monkeypatch, fault):
    """forbidden_jet reads each W_n of _sylvester_terms after
    fault(atlas, l, n, w) has changed it in place, so the recursion also
    carries the change on."""
    real = _sylvester_terms

    def patched(atlas, l, last):
        for n, w in enumerate(real(atlas, l, last), 1):
            fault(atlas, l, n, w)
            yield w

    monkeypatch.setattr(expansion_module, "_sylvester_terms", patched)


def _with_entries(monkeypatch, dia, extra):
    """forbidden_jet sees dia's chart with the entries extra added."""
    atlas = build_Z(dia)
    bad = CoordinateAtlas(dia, atlas.vars, atlas.size,
                          {**atlas.entries, **extra})
    monkeypatch.setattr(expansion_module, "build_Z", lambda diagram: bad)
    return bad


def test_forbidden_jet_rejects_leading_block_not_identity(monkeypatch):
    # exp Z not I at the origin would make Y_l(0) nonzero: a constant term
    # in W_1 gives z_v a pure term of torus weight 0, not the root of z_v
    def constant(atlas, l, n, w):
        if n == 1:
            next(iter(w.values()))[0] = 1

    _patch_recursion(monkeypatch, constant)
    with pytest.raises(EngineInvariantError, match=WEIGHT):
        forbidden_jet(diagram(Family.SU, 3, (1, 2)), 3)


def test_forbidden_jet_rejects_leading_block_not_unipotent(monkeypatch):
    # z_0 on the diagonal: the leading block of exp Z is not unipotent, and
    # every step past W_1 multiplies some term by z_0 once more than the
    # torus weight of its entry allows
    dia = diagram(Family.SU, 3, (1, 2))
    _with_entries(monkeypatch, dia, {(0, 0): (0, 1)})
    with pytest.raises(EngineInvariantError, match=WEIGHT):
        forbidden_jet(dia, 3)


@pytest.mark.parametrize("dia", [diagram(Family.SU, 3, (1, 2)),
                                 diagram(Family.SO_ODD, 4, (2, 3, 4))],
                         ids=lambda d: d.label())
def test_untruncated_jet_refuses_a_recursion_that_does_not_end(monkeypatch,
                                                               dia):
    # with z_0 on the diagonal Z is not nilpotent and W_n never vanishes;
    # the untruncated jet must stop at the packing's bound 2 * size, one W
    # per degree, and raise instead of running on
    bad = _with_entries(monkeypatch, dia, {(0, 0): (0, 1)})
    seen = []
    _patch_recursion(monkeypatch, lambda atlas, l, n, w: seen.append(n))
    with pytest.raises(EngineInvariantError, match="does not end by degree"):
        forbidden_jet(dia, None)
    assert seen == list(range(1, 2 * bad.size + 1))


def _z(v, e=1):
    return ((v, e),)


# a finished symbolic potential in two variables: a positive diagonal (1,1)
# part and one (1,2) term
GOOD_POTENTIAL = {
    Monomial(_z(0), _z(0)): CoeffForm(((1, F(1)),)),
    Monomial(_z(1), _z(1)): CoeffForm(((1, F(1)), (2, F(1, 2)))),
    Monomial(_z(0), _z(1, 2)): CoeffForm(((1, F(1)), (2, F(-1)))),
}


@pytest.mark.parametrize("change, message", [
    ({Monomial(_z(0, 2), ()): CoeffForm(((1, F(1)),))},
     r"pure term of bidegree \(2,0\)"),
    ({Monomial((), _z(1)): CoeffForm(((2, F(1)),))},
     r"pure term of bidegree \(0,1\)"),
    ({Monomial(): CoeffForm(((1, F(1)),))}, "constant term"),
    ({Monomial(_z(0), _z(1)): CoeffForm(((1, F(1)),))}, "off-diagonal"),
    ({Monomial(_z(1), _z(1)): CoeffForm(((1, F(1)), (2, F(-1))))},
     "not a positive form"),
    ({Monomial(_z(1), _z(1)): None}, r"variables \[1\] missing"),
])
def test_check_potential_rejects_each_fault(change, message):
    terms = {**GOOD_POTENTIAL, **change}
    terms = {m: f for m, f in terms.items() if f is not None}
    with pytest.raises(EngineInvariantError, match=message):
        _check_potential(terms, 2, None)
    _check_potential(GOOD_POTENTIAL, 2, None)


def test_check_potential_on_numeric_coefficients():
    good = {m: f.evaluate({1: F(1), 2: F(1)})
            for m, f in GOOD_POTENTIAL.items()}
    _check_potential(good, 2, ((1, F(1)), (2, F(1))))
    for value in (F(0), F(-1, 2)):
        bad = {**good, Monomial(_z(0), _z(0)): value}
        with pytest.raises(EngineInvariantError, match="not a positive form"):
            _check_potential(bad, 2, ((1, F(1)), (2, F(1))))


def test_diastasis_and_the_jet_each_check_their_potential_once(monkeypatch):
    # an expansion runs _check_potential on its finished terms; the jet
    # checks its packed terms in one walk, decoding each term off the
    # (1,1) diagonal once, and its report reads those decoded exponents
    seen = []
    decoded = []
    real_decode = Packing.decode

    def record(terms, nvars, coeff_values):
        seen.append((len(terms), nvars, coeff_values))
        _check_potential(terms, nvars, coeff_values)

    def decode(pack, packed, weights):
        decoded.append(packed)
        return real_decode(pack, packed, weights)

    monkeypatch.setattr(expansion_module, "_check_potential", record)
    monkeypatch.setattr(Packing, "decode", decode)
    dia = diagram(Family.SP, 2, (1, 2))
    jet = forbidden_jet(dia, 3)
    nvars = build_Z(dia).nvars
    terms = sum(map(len, jet.forms.values()))
    assert sorted(decoded) == sorted(jet.exps) and len(decoded) == terms - nvars
    forbidden_report(jet)
    assert len(decoded) == terms - nvars
    decoded.clear()
    sym = diastasis(dia, 3)
    num = diastasis(dia, 3, (1, 2))
    assert seen == [(len(sym.terms), nvars, None),
                    (len(num.terms), nvars, (F(1), F(2)))]


def test_forbidden_jet_rejects_off_diagonal_quadratic_term(monkeypatch):
    # two chart entries of W_1 trade variables, so z_v meets zb_w: the
    # (1,1) check would call the term off-diagonal, but the weight check,
    # which sees every term first, reads the root of z_w, not that of z_v
    def crossed(atlas, l, n, w):
        if n == 1:
            (k0, t0), (k1, t1) = list(w.items())[:2]
            w[k0], w[k1] = t1, t0

    _patch_recursion(monkeypatch, crossed)
    with pytest.raises(EngineInvariantError, match=WEIGHT):
        forbidden_jet(diagram(Family.SU, 3, (1,)), 3)


@pytest.mark.parametrize("degree", [3, None])
def test_forbidden_jet_weight_check_sees_a_misplaced_term(monkeypatch,
                                                          degree):
    # one step puts one term of W_2 on another variable of the same degree:
    # the (1,1) part still holds, but the term's torus weight is wrong
    moved = []

    def misplace(atlas, l, n, w):
        if n != 2 or moved:
            return
        pack = atlas.packing
        terms = next(iter(w.values()))
        m = next(iter(terms))
        u = oracles.exponents(pack, m)[0][0]
        other = (u + 1) % atlas.nvars
        x = terms.pop(m)
        terms[m - pack.variable(u) + pack.variable(other)] = x
        moved.append(m)

    _patch_recursion(monkeypatch, misplace)
    with pytest.raises(EngineInvariantError, match=WEIGHT):
        forbidden_jet(diagram(Family.SU, 3, (1, 2)), degree)
    assert moved


def test_forbidden_jet_sees_a_wrong_chart_sign(monkeypatch):
    # one entry of Z21 with the wrong sign at the split at 1: its variable
    # reads -c1 + c2 in the (1,1) part, which is not a positive form
    flipped = []

    def flip(atlas, l, n, w):
        if n == 1 and l == 1:
            key = next(iter(w))
            w[key] = {m: -x for m, x in w[key].items()}
            flipped.append(key)

    _patch_recursion(monkeypatch, flip)
    with pytest.raises(EngineInvariantError, match="not a positive form"):
        forbidden_jet(diagram(Family.SU, 3, (1, 2)), 3)
    assert flipped


@pytest.mark.parametrize("degree", [3, None])
def test_forbidden_jet_sees_a_missing_diagonal_term(monkeypatch, degree):
    # one entry of Z21 dropped from W_1 at the only split: the recursion
    # carries on without it, every torus weight still holds, and the
    # variable of that entry has no z_v zb_v term
    dropped = []

    def drop(atlas, l, n, w):
        if n == 1:
            key = next(iter(w))
            del w[key]
            dropped.append(atlas.entries[key][0])

    _patch_recursion(monkeypatch, drop)
    with pytest.raises(EngineInvariantError, match=r"variables \[\d+\] missing"):
        forbidden_jet(diagram(Family.SU, 3, (1,)), degree)
    assert len(dropped) == 1


@pytest.mark.parametrize("degree", [3, None])
def test_forbidden_jet_rejects_a_chart_entry_above_a_split(monkeypatch,
                                                           degree):
    # the recursion needs Z block lower triangular at every split.  z_0 at
    # (0, 3), above the split at 3, keeps Z nilpotent, but Z W - W Z then
    # leaves the (2, 1) block, so only this check sees it
    dia = diagram(Family.SO_EVEN, 3, (3,))
    _with_entries(monkeypatch, dia, {(0, 3): (0, 1)})
    with pytest.raises(EngineInvariantError, match="above the split at 3"):
        forbidden_jet(dia, degree)


def test_packed_sums_are_exact_within_the_field_width():
    # 2-bit fields: a sum of monomials of total degree <= 3 is the packed
    # product; a higher one reads a degree above 3, overflow or not
    pack = Packing(3, 3)
    assert pack.max_degree == 3

    def packed(exps):
        return sum(e * pack.variable(v) for v, e in enumerate(exps))

    small = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)
             if a + b + c <= 3]
    for x in small:
        # the one walk over the fields gives the exponents and their weight
        assert pack.decode(packed(x), (1, 10, 100)) == (
            tuple((v, e) for v, e in enumerate(x) if e),
            x[0] + 10 * x[1] + 100 * x[2])
        for y in small:
            total = packed(x) + packed(y)
            if sum(x) + sum(y) <= 3:
                assert total == packed([i + j for i, j in zip(x, y)])
                assert pack.degree(total) <= 3
            else:
                assert pack.degree(total) > 3


def test_packed_product_above_the_bound_raises_or_drops():
    pack = Packing(2, 3)
    z0 = pack.variable(0)
    mul = _truncated_product(pack, 3)
    assert mul({z0: 1}, {2 * z0: 5}) == {3 * z0: 15}  # 1/1! * 5/2! = 15/3!
    # z0 * z0^3 would overflow z0's field into z1's; the pair is dropped
    assert mul({z0: 1}, {2 * z0: 5, 3 * z0: 1}) == {3 * z0: 15}
    # a degree the fields cannot hold is refused up front
    with pytest.raises(EngineInvariantError, match="2-bit fields"):
        _truncated_product(pack, 4)


class _Index:
    """An integer by __index__ only, as numpy's integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_degrees_are_read_by_index():
    # an integer-like degree is read as the int it stands for, and the
    # engine works on that int
    dia = diagram(Family.SU, 3, (1, 2))
    for degree in (np.int64(3), _Index(3)):
        report = forbidden_report(forbidden_jet(dia, degree))
        assert report == forbidden_report(forbidden_jet(dia, 3))
        assert type(report.degree_checked) is int
        assert diastasis(dia, degree) == diastasis(dia, 3)
        assert type(diastasis(dia, degree).trunc) is int


@pytest.mark.parametrize("degree", [1, 0, -1, 2.5, _Index(2)])
def test_forbidden_jet_rejects_degree_below_two(degree):
    with pytest.raises(ValueError, match="at least 3"):
        forbidden_jet(diagram(Family.SU, 3, (1, 2)), degree)


@pytest.mark.parametrize("degree", [1, None, _Index(1)])
def test_diastasis_rejects_degree_below_two(degree):
    # the expansion has no untruncated form: its log series is infinite
    with pytest.raises(ValueError, match="at least 2"):
        diastasis(diagram(Family.SU, 3, (1, 2)), degree)


# ---------------------------------------------------------------- numerics

def test_hessian_identity_for_unit_grassmannian():
    dia = diagram(Family.SU, 3, (1,))
    hess = hessian_fd(dia, [1.0]).hessian
    assert np.max(np.abs(hess - np.eye(hess.shape[0]))) < 1e-6


def test_hessian_matches_symbolic_metric():
    rng = random.Random(23)
    for dia in (diagram(Family.SP, 2, (1, 2)), diagram(Family.SO_ODD, 2, (2,))):
        coeffs = [1 + rng.random() for _ in dia.black]
        values = [F(c).limit_denominator(100) for c in coeffs]
        expansion = diastasis(dia, 3, values)
        cvals = [float(v) for v in values]
        hess = hessian_fd(dia, cvals).hessian
        metric = symbolic_metric(expansion, build_Z(dia).nvars)
        assert np.max(np.abs(hess - metric)) < 1e-6
        eigs = np.linalg.eigvalsh((hess + hess.conj().T) / 2)
        assert eigs.min() > 0


def _hessian_cases():
    """One painting per family, plus the largest rank <= 4 chart (16
    variables), each with seeded coefficients."""
    rng = random.Random(5)
    for dia in (diagram(Family.SU, 4, (1, 3)), diagram(Family.SP, 3, (1, 3)),
                diagram(Family.SO_EVEN, 4, (1, 4)),
                diagram(Family.SO_ODD, 3, (1, 3)),
                diagram(Family.SO_ODD, 4, (1, 2, 3, 4))):
        yield dia, [rng.randint(1, 9) / rng.randint(1, 4) for _ in dia.black]


def test_hessian_fd_matches_pointwise_oracle():
    for dia, coeffs in _hessian_cases():
        hess = hessian_fd(dia, coeffs).hessian
        expected = oracles.hessian_fd_pointwise(dia, coeffs)
        assert np.max(np.abs(hess - expected)) <= 1e-12, dia


def test_hessian_fd_agrees_with_the_real_coordinate_stencil():
    # two stencils with different points and error terms read one Hessian
    for dia, coeffs in _hessian_cases():
        hess = hessian_fd(dia, coeffs).hessian
        expected = oracles.hessian_fd_real_pointwise(dia, coeffs)
        assert np.max(np.abs(hess - expected)) <= 1e-6, dia


def test_hessian_fd_sees_a_pure_term(monkeypatch):
    # kappa Re(z_0^2) has no (1,1) part; the real-coordinate stencil takes
    # the Hermitian part and drops it, polarization moves H[0, 0] by kappa
    dia = diagram(Family.SU, 3, (1, 2))
    base = hessian_fd(dia, [1.0, 2.0]).hessian
    kappa = 0.5
    exact = expansion_module.eval_numeric

    def with_pure_term(atlas, points, coeffs):
        z0 = np.asarray(points, dtype=complex)[:, 0]
        return exact(atlas, points, coeffs) + kappa * (z0 * z0).real

    monkeypatch.setattr(expansion_module, "eval_numeric", with_pure_term)
    moved = hessian_fd(dia, [1.0, 2.0]).hessian
    shift = np.zeros_like(base)
    shift[0, 0] = kappa
    assert np.max(np.abs(moved - base - shift)) < 1e-6


def test_hessian_fd_sees_an_odd_term(monkeypatch):
    # kappa |z_0|^2 Re z_0 has weight alpha_0 != 0, so no torus-invariant
    # potential has it; the two-sided stencil cancels it, the one-sided
    # stencil moves H[0, 0] by kappa h and leaves every other entry
    dia = diagram(Family.SU, 3, (1, 2))
    base = hessian_fd(dia, [1.0, 2.0]).hessian
    kappa, h = 100.0, 1e-4
    exact = expansion_module.eval_numeric

    def with_odd_term(atlas, points, coeffs):
        z0 = np.asarray(points, dtype=complex)[:, 0]
        return exact(atlas, points, coeffs) + kappa * abs(z0) ** 2 * z0.real

    monkeypatch.setattr(expansion_module, "eval_numeric", with_odd_term)
    moved = hessian_fd(dia, [1.0, 2.0]).hessian
    shift = np.zeros_like(base)
    shift[0, 0] = kappa * h
    assert np.max(np.abs(moved - base - shift)) < 1e-6


def _stencil(n: int):
    """hessian_fd's directions: e_v, then e_v + e_w and e_v + i e_w."""
    eye = np.eye(n)
    yield from eye
    for v in range(n):
        for w in range(v + 1, n):
            yield eye[v] + eye[w]
            yield eye[v] + 1j * eye[w]


@pytest.mark.parametrize("dia, coeffs", [
    pytest.param(dia, coeffs, id=dia.label()) for dia, coeffs in (
        *_hessian_cases(),
        (diagram(Family.SP, 3, (1, 2, 3)), [1.0, 2.5, 0.75]),
        (diagram(Family.SP, 6, (2, 6)), [1.5, 3.0]))])
def test_potential_is_even_along_every_stencil_direction(dia, coeffs):
    # the premise of hessian_fd's one-sided stencil: a torus element maps
    # hu to -hu, with the phase i on the long roots -2 e_i of Sp
    atlas = build_Z(dia)
    u = 1e-4 * np.array(list(_stencil(atlas.nvars)))
    plus = eval_numeric(atlas, u, coeffs)
    minus = eval_numeric(atlas, -u, coeffs)
    assert np.all(np.abs(plus - minus) <= 1e-12 * np.abs(plus))


@pytest.mark.parametrize("dia", [diagram(Family.SU, 2, (1,)),
                                 diagram(Family.SP, 2, (1, 2)),
                                 diagram(Family.SP, 3, (1, 2, 3)),
                                 diagram(Family.SO_ODD, 4, (1, 2, 3, 4))],
                         ids=lambda d: d.label())
def test_hessian_fd_point_count_and_batches(monkeypatch, dia):
    n = build_Z(dia).nvars
    sizes = []
    exact = expansion_module.eval_numeric

    def counted(atlas, points, coeffs):
        sizes.append(len(points))
        return exact(atlas, points, coeffs)

    monkeypatch.setattr(expansion_module, "eval_numeric", counted)
    hessian_fd(dia, [1.0] * len(dia.black))
    assert sum(sizes) == n * n + 1
    assert max(sizes) <= 8 * n - 2


def test_numeric_potential_stack_equals_one_point_calls():
    dia = diagram(Family.SP, 3, (1, 3))
    atlas = build_Z(dia)
    rng = random.Random(8)
    points = [
        [complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
         for _ in range(atlas.nvars)]
        for _ in range(5)
    ]
    # the origin's powers of Z vanish at once, the others' only later
    points.insert(2, [0j] * atlas.nvars)
    coeffs = [1.5, 0.25]
    stacked = eval_numeric(atlas, points, coeffs)
    assert stacked.shape == (len(points),)
    for value, point in zip(stacked, points):
        assert value == eval_numeric(atlas, [point], coeffs)[0]
        expected = oracles.potential_pointwise(atlas, dia.black, point,
                                               coeffs)
        assert abs(value - expected) <= 1e-12


@pytest.mark.parametrize("dia, coeffs", [
    pytest.param(diagram(Family.SO_ODD, 4, (1, 2, 3, 4)),
                 [1.5, 0.25, 2.0, 0.75], id="SOodd:4 {1,2,3,4}"),
    pytest.param(diagram(Family.SP, 3, (1, 2, 3)), [1.0, 2.5, 0.75],
                 id="Sp:3 {1,2,3}")])
def test_mixed_stack_equals_one_point_calls_to_the_bit(dia, coeffs):
    # each point's exp series stops where its own power of Z vanishes: the
    # origin's at once, most stencil directions' at Z^2 or Z^3, a generic
    # sample's only near Z^(size - 1); no point may move another's bits
    atlas = build_Z(dia)
    n = atlas.nvars
    rng = random.Random(32)
    samples = []
    for _ in range(6):
        raw = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(n)]
        top = max(map(abs, raw))
        samples.append([z * (0.05 / top) for z in raw])
    points = np.concatenate(([np.zeros(n)], 1e-4 * np.array(list(_stencil(n))),
                             samples))
    stack = points[rng.sample(range(len(points)), len(points))]
    stacked = eval_numeric(atlas, stack, coeffs)
    one = np.concatenate([eval_numeric(atlas, [p], coeffs) for p in stack])
    assert stacked.tobytes() == one.tobytes()
    for value, point in zip(stacked, stack):
        expected = oracles.potential_pointwise(atlas, dia.black, point,
                                               coeffs)
        assert abs(value - expected) <= 1e-12


@pytest.mark.parametrize("points", [
    [[0.01j] * 10], [[0.01j] * 7], [0.01j] * 8, [[0.01j] * 8, [0.01j] * 7],
    [[[0.01j] * 8]], [["z"] * 8]],
    ids=["10 wide", "7 wide", "bare point", "ragged", "3-d", "not numbers"])
def test_numeric_readers_refuse_points_of_the_wrong_width(points):
    # Sp(3) {1,3} has 8 variables: a wider point used to lose its extra
    # coordinates, a narrower one or a bare point raised IndexError
    dia = diagram(Family.SP, 3, (1, 3))
    expansion = diastasis(dia, 3, (1, 2))
    atlas = build_Z(dia)
    assert atlas.nvars == 8
    with pytest.raises(ValueError, match="P x 8 stack of numbers"):
        eval_numeric(atlas, points, [1, 2])
    with pytest.raises(ValueError, match="P x 8 stack of numbers"):
        truncated_value(expansion, points, 8)
    with pytest.raises(ValueError, match="P x 8 stack of numbers"):
        hessian_fd(dia, [1.0, 2.0], points)


def test_numeric_readers_answer_an_empty_stack():
    dia = diagram(Family.SP, 3, (1, 3))
    expansion = diastasis(dia, 3, (1, 2))
    atlas = build_Z(dia)
    for empty in (np.zeros((0, 8)), []):
        assert eval_numeric(atlas, empty, [1, 2]).shape == (0,)
        assert truncated_value(expansion, empty, 8) == []
        stencil = hessian_fd(dia, [1.0, 2.0], empty)
        assert stencil.at_points.shape == (0,)
        assert (stencil.hessian.tobytes()
                == hessian_fd(dia, [1.0, 2.0]).hessian.tobytes())
        assert stencil.at_zero == 0.0


def test_numeric_potential_stack_with_one_bad_point_raises():
    # at |z| = 1e8 the float Gram minor of SU(3) cancels to a negative value
    dia = diagram(Family.SU, 3, (1, 2))
    atlas = build_Z(dia)
    good = [0.01j] * atlas.nvars
    bad = [1e8] * atlas.nvars
    eval_numeric(atlas, [good, good], [1, 1])
    with pytest.raises(NumericDomainError, match="not positive"):
        eval_numeric(atlas, [good, bad, good], [1, 1])


def test_truncation_error_scales_with_radius():
    dia = diagram(Family.SU, 3, (1, 2))
    expansion = diastasis(dia, 3, (1, 1))
    atlas = build_Z(dia)
    rng = random.Random(4)
    n = atlas.nvars
    for radius, bound in ((0.05, 1e-4), (0.01, 1e-7)):
        for _ in range(5):
            raw = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            top = max(abs(z) for z in raw)
            point = [z * radius / top for z in raw]
            err = abs(
                eval_numeric(atlas, [point], [1, 1])[0]
                - truncated_value(expansion, [point], n)[0]
            )
            assert err < bound


def test_exp_matches_numeric_exponential():
    dia = diagram(Family.SO_ODD, 3, (1, 3))
    atlas = build_Z(dia)
    rng = random.Random(13)
    zvals = [complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
             for _ in range(atlas.nvars)]
    symbolic = np.array(oracles.exp_Z(atlas, None).evaluate(zvals))
    zn = np.array(oracles.numeric_Z(atlas, zvals))
    acc = np.eye(zn.shape[0], dtype=complex)
    power = np.eye(zn.shape[0], dtype=complex)
    for k in range(1, zn.shape[0] + 1):
        power = power @ zn / k
        acc += power
    assert np.max(np.abs(symbolic - acc)) < 1e-12


def test_gram_determinant_consistency_with_numeric():
    # symbolic minor at high truncation equals the numeric determinant
    dia = diagram(Family.SU, 3, (1, 2))
    atlas = build_Z(dia)
    a = gram(atlas, None)
    rng = random.Random(31)
    zvals = [complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
             for _ in range(atlas.nvars)]
    for l in (1, 2, 3):
        sym_val = oracles.minor_det(a, l).evaluate(zvals)
        dense = np.array(a.evaluate(zvals))
        num_val = np.linalg.det(dense[:l, :l])
        assert abs(sym_val - num_val) < 1e-12


def test_invariant_sweep_small_ranks_degree_four():
    count = 0
    for fam, minr in ((Family.SU, 2), (Family.SP, 1),
                      (Family.SO_EVEN, 3), (Family.SO_ODD, 1)):
        for rank in range(minr, 4):
            group = GroupSpec(fam, rank)
            for black in iter_black_sets(group, 2):
                try:
                    dia = PaintedDiagram(group, black)
                except PaintingError:
                    continue
                diastasis(dia, 4, "symbolic")  # invariants assert internally
                count += 1
    assert count > 10


def test_coefficients_come_from_any_sequence_of_numbers_or_symbolic():
    # at diastasis and at CaseRequest alike, where CaseRequest used to
    # raise TypeError on None
    dia = PaintedDiagram(GroupSpec(Family.SU, 4), (1, 3))
    listed = diastasis(dia, 3, [1, 2])
    for make in (lambda: np.array([1, 2]), lambda: (x for x in (1, 2)),
                 lambda: (Fraction(1), 2.0), lambda: {3: 1, 1: 2}.values()):
        got = diastasis(dia, 3, make())
        assert list(got.terms.items()) == list(listed.terms.items())
        request = CaseRequest(dia.group, dia.black, make(), 3, None)
        assert request.coeffs == (1, 2)
    assert diastasis(dia, 3, None) == diastasis(dia, 3, "symbolic")
    symbolic = run_case(CaseRequest(dia.group, dia.black, "symbolic", 3, None))
    assert run_case(CaseRequest(dia.group, dia.black, None, 3, None)) == symbolic
    with pytest.raises(ValueError, match="'symbolic' or numbers"):
        diastasis(dia, 3, "12")


@pytest.mark.parametrize("value", [float("inf"), float("nan"), "1/0"])
def test_non_rational_coefficients_are_refused_by_item(value):
    # one line naming the item, where inf used to raise OverflowError and
    # 1/0 ZeroDivisionError
    dia = PaintedDiagram(GroupSpec(Family.SU, 4), (1, 3))
    for pos, coeffs in ((1, [value, 2]), (2, [1, value])):
        with pytest.raises(ValueError,
                           match=rf"^invalid coeffs: item {pos} "
                                 rf"\({re.escape(repr(value))}\) is not a "
                                 "rational$"):
            diastasis(dia, 3, coeffs)
