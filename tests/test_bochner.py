"""Trinomial catalog, forbidden reports and the Bochner classification."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import oracles
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import catalog_sum, catalog_trinomials

from flagbochner import bochner
from flagbochner.bochner import (
    BochnerStatus,
    classify,
    forbidden_report,
    render_constraint,
    verdict_from_report,
)
from flagbochner.expansion import diastasis, forbidden_jet
from flagbochner.feasibility import echelon, positive_solution_exists, rref
from flagbochner.lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    iter_black_sets,
)
from flagbochner.matrices import build_Z
from flagbochner.poly import CoeffForm, EngineInvariantError, Monomial, Polynomial

F = Fraction


def diagram(fam, rank, black):
    return PaintedDiagram(GroupSpec(fam, rank), black)


def mono_from_names(atlas, holo, anti):
    index = {name: i for i, name in enumerate(atlas.var_names())}
    m = Monomial.unit()
    for name in holo:
        m = m * Monomial.variable(index[name])
    for name in anti:
        m = m * Monomial.variable(index[name], anti=True)
    return m


# ------------------------------------------------------------- feasibility

def test_rref_normalizes_rows():
    rows = [(F(2), F(-2), F(0)), (F(1), F(-1), F(-1))]
    reduced = rref(rows)
    assert reduced == [(F(1), F(-1), F(0)), (F(0), F(0), F(1))]


_ENTRY = st.fractions(-3, 3, max_denominator=4)


@st.composite
def _row_systems(draw):
    """Small rational rows, with zero rows, copies and rows scaled by a
    nonzero (possibly negative or fractional) factor mixed in; integral
    entries are sometimes passed as ints."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[_ENTRY] * n), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "copy", "scaled")))
        if kind == "zero" or not rows:
            rows.append((F(0),) * n)
        else:
            scale = F(1) if kind == "copy" else draw(_ENTRY.filter(bool))
            rows.append(tuple(scale * x for x in draw(st.sampled_from(rows))))
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows = [tuple(x.numerator if x.denominator == 1 else x for x in r)
                for r in rows]
    return list(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_row_systems())
def test_rref_matches_the_fraction_gauss_jordan(rows):
    got = rref(rows)
    assert got == oracles.gauss_jordan(rows)
    for r in got:
        assert all(type(x) is Fraction for x in r)
        assert next(x for x in r if x) == 1


def _read_to_full_rank(rows):
    """The rows, then a failure if anything reads past them."""
    yield from rows
    raise AssertionError("read past full column rank")


def test_echelon_and_rref_stop_reading_at_full_column_rank():
    # a zero row and a copy add nothing; the third independent row fills
    # the three columns, and neither reads another row after it
    rows = [(0, 0, 0), (2, -2, 0), (F(1), F(-1), 0), (1, -1, -1), (F(1, 2), 1, 0)]
    assert echelon(_read_to_full_rank(rows)) == [(1, -1, 0), (0, 1, 0), (0, 0, 1)]
    # at full column rank the reduced form is the identity
    systems = [rows] + [[tuple((i + 1) ** j for j in range(n)) for i in range(n)]
                        for n in range(1, 6)]  # Vandermonde, nonsingular
    for system in systems:
        n = len(system[0])
        got = rref(_read_to_full_rank(system))
        assert got == [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
        assert all(type(x) is Fraction for r in got for x in r)


def test_positive_solution_exists_basic_cases():
    assert positive_solution_exists([])
    assert positive_solution_exists([(F(1), F(-1))])          # c1 = c2
    assert positive_solution_exists([(F(1), F(-2))])          # c1 = 2 c2
    assert not positive_solution_exists([(F(1),)])            # c1 = 0
    # c1 = c2 and c1 = c2 + c3 force c3 = 0
    assert not positive_solution_exists(
        [(F(1), F(-1), F(0)), (F(1), F(-1), F(-1))]
    )


def test_positive_solution_exists_degenerate_combo():
    # c1 + c2 - c3 = 0 admits (1, 1, 2)
    assert positive_solution_exists([(F(1), F(1), F(-1))])
    # c1 + c2 = 0 does not
    assert not positive_solution_exists([(F(1), F(1))])


# ----------------------------------------------------------------- catalog

def test_catalog_empty_for_su_one_black_node():
    atlas = build_Z(diagram(Family.SU, 4, (2,)))
    trinomials = catalog_trinomials(atlas, 2)
    assert catalog_sum(trinomials).is_zero()


def test_catalog_so_even_delta1_survivors():
    # black {1, d}: Delta_1 keeps only kind-I trinomials Z[t,1] Zb[t,s] Zb[s,1]
    # with t in the lower row block and s in the upper block
    d = 4
    atlas = build_Z(diagram(Family.SO_EVEN, d, (1, d)))
    trinomials = catalog_trinomials(atlas, 1)
    assert trinomials, "Delta_1 catalog should not be empty"
    for t in trinomials:
        assert t.kind == "I"
        i, s, tt = t.indices
        assert i == 1
    total = catalog_sum(trinomials)
    survivors = {m for m, f in total.terms.items()}
    for m in survivors:
        assert m.bidegree == (1, 2)
    kinds = {
        (t.indices[1] > d, t.indices[2] <= d)
        for t in trinomials
        if not catalog_sum([t]).is_zero()
    }
    assert (True, True) in kinds


def test_catalog_matches_determinant_slice_randomized():
    rng = random.Random(99)
    families = [Family.SU, Family.SP, Family.SO_EVEN, Family.SO_ODD]
    checked = 0
    while checked < 20:
        fam = rng.choice(families)
        min_rank = {Family.SU: 2, Family.SO_EVEN: 3}.get(fam, 1)
        rank = rng.randint(min_rank, 5)
        group = GroupSpec(fam, rank)
        candidates = list(iter_black_sets(group, 3))
        black = candidates[rng.randrange(len(candidates))]
        try:
            dia = PaintedDiagram(group, black)
        except PaintingError:
            continue
        r = rng.choice(dia.black)
        atlas = build_Z(dia)
        cat = catalog_sum(catalog_trinomials(atlas, r))
        a = oracles.gram(oracles.exp_Z(atlas, 3))
        slice12 = oracles.minor_det(a, r).bidegree_part(1, 2).truncate(None)
        assert cat == slice12, (dia, r)
        checked += 1


def test_trinomial_weights_by_kind():
    atlas = build_Z(diagram(Family.SP, 2, (1, 2)))
    trinomials = catalog_trinomials(atlas, 2)
    seen = {}
    for t in trinomials:
        seen[t.kind] = t.weight
        assert t.coeff in (t.weight, -t.weight)
    expected = {"I": F(1, 2), "II": F(-1, 2), "III": F(-1), "IV": F(1)}
    for kind, weight in seen.items():
        assert expected[kind] == weight


# -------------------------------------------------------- forbidden report

def test_su_one_black_empty_report_at_degree_six():
    expansion = diastasis(diagram(Family.SU, 4, (2,)), 6, "symbolic")
    report = oracles.report_of(expansion)
    assert report.is_empty()
    assert report.degree_checked == 6


def test_su_two_black_forms_are_half_differences():
    k, r = 1, 2
    expansion = diastasis(diagram(Family.SU, 3, (k, r)), 3, "symbolic")
    report = oracles.report_of(expansion)
    assert not report.is_empty()
    expected = CoeffForm(((k, F(1, 2)), (r, F(-1, 2))))
    for _, form in report.entries:
        assert form == expected


def test_su_three_black_contains_both_obstruction_forms():
    j, q, r = 1, 2, 3
    expansion = diastasis(diagram(Family.SU, 5, (j, q, r)), 3, "symbolic")
    report = oracles.report_of(expansion)
    forms = {f for _, f in report.entries}
    assert CoeffForm(((j, F(1, 2)), (q, F(-1, 2)))) in forms
    assert CoeffForm(((j, F(1, 2)), (q, F(-1, 2)), (r, F(-1, 2)))) in forms


def test_report_is_conjugate_closed_with_equal_forms():
    # the expansion's report by definition, and the jet's report, which
    # writes each mirror entry from the very form object of the other
    dia = diagram(Family.SP, 3, (1, 3))
    expansion = oracles.report_of(diastasis(dia, 3, "symbolic"))
    report = forbidden_report(forbidden_jet(dia, 3))
    assert report.entries == expansion.entries
    table = dict(report.entries)
    assert table
    for mono, form in report.entries:
        assert table[mono.conj()] is form


def test_report_refuses_a_potential_that_is_not_real():
    # the closure check of a report read off an expansion (the jet's
    # report is closed by construction): z0 zb1^2 with its conjugate,
    # equal forms pass whether or not they are one object; a missing or
    # different conjugate form is an engine fault
    m = Monomial(((0, 1),), ((1, 2),))
    form = CoeffForm(((1, F(1, 2)), (2, F(-1))))
    same = CoeffForm(((1, F(1, 2)), (2, F(-1))))
    for conj in (form, same):
        report = oracles.report_of(Polynomial({m: form, m.conj(): conj}, 3))
        assert len(report.entries) == 2
    for terms in ({m: form}, {m: form, m.conj(): CoeffForm(((1, F(1)),))}):
        with pytest.raises(EngineInvariantError, match="conjugate-closed"):
            oracles.report_of(Polynomial(terms, 3))


def test_report_entries_sorted_and_minimal_witness_deterministic():
    report = forbidden_report(forbidden_jet(diagram(Family.SP, 2, (1, 2)), 3))
    # the canonical order written out, not read off the Monomial's tuple
    keys = [(m.total, m.holo, m.anti) for m, _ in report.entries]
    assert keys == sorted(keys)


# ---------------------------------------------------------------- classify

def test_classify_rejects_degree_below_two():
    with pytest.raises(ValueError, match="at least 3"):
        classify(diagram(Family.SU, 3, (1, 2)), 1)


def test_classify_sp_one_black_for_all_c():
    verdict = classify(diagram(Family.SP, 3, (2,)), 3)
    assert verdict.status is BochnerStatus.BOCHNER_FOR_ALL_C
    assert verdict.degree_checked == 3
    assert verdict.constraints == () and verdict.witness is None


def test_classify_su_two_black_iff_equal():
    verdict = classify(diagram(Family.SU, 4, (1, 3)), 3)
    assert verdict.status is BochnerStatus.BOCHNER_IFF
    assert verdict.constraints == ((F(1), F(-1)),)
    assert render_constraint(verdict.constraints[0], verdict.black) == "c1 = c3"


def test_classify_so_even_fork_iff_double():
    d = 5
    verdict = classify(diagram(Family.SO_EVEN, d, (1, d)), 3)
    assert verdict.status is BochnerStatus.BOCHNER_IFF
    assert verdict.constraints == ((F(1), F(-2)),)
    assert render_constraint(verdict.constraints[0], verdict.black) == f"c1 = 2*c{d}"


def test_classify_sp_mixed_never_bochner_with_exact_witness():
    d = 3
    dia = diagram(Family.SP, d, (1, d))
    verdict = classify(dia, 3)
    assert verdict.status is BochnerStatus.NEVER_BOCHNER
    atlas = build_Z(dia)
    expected = mono_from_names(
        atlas, ["-2e1"], [f"-e1-e{d}", f"-e1+e{d}"]
    )
    report = oracles.report_of(diastasis(dia, 3, "symbolic"))
    form = dict(report.entries).get(expected)
    assert form is not None
    assert form.orthant_sign() != 0
    # the chosen witness is itself sign definite here
    wit_mono, wit_form = verdict.witness
    assert wit_form.orthant_sign() != 0


def test_classify_witness_prefers_sign_definite_form():
    verdict = classify(diagram(Family.SO_ODD, 3, (1, 3)), 3)
    assert verdict.status is BochnerStatus.NEVER_BOCHNER
    _, form = verdict.witness
    assert form.orthant_sign() != 0


def test_classify_monotone_under_degree_increase():
    order = {
        BochnerStatus.BOCHNER_FOR_ALL_C: 0,
        BochnerStatus.BOCHNER_IFF: 1,
        BochnerStatus.NEVER_BOCHNER: 2,
    }
    for dia in (
        diagram(Family.SU, 3, (1, 2)),
        diagram(Family.SU, 4, (2,)),
        diagram(Family.SP, 2, (1, 2)),
        diagram(Family.SO_EVEN, 4, (1, 4)),
    ):
        v3 = classify(dia, 3)
        v4 = classify(dia, 4)
        assert order[v4.status] >= order[v3.status]
        assert v4.degree_checked == 4


def _paintings(max_rank):
    """Every painting of rank <= max_rank with 1-3 black nodes."""
    for fam, min_rank in ((Family.SU, 2), (Family.SP, 1),
                          (Family.SO_EVEN, 3), (Family.SO_ODD, 1)):
        for rank in range(min_rank, max_rank + 1):
            group = GroupSpec(fam, rank)
            for black in iter_black_sets(group, 3):
                try:
                    yield PaintedDiagram(group, black)
                except PaintingError:
                    continue


@pytest.fixture(scope="module")
def degree_five_expansions():
    """The symbolic expansion to degree 5 of every painting of rank <= 4
    with 1-3 black nodes, shared by the tests that read it."""
    return {dia: diastasis(dia, 5, "symbolic") for dia in _paintings(4)}


def test_verdicts_stabilize_at_degree_three(degree_five_expansions):
    # the classification table settles at degree 3: every painting of rank
    # <= 4 with 1-3 black nodes gets the same verdict at degree 5
    checked = 0
    for fam, min_rank in ((Family.SU, 2), (Family.SP, 1),
                          (Family.SO_EVEN, 3), (Family.SO_ODD, 1)):
        for rank in range(min_rank, 5):
            group = GroupSpec(fam, rank)
            for black in iter_black_sets(group, 3):
                try:
                    dia = PaintedDiagram(group, black)
                except PaintingError:
                    continue
                deep = degree_five_expansions[dia]
                v3 = verdict_from_report(
                    oracles.report_of(deep.truncate(3)), dia.black)
                v5 = verdict_from_report(oracles.report_of(deep), dia.black)
                assert v5.status == v3.status, dia
                assert v5.constraints == v3.constraints, dia
                checked += 1
    assert checked == 64


def test_jet_report_equals_expansion_report(degree_five_expansions):
    # the jet's report is the full expansion's, entry by entry and in
    # order; the expansion to degree d is the truncation of a deeper one,
    # and so is the jet, down from the untruncated one
    cases = [(dia, exp, (3, 4, 5))
             for dia, exp in degree_five_expansions.items()]
    deeper = [*_paintings(3), diagram(Family.SO_ODD, 4, (2, 3, 4))]
    cases += [(dia, diastasis(dia, 6, "symbolic"), (6,)) for dia in deeper]
    assert len(cases) == 64 + 26 + 1
    for dia, expansion, degrees in cases:
        every = oracles.jet_polynomial(forbidden_jet(dia, None))
        for d in degrees:
            jet = forbidden_jet(dia, d)
            assert oracles.jet_polynomial(jet) == every.truncate(d), (dia, d)
            expected = oracles.report_of(expansion.truncate(d))
            got = forbidden_report(jet)
            assert got.entries == expected.entries, (dia, d)
            assert got.degree_checked == d


def test_jet_equals_the_reference_jet():
    # the packed integer jet against the Polynomial Neumann solves, on
    # every painting of rank <= 6 with 1-3 black nodes
    checked = 0
    for dia in _paintings(6):
        for degree in (3, 5, None):
            got = oracles.jet_polynomial(forbidden_jet(dia, degree))
            assert got.trunc == degree
            assert got.terms == oracles.forbidden_jet(dia, degree).terms, (
                dia, degree)
        checked += 1
    assert checked == 256


def test_jet_equals_the_product_jet():
    # the recursion W_(n+1) = Z W_n - W_n Z against the products
    # exp Z exp(-Z) read at the chart entries, term for term, on every
    # painting of rank <= 6 with 1-3 black nodes of every family
    checked = 0
    for dia in _paintings(6):
        for degree in (3, 5, None):
            got = oracles.jet_polynomial(forbidden_jet(dia, degree))
            assert got.terms == oracles.product_jet(dia, degree).terms, (
                dia, degree)
        checked += 1
    assert checked == 256


def test_degree_three_jet_equals_the_block_oracle():
    # the default request's jet against Y_l to degree 2 in z, built from
    # the blocks of Z without exp Z, on every painting of rank <= 6 with
    # 1-3 black nodes
    checked = 0
    for dia in _paintings(6):
        got = oracles.jet_polynomial(forbidden_jet(dia, 3))
        assert got.terms == oracles.degree_three_jet(dia).terms, dia
        checked += 1
    assert checked == 256


def _basis(report, black):
    """The verdict's echelon basis of the report's distinct forms."""
    forms = dict.fromkeys(f for _, f in report.entries)
    return echelon([dict(f.terms).get(p, 0) for p in black] for f in forms)


def test_constraint_rows_are_primitive_and_full_rank_means_no_solution():
    # the verdict skips the LP when the rows have full column rank; on
    # every painting of rank <= 4 with 1-3 black nodes, at degrees 3 and
    # 5, the LP agrees there, and the primitive rows of the echelon basis
    # span the same space as one rational row per forbidden entry
    checked = full_rank = 0
    for dia in _paintings(4):
        deepest = forbidden_report(forbidden_jet(dia, 5))
        for degree in (3, 5):
            report = deepest.truncate(degree)
            rows = _basis(report, dia.black)
            for r in rows:
                assert all(type(x) is int for x in r)
                assert math.gcd(*r) == 1
                assert next(x for x in r if x) > 0
            for a, b in itertools.combinations(rows, 2):
                assert any(a[i] * b[j] != a[j] * b[i]
                           for i, j in itertools.combinations(range(len(a)), 2)
                           ), (dia, degree, a, b)
            entry_rows = [tuple(dict(f.terms).get(p, F(0)) for p in dia.black)
                          for _, f in report.entries]
            reduced = rref(rows)
            assert reduced == oracles.gauss_jordan(entry_rows), (dia, degree)
            if len(reduced) == len(dia.black):
                assert not positive_solution_exists(reduced), (dia, degree)
                full_rank += 1
            checked += 1
    assert checked == 128
    assert full_rank > 0


def _integer_det(rows) -> int:
    """The determinant of a square integer matrix by Leibniz's formula."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_early_stop_verdict_equals_full_elimination():
    # the echelon basis stops at one row per black node; on every painting
    # of rank <= 6 with 1-3 black nodes, at degrees 3 and 5, the verdict
    # is the one gauss_jordan and the LP give over every entry's row, and
    # at the stop the basis is a nonsingular square integer system, the
    # certificate that only c = 0 solves the forms
    checked = stopped = 0
    for dia in _paintings(6):
        deepest = forbidden_report(forbidden_jet(dia, 5))
        for degree in (3, 5):
            report = deepest.truncate(degree)
            got = verdict_from_report(report, dia.black)
            assert got == oracles.verdict_by_full_elimination(
                report, dia.black), (dia, degree)
            basis = _basis(report, dia.black)
            if len(basis) == len(dia.black):
                assert got.status is BochnerStatus.NEVER_BOCHNER
                assert all(type(x) is int for r in basis for x in r)
                assert _integer_det(basis) != 0, (dia, degree)
                stopped += 1
            checked += 1
    assert checked == 2 * 256
    assert stopped > 0


def test_rref_and_the_lp_run_only_below_full_rank(monkeypatch):
    calls = []

    def spy(fn):
        def wrapped(rows):
            calls.append(fn.__name__)
            return fn(rows)
        return wrapped

    monkeypatch.setattr(bochner, "rref", spy(rref))
    monkeypatch.setattr(bochner, "positive_solution_exists",
                        spy(positive_solution_exists))
    full = below = 0
    for dia in _paintings(5):
        report = forbidden_report(forbidden_jet(dia, 3))
        calls.clear()
        verdict = verdict_from_report(report, dia.black)
        if report.is_empty():
            assert calls == [], dia
        elif len(_basis(report, dia.black)) == len(dia.black):
            assert calls == [], dia
            assert verdict.status is BochnerStatus.NEVER_BOCHNER
            full += 1
        else:
            assert calls == ["rref", "positive_solution_exists"], dia
            below += 1
    assert full and below


WALK_DEGREES = (3, 4, 5, 6, None)


def test_walk_verdicts_equal_the_verdicts_of_each_truncation():
    # one walk over the untruncated report answers every degree; on every
    # painting of rank <= 4 with 1-3 black nodes each of its verdicts is
    # the one-degree verdict of the report truncated there, and the
    # verdict by full elimination of that truncation
    checked = 0
    statuses = set()
    for dia in _paintings(4):
        report = forbidden_report(forbidden_jet(dia, None))
        walked = bochner.verdicts(report, dia.black, WALK_DEGREES)
        assert len(walked) == len(WALK_DEGREES)
        for degree, got in zip(WALK_DEGREES, walked):
            truncated = report.truncate(degree)
            want = verdict_from_report(truncated, dia.black)
            for field in ("status", "black", "degree_checked",
                          "constraints", "witness"):
                assert getattr(got, field) == getattr(want, field), (
                    dia, degree, field)
            assert got == oracles.verdict_by_full_elimination(
                truncated, dia.black), (dia, degree)
            statuses.add(got.status)
            checked += 1
    assert checked == 5 * 64
    assert statuses == set(BochnerStatus)


def test_walk_refuses_degrees_out_of_order_or_beyond_the_report():
    dia = diagram(Family.SP, 3, (1, 2, 3))
    report = forbidden_report(forbidden_jet(dia, 5))
    with pytest.raises(ValueError, match="must ascend"):
        bochner.verdicts(report, dia.black, (5, 3))
    with pytest.raises(ValueError, match="cannot certify every degree"):
        bochner.verdicts(report, dia.black, (3, None))
    with pytest.raises(ValueError, match="integer at least 3"):
        bochner.verdicts(report, dia.black, (2, 5))
    assert bochner.verdicts(report, dia.black, ()) == []
    assert report.end(5) == len(report.entries) == 42
    assert (report.end(3), report.end(4)) == (20, 36)


def test_report_truncation_is_the_report_of_the_truncated_jet():
    # entries sort by total degree first, so truncating a report keeps a
    # prefix; it must be the report of the jet truncated first
    checked = 0
    for dia in _paintings(4):
        jet = forbidden_jet(dia, 5)
        deepest = forbidden_report(jet)
        for d in range(3, 5):
            truncated = deepest.truncate(d)
            assert truncated == oracles.report_of(
                oracles.jet_polynomial(jet).truncate(d)), (dia, d)
            assert truncated.degree_checked == d
            checked += 1
        with pytest.raises(ValueError, match="checked to degree 5"):
            deepest.truncate(6)
    assert checked == 2 * 64
    untruncated = forbidden_jet(diagram(Family.SP, 2, (1, 2)), None)
    assert (forbidden_report(untruncated).truncate(4)
            == oracles.report_of(oracles.jet_polynomial(untruncated)
                                 .truncate(4)))


def test_report_refuses_a_degree_without_forbidden_monomials():
    # below degree 3 the truncated report is empty, which would read as
    # BochnerForAllC for a painting that is never Bochner; truncate takes
    # the floor that classify and forbidden_jet take
    dia = diagram(Family.SP, 3, (1, 2, 3))
    report = forbidden_report(forbidden_jet(dia, 5))
    assert len(report.entries) == 42
    assert (verdict_from_report(report, dia.black).status
            is BochnerStatus.NEVER_BOCHNER)
    for degree in (2, 0, -4, 2.5, "3"):
        with pytest.raises(ValueError, match="integer at least 3"):
            report.truncate(degree)
    three = report.truncate(3)
    assert three.degree_checked == 3
    assert three.entries == report.entries[:len(three.entries)]


def test_report_truncated_at_every_degree():
    # None asks for every degree: only an untruncated report holds it
    dia = diagram(Family.SP, 2, (1, 2))
    every = forbidden_report(forbidden_jet(dia, None))
    assert every.truncate(None) is every
    with pytest.raises(ValueError,
                       match="checked to degree 5 cannot certify every degree"):
        forbidden_report(forbidden_jet(dia, 5)).truncate(None)


@pytest.mark.parametrize("degree", [3, 5, None])
def test_report_equals_its_definition_on_jets(degree):
    # the report sorts only the forbidden terms, on keys read once: the
    # same entries, forms and order as sorting every term, then filtering,
    # on every painting of rank <= 6 with 1-3 black nodes
    checked = 0
    for dia in _paintings(6):
        jet = forbidden_jet(dia, degree)
        assert (forbidden_report(jet).entries
                == oracles.report_by_sorting(oracles.jet_polynomial(jet))), (
                    dia, degree)
        checked += 1
    assert checked == 256


def test_report_equals_its_definition_on_expansions():
    # the jet's report against the definition read off the expansion,
    # which also has terms of bidegree (p >= 2, q >= 2) to drop
    checked = 0
    for dia in _paintings(4):
        expansion = diastasis(dia, 4, "symbolic")
        assert (forbidden_report(forbidden_jet(dia, 4)).entries
                == oracles.report_by_sorting(expansion)), dia
        checked += 1
    assert checked == 64


def test_untruncated_jet_keeps_degree_three_verdicts():
    # the untruncated jet carries every forbidden monomial of the
    # potential, so its verdict holds at every degree: on every painting of
    # rank <= 7 with 1-3 black nodes it is the degree-3 verdict, and no
    # forbidden monomial has total degree above 6
    checked = 0
    for dia in _paintings(7):
        jet = forbidden_jet(dia, None)
        report = forbidden_report(jet)
        assert report.degree_checked is None
        assert all(m.total <= 6 for m, _ in report.entries), dia
        every = verdict_from_report(report, dia.black)
        # the degree-3 jet is this one truncated (checked against the
        # expansion above; criterion 1 pins its verdicts to the paper)
        v3 = verdict_from_report(report.truncate(3), dia.black)
        assert v3.degree_checked == 3
        assert every.degree_checked is None
        assert every.status == v3.status, dia
        assert every.constraints == v3.constraints, dia
        checked += 1
    assert checked == 256 + 192


def test_bochner_iff_constraints_admit_positive_solution():
    verdict = classify(diagram(Family.SO_EVEN, 4, (1, 4)), 3)
    assert positive_solution_exists(list(verdict.constraints))


def test_rescaling_soundness_for_admissible_numeric_coefficients():
    # numeric c on the constraint locus: empty forbidden report and a
    # positive diagonal quadratic part, so dividing each variable by the
    # square root of its coefficient rescales the metric to the identity
    cases = [
        (diagram(Family.SU, 3, (1, 2)), (F(1), F(1))),
        (diagram(Family.SO_EVEN, 4, (1, 4)), (F(2), F(1))),
        (diagram(Family.SP, 3, (2,)), (F(5, 3),)),
    ]
    for dia, coeffs in cases:
        expansion = diastasis(dia, 3, coeffs)
        report = oracles.report_of(expansion)
        assert report.is_empty()
        quad = expansion.bidegree_part(1, 1).terms
        lams = {m.holo[0][0]: float(f) for m, f in quad.items()}
        assert all(lam > 0 for lam in lams.values())
        rescaled_11 = {v: lam / lams[v] for v, lam in lams.items()}
        assert all(abs(x - 1.0) < 1e-12 for x in rescaled_11.values())


def test_verdict_from_report_matches_classify():
    dia = diagram(Family.SU, 4, (1, 3))
    expansion = diastasis(dia, 3, "symbolic")
    report = oracles.report_of(expansion)
    assert verdict_from_report(report, dia.black) == classify(dia, 3)
