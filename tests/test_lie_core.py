"""Root systems, painted diagrams, heights and Poincare polynomials."""

import itertools
from fractions import Fraction

import pytest
from oracles import (
    all_roots,
    black_part,
    black_roots,
    elimination_coefficients,
    elimination_height,
    height,
    poincare_by_division,
    poincare_from_heights,
    positive_roots,
    prefix_sum_coefficients,
    prefix_sum_height,
    simple_coefficients,
    simple_roots,
    twice_simple_coefficients,
    validate_Q,
)

from flagbochner.lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    Root,
    _over_binomial,
    iter_black_sets,
    poincare,
)
from flagbochner.poly import EngineInvariantError


def su(d):
    return GroupSpec(Family.SU, d)


def sp(d):
    return GroupSpec(Family.SP, d)


def so_even(d):
    return GroupSpec(Family.SO_EVEN, d)


def so_odd(d):
    return GroupSpec(Family.SO_ODD, d)


def groups_up_to(max_rank):
    for family in Family:
        for d in range(1, max_rank + 1):
            try:
                yield GroupSpec(family, d)
            except ValueError:
                continue


# ------------------------------------------------------------ root systems

def test_su3_positive_roots_exactly():
    got = set(positive_roots(su(3)))
    assert got == {Root((1, -1, 0)), Root((0, 1, -1)), Root((1, 0, -1))}


def test_sp1_positive_roots():
    assert positive_roots(sp(1)) == (Root((2,)),)


def test_so8_positive_root_count_vs_bruteforce():
    # brute force: all +-e_i +- e_j with i < j <= 4
    brute = set()
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0, 0, 0, 0]
            v[i], v[j] = si, sj
            brute.add(Root(tuple(v)))
    pos = set(positive_roots(so_even(4)))
    assert len(pos) == 12
    assert pos <= brute and len(brute) == 24


@pytest.mark.parametrize("group,count", [
    (su(5), 10),        # d(d-1)/2
    (sp(4), 16),        # d^2
    (so_even(5), 20),   # d(d-1)
    (so_odd(4), 16),    # d^2
])
def test_positive_root_counts(group, count):
    assert len(positive_roots(group)) == count


def test_positive_roots_are_positive_in_simple_basis():
    for group in (su(4), sp(3), so_even(4), so_odd(3)):
        for r in positive_roots(group):
            coeffs = simple_coefficients(group, r)
            assert all(c >= 0 for c in coeffs) and any(coeffs)


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(Family.SU, 1)
    with pytest.raises(ValueError):
        GroupSpec(Family.SO_EVEN, 2)
    assert so_odd(1).matrix_size == 3
    assert sp(3).matrix_size == 6
    assert so_even(4).matrix_size == 8
    assert su(4).matrix_size == 4


def test_group_spec_normalises_its_family_and_refuses_other_values():
    # Family is a str enum, so "SU" must build SU(3) itself, not a group
    # that takes every non-SU branch
    group = GroupSpec("SU", 3)
    assert group.family is Family.SU
    assert (group.label(), group.matrix_size) == ("SU(3)", 3)
    assert GroupSpec("SOodd", 2) == so_odd(2)
    with pytest.raises(ValueError, match="unknown family 'SP'"):
        GroupSpec("SP", 2)
    with pytest.raises(TypeError):
        GroupSpec(Family.SU, 3.0)
    with pytest.raises(TypeError):
        GroupSpec(Family.SP, "3")


# ------------------------------------------------------------- black roots

def test_su3_full_flag_black_roots():
    diagram = PaintedDiagram(su(3), (1, 2))
    q = black_roots(diagram)
    assert set(q) == set(positive_roots(su(3)))
    assert len(q) == 3
    # every simple root is black, so R_M is the whole root system
    assert black_part(diagram) == all_roots(su(3))


def test_su4_grassmannian_black_roots():
    # expand each positive root over the simple basis and keep those with a
    # nonzero alpha_2 coefficient: an independent derivation of R_M+
    group = su(4)
    diagram = PaintedDiagram(group, (2,))
    q = black_roots(diagram)
    expected = {
        r for r in positive_roots(group)
        if simple_coefficients(group, r)[1]
    }
    assert set(q) == expected
    assert len(q) == 4
    # the e_i - e_j pattern with i <= 2 < j
    for r in q:
        ones = [i for i, c in enumerate(r.coeffs, 1) if c == 1]
        negs = [i for i, c in enumerate(r.coeffs, 1) if c == -1]
        assert ones[0] <= 2 < negs[0]


def test_so_even_black_1_d_contains_expected_roots():
    d = 4
    diagram = PaintedDiagram(so_even(d), (1, d))
    q = black_roots(diagram)
    qset = set(q)
    for j in range(2, d + 1):
        v = [0] * d
        v[0], v[j - 1] = 1, -1
        assert Root(tuple(v)) in qset
    for i, j in itertools.combinations(range(1, d + 1), 2):
        v = [0] * d
        v[i - 1], v[j - 1] = 1, 1
        assert Root(tuple(v)) in qset


# ------------------------------------------------------------- validate_Q

def test_validate_q_accepts_canonical_choice():
    for group, black in [(su(3), (1, 2)), (sp(2), (1,)), (so_odd(3), (1, 3)),
                         (so_even(4), (1, 4))]:
        diagram = PaintedDiagram(group, black)
        q = black_roots(diagram)
        r_m = black_part(diagram)
        assert validate_Q(group, q, r_m)


def test_validate_q_detects_broken_closure_by_swap_search():
    group = su(3)
    diagram = PaintedDiagram(group, (1, 2))
    q = black_roots(diagram)
    r_m = black_part(diagram)
    broken = []
    for r in q:
        swapped = [x if x != r else -x for x in q]
        if not validate_Q(group, swapped, r_m):
            broken.append(r)
    # negating the highest root e1 - e3 must break closure
    assert Root((1, 0, -1)) in broken


def test_validate_q_vacuous_case():
    assert validate_Q(su(3), (), frozenset())


def test_validate_q_rejects_symmetric_subset():
    group = su(3)
    r = Root((1, -1, 0))
    assert not validate_Q(group, (r, -r), frozenset({r, -r}))


# ------------------------------------------------------------------ height

def test_height_su3():
    assert height(su(3), Root((1, 0, -1))) == 2
    assert height(su(3), Root((1, -1, 0))) == 1


def test_height_sp2_long_root():
    # brute-force expansion oracle: 2e1 = 2*alpha1 + alpha2
    group = sp(2)
    basis = simple_roots(group)
    target = Root((2, 0))
    found = None
    for k1 in range(5):
        for k2 in range(5):
            if Root(tuple(
                k1 * a + k2 * b for a, b in zip(basis[0].coeffs, basis[1].coeffs)
            )) == target:
                found = (k1, k2)
    assert found == (2, 1)
    assert height(group, target) == 3


def test_height_so8_sum_root_via_bruteforce_expansion():
    group = so_even(4)
    basis = simple_roots(group)
    target = Root((1, 1, 0, 0))
    found = None
    for ks in itertools.product(range(4), repeat=4):
        vec = [0] * 4
        for k, root in zip(ks, basis):
            vec = [v + k * c for v, c in zip(vec, root.coeffs)]
        if Root(tuple(vec)) == target:
            found = ks
            break
    assert found is not None
    assert height(group, target) == sum(found)


def test_height_rejects_negative_roots():
    with pytest.raises(ValueError):
        height(su(3), Root((-1, 1, 0)))
    with pytest.raises(ValueError):
        height(su(3), Root((0, 0, 0)))


def test_height_rejects_odd_halved_coordinate_sum():
    # e_1 is not a root of Sp or SO(2d): its expansion has a half-integer
    # coefficient, which only an odd s_d produces
    for group in (sp(3), so_even(4)):
        e1 = Root((1,) + (0,) * (group.rank - 1))
        assert any(c.denominator == 2 for c in simple_coefficients(group, e1))
        with pytest.raises(EngineInvariantError, match="non-integral"):
            height(group, e1)


# ------------------------------------------ closed form vs the elimination

def test_closed_form_equals_elimination_on_every_root():
    count = 0
    for group in groups_up_to(8):
        positive = set(positive_roots(group))
        for r in all_roots(group):
            assert simple_coefficients(group, r) == elimination_coefficients(
                group, r), (group, r)
            if r in positive:
                assert height(group, r) == elimination_height(group, r)
            else:
                with pytest.raises(ValueError):
                    elimination_height(group, r)
                with pytest.raises(ValueError):
                    height(group, r)
            count += 1
    assert count == 1316


def test_closed_form_equals_elimination_off_the_root_system():
    # every integer vector with entries in -2..2, roots or not; off the SU
    # hyperplane both raise
    for group in groups_up_to(4):
        for coeffs in itertools.product(range(-2, 3), repeat=group.rank):
            v = Root(coeffs)
            if group.family is Family.SU and sum(coeffs):
                for expand in (simple_coefficients, elimination_coefficients):
                    with pytest.raises(ValueError, match="span"):
                        expand(group, v)
            else:
                assert simple_coefficients(group, v) == \
                    elimination_coefficients(group, v), (group, v)


def test_poincare_equals_elimination_heights_at_rank_7_and_8():
    # the golden digests cover rank <= 6; here Q and its heights come from
    # the elimination and the product formula from a power series
    checked = 0
    for group in groups_up_to(8):
        if group.rank < 7:
            continue
        oracle = {r: elimination_coefficients(group, r)
                  for r in positive_roots(group)}
        heights = {r: elimination_height(group, r) for r in oracle}
        for black in iter_black_sets(group, 3):
            try:
                diagram = PaintedDiagram(group, black)
            except PaintingError:
                continue
            q = tuple(r for r, cs in oracle.items()
                      if any(cs[p - 1] for p in black))
            assert black_roots(diagram) == q
            series = poincare_from_heights([heights[r] for r in q])
            coeffs = poincare(diagram)
            assert coeffs[::2] == series and not any(coeffs[1::2]), diagram
            checked += 1
    assert checked == 480


# ------------------------------------- integer coefficients vs Fractions

def test_twice_the_coefficients_halved_are_the_fraction_closed_form():
    # on every root of rank <= 8: the integer helper halved is
    # simple_coefficients and the Fraction prefix sums, and height is the
    # Fraction reference's
    count = 0
    for group in groups_up_to(8):
        positive = set(positive_roots(group))
        for r in all_roots(group):
            twice = twice_simple_coefficients(group, r)
            assert all(type(c) is int for c in twice)
            halved = tuple(Fraction(c, 2) for c in twice)
            assert halved == simple_coefficients(group, r), (group, r)
            assert halved == prefix_sum_coefficients(group, r), (group, r)
            if r in positive:
                assert height(group, r) == prefix_sum_height(group, r)
            count += 1
    assert count == 1316


def test_poincare_equals_the_fraction_reference_on_every_painting():
    # Q and its heights from the Fraction prefix sums, the product divided
    # out, on every painting of rank <= 8 with 1-3 black nodes
    checked = 0
    for group in groups_up_to(8):
        coeffs = {r: prefix_sum_coefficients(group, r)
                  for r in positive_roots(group)}
        for black in iter_black_sets(group, 3):
            try:
                diagram = PaintedDiagram(group, black)
            except PaintingError:
                continue
            q = tuple(r for r, cs in coeffs.items()
                      if any(cs[p - 1] for p in black))
            assert black_roots(diagram) == q, diagram
            quot = poincare_by_division(
                [prefix_sum_height(group, r) for r in q])
            got = poincare(diagram)
            assert got[::2] == quot and not any(got[1::2]), diagram
            checked += 1
    assert checked == 736


def test_root_order_hash_and_equality_are_those_of_its_coefficients():
    # Root is a one-field tuple: it sorts, hashes and compares as (coeffs,)
    # did when it was a frozen dataclass, on every pair of roots of one
    # group of rank <= 8
    pairs = 0
    for group in groups_up_to(8):
        roots = sorted(all_roots(group))
        assert [(r.coeffs,) for r in roots] == sorted((r.coeffs,) for r in roots)
        for a in roots:
            assert hash(a) == hash((a.coeffs,))
            assert -(-a) == a and (a + -a).coeffs == (0,) * group.rank
            for b in roots:
                assert (a < b) == ((a.coeffs,) < (b.coeffs,))
                assert (a == b) == (a.coeffs == b.coeffs)
                pairs += 1
    assert pairs == sum(len(all_roots(g)) ** 2 for g in groups_up_to(8))


# ---------------------------------------------------------------- painting

def test_painting_rejects_out_of_range_and_empty():
    with pytest.raises(PaintingError):
        PaintedDiagram(su(3), ())
    with pytest.raises(PaintingError):
        PaintedDiagram(su(3), (3,))  # SU(3) has simple nodes 1..2
    with pytest.raises(PaintingError):
        PaintedDiagram(sp(2), (0,))


def test_painting_refuses_a_non_integer_position():
    for black in ((1.5,), (1, 2.0), ("1",)):
        with pytest.raises(PaintingError, match="must be integers"):
            PaintedDiagram(su(4), black)


def test_painting_rejects_a_repeated_black_node():
    # a repeat is refused, not dropped: (3, 1, 3) is not the painting (1, 3)
    with pytest.raises(PaintingError, match="node 3 more than once"):
        PaintedDiagram(su(4), (3, 1, 3))
    assert PaintedDiagram(su(4), (3, 1)).black == (1, 3)


def test_painting_rejects_so_odd_l_equals_one():
    with pytest.raises(PaintingError, match="SO\\(3\\) tail"):
        PaintedDiagram(so_odd(4), (3,))
    with pytest.raises(PaintingError, match="SO\\(3\\) tail"):
        PaintedDiagram(so_odd(4), (1, 3))
    # painting the terminal node is fine
    PaintedDiagram(so_odd(4), (3, 4))


def test_painting_rejects_so_even_fork_cases():
    with pytest.raises(PaintingError, match="SO\\(2\\) tail"):
        PaintedDiagram(so_even(4), (3, 4))
    with pytest.raises(PaintingError, match="mirror"):
        PaintedDiagram(so_even(4), (3,))
    PaintedDiagram(so_even(4), (4,))
    PaintedDiagram(so_even(4), (2, 4))


def test_painting_normalizes_black_order():
    diagram = PaintedDiagram(su(4), (3, 1))
    assert diagram.black == (1, 3)


# ---------------------------------------------------------------- poincare

def test_poincare_projective_line():
    p = poincare(PaintedDiagram(su(2), (1,)))
    assert p == (1, 0, 1)


def test_poincare_su3_full_flag_euler_number():
    diagram = PaintedDiagram(su(3), (1, 2))
    p = poincare(diagram)
    # independent oracle: P(1) = product over R_M+ of (h+1)/h
    group = diagram.group
    q = black_roots(diagram)
    expected = Fraction(1)
    for r in q:
        h = height(group, r)
        expected *= Fraction(h + 1, h)
    assert expected.denominator == 1
    assert sum(p) == expected == 6


def test_poincare_b2_equals_black_count():
    cases = [
        PaintedDiagram(su(4), (2,)),
        PaintedDiagram(su(4), (1, 3)),
        PaintedDiagram(sp(3), (1, 3)),
        PaintedDiagram(so_even(4), (1, 4)),
        PaintedDiagram(so_odd(3), (1, 3)),
    ]
    for diagram in cases:
        assert poincare(diagram)[2] == diagram.b2


def test_poincare_top_degree_is_twice_dim():
    for diagram in (PaintedDiagram(su(4), (2,)), PaintedDiagram(sp(2), (1, 2))):
        q = black_roots(diagram)
        assert len(poincare(diagram)) - 1 == 2 * len(q)


def test_poincare_palindromic_over_samples():
    for group in (su(4), sp(3), so_odd(3), so_even(4)):
        for black in iter_black_sets(group, 2):
            try:
                diagram = PaintedDiagram(group, black)
            except PaintingError:
                continue
            p = poincare(diagram)
            assert p == p[::-1]
            assert all(c >= 0 for c in p)


def test_poincare_equals_the_product_divided_out():
    # the cancelled factors against both products multiplied out in full
    # and divided, on every painting of rank <= 8 with 1-3 black nodes
    checked = 0
    for group in groups_up_to(8):
        for black in iter_black_sets(group, 3):
            try:
                diagram = PaintedDiagram(group, black)
            except PaintingError:
                continue
            q = black_roots(diagram)
            quot = poincare_by_division([height(group, r) for r in q])
            coeffs = poincare(diagram)
            assert coeffs[::2] == quot and not any(coeffs[1::2]), diagram
            checked += 1
    assert checked == 736


def test_division_by_a_binomial_is_exact_or_raises():
    # (1 - t^2)(1 + 3t) divides; 1 + t + t^2 does not, nor does 1 + t by 1 - t^2
    assert _over_binomial([1, 3, -1, -3], 2) == [1, 3]
    with pytest.raises(EngineInvariantError, match="not a polynomial"):
        _over_binomial([1, 1, 1], 2)
    with pytest.raises(EngineInvariantError, match="negative degree"):
        _over_binomial([1, 1], 2)


# ------------------------------------------------------- family A closure

def test_family_a_q_closed_under_composition():
    for d, black in [(3, (1, 2)), (4, (2,)), (5, (1, 3))]:
        group = su(d)
        diagram = PaintedDiagram(group, black)
        q = black_roots(diagram)
        r_m = black_part(diagram)
        roots = all_roots(group)
        qset = set(q)
        for a, b in itertools.permutations(q, 2):
            s = a + b
            if s in roots and s in r_m:
                assert s in qset
