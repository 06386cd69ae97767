"""Root-vector matrices, the coordinate matrix Z and its nilpotency."""

import random
from fractions import Fraction

import oracles
import pytest
from oracles import all_roots, black_roots, cartan_diagonal

from flagbochner.expansion import _packed_exp
from flagbochner.lie_core import (
    Family,
    GroupSpec,
    PaintedDiagram,
    PaintingError,
    Root,
    iter_black_sets,
)
from flagbochner.matrices import (
    CoordinateAtlas,
    Packing,
    build_Z,
    nilpotency_index,
    root_vector,
    z_powers,
)
from flagbochner import matrices
from flagbochner.poly import EngineInvariantError

F = Fraction

GROUPS = [
    GroupSpec(Family.SU, 3),
    GroupSpec(Family.SU, 4),
    GroupSpec(Family.SP, 2),
    GroupSpec(Family.SP, 3),
    GroupSpec(Family.SO_EVEN, 4),
    GroupSpec(Family.SO_ODD, 2),
    GroupSpec(Family.SO_ODD, 3),
]


def _dense(group, alpha):
    """E_alpha as a dense group.matrix_size square list of rows."""
    m = group.matrix_size
    out = [[0] * m for _ in range(m)]
    for r, c, s in root_vector(group, alpha):
        out[r][c] = s
    return out


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


# --------------------------------------------------------------- examples

def test_su3_root_vector_single_entry():
    rv = root_vector(GroupSpec(Family.SU, 3), Root((1, -1, 0)))
    assert rv == ((0, 1, 1),)


def test_sp_lower_left_block_for_negative_sum_roots():
    d = 3
    rv = root_vector(GroupSpec(Family.SP, d), Root((-1, -1, 0)))
    assert set(rv) == {(d + 0, 1, 1), (d + 1, 0, 1)}


def test_so_odd_short_negative_root_entries():
    d = 3
    rv = root_vector(GroupSpec(Family.SO_ODD, d), Root((0, -1, 0)))
    # 1-based: (d+i, 2d+1, +1) and (2d+1, i, -1)
    assert set(rv) == {(d + 1, 2 * d, 1), (2 * d, 1, -1)}


def test_root_vector_rejects_non_roots():
    with pytest.raises(ValueError):
        root_vector(GroupSpec(Family.SU, 3), Root((1, 1, -2)))


def test_entry_signs_are_unit():
    for group in GROUPS:
        m = group.matrix_size
        for alpha in all_roots(group):
            rv = root_vector(group, alpha)
            assert 1 <= len(rv) <= 2
            assert all(s in (1, -1) for _, _, s in rv)
            assert all(0 <= r < m and 0 <= c < m for r, c, _ in rv)


# --------------------------------------------------- Lie-algebra identities

def test_cartan_bracket_eigenvalue_identity():
    # [H, E_alpha] = alpha(H) E_alpha entrywise: H_rr - H_cc must equal
    # alpha(H) at every entry position
    rng = random.Random(5)
    for group in GROUPS:
        hs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(group.rank)]
        diag = cartan_diagonal(group, hs)
        for alpha in all_roots(group):
            value = sum(c * h for c, h in zip(alpha.coeffs, hs))
            for r, c, _ in root_vector(group, alpha):
                assert diag[r] - diag[c] == value


def test_commutators_are_multiples_of_root_vectors():
    rng = random.Random(17)
    checked = 0
    while checked < 50:
        group = rng.choice(GROUPS)
        roots = sorted(all_roots(group))
        a = rng.choice(roots)
        b = rng.choice(roots)
        s = a + b
        if s not in all_roots(group):
            continue
        ea = _dense(group, a)
        eb = _dense(group, b)
        comm = [
            [x - y for x, y in zip(row1, row2)]
            for row1, row2 in zip(_matmul(ea, eb), _matmul(eb, ea))
        ]
        es = _dense(group, s)
        ratios = set()
        n = len(comm)
        for i in range(n):
            for j in range(n):
                if es[i][j]:
                    ratios.add(F(comm[i][j], es[i][j]))
                else:
                    assert comm[i][j] == 0
        assert len(ratios) == 1 and 0 not in ratios
        checked += 1


def _form_matrix(group):
    """Gram matrix of the invariant bilinear form the realization preserves."""
    d = group.rank
    m = group.matrix_size
    s = [[0] * m for _ in range(m)]
    if group.family is Family.SP:
        for i in range(d):
            s[i][d + i] = 1
            s[d + i][i] = -1
        return s
    for i in range(d):
        s[i][d + i] = 1
        s[d + i][i] = 1
    if group.family is Family.SO_ODD:
        s[2 * d][2 * d] = 1
    return s


def test_root_vectors_annihilate_invariant_form():
    # E^T S + S E = 0; for the odd-orthogonal family this checks that the
    # preserved quadratic form ends with the square of the last coordinate
    for group in GROUPS:
        if group.family is Family.SU:
            continue
        s = _form_matrix(group)
        for alpha in all_roots(group):
            e = _dense(group, alpha)
            et = [list(row) for row in zip(*e)]
            lhs = [
                [x + y for x, y in zip(r1, r2)]
                for r1, r2 in zip(_matmul(et, s), _matmul(s, e))
            ]
            assert all(all(x == 0 for x in row) for row in lhs), (group, alpha)


# ---------------------------------------------------------------- build_Z

def test_su3_full_flag_z_strictly_lower_triangular():
    atlas = build_Z(PaintedDiagram(GroupSpec(Family.SU, 3), (1, 2)))
    assert atlas.nvars == 3
    assert all(i > j for (i, j) in atlas.entries)
    # hand enumeration of -Q: the three negative roots
    assert set(atlas.vars) == {
        Root((-1, 1, 0)), Root((0, -1, 1)), Root((-1, 0, 1))
    }


def test_su_one_black_node_z_block_shape():
    r = 2
    atlas = build_Z(PaintedDiagram(GroupSpec(Family.SU, 4), (r,)))
    for (i, j) in atlas.entries:
        assert i >= r and j < r


def test_so_odd_terminal_node_z_block_shape():
    d = 3
    atlas = build_Z(PaintedDiagram(GroupSpec(Family.SO_ODD, d), (d,)))
    m = 2 * d + 1
    for (i, j) in atlas.entries:
        lower_left = d <= i < 2 * d and j < d
        u_block = d <= i < 2 * d and j == m - 1
        neg_u = i == m - 1 and j < d
        assert lower_left or u_block or neg_u
    # u and its negative transpose carry the same variables
    emap = atlas.entries
    for i in range(d):
        vu = emap.get((d + i, m - 1))
        vt = emap.get((m - 1, i))
        assert vu is not None and vt is not None
        assert vu[0] == vt[0] and vu[1] == -vt[1]


def test_so_skew_block_symmetry():
    # for the orthogonal families the lower-left block is skew:
    # Z[d+j, i] = -Z[d+i, j]
    for group, black in [
        (GroupSpec(Family.SO_EVEN, 4), (1, 4)),
        (GroupSpec(Family.SO_ODD, 3), (1, 3)),
    ]:
        d = group.rank
        atlas = build_Z(PaintedDiagram(group, black))
        emap = atlas.entries
        for i in range(d):
            for j in range(d):
                a = emap.get((d + i, j))
                b = emap.get((d + j, i))
                if a is None:
                    assert b is None
                else:
                    assert b is not None and a[0] == b[0] and a[1] == -b[1]


def test_variable_count_matches_dimension():
    for group, black in [
        (GroupSpec(Family.SU, 4), (2,)),
        (GroupSpec(Family.SP, 3), (1, 3)),
        (GroupSpec(Family.SO_EVEN, 4), (2,)),
    ]:
        diagram = PaintedDiagram(group, black)
        atlas = build_Z(diagram)
        q = black_roots(diagram)
        assert atlas.nvars == len(q)


def _paintings_up_to(max_rank, max_black=3):
    for family in Family:
        for rank in range(1, max_rank + 1):
            try:
                group = GroupSpec(family, rank)
            except ValueError:
                continue
            for black in iter_black_sets(group, max_black):
                try:
                    yield PaintedDiagram(group, black)
                except PaintingError:
                    continue


def test_chart_variables_and_packing_on_every_painting():
    # on every painting of rank <= 8 with 1-3 black nodes: the variables,
    # read off Q in reverse, are the sorted roots of -Q, and the chart's
    # packing holds the jet's proven bound 2K, K the top power of Z
    checked = 0
    for diagram in _paintings_up_to(8):
        atlas = build_Z(diagram)
        q = black_roots(diagram)
        assert atlas.vars == tuple(sorted(-r for r in q)), diagram
        assert 2 * (nilpotency_index(atlas) - 1) <= atlas.packing.max_degree, \
            diagram
        checked += 1
    assert checked == 736


def test_variable_collision_is_an_invariant_violation(monkeypatch):
    # Z is its entry map, one variable per position; a second root vector
    # landing on a position already taken is a bug in the root vectors
    dia = PaintedDiagram(GroupSpec(Family.SU, 3), (1, 2))
    first, second = build_Z(dia).vars[:2]
    real = matrices.root_vector

    def doubled(group, alpha):
        return real(group, first if alpha == second else alpha)

    monkeypatch.setattr(matrices, "root_vector", doubled)
    with pytest.raises(EngineInvariantError, match="variable collision"):
        build_Z.__wrapped__(dia)


def test_z_vanishes_at_origin():
    atlas = build_Z(PaintedDiagram(GroupSpec(Family.SP, 2), (1, 2)))
    dense = oracles.Matrix.chart(atlas).evaluate([0j] * atlas.nvars)
    assert all(all(x == 0 for x in row) for row in dense)


# -------------------------------------------------------------- nilpotency

@pytest.mark.parametrize("group,black,expected", [
    (GroupSpec(Family.SU, 4), (2,), 2),
    (GroupSpec(Family.SU, 4), (1, 3), 3),
    (GroupSpec(Family.SP, 3), (3,), 2),
    (GroupSpec(Family.SO_EVEN, 4), (4,), 2),
    (GroupSpec(Family.SO_EVEN, 4), (1, 4), 3),
    (GroupSpec(Family.SO_ODD, 3), (3,), 3),
    # (3,1^5) induced from the Levi collapses to (2^2,1^4)
    (GroupSpec(Family.SP, 4), (1,), 2),
])
def test_nilpotency_examples(group, black, expected):
    atlas = build_Z(PaintedDiagram(group, black))
    assert nilpotency_index(atlas) == expected


def test_nilpotency_is_sharp():
    for group, black in [
        (GroupSpec(Family.SU, 4), (1, 3)),
        (GroupSpec(Family.SO_EVEN, 4), (1, 4)),
        (GroupSpec(Family.SP, 2), (1, 2)),
    ]:
        atlas = build_Z(PaintedDiagram(group, black))
        k = nilpotency_index(atlas)
        assert k <= atlas.size
        z = power = oracles.Matrix.chart(atlas)
        for _ in range(k - 2):
            power = power @ z
        assert not power.is_zero()
        assert (power @ z).is_zero()


def test_nilpotency_index_equals_symbolic_power_count():
    checked = 0
    for fam, minr in ((Family.SU, 2), (Family.SP, 1),
                      (Family.SO_EVEN, 3), (Family.SO_ODD, 1)):
        for rank in range(minr, 7):
            group = GroupSpec(fam, rank)
            for black in iter_black_sets(group, 3):
                try:
                    atlas = build_Z(PaintedDiagram(group, black))
                except PaintingError:
                    continue
                assert nilpotency_index(atlas) == oracles.nilpotency_index(atlas)
                checked += 1
    assert checked == 256
    # SU(33) packs each exponent into a 6-bit field
    wide = build_Z(PaintedDiagram(GroupSpec(Family.SU, 33), (1, 32)))
    assert nilpotency_index(wide) == oracles.nilpotency_index(wide)


def test_nilpotency_index_equals_the_count_of_nonzero_powers():
    # the index read off the blocks against the powers of Z on every
    # painting of rank <= 6 with any number of black nodes
    checked = 0
    for diagram in _paintings_up_to(6, max_black=6):
        atlas = build_Z(diagram)
        assert nilpotency_index(atlas) == \
            1 + len(list(z_powers(atlas, atlas.packing))), diagram
        checked += 1
    assert checked == 322


def test_z_powers_refuses_a_packing_too_narrow_for_its_limit():
    # SO(9) black {2,3,4}: size 9, so Z^9 would be formed to prove Z^9 = 0
    atlas = build_Z(PaintedDiagram(GroupSpec(Family.SO_ODD, 4), (2, 3, 4)))
    narrow = Packing(atlas.nvars, 3)
    with pytest.raises(EngineInvariantError, match="2-bit fields"):
        next(z_powers(atlas, narrow, 4))
    with pytest.raises(EngineInvariantError, match="2-bit fields"):
        next(z_powers(atlas, narrow))
    # the fields hold Z^3; a packing that holds degree size holds any run
    assert len(list(z_powers(atlas, narrow, 3))) == 3
    wide = Packing(atlas.nvars, atlas.size)
    assert len(list(z_powers(atlas, wide))) == \
        nilpotency_index(atlas) - 1 > 3


def test_z_powers_forms_no_power_past_its_limit():
    # z_0 on the diagonal: Z^3 is nonzero and would prove Z not nilpotent,
    # but a run stopped at Z^2 never forms it
    atlas = build_Z(PaintedDiagram(GroupSpec(Family.SU, 3), (1, 2)))
    bad = CoordinateAtlas(atlas.diagram, atlas.vars, atlas.size,
                          {**atlas.entries, (0, 0): (0, 1)})
    pack = bad.packing
    got = [{pack.degree(m) for t in p.values() for m in t}
           for p in z_powers(bad, pack, 2)]
    assert got == [{1}, {2}]
    with pytest.raises(EngineInvariantError, match="Z is not nilpotent"):
        list(z_powers(bad, pack, 3))


def test_non_nilpotent_Z_is_an_invariant_violation():
    # z_0 on the diagonal keeps z_0^k in every power of Z
    atlas = build_Z(PaintedDiagram(GroupSpec(Family.SU, 3), (1, 2)))
    bad = CoordinateAtlas(atlas.diagram, atlas.vars, atlas.size,
                          {**atlas.entries, (0, 0): (0, 1)})
    with pytest.raises(EngineInvariantError, match="Z is not nilpotent"):
        nilpotency_index(bad)
    with pytest.raises(EngineInvariantError, match="Z is not nilpotent"):
        _packed_exp(bad, bad.packing, None)
    with pytest.raises(EngineInvariantError, match="Z is not nilpotent"):
        oracles.nilpotency_index(bad)
