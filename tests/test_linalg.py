"""The component-array layout: `grid` nests f(*idx) first index outermost;
and the compound-minor rule `compound_sum`."""

import itertools

import pytest

import exformal._linalg
from exformal._linalg import _minor, compound_sum, grid, mat_det, mat_inverse, minors
from exformal.symbolic import Rat, Sym, ZERO, add, mul, pow_, simplify, sub


def test_rank_zero_is_the_value():
    assert grid(3, 0, lambda: "x") == "x"


def test_index_order():
    assert grid(3, 2, lambda i, j: (i, j))[2][1] == (2, 1)


@pytest.mark.parametrize("rank", range(5))
def test_every_index_holds_its_value(rank):
    n = 3
    array = grid(n, rank, lambda *idx: idx)
    for idx in itertools.product(range(n), repeat=rank):
        leaf = array
        for i in idx:
            assert isinstance(leaf, tuple) and len(leaf) == n
            leaf = leaf[i]
        assert leaf == idx


def test_compound_sum_of_no_rows_is_the_scalar():
    assert compound_sum(((Sym("x"),),), {(): Sym("y")}, ()) == Sym("y")
    assert compound_sum(((Sym("x"),),), {}, ()) == ZERO


def test_compound_sum_with_the_identity_gives_each_component_back():
    eye = grid(3, 2, lambda i, j: Rat(1) if i == j else ZERO)
    comps = {(0, 1): Sym("x"), (0, 2): Rat(3), (1, 2): Sym("y")}
    for rows in itertools.combinations(range(3), 2):
        assert compound_sum(eye, comps, rows) == comps[rows]


def test_compound_sum_two_by_two_minor():
    # rows (0, 1) and columns (0, 2) of m: det [[a, c], [d, f]] = a*f - c*d
    a, b, c, d, e, f, w = (Sym(n) for n in "abcdefw")
    m = ((a, b, c), (d, e, f))
    got = compound_sum(m, {(0, 2): w}, (0, 1))
    assert simplify(sub(got, mul(w, sub(mul(a, f), mul(c, d))))) == ZERO


def full_adjugate_inverse(m):
    det_inv = pow_(mat_det(m), -1)
    return grid(len(m), 2, lambda i, j: simplify(
        mul(Rat((-1) ** (i + j)), mat_det(_minor(m, j, i)), det_inv)))


def test_symmetric_inverse_mirrors_the_full_adjugate():
    a, b, c, d, e, f = (Sym(n) for n in "abcdef")
    m = ((a, b, c), (b, d, e), (c, e, f))
    inv = mat_inverse(m, mat_det(m))
    assert inv == full_adjugate_inverse(m)
    assert all(inv[i][j] is inv[j][i] for i in range(3) for j in range(3))


def test_nonsymmetric_inverse_builds_every_entry():
    a, b, c, d = (Sym(n) for n in "abcd")
    m = ((a, b), (c, d))
    inv = mat_inverse(m, mat_det(m))
    assert inv == full_adjugate_inverse(m)
    assert inv[0][1] != inv[1][0]


def laplace(m):
    """det m by first-row expansion of explicit submatrices, every minor
    built afresh: the tree the minor table must give for each minor."""
    if len(m) == 1:
        return m[0][0]
    parts = [mul(Rat(-1 if j % 2 else 1), m[0][j], laplace(_minor(m, 0, j)))
             for j in range(len(m)) if m[0][j] != ZERO]
    return simplify(add(*parts))


def test_minor_table_gives_the_trees_of_the_fresh_expansion():
    a, b, c, d, e, f = (Sym(n) for n in "abcdef")
    m = ((a, ZERO, b, c), (ZERO, d, ZERO, e), (b, ZERO, f, a), (c, e, a, ZERO))
    minor = minors(m)
    for k in range(1, 5):
        for rows in itertools.combinations(range(4), k):
            for cols in itertools.combinations(range(4), k):
                sub_m = tuple(tuple(m[i][j] for j in cols) for i in rows)
                assert minor(rows, cols) == laplace(sub_m)


def test_shared_minors_are_expanded_once(monkeypatch):
    # a full 4x4 det has 6 distinct 2x2 minors on its last two rows, 4 3x3
    # minors and itself: 11 expansions, where building each minor afresh
    # makes 12 + 4 + 1
    expansions = []
    monkeypatch.setattr(exformal._linalg, "add",
                        lambda *parts: expansions.append(parts) or add(*parts))
    m = tuple(tuple(Sym(f"m{i}{j}") for j in range(4)) for i in range(4))
    assert mat_det(m) == laplace(m)
    assert len(expansions) == 11
