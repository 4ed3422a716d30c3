"""The component-array layout: `grid` nests f(*idx) first index outermost;
the one-triangle rule `mirrored`; the minor table `minors`, against a
fresh Laplace expansion; the inverse by adjugate; and the compound-minor
rule `compound_sum`."""

import itertools

import pytest

import exformal._linalg
from exformal._linalg import (compound_sum, grid, grid_at, grid_map, is_grid,
                              mat_inverse, minors, mirrored)
from exformal.symbolic import Rat, Sym, ZERO, add, mul, pow_, simplify, sub

from helpers import laplace, submatrix


def test_rank_zero_is_the_value():
    value = object()
    assert grid(3, 0, lambda: value) is value


@pytest.mark.parametrize("rank", range(5))
def test_f_is_called_in_row_major_order(rank):
    calls = []
    grid(3, rank, lambda *idx: calls.append(idx))
    assert calls == list(itertools.product(range(3), repeat=rank))


@pytest.mark.parametrize("rank", range(5))
def test_grid_map_keeps_the_layout(rank):
    seen = []

    def f(idx):
        seen.append(idx)
        return sum(idx)

    array = grid_map(f, grid(3, rank, lambda *idx: idx), rank)
    assert array == grid(3, rank, lambda *idx: sum(idx))
    assert seen == list(itertools.product(range(3), repeat=rank))


def test_is_grid_refuses_without_raising():
    x = Sym("x")
    assert is_grid(((x, x), [x, x]), 2, 2)
    assert not is_grid((x, x), 2, 2)        # entries where rows belong
    assert not is_grid(x, 2, 1)
    assert not is_grid(((x, x), (x,)), 2, 2)
    assert not is_grid(((x, x), (x, "x")), 2, 2)
    assert not is_grid(None, 2, 3)


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
    minor = minors(((Sym("x"),),))
    assert compound_sum(minor, {(): Sym("y")}, ()) == Sym("y")
    assert compound_sum(minor, {}, ()) == ZERO


def test_compound_sum_with_the_identity_gives_each_component_back():
    eye = grid(3, 2, lambda i, j: Rat(1) if i == j else ZERO)
    comps = {(0, 1): Sym("x"), (0, 2): Rat(3), (1, 2): Sym("y")}
    for rows in itertools.combinations(range(3), 2):
        assert compound_sum(minors(eye), comps, rows) == comps[rows]


def test_compound_sum_two_by_two_minor():
    # rows (0, 1) and columns (0, 2) of m: det [[a, c], [d, f]] = a*f - c*d
    a, b, c, d, e, f, w = (Sym(n) for n in "abcdefw")
    m = ((a, b, c), (d, e, f))
    got = compound_sum(minors(m), {(0, 2): w}, (0, 1))
    assert simplify(sub(got, mul(w, sub(mul(a, f), mul(c, d))))) == ZERO


@pytest.mark.parametrize("rank", range(2, 5))
def test_mirrored_builds_one_triangle(rank):
    calls = []

    def rule(*idx):
        calls.append(idx)
        return [idx]  # a new object per call

    def flip(e):
        return ("flipped", e)

    n = 3
    same = grid(n, rank, mirrored(rule))
    flipped = grid(n, rank, mirrored(rule, flip))
    indices = list(itertools.product(range(n), repeat=rank))
    triangle = [idx for idx in indices if idx[-2] <= idx[-1]]
    assert calls == triangle + triangle
    for idx in indices:
        *head, a, b = idx
        if a <= b:
            assert grid_at(same, idx) == grid_at(flipped, idx) == [idx]
        else:
            built = (*head, b, a)
            assert grid_at(same, idx) is grid_at(same, built)
            kind, entry = grid_at(flipped, idx)
            assert kind == "flipped" and entry is grid_at(flipped, built)


@pytest.mark.parametrize("symmetric, cofactors", [(True, 6), (False, 9)])
def test_inverse_builds_the_cofactors_it_needs(symmetric, cofactors):
    a, b, c, d, e, f = (Sym(n) for n in "abcdef")
    m = ((a, b, c), (b if symmetric else d, d, e), (c, e, f))
    table, reads = minors(m), []

    def minor(*idx):
        reads.append(idx)
        return table(*idx)

    assert mat_inverse(m, minor) == full_adjugate_inverse(m)
    assert sum(1 for idx in reads if idx) == cofactors


def full_adjugate_inverse(m):
    det_inv = pow_(laplace(m), -1)
    return grid(len(m), 2, lambda i, j: simplify(
        mul(Rat((-1) ** (i + j)), laplace(submatrix(m, j, i)), det_inv)))


def test_symmetric_inverse_mirrors_the_full_adjugate():
    a, b, c, d, e, f = (Sym(n) for n in "abcdef")
    m = ((a, b, c), (b, d, e), (c, e, f))
    inv = mat_inverse(m, minors(m))
    assert inv == full_adjugate_inverse(m)
    assert all(inv[i][j] is inv[j][i] for i in range(3) for j in range(3))


def test_nonsymmetric_inverse_builds_every_entry():
    a, b, c, d = (Sym(n) for n in "abcd")
    m = ((a, b), (c, d))
    inv = mat_inverse(m, minors(m))
    assert inv == full_adjugate_inverse(m)
    assert inv[0][1] != inv[1][0]


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
    assert minors(m)() == laplace(m)
    assert len(expansions) == 11
