"""The component-array layout: `grid` nests f(*idx) first index outermost."""

import itertools

import pytest

from exformal._linalg import grid


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
