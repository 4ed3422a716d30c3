"""Component arrays and small symbolic matrix helpers (desk-scale: n <= 4
or so).

`grid` is the one place that knows how an n^rank component array is laid
out: nested tuples, first index outermost.  Metrics, matrices, connection
coefficients and every curvature tensor are built through it (`is_grid`,
`grid_at`, `grid_items` and `grid_map` check, index, walk and map it).

`compound_sum` is the one compound-minor rule, sum_J det(m[I][J]) a_J: the
Hodge star raises a form's indices with it (m = g^-1), and `pullback`
pulls a form back with it (m = the transposed Jacobian of the map, by
Cauchy-Binet).
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Mapping, Sequence

from .symbolic import Expr, Rat, ZERO, add, mul, pow_, simplify

__all__ = ["mat_det", "mat_inverse", "as_matrix"]

Matrix = tuple[tuple[Expr, ...], ...]


def grid(n: int, rank: int, f: Callable):
    """Nested tuples of f(*idx) over every idx in range(n)^rank, built in
    row-major order; grid(n, 0, f) is f() and grid(n, 2, f)[i][j] is
    f(i, j)."""
    def build(idx):
        if len(idx) == rank:
            return f(*idx)
        return tuple(build(idx + (i,)) for i in range(n))
    return build(())


def is_grid(data, n: int, rank: int) -> bool:
    """Whether `data` is laid out as grid(n, rank, f) with Expr entries."""
    if rank == 0:
        return isinstance(data, Expr)
    return len(data) == n and all(is_grid(d, n, rank - 1) for d in data)


def grid_map(f: Callable, data, rank: int):
    """The array of f(entry) for every entry of the rank-`rank` array
    `data`, in the layout of `grid`."""
    if rank == 0:
        return f(data)
    return tuple(grid_map(f, d, rank - 1) for d in data)


def grid_at(data, idx: Sequence[int]):
    """data[i][j]... for idx = (i, j, ...)."""
    for i in idx:
        data = data[i]
    return data


def grid_items(data, n: int, rank: int):
    """(idx, entry) over range(n)^rank, in the row-major order of `grid`."""
    return ((idx, grid_at(data, idx)) for idx in product(range(n), repeat=rank))


def as_matrix(rows: Sequence[Sequence[Expr]]) -> Matrix:
    out = tuple(tuple(simplify(e) for e in row) for row in rows)
    n = len(out)
    if any(len(row) != n for row in out):
        raise ValueError("matrix must be square")
    return out


def _minor(m: Matrix, i: int, j: int) -> Matrix:
    return tuple(
        tuple(e for cj, e in enumerate(row) if cj != j)
        for ci, row in enumerate(m)
        if ci != i
    )


def mat_det(m: Matrix) -> Expr:
    n = len(m)
    if n == 0:
        return Rat(1)
    if n == 1:
        return m[0][0]
    parts = []
    for j in range(n):
        if m[0][j] == ZERO:
            continue
        sign = Rat(-1 if j % 2 else 1)
        parts.append(mul(sign, m[0][j], mat_det(_minor(m, 0, j))))
    return simplify(add(*parts))


def compound_sum(m: Sequence[Sequence[Expr]],
                 comps: Mapping[tuple[int, ...], Expr],
                 rows: tuple[int, ...]) -> Expr:
    """Sum over the index tuples J of `comps` of det(m[rows][J]) * comps[J],
    where m[rows][J] keeps the rows `rows` and the columns J of `m`;
    comps[()] (zero when absent) when `rows` is empty."""
    if not rows:
        return comps.get((), ZERO)
    parts = []
    for J, c in comps.items():
        d = mat_det(tuple(tuple(m[i][j] for j in J) for i in rows))
        if d != ZERO:
            parts.append(mul(d, c))
    return add(*parts)


def mat_inverse(m: Matrix, det: Expr) -> Matrix:
    """Inverse by adjugate over `det`, the determinant of `m`; caller
    guards singularity.  The inverse of a symmetric matrix is symmetric, so
    when `m` equals its transpose entry by entry only the entries with
    i <= j are built and the others mirror them; `Metric` still checks all
    n^2 entries of g * g^-1 = I."""
    inv_det = pow_(det, -1)
    n = len(m)
    symmetric = all(m[i][j] == m[j][i] for i in range(n) for j in range(i))
    built = {}

    def entry(i, j):
        if symmetric and i > j:  # grid reaches (j, i) first
            return built[j, i]
        sign = Rat(-1 if (i + j) % 2 else 1)
        built[i, j] = out = simplify(mul(sign, mat_det(_minor(m, j, i)), inv_det))
        return out

    return grid(n, 2, entry)
