"""Component arrays and small symbolic matrix helpers (desk-scale: n <= 4
or so).

`grid` is the one place that knows how an n^rank component array is laid
out: nested tuples, first index outermost.  Metrics, matrices, connection
coefficients and every curvature tensor are built through it (`is_grid`,
`grid_at`, `grid_items` and `grid_map` check, index, walk and map it).

`minors` is the one determinant rule: a table of the minors of a matrix,
each expanded once along its first row and kept by its row and column
indices.  det m and the adjugate's cofactors are read from one table
(`mat_det` and `mat_inverse` take it as `minor`), so the sub-minors they
share, such as the 2x2 minors of a 4x4 metric, are expanded once.

`compound_sum` is the one compound-minor rule, sum_J det(m[I][J]) a_J: the
Hodge star raises a form's indices with it (m = g^-1), and `pullback`
pulls a form back with it (m = the transposed Jacobian of the map, by
Cauchy-Binet).
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Mapping, Sequence

from .symbolic import Expr, Rat, ZERO, add, mul, pow_, simplify

__all__ = ["mat_det", "mat_inverse", "minors", "as_matrix"]

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


def minors(m: Matrix) -> Callable[[tuple[int, ...], tuple[int, ...]], Expr]:
    """The minor table of `m`: a function of (rows, cols), two index tuples
    of one length, that gives the determinant of the submatrix of `m` on
    those rows and columns, each computed once and kept by (rows, cols).

    A minor is expanded along its first row, column by column with
    alternating signs, skipping a zero entry or a zero sub-minor, and
    simplified; so it is the tree `mat_det` gives for that submatrix, and
    the sub-minors that several minors share are built once."""
    table: dict[tuple, Expr] = {}

    def det(rows, cols):
        d = table.get((rows, cols))
        if d is not None:
            return d
        if len(rows) < 2:
            d = m[rows[0]][cols[0]] if rows else Rat(1)
        else:
            top, below = m[rows[0]], rows[1:]
            parts = []
            for j, c in enumerate(cols):
                if top[c] == ZERO:
                    continue
                sub = det(below, cols[:j] + cols[j + 1:])
                if sub != ZERO:
                    parts.append(mul(Rat(-1 if j % 2 else 1), top[c], sub))
            d = simplify(add(*parts))
        table[rows, cols] = d
        return d

    return det


def mat_det(m: Matrix, minor=None) -> Expr:
    """det m, read from `minor`, the minor table of `m` (`minors`), or from
    a table of its own."""
    full = tuple(range(len(m)))
    return (minor or minors(m))(full, full)


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


def mat_inverse(m: Matrix, det: Expr, minor=None) -> Matrix:
    """Inverse by adjugate over `det`, the determinant of `m`; caller
    guards singularity.  The cofactors are read from `minor`, the minor
    table of `m` (`minors`), which the caller may share with the one it
    took `det` from; a zero cofactor gives a zero entry without a product.
    The inverse of a symmetric matrix is symmetric, so when `m` equals its
    transpose entry by entry only the entries with i <= j are built and
    the others mirror them; `Metric` still checks all n^2 entries of
    g * g^-1 = I."""
    minor = minor or minors(m)
    inv_det = pow_(det, -1)
    n = len(m)
    full = tuple(range(n))
    symmetric = all(m[i][j] == m[j][i] for i in range(n) for j in range(i))
    built = {}

    def entry(i, j):
        if symmetric and i > j:  # grid reaches (j, i) first
            return built[j, i]
        cofactor = minor(full[:j] + full[j + 1:], full[:i] + full[i + 1:])
        if cofactor == ZERO:
            out = ZERO
        else:
            sign = Rat(-1 if (i + j) % 2 else 1)
            out = simplify(mul(sign, cofactor, inv_det))
        built[i, j] = out
        return out

    return grid(n, 2, entry)
