"""Component arrays and small symbolic matrix helpers (desk-scale: n <= 4
or so).

`grid` is the one place that knows how an n^rank component array is laid
out: nested tuples, first index outermost.  Metrics, matrices, connection
coefficients and every curvature tensor are built through it (`is_grid`,
`grid_at`, `grid_items` and `grid_map` check, index, walk and map it).
`grid` and `grid_map` list the entries in one row-major pass and then nest
them, and `is_grid` checks the array one level at a time; none recurses.
So `f` is called in the order of the indices, and no closure that holds
itself keeps `f` alive until the cyclic collector runs.  `mirrored` is the
one rule for an array built on one triangle of its last two indices and
mirrored, or negated, onto the other: it relies on that order.

`minors` is the one determinant rule: a table of the minors of a matrix,
each expanded once along its first row and kept by its row and column
indices.  Every determinant, cofactor and compound minor is read from its
matrix's one table, which the caller builds once and hands on: det m is
the table called with no indices, `mat_inverse` reads the adjugate's
cofactors and det m from it, so the sub-minors they share, such as the
2x2 minors of a 4x4 metric, are expanded once, and `compound_sum` reads
its compound minors from it.  No other function here builds a table.

`compound_sum` is the one compound-minor rule, sum_J det(m[I][J]) a_J: the
Hodge star raises a form's indices with it (m = g^-1), and `pullback`
pulls a form back with it (m = the transposed Jacobian of the map, by
Cauchy-Binet); each builds one table of m per call.
"""

from __future__ import annotations

from itertools import chain, product, starmap
from typing import Callable, Mapping, Sequence

from .symbolic import Expr, Rat, ZERO, add, mul, pow_, simplify

__all__ = ["mat_inverse", "minors", "as_matrix"]

Matrix = tuple[tuple[Expr, ...], ...]


def grid(n: int, rank: int, f: Callable):
    """Nested tuples of f(*idx) over every idx in range(n)^rank, built in
    row-major order; grid(n, 0, f) is f() and grid(n, 2, f)[i][j] is
    f(i, j)."""
    return _nest(list(starmap(f, product(range(n), repeat=rank))), n, rank)


def mirrored(rule: Callable, flip: Callable | None = None) -> Callable:
    """The entry rule, for `grid`, of an array symmetric in its last two
    indices, or antisymmetric with `flip` = `neg`: `rule` is called for
    (..., a, b) with a <= b only, and the entry (..., b, a) is the object
    built for (..., a, b), or flip of it; `grid` reaches (..., a, b) first
    in row-major order."""
    built = {}

    def entry(*idx):
        *head, a, b = idx
        if a > b:
            out = built[(*head, b, a)]
            return out if flip is None else flip(out)
        built[idx] = out = rule(*idx)
        return out
    return entry


def _nest(flat: list, n: int, rank: int):
    """The entries `flat` of an n^rank array, in row-major order, nested
    as `grid` lays them out; the one entry itself when rank is 0."""
    if rank == 0:
        return flat[0]
    for _ in range(rank - 1):
        flat = zip(*[iter(flat)] * n)
    return tuple(flat)


def is_grid(data, n: int, rank: int) -> bool:
    """Whether `data` is laid out as grid(n, rank, f) with Expr entries,
    each level a tuple or a list; never raises."""
    level = (data,)
    for _ in range(rank):
        if not all(isinstance(d, (tuple, list)) and len(d) == n
                   for d in level):
            return False
        level = tuple(chain.from_iterable(level))
    return all(isinstance(e, Expr) for e in level)


def grid_map(f: Callable, data, rank: int):
    """The array of f(entry) for every entry of the rank-`rank` array
    `data`, in the layout of `grid`; f is called in row-major order."""
    flat = (data,)
    for _ in range(rank):
        flat = chain.from_iterable(flat)
    return _nest(list(map(f, flat)), len(data) if rank else 0, rank)


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


def minors(m: Matrix) -> Callable[..., Expr]:
    """The minor table of `m`: a function of (rows, cols), two index tuples
    of one length, that gives the determinant of the submatrix of `m` on
    those rows and columns, each computed once and kept by (rows, cols).
    Called with no indices it gives det m, on all rows and columns; the
    empty minor, on no rows and no columns, is 1.

    A minor is expanded along its first row, column by column with
    alternating signs, skipping a zero entry or a zero sub-minor, and
    simplified; so the sub-minors that several minors share are built
    once."""
    return _MinorTable(m)


class _MinorTable:
    """`minors(m)`; it recurses through `self`, not through a closure that
    holds itself, so reference counting frees the table and its trees."""

    __slots__ = ("m", "table", "full")

    def __init__(self, m: Matrix):
        self.m = m
        self.table: dict[tuple, Expr] = {}
        self.full = tuple(range(len(m)))

    def __call__(self, rows=None, cols=None) -> Expr:
        if rows is None:
            rows = cols = self.full
        d = self.table.get((rows, cols))
        if d is not None:
            return d
        m = self.m
        if len(rows) < 2:
            d = m[rows[0]][cols[0]] if rows else Rat(1)
        else:
            top, below = m[rows[0]], rows[1:]
            parts = []
            for j, c in enumerate(cols):
                if top[c] == ZERO:
                    continue
                sub = self(below, cols[:j] + cols[j + 1:])
                if sub != ZERO:
                    parts.append(mul(Rat(-1 if j % 2 else 1), top[c], sub))
            d = simplify(add(*parts))
        self.table[rows, cols] = d
        return d


def compound_sum(minor: Callable[..., Expr],
                 comps: Mapping[tuple[int, ...], Expr],
                 rows: tuple[int, ...]) -> Expr:
    """Sum over the index tuples J of `comps` of det(m[rows][J]) * comps[J],
    where m[rows][J] keeps the rows `rows` and the columns J of `m`, each
    read from the matrix's one minor table `minor` (`minors(m)`); with no
    rows the empty minor is 1, so the sum is comps[()] (zero when
    absent)."""
    parts = []
    for J, c in comps.items():
        d = minor(rows, J)
        if d != ZERO:
            parts.append(mul(d, c))
    return add(*parts)


def mat_inverse(m: Matrix, minor: Callable[..., Expr]) -> Matrix:
    """Inverse by adjugate over det m; caller guards singularity.  The
    cofactors and det m are read from `minor`, the one minor table of `m`
    (`minors`); a zero cofactor gives a zero entry without a product.
    The inverse of a symmetric matrix is symmetric, so when `m` equals its
    transpose entry by entry only the entries with i <= j are built, and
    `mirrored` gives the others; `Metric` still checks all n^2 entries of
    g * g^-1 = I."""
    inv_det = pow_(minor(), -1)
    n = len(m)
    full = tuple(range(n))
    symmetric = all(m[i][j] == m[j][i] for i in range(n) for j in range(i))

    def entry(i, j):
        cofactor = minor(full[:j] + full[j + 1:], full[:i] + full[i + 1:])
        if cofactor == ZERO:
            return ZERO
        sign = Rat(-1 if (i + j) % 2 else 1)
        return simplify(mul(sign, cofactor, inv_det))

    return grid(n, 2, mirrored(entry) if symmetric else entry)
