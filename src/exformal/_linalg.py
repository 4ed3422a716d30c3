"""Small symbolic matrix helpers (desk-scale: n <= 4 or so)."""

from __future__ import annotations

from typing import Sequence

from .symbolic import Expr, Rat, ZERO, add, mul, pow_, simplify

__all__ = ["mat_det", "mat_inverse", "as_matrix"]

Matrix = tuple[tuple[Expr, ...], ...]


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


def mat_inverse(m: Matrix, det: Expr | None = None) -> Matrix:
    """Inverse by adjugate over determinant; caller guards singularity."""
    n = len(m)
    if det is None:
        det = mat_det(m)
    inv_det = pow_(det, -1)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            sign = Rat(-1 if (i + j) % 2 else 1)
            cof = mat_det(_minor(m, j, i))
            row.append(simplify(mul(sign, cof, inv_det)))
        out.append(tuple(row))
    return tuple(out)

