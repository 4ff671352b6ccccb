"""Small dense exact linear algebra over a Field (Gaussian elimination)."""

from __future__ import annotations

from typing import List, Tuple

from .fields import Field

Matrix = List[List[object]]


def rref(field: Field, rows: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column list (rows are copied)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if not field.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def kernel_basis(field: Field, rows: Matrix, ncols: int) -> List[List[object]]:
    """Basis of the right kernel {v : rows @ v = 0}."""
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def determinant(field: Field, rows: Matrix):
    """Fraction-free-ish determinant by elimination (exact field, so plain)."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = field.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if not field.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            return field.zero
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = field.neg(det)
        det = field.mul(det, m[c][c])
        inv = field.inv(m[c][c])
        for i in range(c + 1, n):
            if not field.is_zero(m[i][c]):
                f = field.mul(m[i][c], inv)
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[c])]
    return det
