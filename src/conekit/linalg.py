"""Small dense exact linear algebra over a Field (Gaussian elimination).

Entries are field values under Python operators.  Every new row is reduced
once by `% p` over F_p (p = field.p; nothing over Q), so entries stay
canonical and a zero entry is falsy.
"""

from __future__ import annotations

from typing import List, Tuple

from .fields import Field

Matrix = List[List[object]]


def _reduced_row(row: List[object], p: int) -> List[object]:
    return [v % p for v in row] if p else row


def rref(field: Field, rows: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and pivot column list (rows are copied)."""
    p = field.p
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = _reduced_row([inv * v for v in m[r]], p)
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = _reduced_row([a - f * b for a, b in zip(m[i], m[r])], p)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def kernel_basis(field: Field, rows: Matrix, ncols: int) -> List[List[object]]:
    """Basis of the right kernel {v : rows @ v = 0}."""
    p = field.p
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc] % p if p else -red[r][fc]
        basis.append(v)
    return basis

