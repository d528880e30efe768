"""Exact linear algebra over the rationals (shared internal helpers)."""

from __future__ import annotations

from fractions import Fraction


def exact_det(matrix) -> Fraction:
    """Determinant of a square matrix of Fractions/ints via fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if all(isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1) for row in matrix for v in row):
        return Fraction(_exact_det_int([[int(v) for v in row] for row in matrix]))
    m = [[Fraction(v) for v in row] for row in matrix]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = pivot
    return sign * m[n - 1][n - 1]


def _exact_det_int(m: list[list[int]]) -> int:
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            if mik:
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
            elif prev != 1 or pivot != 1:
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column indices)."""
    if not matrix:
        return [], []
    rows = [[Fraction(v) for v in row] for row in matrix]
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def invert(matrix) -> list[list[Fraction]]:
    """Exact inverse of a square rational matrix."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced[:n]]


def matmul(a, b) -> list[list[Fraction]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik == 0:
                continue
            for j in range(cols):
                if b[k][j] != 0:
                    out[i][j] += aik * b[k][j]
    return out


def matvec(a, v) -> list[Fraction]:
    return [sum((Fraction(x) * Fraction(y) for x, y in zip(row, v)), Fraction(0)) for row in a]
