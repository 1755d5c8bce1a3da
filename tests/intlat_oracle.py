"""Rational route to the lattice quotient: the test oracle for ``intlat``.

``intlat`` completes a primitive kernel and inverts the completion inside
one fraction-free HNF elimination.  This module keeps the earlier route:
``Fraction`` Gauss-Jordan determinants and inverses, a completion read off
the inverse of the HNF transform and checked by its determinant, and the
greedy rank loop that picks the columns adding rank one at a time; and
the factor builder's earlier route to a retained block's kept columns,
which maps the whole block into the quotient and eliminates the image.
Tests require both routes to agree exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cylbill.intlat import (
    LatticeQuotient,
    _eliminate,
    _identity,
    pivot_columns,
)


def _to_pylist(a) -> list[list[int]]:
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    return [[int(x) for x in row] for row in m]


def _obj_matrix(rows: list[list[int]], ncols: int) -> np.ndarray:
    out = np.empty((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        for j in range(ncols):
            out[i, j] = row[j]
    return out


def _shrink_dtype(m: np.ndarray) -> np.ndarray:
    try:
        out = m.astype(np.int64)
        if np.array_equal(out.astype(object), np.asarray(m, dtype=object)):
            return out
    except (OverflowError, TypeError, ValueError):
        pass
    return m


def row_hnf(a) -> tuple[np.ndarray, np.ndarray]:
    """Row Hermite normal form ``h`` and unimodular ``t`` with
    ``t @ a = h``, both object matrices, from ``intlat``'s elimination:
    the two routes share the HNF and differ in what they read off it."""
    aa = _to_pylist(a)
    rows = len(aa)
    cols = np.asarray(a).shape[1]
    t = _identity(rows)
    _eliminate(aa, t)
    return _obj_matrix(aa, cols), _obj_matrix(t, rows)


def int_det(a) -> int:
    """Exact determinant of an integer matrix, by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in _to_pylist(a)]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] * inv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    assert det.denominator == 1
    return int(det)


def int_inverse(a) -> np.ndarray:
    """Exact inverse of a unimodular integer matrix, by Fraction
    Gauss-Jordan elimination."""
    aa = _to_pylist(a)
    n = len(aa)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(aa)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    out = [[m[i][n + j] for j in range(n)] for i in range(n)]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular (non-integer inverse)")
    return _shrink_dtype(_obj_matrix([[int(x) for x in row] for row in out], n))


def integer_rank(a) -> int:
    """Rank as the count of nonzero rows of the row HNF."""
    m = np.asarray(a)
    if m.size == 0:
        return 0
    h, _ = row_hnf(m)
    return int(sum(1 for row in h if any(x != 0 for x in row)))


def integer_kernel(a) -> np.ndarray:
    """Rows of the HNF transform of ``a.T`` that meet zero rows of its
    HNF, as columns."""
    m = np.asarray(a)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    h, t = row_hnf(m.T)
    kernel_rows = [list(t[i]) for i in range(cols) if all(x == 0 for x in h[i])]
    if not kernel_rows:
        return np.zeros((cols, 0), dtype=np.int64)
    return _shrink_dtype(_obj_matrix(kernel_rows, cols).T)


def unimodular_completion(k) -> np.ndarray:
    """``[k | w]`` with ``w`` the last columns of the Fraction inverse of
    the HNF transform of ``k``, checked unimodular by its determinant."""
    km = np.asarray(k)
    d, r = km.shape
    if r == 0:
        return np.eye(d, dtype=np.int64)
    h, t = row_hnf(km)
    nonzero = sum(1 for i in range(d) if any(x != 0 for x in h[i]))
    if nonzero != r:
        raise ValueError("columns are not linearly independent")
    top = _obj_matrix([[h[i][j] for j in range(r)] for i in range(r)], r)
    if abs(int_det(top)) != 1:
        raise ValueError("matrix is not primitive; no unimodular completion")
    tinv = np.asarray(int_inverse(t), dtype=object)
    full = np.concatenate([np.asarray(km, dtype=object), tinv[:, r:]], axis=1)
    if abs(int_det(full)) != 1:
        raise AssertionError("completion failed to be unimodular")
    return _shrink_dtype(full)


def lattice_quotient(blocks, dim: int) -> LatticeQuotient:
    """The quotient of ``Z^dim`` by the integer vectors in the span of
    every block, with the completion inverted by :func:`int_inverse`."""
    annihilators = [np.asarray(integer_kernel(np.asarray(b).T)).T
                    for b in blocks]
    stack = [a for a in annihilators if a.shape[0]]
    kernel = (integer_kernel(np.concatenate(stack, axis=0)) if stack
              else np.eye(dim, dtype=np.int64))
    completion = unimodular_completion(kernel)
    return LatticeQuotient(kernel=np.asarray(kernel),
                           completion=np.asarray(completion),
                           inverse=np.asarray(int_inverse(completion)),
                           echelons=())


def greedy_columns(a) -> list[int]:
    """Indices of the columns kept by adding them one at a time and keeping
    each that raises the rank of the kept ones."""
    m = np.asarray(a)
    chosen: list[int] = []
    for j in range(m.shape[1]):
        if integer_rank(m[:, chosen + [j]]) == len(chosen) + 1:
            chosen.append(j)
    return chosen


def factor_columns(quotient: LatticeQuotient,
                   block) -> tuple[list[int], np.ndarray]:
    """A block's kept columns and their quotient coordinates, the earlier
    way: map every column by the object-int product ``inverse[rank:] @ C``
    and keep the pivot columns of the image."""
    y = (np.asarray(quotient.inverse[quotient.rank:], dtype=object)
         @ np.asarray(block, dtype=object))
    cols = pivot_columns(y)
    return cols, y[:, cols]
