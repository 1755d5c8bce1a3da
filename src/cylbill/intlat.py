"""Exact integer linear algebra: HNF, integer kernels, unimodular completion.

Everything here runs on Python integers, so results are exact.  These
routines back the factor-system construction and the flow's image search:
quotients of an integer lattice by a primitive sublattice need a unimodular
change of basis, which floating point cannot certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "row_hnf",
    "integer_kernel",
    "integer_rank",
    "unimodular_completion",
    "int_det",
    "int_inverse",
    "LatticeQuotient",
    "lattice_quotient",
]


def _to_pylist(a) -> list[list[int]]:
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    if m.size and m.dtype != object and not np.issubdtype(m.dtype, np.integer):
        if not np.all(m == np.round(m)):
            raise ValueError("matrix is not integral")
    return [[int(x) for x in row] for row in m]


def _obj_matrix(rows: list[list[int]], ncols: int) -> np.ndarray:
    if not rows:
        return np.zeros((0, ncols), dtype=object)
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
    """Row-style Hermite normal form with transform.

    Returns ``(h, t)`` with ``t`` unimodular and ``t @ a = h``; ``h`` is in
    row echelon form with positive pivots, entries above each pivot reduced,
    and zero rows last.
    """
    aa = _to_pylist(a)
    rows = len(aa)
    cols = len(aa[0]) if rows else np.asarray(a).shape[1]
    t = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if aa[i][c] != 0), None)
        if piv is None:
            continue
        aa[r], aa[piv] = aa[piv], aa[r]
        t[r], t[piv] = t[piv], t[r]
        for i in range(r + 1, rows):
            while aa[i][c] != 0:
                q = aa[r][c] // aa[i][c]
                aa[r] = [x - q * y for x, y in zip(aa[r], aa[i])]
                t[r] = [x - q * y for x, y in zip(t[r], t[i])]
                aa[r], aa[i] = aa[i], aa[r]
                t[r], t[i] = t[i], t[r]
        if aa[r][c] < 0:
            aa[r] = [-x for x in aa[r]]
            t[r] = [-x for x in t[r]]
        for i in range(r):
            q = aa[i][c] // aa[r][c]
            if q:
                aa[i] = [x - q * y for x, y in zip(aa[i], aa[r])]
                t[i] = [x - q * y for x, y in zip(t[i], t[r])]
        r += 1
    return _obj_matrix(aa, cols), _obj_matrix(t, rows)


def integer_rank(a) -> int:
    """Rank of an integer matrix, exact."""
    m = np.asarray(a)
    if m.size == 0:
        return 0
    h, _ = row_hnf(m)
    return int(sum(1 for row in h if any(x != 0 for x in row)))


def integer_kernel(a) -> np.ndarray:
    """Primitive basis (columns) of ``{n integer : a @ n = 0}``.

    The result generates the full integer kernel lattice, not merely a
    finite-index sublattice: the rows of the HNF transform are a basis of
    the integer row space, so the zero-row block is saturated.
    """
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
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


def int_det(a) -> int:
    """Exact determinant of an integer matrix."""
    m = [[Fraction(x) for x in row] for row in _to_pylist(a)]
    n = len(m)
    if n == 0:
        return 1
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
    """Exact inverse of a unimodular integer matrix."""
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


def unimodular_completion(k) -> np.ndarray:
    """Complete a primitive integer matrix ``k`` (d x r, full column rank)
    to a unimodular d x d matrix ``[k | w]``.

    Raises if the columns of ``k`` generate only a proper finite-index
    sublattice of (span k) intersected with the integer lattice.
    """
    km = np.asarray(k)
    if km.ndim != 2:
        raise ValueError("expected a matrix")
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
    w = tinv[:, r:]
    full = np.concatenate([np.asarray(km, dtype=object), w], axis=1)
    if abs(int_det(full)) != 1:
        raise AssertionError("completion failed to be unimodular")
    return _shrink_dtype(full)


@dataclass(frozen=True, eq=False)
class LatticeQuotient:
    """Split of ``Z^d`` along a saturated sublattice.

    ``completion = [kernel | complement]`` is unimodular and ``inverse`` is
    its exact inverse, so every integer vector is ``kernel @ a +
    complement @ b`` for unique integer ``a``, ``b``; the ``b`` part,
    ``inverse[rank:] @ n``, is the coordinate of ``n`` in the quotient.
    """

    kernel: np.ndarray
    completion: np.ndarray
    inverse: np.ndarray

    @property
    def rank(self) -> int:
        return self.kernel.shape[1]

    @property
    def complement(self) -> np.ndarray:
        return self.completion[:, self.rank:]


def lattice_quotient(blocks, dim: int) -> LatticeQuotient:
    """Quotient of ``Z^dim`` by the integer vectors lying in the rational
    span of every block's columns (integer matrices, ``dim`` rows each).

    The kernel is the saturated sublattice ``Z^dim ∩ ⋂ span(block)``: the
    kernel of the stacked annihilators of the blocks, which
    :func:`integer_kernel` returns primitive, so it always has a
    unimodular completion.
    """
    annihilators = [np.asarray(integer_kernel(np.asarray(b).T)).T
                    for b in blocks]
    stack = [a for a in annihilators if a.shape[0]]
    kernel = (integer_kernel(np.concatenate(stack, axis=0)) if stack
              else np.eye(dim, dtype=np.int64))
    completion = unimodular_completion(kernel)
    return LatticeQuotient(kernel=np.asarray(kernel),
                           completion=np.asarray(completion),
                           inverse=np.asarray(int_inverse(completion)))
