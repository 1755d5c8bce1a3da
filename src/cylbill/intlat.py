"""Exact integer linear algebra: HNF, integer kernels, unimodular completion.

Everything here runs on Python integers in one fraction-free row-HNF
elimination, so results are exact and no rational arithmetic is needed.
The elimination can carry, beside the unimodular transform ``t``, its
inverse: each row operation on ``t`` is mirrored as the inverse column
operation on ``t⁻¹``.  For a primitive ``K`` the pass ends with
``t K = [I; 0]``, so ``t⁻¹`` is a unimodular completion ``[K | W]`` and
``t`` is its inverse.  These routines back the factor-system construction
and the flow's image search: quotients of an integer lattice by a primitive
sublattice need a unimodular change of basis, which floating point cannot
certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

import numpy as np

__all__ = [
    "pivot_columns",
    "integer_kernel",
    "integer_rank",
    "LatticeQuotient",
    "lattice_quotient",
]


_INT64_MAX = int(np.iinfo(np.int64).max)


def _to_pylist(a) -> list[list[int]]:
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    if np.issubdtype(m.dtype, np.integer):
        return m.tolist()
    if m.size and m.dtype != object and not np.all(m == np.round(m)):
        raise ValueError("matrix is not integral")
    return [[int(x) for x in row] for row in m]


def _identity(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _obj_matrix(rows: list[list[int]], ncols: int) -> np.ndarray:
    out = np.empty((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        out[i, :] = row
    return out


def _to_array(rows: list[list[int]], ncols: int) -> np.ndarray:
    """Integer rows as an int64 matrix, or as an object matrix of Python
    integers when an entry does not fit in int64."""
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64)
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return _obj_matrix(rows, ncols)


def _eliminate(aa: list[list[int]], t=None, tinv=None) -> list[int]:
    """Bring the rows ``aa`` to row Hermite normal form in place and return
    the pivot columns.

    The form has positive pivots, entries above each pivot reduced into
    ``[0, pivot)`` and zero rows last.  Each row operation is applied to the
    rows of ``t`` too, and its inverse column operation to ``tinv``, which
    holds the *columns* of ``t⁻¹``: a swap swaps, a negation negates, and
    ``row_i -= q row_j`` becomes ``col_j += q col_i``.  Starting both from
    the identity gives ``t @ a = h`` and ``t @ t⁻¹ = I``.
    """
    rows = len(aa)
    cols = len(aa[0]) if rows else 0
    by_rows = [m for m in (aa, t) if m is not None]
    every = by_rows + ([tinv] if tinv is not None else [])

    def swap(i, j):
        for m in every:
            m[i], m[j] = m[j], m[i]

    def negate(i):
        for m in every:
            m[i] = [-x for x in m[i]]

    def subtract(i, j, q):
        for m in by_rows:
            m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        if tinv is not None:
            tinv[j] = [x + q * y for x, y in zip(tinv[j], tinv[i])]

    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if aa[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            swap(r, piv)
        for i in range(r + 1, rows):
            while aa[i][c] != 0:
                subtract(r, i, aa[r][c] // aa[i][c])
                swap(r, i)
        if aa[r][c] < 0:
            negate(r)
        for i in range(r):
            q = aa[i][c] // aa[r][c]
            if q:
                subtract(i, r, q)
        pivots.append(c)
        r += 1
    return pivots


def pivot_columns(a) -> list[int]:
    """Indices of the columns of an integer matrix that raise the rank of
    the columns before them: the pivot columns of its row HNF."""
    m = np.asarray(a)
    if m.size == 0:
        return []
    return _eliminate(_to_pylist(m))


def integer_rank(a) -> int:
    """Rank of an integer matrix, exact."""
    return len(pivot_columns(a))


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
    t = _identity(cols)
    rank = len(_eliminate(_to_pylist(m.T), t))
    if rank == cols:
        return np.zeros((cols, 0), dtype=np.int64)
    return _to_array(t[rank:], cols).T


def _abs_max(m: np.ndarray) -> int:
    return max(-int(m.min()), int(m.max())) if m.size else 0


def _int_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two integer matrices: in int64 when the entry
    bound ``max|a| max|b| n``, ``n`` the inner dimension, proves that no
    partial sum overflows, in Python integers otherwise."""
    if (a.dtype == np.int64 and b.dtype == np.int64
            and _abs_max(a) * _abs_max(b) * a.shape[1] <= _INT64_MAX):
        return a @ b
    return a.astype(object) @ b.astype(object)


def _complete(k) -> tuple[np.ndarray, np.ndarray]:
    """The unimodular completion ``[k | w]`` of a primitive ``k`` (d x r)
    and its inverse, from one elimination.  Raises ``ValueError`` when the
    columns of ``k`` are dependent or generate only a proper finite-index
    sublattice of the integer points of their span."""
    h = _to_pylist(k)
    d = len(h)
    r = len(h[0]) if d else 0
    k_cols = [list(col) for col in zip(*h)]
    t, tinv = _identity(d), _identity(d)
    if len(_eliminate(h, t, tinv)) != r:
        raise ValueError("columns are not linearly independent")
    # t k = [h; 0] with h upper triangular, positive pivots and reduced
    # entries above them: k is primitive exactly when h is the identity
    if [row[:r] for row in h[:r]] != _identity(r):
        raise ValueError("matrix is not primitive; no unimodular completion")
    completion = _to_array([list(row) for row in zip(*tinv)], d)
    inverse = _to_array(t, d)
    # the exact self-check: t⁻¹ starts with k and inverts t
    if tinv[:r] != k_cols or not np.array_equal(
            _int_product(inverse, completion), np.eye(d, dtype=int)):
        raise AssertionError("completion failed to be unimodular")
    return completion, inverse


@dataclass(frozen=True, eq=False)
class LatticeQuotient:
    """Split of ``Z^d`` along a saturated sublattice.

    ``completion = [kernel | complement]`` is unimodular and ``inverse`` is
    its exact inverse, so every integer vector is ``kernel @ a +
    complement @ b`` for unique integer ``a``, ``b``; the ``b`` part,
    ``inverse[rank:] @ n``, is the coordinate of ``n`` in the quotient.

    ``echelons`` holds, for each block the quotient was taken of, the
    pivot columns of its row HNF and the first rank-many rows of its HNF
    transform, which :meth:`kept_columns` reads.
    """

    kernel: np.ndarray
    completion: np.ndarray
    inverse: np.ndarray
    echelons: tuple = field(repr=False)

    @property
    def rank(self) -> int:
        return self.kernel.shape[1]

    @property
    def complement(self) -> np.ndarray:
        return self.completion[:, self.rank:]

    def coordinates(self, m) -> np.ndarray:
        """Quotient coordinates ``inverse[rank:] @ m`` of the integer
        columns ``m``, exact: int64 where an entry bound allows it, Python
        integers otherwise."""
        return _int_product(self.inverse[self.rank:], np.asarray(m))

    def kept_columns(self, i: int) -> list[int]:
        """Columns of block ``i`` whose quotient coordinates raise the rank
        of those of the columns before them.

        The block's elimination gave ``t C = [H; 0]`` with pivot columns
        ``P``; the kernel ``K`` lies in the span of ``C``, so ``t K = [Z;
        0]`` with ``Z = t[:r] K``.  A column outside ``P`` depends on the
        ones before it.  ``H``'s pivot block is upper triangular with a
        nonzero diagonal, so column ``P[j]`` adds rank modulo ``K`` unless
        row ``j`` of ``Z`` raises the rank of the rows below it.  The rows
        of ``Z`` are formed in Python integers scanning up from the last
        one, each reduced against the independent rows found so far, until
        those reach the kernel's rank.
        """
        pivots, top = self.echelons[i]
        k_cols = self.kernel.T.tolist()
        found: list[tuple[int, list[int]]] = []   # (lead index, row)
        raising = set()
        for j in range(len(pivots) - 1, -1, -1):
            if len(found) == self.rank:
                break
            z = [sum(map(mul, top[j], col)) for col in k_cols]
            for lead, row in found:
                if z[lead]:
                    z = [row[lead] * x - z[lead] * y for x, y in zip(z, row)]
            lead = next((c for c, x in enumerate(z) if x), None)
            if lead is not None:
                found.append((lead, z))
                raising.add(j)
        return [c for j, c in enumerate(pivots) if j not in raising]


def lattice_quotient(blocks, dim: int) -> LatticeQuotient:
    """Quotient of ``Z^dim`` by the integer vectors lying in the rational
    span of every block's columns (integer matrices, ``dim`` rows each).

    The kernel is the saturated sublattice ``Z^dim ∩ ⋂ span(block)``: the
    kernel of the stacked annihilators of the blocks, which
    :func:`integer_kernel` returns primitive, so it always has a
    unimodular completion.  A block's annihilators are the rows of its HNF
    transform past its rank.
    """
    echelons, stack = [], []
    for b in blocks:
        t = _identity(dim)
        pivots = _eliminate(_to_pylist(b), t)
        r = len(pivots)
        echelons.append((pivots, t[:r]))
        if r < dim:
            stack.append(_to_array(t[r:], dim))
    kernel = (integer_kernel(np.concatenate(stack, axis=0)) if stack
              else np.eye(dim, dtype=np.int64))
    completion, inverse = _complete(kernel)
    return LatticeQuotient(kernel=np.asarray(kernel), completion=completion,
                           inverse=inverse, echelons=tuple(echelons))
