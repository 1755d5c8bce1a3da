"""Dense linear algebra for subspaces, projections, ranks, and lattices.

Subspaces are carried as orthonormal column bases, and every instance
checks its Gram-matrix invariant.  Two Gram-Schmidt routes build them with
one drop rule (a residual norm below ``DROP`` adds no direction):
:func:`orthonormalize` for one set of vectors, and :func:`orthonormal_stack`
for many sets at once.  Rank decisions treat a singular value ``s`` as
zero iff ``s < rel_tol * s_max`` with the package-wide default
``config.RANK_REL``, so all dimension counts downstream use the same
yardstick.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DROP, RANK_REL
from .errors import UsageError

MAX_BALL_CANDIDATES = 4_000_000
MAX_LLL_STEPS = 100_000

__all__ = [
    "Subspace",
    "Lattice",
    "LatticeLimitError",
    "orthonormalize",
    "orthonormal_stack",
    "complement",
    "span_of",
    "intersect",
    "null_space",
    "matrix_rank",
    "subspace_overlap",
    "containment_residual",
    "projector_distance",
]


class DimensionMismatch(UsageError, ValueError):
    """Inputs do not share one ambient dimension."""


class LatticeLimitError(UsageError, RuntimeError):
    """A lattice computation would exceed one of its stated size limits
    (``MAX_BALL_CANDIDATES``, ``MAX_LLL_STEPS``)."""


def _as_columns(vectors, ambient_dim=None) -> np.ndarray:
    """Stack vectors into a (d, k) float matrix, validating dimensions."""
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not vecs:
        if ambient_dim is None:
            raise DimensionMismatch("empty input needs an explicit ambient_dim")
        return np.zeros((ambient_dim, 0))
    d = vecs[0].shape[0]
    for v in vecs:
        if v.shape[0] != d:
            raise DimensionMismatch(
                f"vectors of length {v.shape[0]} and {d} cannot share a space"
            )
    if ambient_dim is not None and ambient_dim != d:
        raise DimensionMismatch(f"vectors have length {d}, expected {ambient_dim}")
    return np.column_stack(vecs)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of d-space held as an orthonormal column basis.

    ``basis`` has shape ``(ambient_dim, dim)``; ``dim`` may be zero.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(f"basis shape {b.shape} does not match ambient_dim")
        if b.shape[1] > self.ambient_dim:
            raise ValueError("more basis vectors than ambient dimensions")
        gram = b.T @ b
        if b.shape[1] and np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-10:
            raise ValueError("basis is not orthonormal within tolerance")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, np.eye(ambient_dim))

    @staticmethod
    def span(vectors, ambient_dim=None) -> "Subspace":
        return orthonormalize(vectors, ambient_dim=ambient_dim)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def orthonormalize(vectors, ambient_dim=None) -> Subspace:
    """Orthonormal basis of the span of ``vectors``.

    Modified Gram-Schmidt with one re-orthogonalization pass; a vector whose
    residual after projection has norm below ``DROP`` contributes no new
    direction and is dropped.
    """
    cols = _as_columns(vectors, ambient_dim)
    d = cols.shape[0]
    basis: list[np.ndarray] = []
    for i in range(cols.shape[1]):
        w = cols[:, i].copy()
        for _ in range(2):
            for b in basis:
                w -= (b @ w) * b
        nrm = float(np.linalg.norm(w))
        if nrm >= DROP:
            basis.append(w / nrm)
        if len(basis) == d:
            break
    return Subspace(d, _as_columns(basis, ambient_dim=d))


def orthonormal_stack(cols) -> np.ndarray:
    """Orthonormal bases of many column sets in one pass.

    ``cols`` is a ``(k, d, g)`` stack of k sets of g columns.  Column j of
    every set is projected twice against the kept columns before it
    (``x - Q(Q^T x)``; "twice is enough", Giraud-Langou-Rozložník 2005).  It
    is kept, normalized, iff its residual norm is at least ``DROP`` and its
    set has not reached rank d; otherwise it comes back as a zero column.
    So a set's kept columns are ``q.any(axis=-2)``, and they span what
    :func:`orthonormalize` spans for that set.  Zero columns add no
    direction, so sets may be padded with them to a common width.
    """
    cols = np.asarray(cols, dtype=float)
    k, d, g = cols.shape
    q = np.zeros((k, d, g))
    rank = np.zeros(k, dtype=np.int64)
    for j in range(g):
        w = cols[:, :, j:j + 1]
        if j:
            head = q[:, :, :j]
            for _ in range(2):
                w = w - head @ (head.transpose(0, 2, 1) @ w)
        w = w[:, :, 0]
        nrm = np.sqrt(np.sum(w * w, axis=1))
        keep = (nrm >= DROP) & (rank < d)
        if keep.all():
            q[:, :, j] = w / nrm[:, None]
        else:
            q[keep, :, j] = w[keep] / nrm[keep, None]
        rank += keep
        if rank.min() == d:
            break
    return q


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement of ``s``."""
    if s.dim == 0:
        return Subspace.full(s.ambient_dim)
    if s.dim == s.ambient_dim:
        return Subspace.zero(s.ambient_dim)
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(s.ambient_dim, u[:, s.dim:])


def span_of(subspaces, ambient_dim=None) -> Subspace:
    """Span of a list of subspaces."""
    subs = list(subspaces)
    if not subs:
        if ambient_dim is None:
            raise DimensionMismatch("empty span needs an explicit ambient_dim")
        return Subspace.zero(ambient_dim)
    d = subs[0].ambient_dim
    for s in subs:
        if s.ambient_dim != d:
            raise DimensionMismatch("subspaces live in different ambient spaces")
    cols = np.hstack([s.basis for s in subs])
    return orthonormalize(cols.T, ambient_dim=d)


def intersect(subspaces, ambient_dim=None) -> Subspace:
    """Intersection of a list of subspaces, via complements of the spans."""
    subs = list(subspaces)
    if not subs:
        if ambient_dim is None:
            raise DimensionMismatch("empty intersection needs an explicit ambient_dim")
        return Subspace.full(ambient_dim)
    comps = [complement(s) for s in subs]
    return complement(span_of(comps))


def matrix_rank(m, rel_tol: float = RANK_REL) -> int:
    """Rank of a dense matrix with the package's relative cutoff."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        return 0
    return int(np.sum(s >= rel_tol * smax))


def null_space(m, rel_tol: float = RANK_REL) -> Subspace:
    """Kernel of a matrix at the given relative rank tolerance."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    n = m.shape[1]
    if n == 0:
        raise ValueError("null space of a matrix with no columns is undefined")
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    smax = s[0] if len(s) else 0.0
    r = 0 if smax == 0.0 else int(np.sum(s >= rel_tol * smax))
    return Subspace(n, vh[r:].T)


def subspace_overlap(a: Subspace, b: Subspace) -> float:
    """Largest cosine of a principal angle between two subspaces.

    Zero iff the subspaces are orthogonal; used as the non-orthogonality
    test between cylinder base spaces.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return 0.0
    s = np.linalg.svd(a.basis.T @ b.basis, compute_uv=False)
    return float(s[0])


def containment_residual(inner: Subspace, outer: Subspace) -> float:
    """How far ``inner`` sticks out of ``outer`` (0 means contained)."""
    if inner.dim == 0:
        return 0.0
    rest = inner.basis - outer.basis @ (outer.basis.T @ inner.basis)
    return float(np.linalg.norm(rest, 2))


def projector_distance(a: Subspace, b: Subspace) -> float:
    """Operator-norm distance between the projectors of two subspaces."""
    return float(np.linalg.norm(a.projector() - b.projector(), 2))


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------


def _lll(basis: np.ndarray, delta: float = 0.75):
    """LLL-reduce lattice generators (columns).  Returns (reduced, U) with
    ``reduced = basis @ U`` and ``U`` integer unimodular."""
    b = basis.astype(float).copy()
    d, n = b.shape
    u = np.eye(n, dtype=np.int64)

    def gso(bm):
        g = bm.copy()
        mu = np.zeros((n, n))
        nrm = np.zeros(n)
        for i in range(n):
            for j in range(i):
                if nrm[j] > 0:
                    mu[i, j] = (bm[:, i] @ g[:, j]) / nrm[j]
                g[:, i] -= mu[i, j] * g[:, j]
            nrm[i] = g[:, i] @ g[:, i]
        return mu, nrm

    mu, nrm = gso(b)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > MAX_LLL_STEPS:
            raise LatticeLimitError(
                f"lattice reduction did not finish in {MAX_LLL_STEPS} steps")
        for j in range(k - 1, -1, -1):
            q = int(round(mu[k, j]))
            if q:
                b[:, k] -= q * b[:, j]
                u[:, k] -= q * u[:, j]
                mu, nrm = gso(b)
        if nrm[k] >= (delta - mu[k, k - 1] ** 2) * nrm[k - 1]:
            k += 1
        else:
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            mu, nrm = gso(b)
            k = max(k - 1, 1)
    return b, u


@dataclass(eq=False)
class Lattice:
    """A full-rank lattice in d-space, generated by the columns of ``basis``.

    The generating basis is arbitrary; a reduced (short, near-orthogonal)
    basis is computed lazily and cached since only image enumeration in the
    flow needs it.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("lattice basis must be square")
        if not np.isfinite(b).all():
            raise ValueError("lattice basis has a non-finite entry")
        if abs(np.linalg.det(b)) <= 1e-12:
            raise ValueError("lattice basis is singular (|det| <= 1e-12)")
        b = b.copy()
        b.setflags(write=False)
        self.basis = b

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def covolume(self) -> float:
        return float(abs(np.linalg.det(self.basis)))

    @cached_property
    def _reduction(self) -> tuple[np.ndarray, np.ndarray]:
        return _lll(self.basis)

    @property
    def reduced_basis(self) -> np.ndarray:
        return self._reduction[0]

    @property
    def reduced_transform(self) -> np.ndarray:
        """Integer U with ``reduced_basis = basis @ U``."""
        return self._reduction[1]

    @cached_property
    def inv_basis(self) -> np.ndarray:
        return np.linalg.inv(self.basis)

    @cached_property
    def fundamental_diameter(self) -> float:
        """Diameter of the fundamental cell of the reduced basis."""
        red = self.reduced_basis
        d = red.shape[0]
        if d <= 12:
            best = 0.0
            for signs in itertools.product((-1.0, 1.0), repeat=d):
                best = max(best, float(np.linalg.norm(red @ np.array(signs))))
            return best
        return float(np.sum(np.linalg.norm(red, axis=0)))

    def wrap(self, q) -> tuple[np.ndarray, np.ndarray]:
        """Representative of ``q`` in the fundamental cell.

        Returns ``(wrapped, shift)`` with ``q = wrapped + basis @ shift`` and
        the lattice coordinates of ``wrapped`` in [0, 1) up to roundoff.
        Idempotent: an already-wrapped point comes back unchanged (the small
        positive bias below keeps coordinates computing to -1 ulp from being
        shifted a full cell).  Both arrays are new, even when nothing
        shifts.
        """
        q = np.asarray(q, dtype=float).reshape(-1)
        y = self.inv_basis @ q
        shift = np.floor(y + 1e-12)
        if np.count_nonzero(shift):
            return self.basis @ (y - shift), shift.astype(np.int64)
        return q.copy(), np.zeros(q.size, dtype=np.int64)

    def enumerate_ball(self, center, radius):
        """All lattice points within ``radius`` of ``center``.

        Returns ``(ints, points)`` where ``points = basis @ ints.T`` row-wise
        and ``ints`` are integer coordinates in the original basis.  Raises
        :class:`LatticeLimitError` when the search box holds more than
        ``MAX_BALL_CANDIDATES`` points.
        """
        c = np.asarray(center, dtype=float).reshape(-1)
        red = self.reduced_basis
        u = self.reduced_transform
        rinv = np.linalg.inv(red)
        y0 = rinv @ c
        row_norms = np.linalg.norm(rinv, axis=1)
        lo = np.ceil(y0 - radius * row_norms - 1e-12).astype(np.int64)
        hi = np.floor(y0 + radius * row_norms + 1e-12).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(np.prod(counts.astype(np.float64)))
        if total > MAX_BALL_CANDIDATES:
            raise LatticeLimitError(
                f"lattice ball enumeration too large ({total} candidates, "
                f"limit {MAX_BALL_CANDIDATES})"
            )
        if total == 0:
            d = self.ambient_dim
            return np.zeros((0, d), dtype=np.int64), np.zeros((0, d))
        axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        coeffs = np.stack([m.reshape(-1) for m in mesh], axis=1)
        pts = coeffs @ red.T
        keep = np.linalg.norm(pts - c, axis=1) <= radius + 1e-9
        coeffs = coeffs[keep]
        pts = pts[keep]
        return coeffs @ u.T, pts
