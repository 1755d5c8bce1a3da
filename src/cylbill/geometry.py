"""Dense linear algebra for subspaces, projections, ranks, and lattices.

Subspaces are carried as orthonormal column bases, and every instance
checks its Gram-matrix invariant.  One Gram-Schmidt kernel builds them,
:func:`orthonormal_stack`, for many sets of vectors at once; its projection
is :func:`residual`, and it drops a vector whose residual norm is below
``DROP``.  :func:`orthonormalize` is its one-set case.  Rank decisions
go through one helper, :func:`singular_rank`, which treats a singular
value ``s`` as zero iff ``s < RANK_REL * s_max``, with the package-wide
``config.RANK_REL``, so all dimension counts downstream use the same
yardstick.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DROP, RANK_REL
from .errors import LimitError, UsageError

MAX_BALL_CANDIDATES = 4_000_000
MAX_LLL_STEPS = 100_000

__all__ = [
    "Subspace",
    "Lattice",
    "orthonormalize",
    "orthonormal_stack",
    "residual",
    "complement",
    "span_of",
    "null_space",
    "singular_rank",
    "subspace_overlap",
    "containment_residual",
    "projector_distance",
]


class DimensionMismatch(UsageError, ValueError):
    """Inputs do not share one ambient dimension."""


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

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def orthonormalize(vectors, ambient_dim=None) -> Subspace:
    """Orthonormal basis of the span of ``vectors``: the kept columns of
    :func:`orthonormal_stack` for this one set."""
    cols = _as_columns(vectors, ambient_dim)
    q = orthonormal_stack(cols[None])[0]
    return Subspace(cols.shape[0], q[:, q.any(axis=0)])


def residual(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """What is left of the columns of ``x`` after two projection passes
    against the columns of ``q``, ``x - Q(Q^T x)`` each ("twice is
    enough", Giraud-Langou-Rozložník 2005).  Both may be stacks that
    broadcast; ``q`` may carry zero columns, which remove nothing."""
    for _ in range(2):
        x = x - q @ (np.swapaxes(q, -1, -2) @ x)
    return x


def orthonormal_stack(cols) -> np.ndarray:
    """Orthonormal bases of many column sets in one pass.

    ``cols`` is a ``(k, d, g)`` stack of k sets of g columns.  Column j of
    every set is reduced to its :func:`residual` against the kept columns
    before it.  It is kept, normalized, iff its residual norm is at least
    ``DROP`` and its set has not reached rank d; otherwise it comes back as
    a zero column.  So a set's kept columns are ``q.any(axis=-2)``, an
    orthonormal basis of the set's span.  Zero columns add no direction,
    so sets may be padded with them to a common width.
    """
    cols = np.asarray(cols, dtype=float)
    k, d, g = cols.shape
    q = np.zeros((k, d, g))
    rank = np.zeros(k, dtype=np.int64)
    for j in range(g):
        w = cols[:, :, j:j + 1]
        if j:
            w = residual(q[:, :, :j], w)
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


def null_space(m) -> Subspace:
    """Kernel of a matrix at the relative rank tolerance ``RANK_REL``."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    n = m.shape[1]
    if n == 0:
        raise ValueError("null space of a matrix with no columns is undefined")
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return Subspace(n, vh[int(singular_rank(s)):].T)


def singular_rank(s):
    """Rank at the relative cutoff ``RANK_REL`` from singular values sorted
    in descending order along the last axis: how many reach ``RANK_REL``
    times the largest, and 0 where the largest is 0 or there are none."""
    top = s[..., :1]
    return np.count_nonzero((s >= RANK_REL * top) & (top > 0), axis=-1)


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


def _lll(basis: np.ndarray):
    """LLL-reduce lattice generators (columns), with Lovász parameter 0.75.
    Returns (reduced, U) with ``reduced = basis @ U`` and ``U`` integer
    unimodular."""
    b = basis.astype(float).copy()
    d, n = b.shape
    u = np.eye(n, dtype=np.int64)

    def gso(bm):
        # bm = QR: mu[k, j] = R[j, k] / R[j, j], |b*_j|^2 = R[j, j]^2
        r = np.linalg.qr(bm, mode="r")
        diag = np.diag(r)
        return (r / diag[:, None]).T, diag * diag

    mu, nrm = gso(b)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > MAX_LLL_STEPS:
            raise LimitError(
                "MAX_LLL_STEPS",
                f"lattice reduction did not finish in {MAX_LLL_STEPS} steps")
        for j in range(k - 1, -1, -1):
            q = int(round(mu[k, j]))
            if q:
                b[:, k] -= q * b[:, j]
                u[:, k] -= q * u[:, j]
                mu, nrm = gso(b)
        if nrm[k] >= (0.75 - mu[k, k - 1] ** 2) * nrm[k - 1]:
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
    basis is computed lazily and cached, since only ball enumeration and
    ``fundamental_diameter`` read it.  Above 12 dimensions that diameter
    is the bound given by the sum of the reduced column lengths.
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
        wrapped, shift = self.shift_into_cell(q)
        if shift is None:
            return q.copy(), np.zeros(q.size, dtype=np.int64)
        return wrapped, shift

    def shift_into_cell(self, q: np.ndarray):
        """``wrap`` of a float vector ``q`` without copies: ``(q, None)``
        when nothing shifts, for a caller that never writes to ``q``."""
        y = self.inv_basis @ q
        shift = np.floor(y + 1e-12)
        if np.count_nonzero(shift):
            return self.basis @ (y - shift), shift.astype(np.int64)
        return q, None

    def enumerate_ball(self, center, radius):
        """All lattice points within ``radius`` of ``center``.

        Returns ``(ints, points)`` where ``points = basis @ ints.T`` row-wise
        and ``ints`` are integer coordinates in the original basis.  Raises
        :class:`LimitError` when the search box holds more than
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
            raise LimitError(
                "MAX_BALL_CANDIDATES",
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
