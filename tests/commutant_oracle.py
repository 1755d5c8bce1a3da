"""Symmetric-commutant oracle: the test route to transitivity.

``classify.commutant_dimension`` reads the dimension from the
non-orthogonality graph and the joint span.  This module keeps the
independent route: the space of symmetric matrices commuting with every
elementary rotation generator supported on the base spaces, solved as one
constraint matrix.  The commutant is one-dimensional exactly when no
invariant orthogonal splitting exists (a symmetric commutant element that
is not scalar has a proper invariant eigenspace, and conversely an
invariant subspace yields its projector).  Tests require both routes to
agree exactly.
"""

from __future__ import annotations

import numpy as np

from cylbill.geometry import Subspace, null_space


def _rotation_generators(base: Subspace) -> np.ndarray:
    """Elementary antisymmetric generators of rotations acting inside
    ``base`` and fixing its complement pointwise, stacked ``(n, d, d)``."""
    p, q = np.triu_indices(base.dim, 1)
    u = base.basis[:, p].T[:, :, None]
    v = base.basis[:, q].T[:, :, None]
    return u * v.transpose(0, 2, 1) - v * u.transpose(0, 2, 1)


def _symmetric_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the symmetric d x d matrices, stacked: the
    diagonal units, then ``(E_ab + E_ba) / sqrt 2`` for ``a < b``."""
    a, b = np.triu_indices(d, 1)
    n_off = a.size
    sym = np.zeros((d + n_off, d, d))
    sym[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    off = np.arange(d, d + n_off)
    sym[off, a, b] = sym[off, b, a] = 1.0 / np.sqrt(2.0)
    return sym


def commutant_dimension(bases) -> int:
    """Dimension of the symmetric commutant of the generated rotation group.

    Value 1 (scalars only) is equivalent to the absence of any invariant
    orthogonal splitting; requires every base space to have dim >= 2 so the
    per-cylinder rotation groups are non-trivial.  The constraints
    ``[E_s, G_g] = 0`` over all generators ``G_g`` and symmetric basis
    matrices ``E_s`` form one matrix with a column per ``E_s``; a QR step
    shrinks it to a square one with the same singular values before its
    null space is taken.
    """
    bases = list(bases)
    if not bases:
        raise ValueError("commutant of an empty collection is undefined")
    d = bases[0].ambient_dim
    for b in bases:
        if b.dim < 2:
            raise ValueError("commutant oracle needs base spaces of dim >= 2")
    sym = _symmetric_basis(d)
    gens = np.concatenate([_rotation_generators(b) for b in bases])
    # E_s G_g - G_g E_s, where G_g E_s = -(E_s G_g)^T as E_s is symmetric
    # and G_g antisymmetric
    product = sym[None] @ gens[:, None]
    constraint = (product + np.swapaxes(product, 2, 3)).transpose(0, 2, 3, 1)
    constraint = constraint.reshape(-1, len(sym))
    return null_space(np.linalg.qr(constraint, mode="r")).dim
