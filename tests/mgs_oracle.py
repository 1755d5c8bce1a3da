"""Per-vector oracle for ``cylbill.geometry.orthonormalize``.

This is the modified Gram-Schmidt loop ``orthonormalize`` ran before it
became the one-set case of ``orthonormal_stack``: each vector is projected
against the kept ones one at a time, twice over, and dropped when its
residual norm is below ``DROP``.  It shares the drop rule but none of the
batched projections, so ``orthonormalize`` must reach the same dimension
and, up to roundoff, the same projector.
"""

from __future__ import annotations

import numpy as np

from cylbill.config import DROP
from cylbill.geometry import Subspace, _as_columns


def orthonormalize_mgs(vectors, ambient_dim=None) -> Subspace:
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
