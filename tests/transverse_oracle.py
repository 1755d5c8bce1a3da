"""Subset-scan oracle for the flat-based transverseness test of
``cylbill.classify``.

Every non-empty subset of cylinder indices is visited in lexicographic
tuple order and its span computed from scratch: a subset of full span
violates transverseness when its non-orthogonality graph is disconnected,
a subset of proper span when no cylinder's base space meets that span only
at the origin.  The first violating subset is the counterexample.  It
costs 2^k spans, so it serves small systems only.

``flats_depth_first`` is the flat enumeration ``is_transverse`` used
before flats were extended a generation at a time: one flat popped and
extended per step.
"""

from __future__ import annotations

import numpy as np

from cylbill.classify import _padded
from cylbill.config import DROP, OVERLAP
from cylbill.geometry import Subspace, span_of, subspace_overlap


def flats_depth_first(bases: list[Subspace]) -> dict[int, np.ndarray]:
    """Every flat of the collection, the closed span of a non-empty set of
    its base spaces, as ``{member bitmask: orthonormal basis}``.

    Flats are found depth first: each single base space is closed, and each
    flat is extended by every non-member at once and each extension closed
    again, with the basis grown by the new member's directions only.  A
    base space is a member of a span iff none of its vectors keeps a
    residual of norm ``DROP`` or more after two projection passes.
    """
    padded = _padded(bases)
    k, d, width = padded.shape
    bits = 1 << np.arange(k, dtype=np.int64)

    def residual(w: np.ndarray, x: np.ndarray) -> np.ndarray:
        for _ in range(2):
            x = x - w @ (np.swapaxes(w, -1, -2) @ x)
        return x

    def members(res: np.ndarray) -> np.ndarray:
        inside = np.sum(res * res, axis=-2) < DROP * DROP
        return inside.all(axis=-1) @ bits

    flats: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    todo = []
    for i, b in enumerate(bases):
        res = residual(b.basis, padded)
        mask = int(members(res)) | 1 << i
        if mask not in flats:
            flats[mask] = b.basis, res
            todo.append(mask)
    while todo:
        mask = todo.pop()
        q, res = flats[mask]
        outside = np.flatnonzero((mask & bits) == 0)
        # new directions of each non-member j: its residuals, already
        # orthogonal to q, orthonormalized among themselves
        new = np.zeros((outside.size, d, width))
        kept = np.zeros((outside.size, width), dtype=bool)
        for c in range(width):
            w = residual(new, res[outside, :, c:c + 1])[:, :, 0]
            nrm = np.sqrt(np.sum(w * w, axis=1))
            kept[:, c] = nrm >= DROP
            new[kept[:, c], :, c] = w[kept[:, c]] / nrm[kept[:, c], None]
        wider_res = residual(new[:, None], res[None])
        wider = members(wider_res) | mask | bits[outside]
        for n in range(outside.size):
            key = int(wider[n])
            if key not in flats:
                flats[key] = np.hstack([q, new[n][:, kept[n]]]), wider_res[n]
                todo.append(key)
    return {mask: q for mask, (q, _) in flats.items()}


def _subset_spans_lex(k: int):
    """Yield (subset tuple, index path) in lexicographic tuple order."""

    def rec(prefix: tuple[int, ...], start: int):
        for i in range(start, k):
            sub = prefix + (i,)
            yield sub
            yield from rec(sub, i + 1)

    yield from rec((), 0)


def is_transverse_by_subsets(system):
    """``(True, None)`` or ``(False, subset)`` with the lexicographically
    smallest violating subset; the per-span test is memoized on a rounded
    projector fingerprint, since it depends on the subset only through its
    span."""
    k = system.k
    d = system.dim
    bases = [system.base_space(i) for i in range(k)]
    adj = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            adj[i, j] = adj[j, i] = subspace_overlap(bases[i], bases[j]) > OVERLAP

    span_ok: dict[bytes, bool] = {}

    def proper_span_has_escape(span: Subspace) -> bool:
        key = np.round(span.projector(), 9).tobytes()
        if key not in span_ok:
            ok = False
            for j in range(k):
                inter_dim = (
                    bases[j].dim + span.dim - span_of([bases[j], span]).dim
                )
                if inter_dim == 0:
                    ok = True
                    break
            span_ok[key] = ok
        return span_ok[key]

    def connected(sub: tuple[int, ...]) -> bool:
        if len(sub) <= 1:
            return True
        seen = {sub[0]}
        stack = [sub[0]]
        inset = set(sub)
        while stack:
            u = stack.pop()
            for v in inset:
                if v not in seen and adj[u, v]:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(sub)

    for sub in _subset_spans_lex(k):
        span = span_of([bases[i] for i in sub])
        if span.dim == d:
            if not connected(sub):
                return False, sub
        else:
            if not proper_span_has_escape(span):
                return False, sub
    return True, None
