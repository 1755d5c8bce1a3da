"""Subset-scan oracle for the flat-based transverseness test of
``cylbill.classify``.

Every non-empty subset of cylinder indices is visited in lexicographic
tuple order and its span computed from scratch: a subset of full span
violates transverseness when its non-orthogonality graph is disconnected,
a subset of proper span when no cylinder's base space meets that span only
at the origin.  The first violating subset is the counterexample.  It
costs 2^k spans, so it serves small systems only.
"""

from __future__ import annotations

import numpy as np

from cylbill.config import OVERLAP
from cylbill.geometry import Subspace, span_of, subspace_overlap


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
