"""Classification of base-space collections and symbolic sequences.

Two independent routes decide whether a collection of base spaces admits a
non-trivial orthogonal splitting:

* the structural test — the non-orthogonality graph must be connected and
  the bases must span the whole space;
* the commutant oracle — the space of symmetric matrices commuting with
  every elementary rotation generator supported on the base spaces is
  one-dimensional exactly when no invariant splitting exists (a symmetric
  commutant element that is not scalar has a proper invariant eigenspace,
  and conversely an invariant subspace yields its projector).

The oracle is the reference the structural test is checked against in the
acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .config import OVERLAP
from .errors import UsageError
from .geometry import (
    Subspace,
    complement,
    containment_residual,
    null_space,
    span_of,
    subspace_overlap,
)

MAX_TRANSVERSE_CYLINDERS = 24

__all__ = [
    "SplittingWitness",
    "non_orthogonality_graph",
    "is_transitive",
    "commutant_dimension",
    "is_transverse",
    "is_transitive_sequence",
    "count_transitive_blocks",
    "splits_according_to",
    "EnumerationGuardError",
]


class EnumerationGuardError(UsageError, RuntimeError):
    """Subset enumeration refused: too many cylinders for an exact answer."""


@dataclass(eq=False)
class SplittingWitness:
    """An orthogonal splitting B1 + B2 separating the base spaces.

    ``assignment`` maps each classified cylinder index to 1 or 2; the
    listed base space must lie inside the corresponding part.  A witness
    built from an empty collision set is ``degenerate``.
    """

    b1: Subspace
    b2: Subspace
    assignment: dict[int, int] = field(default_factory=dict)
    degenerate: bool = False

    def check(self, bases: dict[int, Subspace] | None = None) -> None:
        d = self.b1.ambient_dim
        if self.b2.ambient_dim != d:
            raise ValueError("witness parts live in different spaces")
        if self.b1.dim < 1 or self.b2.dim < 1:
            raise ValueError("witness parts must both be non-trivial")
        if self.b1.dim + self.b2.dim != d:
            raise ValueError("witness parts do not decompose the space")
        if subspace_overlap(self.b1, self.b2) > OVERLAP:
            raise ValueError("witness parts are not orthogonal")
        if bases is not None:
            for i, side in self.assignment.items():
                part = self.b1 if side == 1 else self.b2
                if containment_residual(bases[i], part) > OVERLAP:
                    raise ValueError(f"base space {i} leaks out of part {side}")


def non_orthogonality_graph(bases) -> nx.Graph:
    """Graph on base-space indices; an edge joins non-orthogonal pairs."""
    bases = list(bases)
    g = nx.Graph()
    g.add_nodes_from(range(len(bases)))
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            if subspace_overlap(bases[i], bases[j]) > OVERLAP:
                g.add_edge(i, j)
    return g


def is_transitive(bases, ambient_dim: int | None = None):
    """Decide whether the collection admits no orthogonal splitting.

    Returns ``(True, None)`` or ``(False, witness)``.  The structural
    criterion: the non-orthogonality graph is connected and the joint span
    is the full space.  Graph components span mutually orthogonal
    subspaces, and a deficient span leaves its complement untouched, so
    each failure mode produces a witness directly.
    """
    bases = list(bases)
    if not bases:
        if ambient_dim is None:
            raise ValueError("ambient_dim required for an empty collection")
        e1 = Subspace.span([np.eye(ambient_dim)[:, 0]])
        w = SplittingWitness(e1, complement(e1), {}, degenerate=True)
        w.check()
        return False, w
    d = bases[0].ambient_dim
    joint = span_of(bases)
    if joint.dim < d:
        w = SplittingWitness(
            joint, complement(joint), {i: 1 for i in range(len(bases))}
        )
        w.check({i: b for i, b in enumerate(bases)})
        return False, w
    graph = non_orthogonality_graph(bases)
    comps = sorted(nx.connected_components(graph), key=min)
    if len(comps) > 1:
        first = sorted(comps[0])
        b1 = span_of([bases[i] for i in first])
        b2 = complement(b1)
        assignment = {i: (1 if i in comps[0] else 2) for i in range(len(bases))}
        w = SplittingWitness(b1, b2, assignment)
        w.check({i: b for i, b in enumerate(bases)})
        return False, w
    return True, None


def _rotation_generators(base: Subspace) -> list[np.ndarray]:
    """Elementary antisymmetric generators of rotations acting inside
    ``base`` and fixing its complement pointwise."""
    b = base.basis
    gens = []
    for p in range(base.dim):
        for q in range(p + 1, base.dim):
            gens.append(np.outer(b[:, p], b[:, q]) - np.outer(b[:, q], b[:, p]))
    return gens


def commutant_dimension(bases) -> int:
    """Dimension of the symmetric commutant of the generated rotation group.

    Value 1 (scalars only) is equivalent to the absence of any invariant
    orthogonal splitting; requires every base space to have dim >= 2 so the
    per-cylinder rotation groups are non-trivial.
    """
    bases = list(bases)
    if not bases:
        raise ValueError("commutant of an empty collection is undefined")
    d = bases[0].ambient_dim
    for b in bases:
        if b.dim < 2:
            raise ValueError("commutant oracle needs base spaces of dim >= 2")
    # symmetric matrix basis
    sym_basis: list[np.ndarray] = []
    for a in range(d):
        e = np.zeros((d, d))
        e[a, a] = 1.0
        sym_basis.append(e)
    for a in range(d):
        for b_ in range(a + 1, d):
            e = np.zeros((d, d))
            e[a, b_] = e[b_, a] = 1.0 / np.sqrt(2.0)
            sym_basis.append(e)
    gens: list[np.ndarray] = []
    for b in bases:
        gens.extend(_rotation_generators(b))
    rows = []
    for g in gens:
        for e in sym_basis:
            rows.append((e @ g - g @ e).reshape(-1))
    if not rows:
        raise ValueError("no rotation generators (all base spaces trivial)")
    n_sym = len(sym_basis)
    constraint = np.array(rows).reshape(len(gens), n_sym, d * d)
    constraint = np.transpose(constraint, (0, 2, 1)).reshape(-1, n_sym)
    return null_space(constraint).dim


def _subset_spans_lex(k: int):
    """Yield (subset tuple, index path) in lexicographic tuple order."""

    def rec(prefix: tuple[int, ...], start: int):
        for i in range(start, k):
            sub = prefix + (i,)
            yield sub
            yield from rec(sub, i + 1)

    yield from rec((), 0)


def is_transverse(system):
    """Check every splittable sub-collection for a transversal cylinder.

    For each subset of cylinder indices whose base spaces admit a
    splitting, some cylinder's base space must meet the subset's span only
    at the origin.  Returns ``(True, None)`` or ``(False, subset)`` with
    the lexicographically smallest violating subset.  The per-span test is
    memoized on a rounded projector fingerprint, since it depends on the
    subset only through its span.  More than ``MAX_TRANSVERSE_CYLINDERS``
    cylinders (2^k subsets) raise ``EnumerationGuardError``.
    """
    k = system.k
    if k > MAX_TRANSVERSE_CYLINDERS:
        raise EnumerationGuardError(
            f"{k} cylinders exceed the enumeration guard "
            f"({MAX_TRANSVERSE_CYLINDERS}); refusing a partial answer"
        )
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


def is_transitive_sequence(labels, system) -> bool:
    """Transitivity of the distinct base spaces touched by a sequence."""
    distinct = sorted(set(int(x) for x in labels))
    for lab in distinct:
        if not 0 <= lab < system.k:
            raise ValueError(f"label {lab} out of range for k={system.k}")
    if not distinct:
        return False
    ok, _ = is_transitive(
        [system.base_space(i) for i in distinct], ambient_dim=system.dim
    )
    return ok


def count_transitive_blocks(labels, system) -> int:
    """Greedy left-to-right partition into minimal transitive blocks.

    Adding base spaces never destroys transitivity, so closing each block
    at the earliest possible position maximizes the number of complete
    blocks over all partitions into consecutive transitive pieces.
    """
    labels = [int(x) for x in labels]
    memo: dict[frozenset, bool] = {}

    def transitive(label_set: frozenset) -> bool:
        if label_set not in memo:
            ok, _ = is_transitive(
                [system.base_space(i) for i in sorted(label_set)],
                ambient_dim=system.dim,
            )
            memo[label_set] = ok
        return memo[label_set]

    count = 0
    current: set[int] = set()
    for lab in labels:
        if lab in current:
            # set unchanged, so the last (negative) verdict stands
            continue
        current.add(lab)
        if transitive(frozenset(current)):
            count += 1
            current = set()
    return count


def splits_according_to(collided_labels, b1: Subspace, b2: Subspace, system) -> bool:
    """Do all collided base spaces respect the given orthogonal splitting?"""
    d = system.dim
    if b1.ambient_dim != d or b2.ambient_dim != d:
        raise ValueError("splitting parts live in the wrong space")
    if b1.dim < 1 or b2.dim < 1 or b1.dim + b2.dim != d:
        raise ValueError("not a non-trivial orthogonal decomposition")
    if subspace_overlap(b1, b2) > OVERLAP:
        raise ValueError("splitting parts are not orthogonal")
    for lab in set(int(x) for x in collided_labels):
        base = system.base_space(lab)
        if (
            containment_residual(base, b1) > OVERLAP
            and containment_residual(base, b2) > OVERLAP
        ):
            return False
    return True

