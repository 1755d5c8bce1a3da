"""Classification of base-space collections and symbolic sequences.

One route decides whether a collection of base spaces admits a non-trivial
orthogonal splitting: the non-orthogonality graph, a boolean adjacency
matrix, must be connected and the bases must span the whole space.  The
symmetric commutant dimension of the generated rotation group is read from
the same two objects, the graph's components and the joint span's
deficiency.  The acceptance suite checks both against an independent
oracle in ``tests/commutant_oracle.py``, which solves for the symmetric
matrices commuting with every elementary rotation generator supported on
the base spaces: the commutant is one-dimensional exactly when no
invariant splitting exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import CHUNK_ENTRIES, DROP, OVERLAP
from .errors import UsageError
from .geometry import (
    DimensionMismatch,
    Subspace,
    complement,
    containment_residual,
    orthonormal_stack,
    orthonormalize,
    residual,
    span_of,
    subspace_overlap,
)

MAX_TRANSVERSE_CYLINDERS = 24

__all__ = [
    "SplittingWitness",
    "non_orthogonality_graph",
    "graph_components",
    "is_transitive",
    "commutant_dimension",
    "is_transverse",
    "count_transitive_blocks",
    "EnumerationGuardError",
]


class EnumerationGuardError(UsageError, RuntimeError):
    """Flat enumeration refused: too many cylinders for an exact answer."""


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


def _padded(bases: list[Subspace]) -> np.ndarray:
    """The bases stacked ``(k, d, width)``, each padded with zero vectors
    (which add no direction) to the largest base dimension."""
    d = bases[0].ambient_dim
    if any(b.ambient_dim != d for b in bases):
        raise DimensionMismatch("subspaces live in different ambient spaces")
    padded = np.zeros((len(bases), d, max(b.dim for b in bases)))
    for i, b in enumerate(bases):
        padded[i, :, :b.dim] = b.basis
    return padded


def _apart(blocks: np.ndarray, rank: int) -> np.ndarray:
    """Per block of a stack, whether its largest singular value is at most
    ``OVERLAP``: the one orthogonality decision.  A block of rank at most
    ``rank`` has ``s_max <= |A|_F <= sqrt(rank) s_max``, so an SVD runs
    only on the blocks whose Frobenius norm leaves the test open."""
    size = np.sqrt(np.sum(blocks * blocks, axis=(-2, -1)))
    apart = size <= OVERLAP
    unsure = ~apart & (size <= np.sqrt(rank) * OVERLAP)
    if unsure.any():
        apart[unsure] = np.linalg.svd(blocks[unsure],
                                      compute_uv=False)[:, 0] <= OVERLAP
    return apart


def non_orthogonality_graph(bases) -> np.ndarray:
    """Adjacency matrix of the non-orthogonality graph on base-space
    indices: ``k x k`` boolean, symmetric, zero diagonal.  An edge is set
    where ``subspace_overlap`` exceeds ``OVERLAP``, decided by
    :func:`_apart` on the blocks ``B_i^T B_j`` of the padded bases' Gram
    matrix (zero padding keeps the singular values)."""
    bases = list(bases)
    k = len(bases)
    adjacency = np.zeros((k, k), dtype=bool)
    if k:
        padded = _padded(bases)
        _, d, w = padded.shape
        flat = padded.transpose(1, 0, 2).reshape(d, k * w)
        gram = (flat.T @ flat).reshape(k, w, k, w).transpose(0, 2, 1, 3)
        i, j = np.triu_indices(k, 1)
        adjacency[i, j] = adjacency[j, i] = ~_apart(gram[i, j], w)
    return adjacency


def graph_components(adjacency: np.ndarray) -> list[list[int]]:
    """Connected components of a boolean adjacency matrix, each a sorted
    index list, ordered by their smallest member."""
    reach = np.asarray(adjacency, dtype=bool) | np.eye(len(adjacency), dtype=bool)
    # squaring doubles the path length reached; 2^bit_length(k) > k - 1
    for _ in range(len(reach).bit_length()):
        reach = reach.astype(float) @ reach > 0
    # the distinct rows of the closure are the components; in descending
    # row order their smallest members ascend
    return [np.flatnonzero(row).tolist() for row in np.unique(reach, axis=0)[::-1]]


def is_transitive(bases, ambient_dim: int | None = None,
                  graph: np.ndarray | None = None):
    """Decide whether the collection admits no orthogonal splitting.

    Returns ``(True, None)`` or ``(False, witness)``.  The structural
    criterion: the non-orthogonality graph is connected and the joint span
    is the full space.  Graph components span mutually orthogonal
    subspaces, and a deficient span leaves its complement untouched, so
    each failure mode produces a witness directly.  ``graph`` is the
    collection's ``non_orthogonality_graph`` if the caller has built it;
    otherwise it is built here when needed.
    """
    bases = list(bases)
    if not bases:
        if ambient_dim is None:
            raise ValueError("ambient_dim required for an empty collection")
        e1 = orthonormalize([np.eye(ambient_dim)[:, 0]])
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
    if graph is None:
        graph = non_orthogonality_graph(bases)
    comps = graph_components(graph)
    if len(comps) > 1:
        first = comps[0]
        b1 = span_of([bases[i] for i in first])
        b2 = complement(b1)
        assignment = {i: (1 if i in first else 2) for i in range(len(bases))}
        w = SplittingWitness(b1, b2, assignment)
        w.check({i: b for i, b in enumerate(bases)})
        return False, w
    return True, None


def commutant_dimension(bases, graph: np.ndarray | None = None) -> int:
    """Dimension of the symmetric commutant of the generated rotation group.

    Value 1 (scalars only) is equivalent to the absence of any invariant
    orthogonal splitting; requires every base space to have dim >= 2 so the
    per-cylinder rotation groups are non-trivial.  The rotations inside the
    base spaces of one component of the non-orthogonality graph generate
    every rotation of the component's span, which they act on irreducibly,
    so each component adds the scalars there; components act trivially on
    each other, and the complement of the joint span, of dimension ``e``,
    adds every symmetric map on it: ``components + e (e + 1) / 2``.
    ``graph`` is the collection's ``non_orthogonality_graph`` if the caller
    has built it; otherwise it is built here.
    """
    bases = list(bases)
    if not bases:
        raise ValueError("commutant of an empty collection is undefined")
    for b in bases:
        if b.dim < 2:
            raise ValueError("commutant needs base spaces of dim >= 2")
    if graph is None:
        graph = non_orthogonality_graph(bases)
    e = bases[0].ambient_dim - span_of(bases).dim
    return len(graph_components(graph)) + e * (e + 1) // 2


def _flats(bases: list[Subspace]) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
    """Every flat of the collection, the closed span of a non-empty set of
    its base spaces, as ``(member bitmasks, dims, projectors)``.

    Flats are found a generation at a time.  Generation 0 closes each
    single base space; each later one extends every flat of the last by
    every non-member in one pass and keeps the masks not seen before.  A
    flat carries the residuals of all bases against it side by side,
    ``d x (k w)``, so a projection is one matmul per (flat, non-member)
    pair.  A non-member's new directions are its residuals orthonormalized
    by :func:`orthonormal_stack`.  A base space is a member of a span iff
    none of its vectors keeps a :func:`residual` of norm ``DROP`` or more,
    the projection and the rule by which ``orthonormal_stack`` drops a
    vector, so a flat's dimension is the rank of its members' span.  Pairs
    run in chunks of about ``CHUNK_ENTRIES`` residual entries, which bounds
    the memory and changes no result.
    """
    padded = _padded(bases)
    k, d, w = padded.shape
    bits = 1 << np.arange(k, dtype=np.int64)

    def members(res: np.ndarray) -> np.ndarray:
        inside = np.sum(res * res, axis=-2) < DROP * DROP
        return inside.reshape(-1, k, w).all(axis=-1) @ bits

    res = residual(padded, padded.transpose(1, 0, 2).reshape(d, k * w))
    masks, first = np.unique(members(res) | bits, return_index=True)
    res = res[first]
    dims = np.array([b.dim for b in bases])[first]
    proj = (padded @ np.swapaxes(padded, 1, 2))[first]
    seen = set(masks.tolist())
    found = [(masks, dims, proj)]
    chunk = max(1, CHUNK_ENTRIES // max(1, d * k * w))
    while True:
        flat, j = np.nonzero((masks[:, None] & bits) == 0)
        if not flat.size:
            break
        grown = []
        for lo in range(0, flat.size, chunk):
            f, jc = flat[lo:lo + chunk], j[lo:lo + chunk]
            new = orthonormal_stack(res.reshape(-1, d, k, w)[f, :, jc])
            wider = residual(new, res[f])
            wmask, first = np.unique(members(wider) | masks[f] | bits[jc],
                                     return_index=True)
            fresh = np.array([m not in seen for m in wmask.tolist()],
                             dtype=bool)
            seen.update(wmask.tolist())
            first = first[fresh]
            new = new[first]
            grown.append((wmask[fresh],
                          dims[f[first]] + new.any(axis=1).sum(axis=1),
                          proj[f[first]] + new @ np.swapaxes(new, 1, 2),
                          wider[first]))
        masks, dims, proj, res = (np.concatenate(part)
                                  for part in zip(*grown))
        found.append((masks, dims, proj))
    return tuple(np.concatenate(part) for part in zip(*found))


def is_transverse(system):
    """Check every splittable sub-collection for a transversal cylinder.

    For each subset of cylinder indices whose base spaces admit a
    splitting, some cylinder's base space must meet the subset's span only
    at the origin.  Returns ``(True, None)`` or ``(False, subset)`` with
    the lexicographically smallest violating subset.

    The test depends on a subset only through its closed span, a flat
    (:func:`_flats`, found a generation at a time), so the flats are
    checked, not the 2^k subsets.  A subset of proper span violates iff its
    flat ``F`` has no escape, a base space whose residual against ``F``
    keeps full rank.  A subset of full span is disconnected iff it lies in
    the members of a flat ``F`` and of the base spaces orthogonal to ``F``,
    and those orthogonal ones span ``F``'s complement.  Both tests on a
    (flat, base) pair take an SVD only where the Frobenius norm of its
    block leaves them open; the blocks are built in chunks of about
    ``CHUNK_ENTRIES`` entries, as :func:`_flats` builds its residuals.  Each
    violation is thus a member mask with a target rank, and a subset
    violates iff it lies in a mask and reaches its rank; the smallest
    subset is found by descending in lexicographic order into the first
    prefix that can still be completed to one.  More than
    ``MAX_TRANSVERSE_CYLINDERS`` cylinders raise ``EnumerationGuardError``.
    """
    k = system.k
    if k > MAX_TRANSVERSE_CYLINDERS:
        raise EnumerationGuardError(
            f"{k} cylinders exceed the enumeration guard "
            f"({MAX_TRANSVERSE_CYLINDERS}); refusing a partial answer"
        )
    d = system.dim
    bases = [system.base_space(i) for i in range(k)]
    masks, dims, proj = _flats(bases)
    escape = np.zeros(len(masks), dtype=bool)
    orthogonal = np.zeros(len(masks), dtype=np.int64)
    for m in sorted({b.dim for b in bases}):
        idx = [j for j, b in enumerate(bases) if b.dim == m]
        stacked = np.stack([bases[j].basis for j in idx])
        bits = 1 << np.array(idx)
        chunk = max(1, CHUNK_ENTRIES // max(1, len(idx) * d * m))
        for lo in range(0, len(masks), chunk):
            part = slice(lo, lo + chunk)
            inner = proj[part, None] @ stacked[None]
            rest = stacked[None] - inner
            apart = _apart(inner, m)
            # sqrt(m) s_min <= |A|_F, so an SVD runs only where the norm
            # leaves the test open
            free = np.sum(rest * rest, axis=(-2, -1)) >= m * DROP * DROP
            free[free] = np.linalg.svd(rest[free],
                                       compute_uv=False)[:, -1] >= DROP
            escape[part] |= free.any(axis=1)
            orthogonal[part] |= apart @ bits

    masks, dims = masks.tolist(), dims.tolist()
    rank = dict(zip(masks, dims))

    def span_dim(mask: int) -> int:
        if mask not in rank:
            rank[mask] = span_of(
                [bases[i] for i in range(k) if mask >> i & 1]).dim
        return rank[mask]

    bad = [(mask, r) for mask, r, ok in zip(masks, dims, escape)
           if r < d and not ok]
    bad += [(mask | o, d) for mask, r, o in zip(masks, dims,
                                                 orthogonal.tolist())
            if r < d and o and span_dim(o) == d - r]
    if not bad:
        return True, None

    def completes(chosen: int, later: int) -> bool:
        return any((chosen & ~mask) == 0
                   and span_dim(chosen | mask & later) == r
                   for mask, r in bad)

    sub: tuple[int, ...] = ()
    chosen = 0
    while not sub or not completes(chosen, 0):
        start = sub[-1] + 1 if sub else 0
        i = next(i for i in range(start, k)
                 if completes(chosen | 1 << i, -1 << (i + 1)))
        sub += (i,)
        chosen |= 1 << i
    return False, sub


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
