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

from .config import DROP, OVERLAP
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


def is_transitive(bases, ambient_dim: int | None = None,
                  graph: nx.Graph | None = None):
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
    if graph is None:
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
    constraint = (np.einsum("sab,gbc->gacs", sym, gens)
                  - np.einsum("gab,sbc->gacs", gens, sym))
    constraint = constraint.reshape(-1, len(sym))
    return null_space(np.linalg.qr(constraint, mode="r")).dim


def _flats(bases: list[Subspace]) -> dict[int, np.ndarray]:
    """Every flat of the collection, the closed span of a non-empty set of
    its base spaces, as ``{member bitmask: orthonormal basis}``.

    Flats are found depth first: each single base space is closed, and each
    flat is extended by every non-member at once and each extension closed
    again, with the basis grown by the new member's directions only.  A
    base space is a member of a span iff none of its vectors keeps a
    residual of norm ``DROP`` or more after two projection passes, the rule
    by which ``orthonormalize`` drops a vector, so a flat's dimension is
    the ``span_of`` rank of its members.
    """
    k, d = len(bases), bases[0].ambient_dim
    width = max(b.dim for b in bases)
    # base i's basis, padded with zero vectors (which add no direction)
    padded = np.zeros((k, d, width))
    for i, b in enumerate(bases):
        padded[i, :, :b.dim] = b.basis
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


def is_transverse(system):
    """Check every splittable sub-collection for a transversal cylinder.

    For each subset of cylinder indices whose base spaces admit a
    splitting, some cylinder's base space must meet the subset's span only
    at the origin.  Returns ``(True, None)`` or ``(False, subset)`` with
    the lexicographically smallest violating subset.

    The test depends on a subset only through its closed span, a flat
    (:func:`_flats`), so the flats are checked, not the 2^k subsets.  A
    subset of proper span violates iff its flat ``F`` has no escape, a base
    space whose residual against ``F`` keeps full rank.  A subset of full
    span is disconnected iff it lies in the members of a flat ``F`` and of
    the base spaces orthogonal to ``F``, and those orthogonal ones span
    ``F``'s complement.  Each violation is thus a member mask with a target
    rank, and a subset violates iff it lies in a mask and reaches its rank;
    the smallest subset is found by descending in lexicographic order into
    the first prefix that can still be completed to one.  More than
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
    flats = _flats(bases)
    masks = list(flats)
    dims = np.array([q.shape[1] for q in flats.values()])
    proj = np.stack([q @ q.T for q in flats.values()])
    escape = np.zeros(len(masks), dtype=bool)
    orthogonal = np.zeros(len(masks), dtype=np.int64)
    for m in sorted({b.dim for b in bases}):
        idx = [j for j, b in enumerate(bases) if b.dim == m]
        stacked = np.stack([bases[j].basis for j in idx])
        inner = proj[:, None] @ stacked[None]
        cosines = np.linalg.svd(inner, compute_uv=False)
        sines = np.linalg.svd(stacked[None] - inner, compute_uv=False)
        escape |= np.any(sines[..., -1] >= DROP, axis=1)
        orthogonal |= (cosines[..., 0] <= OVERLAP) @ (1 << np.array(idx))

    rank = {mask: int(r) for mask, r in zip(masks, dims)}

    def span_dim(mask: int) -> int:
        if mask not in rank:
            rank[mask] = span_of(
                [bases[i] for i in range(k) if mask >> i & 1]).dim
        return rank[mask]

    bad = [(mask, int(r)) for mask, r, ok in zip(masks, dims, escape)
           if r < d and not ok]
    bad += [(mask | int(o), d) for mask, r, o in zip(masks, dims, orthogonal)
            if r < d and o and span_dim(int(o)) == d - r]
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
