"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from cylbill.geometry import (
    DimensionMismatch,
    Lattice,
    Subspace,
    complement,
    orthonormalize,
    span_of,
)
from cylbill.model import CylinderSpec, CylindricBilliardSystem
from cylbill.paths import (
    EuclideanPathSpec,
    TraceError,
    _SequenceView,
    trace,
)


def intersect(subspaces, ambient_dim=None) -> Subspace:
    """Intersection of a list of subspaces, via complements of the spans:
    the route the common axes once took through the generator spaces,
    kept as an oracle for ``paths.sequence_generator_intersection``."""
    subs = list(subspaces)
    if not subs:
        if ambient_dim is None:
            raise DimensionMismatch("empty intersection needs an explicit ambient_dim")
        return Subspace.full(ambient_dim)
    comps = [complement(s) for s in subs]
    return complement(span_of(comps))


def axis_space(system, i: int) -> Subspace:
    """Span of cylinder ``i``'s axis directions, from its own columns: the
    lattice basis times its coefficients, or its real basis."""
    cyl = system.cylinders[i]
    axes = (system.lattice.basis @ cyl.generator_coeffs.astype(float)
            if cyl.lattice_aligned else cyl.generator_basis)
    return orthonormalize(axes.T, ambient_dim=system.dim)


def make_sphere_system(d: int, r: float = 0.3, center=None,
                       lattice=None) -> CylindricBilliardSystem:
    """Single spherical scatterer (point axis) on the integer torus."""
    if center is None:
        center = np.full(d, 0.5)
    return CylindricBilliardSystem(
        dim=d,
        lattice=Lattice(np.eye(d) if lattice is None else lattice),
        cylinders=[CylinderSpec(radius=r, translation=center,
                                generator_coeffs=np.zeros((d, 0), np.int64))],
    )


def make_two_block_system(r1: float = 0.3,
                          r2: float = 0.3) -> CylindricBilliardSystem:
    """Two cylinders on the 4-torus with orthogonal coordinate-plane base
    spaces: base of cylinder 0 is span(e1, e2), base of cylinder 1 is
    span(e3, e4)."""
    coeffs0 = np.zeros((4, 2), np.int64)
    coeffs0[2, 0] = 1
    coeffs0[3, 1] = 1
    coeffs1 = np.zeros((4, 2), np.int64)
    coeffs1[0, 0] = 1
    coeffs1[1, 1] = 1
    return CylindricBilliardSystem(
        dim=4,
        lattice=Lattice(np.eye(4)),
        cylinders=[
            CylinderSpec(radius=r1, translation=np.full(4, 0.5),
                         generator_coeffs=coeffs0),
            CylinderSpec(radius=r2, translation=np.full(4, 0.25),
                         generator_coeffs=coeffs1),
        ],
    )


def make_real_axis_direct_sum() -> CylindricBilliardSystem:
    """Three 2-dim blocks decomposing 6-space, tilted across the block
    boundaries by irrational angles, so ``direct_sum_system`` gives their
    cylinders a real axis basis."""
    from cylbill.builders import direct_sum_system

    frame = np.eye(6)
    for a, theta in ((1, np.sqrt(2.0) / 3.0), (3, np.sqrt(3.0) / 5.0)):
        c, s = np.cos(theta), np.sin(theta)
        turn = np.eye(6)
        turn[a:a + 2, a:a + 2] = [[c, -s], [s, c]]
        frame = frame @ turn
    blocks = [Subspace(6, frame[:, 2 * i:2 * i + 2]) for i in range(3)]
    return direct_sum_system([2, 2, 2], blocks, [0.1, 0.1, 0.1])[0]


def make_mixed_axis_system() -> CylindricBilliardSystem:
    """Three cylinders in 4-space with axes of different kinds and widths:
    one integer axis, a real axis plane, and a sphere with no axis."""
    turn = np.sqrt(2.0) / 3.0
    return CylindricBilliardSystem(
        dim=4,
        lattice=Lattice(np.eye(4) + 0.25 * np.eye(4, k=1)),
        cylinders=[
            CylinderSpec(radius=0.1, translation=np.zeros(4),
                         generator_coeffs=np.array([[1], [1], [0], [0]])),
            CylinderSpec(radius=0.1, translation=np.zeros(4),
                         generator_basis=np.array(
                             [[np.cos(turn), 0.0], [0.0, 1.0],
                              [np.sin(turn), 0.0], [0.0, 0.0]])),
            CylinderSpec(radius=0.1, translation=np.full(4, 0.5),
                         generator_coeffs=np.zeros((4, 0), np.int64)),
        ],
    )


def make_malformed_axis_system() -> CylindricBilliardSystem:
    """An in-memory system that ``validate`` must refuse: cylinder 0's
    ``generator_coeffs`` has 2 rows in 3-space, and cylinder 1 carries a
    real axis."""
    return CylindricBilliardSystem(
        dim=3, lattice=Lattice(np.eye(3)),
        cylinders=[
            CylinderSpec(radius=0.1, translation=np.zeros(3),
                         generator_coeffs=np.ones((2, 1), np.int64)),
            CylinderSpec(radius=0.1, translation=np.zeros(3),
                         generator_basis=np.array([[1.0], [0.0], [0.0]]),
                         provenance="test"),
        ],
    )


def make_leaky_witness_system() -> CylindricBilliardSystem:
    """Six real-axis cylinders in 8-space (lattice I, r = 0.05) whose
    graph splits into {0..4} and {5}, but whose splitting witness fails
    its own check.  Base 5 is span{u, e8} with u = e7 + ε(e1 + e3 + e5),
    ε = 7e-10: each pairwise overlap is at most √2 ε < ``OVERLAP``, yet
    base 5 leaks √3 ε out of the complement of span{e1..e6}."""
    eps = 7e-10
    e = np.eye(8)
    u = e[6] + eps * (e[0] + e[2] + e[4])
    rows = [(e[0], e[1]), (e[2], e[3]), (e[4], e[5]),
            (e[0] + e[2], e[1] + e[3]), (e[2] + e[4], e[3] + e[5]),
            (u, e[7])]
    return CylindricBilliardSystem(
        dim=8, lattice=Lattice(np.eye(8)),
        cylinders=[CylinderSpec(radius=0.05, translation=np.zeros(8),
                                generator_basis=complement(
                                    orthonormalize(r)).basis)
                   for r in rows],
    )


def make_thin_lattice_system() -> CylindricBilliardSystem:
    """A valid system on the lattice diag(1, 1, 1, 1e-11): cylinder 0 has
    the axis e4, cylinder 1 the axes e4 and e3.  Their common lattice
    vector e4 has length 1e-11, below the Gram-Schmidt cutoff ``DROP``."""
    e = np.eye(4, dtype=np.int64)
    return CylindricBilliardSystem(
        dim=4, lattice=Lattice(np.diag([1.0, 1.0, 1.0, 1e-11])),
        cylinders=[
            CylinderSpec(radius=0.1, translation=np.zeros(4),
                         generator_coeffs=e[:, [3]]),
            CylinderSpec(radius=0.1, translation=np.zeros(4),
                         generator_coeffs=e[:, [3, 2]]),
        ],
    )


def random_int_system(rng: np.random.Generator, d: int,
                      k: int | None = None) -> CylindricBilliardSystem:
    """Random integer-generator system suitable for path tracing."""
    while True:
        basis = np.eye(d) + 0.3 * rng.uniform(-1, 1, size=(d, d))
        if abs(np.linalg.det(basis)) > 0.2:
            break
    if k is None:
        k = int(rng.integers(1, 3))
    cylinders = []
    for _ in range(k):
        g = int(rng.integers(0, d - 1))  # base dim d - g >= 2
        cols = rng.permutation(d)[:g]
        coeffs = np.zeros((d, g), np.int64)
        for jj, c in enumerate(cols):
            coeffs[c, jj] = 1
            if g and rng.random() < 0.4:
                other = int(rng.integers(0, d))
                coeffs[other, jj] += int(rng.integers(-1, 2))
        # re-check rational independence cheaply: fall back to plain axes
        if g and np.linalg.matrix_rank(coeffs) < g:
            coeffs = np.zeros((d, g), np.int64)
            for jj, c in enumerate(cols):
                coeffs[c, jj] = 1
        cylinders.append(
            CylinderSpec(
                radius=float(rng.uniform(0.15, 0.4)),
                translation=rng.uniform(0, 1, size=d),
                generator_coeffs=coeffs,
            )
        )
    return CylindricBilliardSystem(dim=d, lattice=Lattice(basis),
                                   cylinders=cylinders)


def random_subspace(rng: np.random.Generator, ambient_dim: int,
                    dim: int) -> Subspace:
    """Haar-ish random subspace via QR of a Gaussian matrix."""
    if dim == 0:
        return Subspace.zero(ambient_dim)
    g = rng.standard_normal((ambient_dim, dim))
    q, _ = np.linalg.qr(g)
    return Subspace(ambient_dim, q[:, :dim])


def project_zero_momentum(masses, velocities) -> np.ndarray:
    """Remove the center-of-mass drift from ball velocities."""
    m = np.asarray(masses, dtype=float)
    v = np.asarray(velocities, dtype=float)
    drift = np.sum(m[:, None] * v, axis=0) / np.sum(m)
    return v - drift[None, :]


def spec_from_row(view: _SequenceView, v0, row) -> EuclideanPathSpec:
    """The path spec of a stacked row: ``row`` holds the concatenated
    per-collision offsets."""
    return EuclideanPathSpec(v0=v0, offsets=tuple(row[c] for c in view.cols))


def sample_spec(system, labels,
                rng: np.random.Generator) -> EuclideanPathSpec:
    """Random path data: uniform unit initial velocity, offsets uniform in a
    per-base-space coordinate box of half-width three times the largest
    radius.  Most such paths do not trace.  The velocity comes first in
    the stream, then the offsets, collision by collision."""
    view = _SequenceView(system, labels)
    box = 3.0 * max(cyl.radius for cyl in system.cylinders)
    v0 = rng.standard_normal(view.d)
    v0 /= np.linalg.norm(v0)
    return spec_from_row(view, v0, rng.uniform(-box, box, size=view.width))


def translate_all(system, labels, spec: EuclideanPathSpec,
                  a) -> EuclideanPathSpec:
    """Translate every cylinder by the same ambient vector ``a``.

    Each offset moves by the base-space projection of ``a``; the initial
    velocity is untouched.  Equivalent to translating the start point by
    ``-a``.  The reference for the rows the constrained δ sampler stacks.
    """
    view = _SequenceView(system, labels)
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.shape[0] != view.d:
        raise ValueError("translation vector has the wrong dimension")
    new_offsets = tuple(
        spec.offsets[j] + view.bases[j].T @ a for j in range(spec.m)
    )
    return EuclideanPathSpec(v0=spec.v0, offsets=new_offsets)


def translate_each(system, labels, spec: EuclideanPathSpec, b_list,
                   tol: float = 1e-10) -> EuclideanPathSpec:
    """Translate cylinder j by its own ambient vector ``b_list[j]``, which
    must lie in that cylinder's base space."""
    view = _SequenceView(system, labels)
    b_list = [np.asarray(b, dtype=float).reshape(-1) for b in b_list]
    if len(b_list) != spec.m:
        raise ValueError("need one translation per collision")
    new_offsets = []
    for j, b in enumerate(b_list):
        if b.shape[0] != view.d:
            raise ValueError(f"translation {j} has the wrong dimension")
        coords = view.bases[j].T @ b
        residual = np.linalg.norm(b - view.bases[j] @ coords)
        if residual > tol:
            raise ValueError(
                f"translation {j} leaves its base space (residual {residual:.2e})"
            )
        new_offsets.append(spec.offsets[j] + coords)
    return EuclideanPathSpec(v0=spec.v0, offsets=tuple(new_offsets))


def sample_traceable_spec(system, labels, rng,
                          tries: int = 200) -> EuclideanPathSpec | None:
    for _ in range(tries):
        spec = sample_spec(system, labels, rng)
        try:
            trace(system, labels, spec)
        except TraceError:
            continue
        return spec
    return None


def row_reduction_rank(vectors, tol: float = 1e-10) -> int:
    """Independent rank oracle: Gaussian elimination with partial pivoting."""
    m = np.array([np.asarray(v, dtype=float) for v in vectors])
    if m.size == 0:
        return 0
    m = m.copy()
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        piv = rank + int(np.argmax(np.abs(m[rank:, c])))
        if abs(m[piv, c]) < tol:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] / m[rank, c]
        for i in range(rows):
            if i != rank:
                m[i] -= m[i, c] * m[rank]
        rank += 1
    return rank


def scalar_trace_oracle(system, labels, spec, x0=None, t0: float = 0.0):
    """Per-path reference for the stacked collision kernel: the collision
    quadratic solved one collision at a time in scalar arithmetic, from
    position ``x0`` (default the origin) at time ``t0``.

    Returns ``(times, normals, min_incidence)`` for a path that traces, or
    ``(reason, step)`` for the first collision it fails at, the reason one
    of ``paths.REJECTION_REASONS``.
    """
    from cylbill.config import DISC, T_MIN_GAP

    x = np.zeros(system.dim) if x0 is None else np.asarray(x0, dtype=float)
    v = np.asarray(spec.v0, dtype=float).copy()
    t = t0
    times, normals = [], []
    min_inc = 1.0
    for j, lab in enumerate(labels):
        basis = system.base_space(lab).basis
        r = system.cylinders[lab].radius
        w = basis.T @ x - spec.offsets[j]
        u = basis.T @ v
        uu = float(u @ u)
        if uu < 1e-24:
            return "miss", j
        wu = float(w @ u)
        disc = wu * wu - uu * (float(w @ w) - r * r)
        guard = DISC * uu * r * r
        if disc < -guard:
            return "miss", j
        if disc < guard:
            return "graze", j
        s = (-wu - np.sqrt(disc)) / uu
        if s <= T_MIN_GAP:
            return "non_advancing", j
        t += s
        x = x + s * v
        n_local = (w + s * u) / r
        n = basis @ (n_local / np.linalg.norm(n_local))
        min_inc = min(min_inc, abs(float(v @ n)))
        v = v - 2.0 * float(v @ n) * n
        times.append(t)
        normals.append(n)
    return np.array(times), np.array(normals).reshape(-1, system.dim), min_inc


def oracle_path_times(system, labels, spec, n_grid: int = 1_000_000,
                      chunk: float = 1.0, max_chunks: int = 64):
    """Independent collision-time oracle: dense time stepping + bisection.

    Walks each flight segment on a uniform grid of step ``chunk/n_grid``
    until the signed squared distance to the target cylinder changes sign,
    then bisects.  Reflection between segments reuses only the geometric
    normal at the refined crossing point.
    """
    d = system.dim
    x = np.zeros(d)
    v = np.asarray(spec.v0, dtype=float).copy()
    times = []
    t0 = 0.0
    for j, lab in enumerate(labels):
        basis = system.base_space(lab).basis
        r = system.cylinders[lab].radius
        a = spec.offsets[j]
        w = basis.T @ x - a
        u = basis.T @ v
        uu = float(u @ u)
        ww = float(w @ w) - r * r
        wu = float(w @ u)

        def g(s):
            return uu * s * s + 2.0 * wu * s + ww

        lo = None
        for c in range(max_chunks):
            ss = np.linspace(c * chunk, (c + 1) * chunk, n_grid, endpoint=False)
            vals = uu * ss * ss + 2.0 * wu * ss + ww
            neg = np.nonzero(vals < 0)[0]
            if neg.size:
                first = int(neg[0])
                if first == 0 and c == 0:
                    return None  # starts inside; not a valid path
                lo = ss[first] - chunk / n_grid
                hi = ss[first]
                break
        if lo is None:
            return None
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                hi = mid
            else:
                lo = mid
        s_hit = 0.5 * (lo + hi)
        t0 += s_hit
        times.append(t0)
        x = x + s_hit * v
        n_local = (w + s_hit * u)
        n_local = n_local / np.linalg.norm(n_local)
        n = basis @ n_local
        v = v - 2.0 * float(v @ n) * n
    return np.array(times)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
