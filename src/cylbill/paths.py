"""Straight-line collision paths and their perturbation diagnostics.

A path starts at the origin with a unit velocity and reflects off a
prescribed sequence of translated cylinders; each collision time is the
smaller root of a quadratic in the base-space coordinates.  Everything
else in this module differentiates that map: how the final velocity moves
under uniform cylinder translations (one matrix whose column space /
kernel are the expanding / neutral directions), under independent
per-cylinder translations, and how large the expanding part can get over
random paths with the same collision sequence.

The quadratic has one implementation, ``_collide``, which traces a stack
of N paths (N initial velocities, N rows of concatenated offsets) and
reports per row how far it got and why it failed.  ``trace`` is its
one-row case; each finite-difference matrix traces its base path and all
its probes as one stack; and the δ sampler screens each sample's random
candidates in stacked blocks, so the derivative runs only on candidates
that trace clear of the incidence floor.

Derivatives are central finite differences with step ``config.FD_STEP``;
ranks of FD matrices use the looser cutoff ``config.FD_RANK_REL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .config import DISC, FD_INCIDENCE, FD_RANK_REL, FD_STEP, T_MIN_GAP
from .geometry import (
    Subspace,
    column_space,
    complement,
    intersect,
    null_space,
    orthonormalize,
    projector_distance,
)

__all__ = [
    "EuclideanPathSpec",
    "EuclideanPathResult",
    "TraceError",
    "NoRealRoot",
    "Tangential",
    "NonAdvancing",
    "PerturbationFailure",
    "NoValidPath",
    "trace",
    "translate_all",
    "translate_each",
    "phi_map",
    "dvm_matrix",
    "w_plus",
    "w_plus_tilde",
    "neutral_space",
    "neutral_space_detail",
    "theta_rank",
    "theta_full_rank",
    "delta_sigma",
    "delta_sigma_constrained",
    "delta_sigma_report",
    "is_rich",
    "sample_spec",
    "REJECTION_REASONS",
    "sequence_generator_intersection",
    "constrained_manifold_dim",
]


class TraceError(RuntimeError):
    """A path with the requested collision sequence does not exist here."""

    def __init__(self, step: int, message: str):
        self.step = step
        super().__init__(f"collision {step}: {message}")


class NoRealRoot(TraceError):
    pass


class Tangential(TraceError):
    pass


class NonAdvancing(TraceError):
    pass


class PerturbationFailure(RuntimeError):
    """A finite-difference probe left the set of valid paths."""


class NoValidPath(RuntimeError):
    """No sampled path traced successfully."""


@dataclass(frozen=True, eq=False)
class EuclideanPathSpec:
    """Initial unit velocity plus one offset per collision.

    Offsets are stored in the coordinates of the corresponding base space
    (so they are confined to it by construction); ``offset_ambient`` maps
    one back to the ambient frame.
    """

    v0: np.ndarray
    offsets: tuple[np.ndarray, ...]

    def __post_init__(self):
        v = np.asarray(self.v0, dtype=float).reshape(-1)
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("initial velocity must be a unit vector")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "v0", v)
        offs = tuple(np.asarray(a, dtype=float).reshape(-1) for a in self.offsets)
        for a in offs:
            a.setflags(write=False)
        object.__setattr__(self, "offsets", offs)

    @property
    def m(self) -> int:
        return len(self.offsets)


@dataclass(eq=False)
class EuclideanPathResult:
    """Collision times, points, velocity history, and unit normals.

    ``min_incidence`` is the smallest |<v, n>| over the collisions: how far
    the path stays from grazing.
    """

    times: np.ndarray        # (m,) strictly increasing, positive
    points: np.ndarray      # (m, d)
    velocities: np.ndarray  # (m+1, d) unit rows, index 0 = initial
    normals: np.ndarray     # (m, d) unit rows, each inside its base space
    min_incidence: float = 1.0

    @property
    def final_velocity(self) -> np.ndarray:
        return self.velocities[-1]


class _SequenceView:
    """Per-sequence arrays resolved once: base bases, radii, dims, and each
    collision's columns in a row of concatenated offsets."""

    __slots__ = ("labels", "bases", "radii", "dims", "width", "cols", "d")

    def __init__(self, system, labels):
        self.labels = [int(x) for x in labels]
        for lab in self.labels:
            if not 0 <= lab < system.k:
                raise ValueError(f"label {lab} out of range for k={system.k}")
        self.bases = [system.base_space(lab).basis for lab in self.labels]
        self.radii = [system.cylinders[lab].radius for lab in self.labels]
        self.dims = [b.shape[1] for b in self.bases]
        ends = list(accumulate(self.dims, initial=0))
        self.width = ends[-1]
        self.cols = [slice(a, b) for a, b in zip(ends, ends[1:])]
        self.d = system.dim


def _view(system, labels) -> _SequenceView:
    return _SequenceView(system, labels)


def _check_spec(view: _SequenceView, spec: EuclideanPathSpec) -> None:
    if spec.v0.shape[0] != view.d:
        raise ValueError("initial velocity has the wrong dimension")
    if spec.m != len(view.labels):
        raise ValueError(
            f"{spec.m} offsets for a sequence of length {len(view.labels)}"
        )
    for j, a in enumerate(spec.offsets):
        if a.shape[0] != view.dims[j]:
            raise ValueError(
                f"offset {j} has {a.shape[0]} coordinates, base space has "
                f"dim {view.dims[j]}"
            )


def _offset_row(offsets) -> np.ndarray:
    """Per-collision offsets concatenated into one row."""
    return np.concatenate(offsets) if len(offsets) else np.zeros(0)


def _spec(view: _SequenceView, v0, row) -> EuclideanPathSpec:
    return EuclideanPathSpec(v0=v0, offsets=tuple(row[c] for c in view.cols))


# Status of a stacked row, and the error a failed row raises.
_MISS, _GRAZE, _NON_ADVANCING = 1, 2, 3
_FAILURES = {
    _MISS: (NoRealRoot, "path misses the cylinder or runs along its axis"),
    _GRAZE: (Tangential, "grazing contact (discriminant within guard)"),
    _NON_ADVANCING: (NonAdvancing,
                     "smaller root does not advance beyond T_MIN_GAP"),
}


@dataclass(eq=False)
class _Stack:
    """N paths traced together.  A failed row is NaN from its failing
    collision on, and its ``min_incidence`` is NaN."""

    times: np.ndarray          # (N, m)
    points: np.ndarray         # (N, m, d)
    velocities: np.ndarray     # (N, m+1, d)
    normals: np.ndarray        # (N, m, d)
    min_incidence: np.ndarray  # (N,)
    status: np.ndarray         # (N,) 0 traced, else _MISS/_GRAZE/_NON_ADVANCING
    step: np.ndarray           # (N,) failing collision, -1 if traced

    def error(self, i: int) -> TraceError:
        cls, message = _FAILURES[int(self.status[i])]
        return cls(int(self.step[i]), message)


def _collide(view: _SequenceView, v0s: np.ndarray,
             offsets: np.ndarray) -> _Stack:
    """Trace N paths through the sequence at once: row i starts at the
    origin with unit velocity ``v0s[i]`` and meets cylinders offset by
    ``offsets[i]`` (the collisions' base-space offsets, concatenated).

    Collision j happens at the smaller root of the quadratic for the
    distance to cylinder j's axis.  A row fails at the first collision
    where the path misses (negative discriminant, or a velocity along the
    axis), grazes (discriminant within the ``DISC`` guard of zero) or does
    not advance beyond the previous time by ``T_MIN_GAP``; from there on
    its state is NaN, which every later step carries along.
    """
    n, d = v0s.shape
    m = len(view.labels)
    times = np.full((n, m), np.nan)
    points = np.full((n, m, d), np.nan)
    vels = np.full((n, m + 1, d), np.nan)
    normals = np.full((n, m, d), np.nan)
    status = np.zeros(n, dtype=np.intp)
    step = np.full(n, -1, dtype=np.intp)
    v = np.array(v0s, dtype=float)
    vels[:, 0] = v
    x = np.zeros((n, d))
    t = np.zeros(n)
    inc = np.ones(n)
    alive = n
    vecdot = np.vecdot
    with np.errstate(invalid="ignore", divide="ignore"):
        for j, (basis, r, cols) in enumerate(zip(view.bases, view.radii,
                                                 view.cols)):
            w = x @ basis
            w -= offsets[:, cols]
            u = v @ basis
            uu = vecdot(u, u)
            wu = vecdot(w, u)
            disc = wu * wu - uu * (vecdot(w, w) - r * r)
            guard = uu * (DISC * r * r)
            s = (-wu - np.sqrt(disc)) / uu
            ok = (disc >= guard) & (s > T_MIN_GAP) & (uu >= 1e-24)
            if np.count_nonzero(ok) < alive:
                new = ~ok & (step < 0)      # rows failing at this collision
                # a failing row fails the first of the checks it breaks
                code = np.where(disc[new] < guard[new], _GRAZE,
                                _NON_ADVANCING)
                code[(disc[new] < -guard[new]) | (uu[new] < 1e-24)] = _MISS
                status[new] = code
                step[new] = j
                s[new] = inc[new] = np.nan
                alive = np.count_nonzero(ok)
                if not alive:
                    break
            sv = s[:, None]
            t = t + s
            x = x + sv * v
            n_local = w + sv * u        # r times the unit normal
            n_local /= np.sqrt(vecdot(n_local, n_local))[:, None]
            nrm = n_local @ basis.T
            vn = vecdot(v, nrm)
            inc = np.minimum(inc, np.abs(vn))
            v = v - 2.0 * vn[:, None] * nrm
            times[:, j] = t
            points[:, j] = x
            normals[:, j] = nrm
            vels[:, j + 1] = v
    return _Stack(times=times, points=points, velocities=vels,
                  normals=normals, min_incidence=inc, status=status,
                  step=step)


def trace(system, labels, spec: EuclideanPathSpec) -> EuclideanPathResult:
    """Follow the path through its collision sequence: the one-row case of
    the stacked kernel, raising ``NoRealRoot``, ``Tangential`` or
    ``NonAdvancing`` at the collision where the path fails."""
    view = _view(system, labels)
    _check_spec(view, spec)
    stack = _collide(view, spec.v0[None, :],
                     _offset_row(spec.offsets)[None, :])
    if stack.status[0]:
        raise stack.error(0)
    return EuclideanPathResult(
        times=stack.times[0], points=stack.points[0],
        velocities=stack.velocities[0], normals=stack.normals[0],
        min_incidence=float(stack.min_incidence[0]))


def translate_all(system, labels, spec: EuclideanPathSpec, a) -> EuclideanPathSpec:
    """Translate every cylinder by the same ambient vector ``a``.

    Each offset moves by the base-space projection of ``a``; the initial
    velocity is untouched.  Equivalent to translating the start point by
    ``-a``.
    """
    view = _view(system, labels)
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
    view = _view(system, labels)
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


def phi_map(v0, normals) -> np.ndarray:
    """Apply the reflections with the given unit normals, first one first."""
    v = np.asarray(v0, dtype=float).reshape(-1).copy()
    for n in normals:
        n = np.asarray(n, dtype=float).reshape(-1)
        v = v - 2.0 * float(v @ n) * n
    return v


def apply_reflections(vectors, normals) -> np.ndarray:
    """Reflect the columns of ``vectors`` through the normals in order."""
    out = np.asarray(vectors, dtype=float).copy()
    if out.ndim == 1:
        out = out[:, None]
    for n in normals:
        n = np.asarray(n, dtype=float).reshape(-1)
        out = out - 2.0 * np.outer(n, n @ out)
    return out


# ---------------------------------------------------------------------------
# Finite-difference derivatives of the final velocity
# ---------------------------------------------------------------------------


def _require_clear_of_tangency(min_incidence: float) -> None:
    if min_incidence < FD_INCIDENCE:
        raise PerturbationFailure(
            f"collision incidence {min_incidence:.2e} below the "
            f"finite-difference floor {FD_INCIDENCE:.2e}"
        )


def _check_fd_quality(mat: np.ndarray, v_final: np.ndarray,
                      tol: float = 1e-6) -> None:
    """Columns of a final-velocity derivative must be tangent to the unit
    sphere at the final velocity.  A violation means the finite differences
    straddled a tangency and the matrix is garbage."""
    if mat.size == 0:
        return
    scale = np.maximum(1.0, np.linalg.norm(mat, axis=0))
    if np.max(np.abs(v_final @ mat) / scale) > tol:
        raise PerturbationFailure(
            "derivative columns are not tangent to the velocity sphere; "
            "path too close to tangency for finite differences"
        )


def _probe(view: _SequenceView, v0s, offsets, what: str) -> _Stack:
    """Trace a base path (row 0) and its finite-difference probes as one
    stack.  The base must clear the incidence floor and every row must
    trace, else ``PerturbationFailure``."""
    stack = _collide(view, np.asarray(v0s, dtype=float),
                     np.asarray(offsets, dtype=float))
    _require_clear_of_tangency(stack.min_incidence[0])   # NaN if it failed
    failed = np.flatnonzero(stack.status)
    if failed.size:
        exc = stack.error(failed[0])
        raise PerturbationFailure(
            f"{what} probe failed ({exc}); path too close to tangency"
        ) from exc
    return stack


def _offset_differences(view: _SequenceView, spec: EuclideanPathSpec,
                        shift: np.ndarray, what: str) -> np.ndarray:
    """d x k matrix of central differences of the final velocity, column i
    for moving the offset row by ``shift[i]`` (one probe step)."""
    row = _offset_row(spec.offsets)
    k = shift.shape[0]
    stack = _probe(view, np.tile(spec.v0, (2 * k + 1, 1)),
                   np.vstack([row, row + shift, row - shift]), what)
    vf = stack.velocities[:, -1]
    mat = (vf[1:k + 1] - vf[k + 1:]).T / (2.0 * FD_STEP)
    _check_fd_quality(mat, vf[0])
    return mat


def dvm_matrix(system, labels, spec: EuclideanPathSpec) -> np.ndarray:
    """d x d matrix of final-velocity derivatives under uniform cylinder
    translations along the coordinate axes (central differences)."""
    view = _view(system, labels)
    _check_spec(view, spec)
    # row i: the offsets of every cylinder moved by h e_i
    shift = FD_STEP * np.hstack([np.zeros((view.d, 0))] + view.bases)
    return _offset_differences(view, spec, shift, "translation")


def _each_matrix(system, labels, spec) -> np.ndarray:
    """d x (sum of base dims) matrix: final-velocity derivatives under
    independent per-cylinder translations along base coordinates."""
    view = _view(system, labels)
    _check_spec(view, spec)
    return _offset_differences(view, spec, FD_STEP * np.eye(view.width),
                               "per-cylinder")


def w_plus(system, labels, spec: EuclideanPathSpec) -> Subspace:
    """Span of final-velocity derivatives under uniform translations: the
    expanding directions of an initially parallel beam."""
    return column_space(dvm_matrix(system, labels, spec),
                        rel_tol=FD_RANK_REL)


def w_plus_tilde(system, labels, spec: EuclideanPathSpec) -> Subspace:
    """Span of final-velocity derivatives under independent per-cylinder
    translations; contains (and in fact equals) the uniform-translation
    span."""
    return column_space(_each_matrix(system, labels, spec),
                        rel_tol=FD_RANK_REL)


@dataclass(eq=False)
class NeutralSpaceReport:
    kernel: Subspace
    pushed_complement: Subspace
    residual: float


def neutral_space_detail(system, labels,
                         spec: EuclideanPathSpec) -> NeutralSpaceReport:
    """Neutral directions two ways: kernel of the derivative matrix, and the
    orthocomplement of the expanding span pulled back through the
    reflections in reverse order.  Their projector distance is reported."""
    res = trace(system, labels, spec)
    mat = dvm_matrix(system, labels, spec)
    kernel = null_space(mat, rel_tol=FD_RANK_REL)
    wp = column_space(mat, rel_tol=FD_RANK_REL)
    comp = complement(wp)
    if comp.dim:
        pulled = apply_reflections(comp.basis, res.normals[::-1])
        pushed = orthonormalize(pulled.T, ambient_dim=comp.ambient_dim)
    else:
        pushed = comp
    return NeutralSpaceReport(
        kernel=kernel,
        pushed_complement=pushed,
        residual=projector_distance(kernel, pushed),
    )


def neutral_space(system, labels, spec: EuclideanPathSpec) -> Subspace:
    """Directions of uniform cylinder translation that leave the final
    velocity unchanged."""
    return neutral_space_detail(system, labels, spec).kernel


# ---------------------------------------------------------------------------
# Rank of the path -> (velocity; normals) map
# ---------------------------------------------------------------------------


def _tangent_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to unit vector v."""
    d = v.shape[0]
    return complement(Subspace(d, v.reshape(d, 1))).basis


def theta_full_rank(system, labels) -> int:
    """Target rank: sphere dimension plus one projective dimension per
    collision."""
    view = _view(system, labels)
    return (view.d - 1) + sum(nu - 1 for nu in view.dims)


def theta_rank(system, labels, spec: EuclideanPathSpec) -> int:
    """FD rank of the map (initial velocity, offsets) -> (initial velocity,
    collision normals), in local charts.  Full value means the collision
    normals can be perturbed independently and arbitrarily."""
    view = _view(system, labels)
    _check_spec(view, spec)
    d = view.d
    m = spec.m
    if m == 0:
        return d - 1
    h = FD_STEP
    v0_tan = _tangent_basis(spec.v0)
    row = _offset_row(spec.offsets)
    k = row.shape[0]
    # rows: the base; the initial velocity moved on the sphere, + then -
    # along each tangent direction; each offset coordinate moved, + then -
    v0s = [spec.v0]
    for i in range(d - 1):
        for sign in (1.0, -1.0):
            v = spec.v0 + sign * h * v0_tan[:, i]
            v0s.append(v / np.linalg.norm(v))
    v0s.extend([spec.v0] * (2 * k))
    steps = np.repeat(h * np.eye(k), 2, axis=0)
    steps[1::2] *= -1.0
    stack = _probe(view, v0s,
                   np.vstack([np.tile(row, (2 * d - 1, 1)), row + steps]),
                   "chart")

    normal_charts = []
    for j in range(m):
        b = view.bases[j]
        n_local = b.T @ stack.normals[0, j]
        n_local /= np.linalg.norm(n_local)
        loc = complement(Subspace(view.dims[j], n_local.reshape(-1, 1))).basis
        normal_charts.append(b @ loc)   # ambient directions tangent to the normal

    coords = np.array([
        np.concatenate([v0_tan.T @ v0]
                       + [normal_charts[j].T @ stack.normals[i, j]
                          for j in range(m)])
        for i, v0 in enumerate(v0s)
    ])
    jac = (coords[1::2] - coords[2::2]).T / (2.0 * h)
    assert jac.shape[0] == (d - 1) + sum(nu - 1 for nu in view.dims)
    s = np.linalg.svd(jac, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= FD_RANK_REL * s[0]))


# ---------------------------------------------------------------------------
# Typical expanding dimension over sampled paths
# ---------------------------------------------------------------------------


def sequence_generator_intersection(system, labels) -> Subspace:
    """Common axis directions of the touched cylinders (translations along
    them change nothing about the path)."""
    distinct = sorted(set(int(x) for x in labels))
    return intersect(
        [system.generator_space(i) for i in distinct], ambient_dim=system.dim
    )


def constrained_manifold_dim(system, labels) -> int:
    """Reported dimension of the fixed-relative-position path family:
    2 d - 1 minus the common axis dimension.  Diagnostic only."""
    return 2 * system.dim - 1 - sequence_generator_intersection(system, labels).dim


def _box(system, box_scale) -> float:
    """Half-width of the offset box: ``box_scale``, by default three times
    the largest radius."""
    if box_scale is None:
        return 3.0 * max(cyl.radius for cyl in system.cylinders)
    return float(box_scale)


def _draw(rng: np.random.Generator, d: int, width: int,
          box: float) -> tuple[np.ndarray, np.ndarray]:
    """One candidate's draws, in stream order: a uniform unit velocity,
    then ``width`` coordinates uniform in [-box, box]."""
    v0 = rng.standard_normal(d)
    v0 /= math.sqrt(v0.dot(v0))    # np.linalg.norm(v0), without its overhead
    return v0, rng.uniform(-box, box, size=width)


def sample_spec(system, labels, rng: np.random.Generator,
                box_scale: float | None = None) -> EuclideanPathSpec:
    """Random path data: uniform unit initial velocity, offsets uniform in a
    per-base-space coordinate box."""
    view = _view(system, labels)
    v0, row = _draw(rng, view.d, view.width, _box(system, box_scale))
    return _spec(view, v0, row)


REJECTION_REASONS = ("miss", "graze", "non_advancing", "incidence_floor",
                     "fd_quality")
"""Why the sampler rejected a candidate, in the order of its checks: the
path misses a cylinder (or runs along its axis), grazes one, does not
advance, comes closer to tangency than ``FD_INCIDENCE``, or its
finite-difference matrix failed (a probe left the valid paths, or the
columns are not tangent to the velocity sphere)."""
# Screen codes: 0 accepted, k rejected for REJECTION_REASONS[k - 1]; codes
# 1-3 are the kernel's own failure statuses.
_INCIDENCE_FLOOR, _FD_QUALITY = 4, 5

# Candidates a sample screens per stacked kernel call, 64 in all.  A block
# costs one kernel call plus one draw per candidate, and the draws past a
# sample's accepted candidate are wasted, so blocks grow: a system that
# accepts often (a d=2 sphere accepts about one candidate in seven) ends
# about half of its samples in the first block, and one that rejects
# almost every candidate (hard-ball sequences of length 3 or more) pays
# three calls per sample.
_SCREEN_BLOCKS = (4, 12, 48)


@dataclass
class DeltaReport:
    """Outcome of the expanding-dimension sampler.

    ``n_attempts`` counts the candidates examined up to each sample's
    accepted one (all 64 for a failed sample); ``rejected`` splits the
    rejected ones by reason, so ``n_attempts == sum(rejected.values()) +
    n_success``.
    """

    value: int
    d: int
    bound: int                  # d - 1 - dim(common axis directions)
    n_success: int
    n_failed_samples: int
    sample_dims: list[int]
    n_attempts: int
    rejected: dict[str, int]

    @property
    def rich(self) -> bool:
        return self.value == self.d - 1


def _delta_scan(system, labels, n_samples: int, seed: int,
                draw) -> DeltaReport:
    """Sample ``n_samples`` paths, each from its own child stream of
    ``seed``; ``draw(rng, view)`` gives one candidate as (v0, offset row).

    A sample's candidates are drawn in blocks and traced as one stack;
    ``w_plus`` runs, in draw order, only on candidates that traced clear of
    the incidence floor, and the first that succeeds is the sample.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    view = _view(system, labels)
    d = view.d
    bound = d - 1 - sequence_generator_intersection(system, labels).dim
    children = np.random.SeedSequence(seed).spawn(n_samples)
    dims: list[int] = []
    failed = 0
    attempts = 0
    outcomes = np.zeros(len(REJECTION_REASONS) + 1, dtype=np.int64)
    for child in children:
        rng = np.random.default_rng(child)
        got = None
        for size in _SCREEN_BLOCKS:
            v0s = np.empty((size, d))
            rows = np.empty((size, view.width))
            for i in range(size):
                v0s[i], rows[i] = draw(rng, view)
            stack = _collide(view, v0s, rows)
            code = np.where(stack.min_incidence < FD_INCIDENCE,
                            _INCIDENCE_FLOOR, stack.status)
            tried = size
            for i in np.flatnonzero(code == 0):
                try:
                    wp = w_plus(system, labels, _spec(view, v0s[i], rows[i]))
                except (TraceError, PerturbationFailure):
                    code[i] = _FD_QUALITY
                    continue
                got = wp.dim
                tried = i + 1       # later candidates were never needed
                break
            attempts += tried
            outcomes += np.bincount(code[:tried], minlength=outcomes.size)
            if got is not None:
                break
        if got is None:
            failed += 1
        else:
            dims.append(got)
    if not dims:
        raise NoValidPath(
            f"all {n_samples} samples failed to produce a valid path"
        )
    return DeltaReport(value=max(dims), d=d, bound=bound,
                       n_success=len(dims), n_failed_samples=failed,
                       sample_dims=dims, n_attempts=int(attempts),
                       rejected={reason: int(c) for reason, c
                                 in zip(REJECTION_REASONS, outcomes[1:])})


def delta_sigma_report(system, labels, n_samples: int, seed: int,
                       box_scale: float | None = None) -> DeltaReport:
    box = _box(system, box_scale)
    return _delta_scan(system, labels, n_samples, seed,
                       lambda rng, view: _draw(rng, view.d, view.width, box))


def delta_sigma(system, labels, n_samples: int, seed: int,
                box_scale: float | None = None) -> int:
    """Largest expanding dimension seen over sampled paths with this
    collision sequence.  Deterministic in ``seed``; monotone non-decreasing
    in ``n_samples`` for a fixed seed since samples extend prefix-stably."""
    return delta_sigma_report(system, labels, n_samples, seed,
                              box_scale).value


def delta_sigma_constrained(system, labels, base_spec: EuclideanPathSpec,
                            n_samples: int, seed: int,
                            box_scale: float | None = None) -> int:
    """Largest expanding dimension over paths sharing the base path's
    relative cylinder positions: only the initial velocity and a uniform
    translation are varied."""
    trace(system, labels, base_spec)   # base path must exist
    box = _box(system, box_scale)

    def draw(rng, view):
        v0, a = _draw(rng, view.d, view.d, box)
        # the offsets of translate_all(base with v0, a)
        return v0, _offset_row([off + b.T @ a for off, b
                                in zip(base_spec.offsets, view.bases)])

    return _delta_scan(system, labels, n_samples, seed, draw).value


def is_rich(system, labels, n_samples: int, seed: int,
            box_scale: float | None = None) -> bool:
    """Does the sequence generically expand a beam in every direction
    transverse to the motion (expanding dimension d - 1)?"""
    return delta_sigma(system, labels, n_samples, seed, box_scale) \
        == system.dim - 1


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

SIGMA_FORMAT = "cylbill-sigma"
SPEC_FORMAT = "cylbill-path-spec"


def save_sigma(labels, path) -> None:
    from . import fileio

    fileio.dump({"format": SIGMA_FORMAT, "labels": [int(x) for x in labels]},
                path)


def load_sigma(path) -> list[int]:
    from .model import SystemFormatError, load_document

    doc = load_document(path)
    if not isinstance(doc, dict) or doc.get("format") != SIGMA_FORMAT:
        raise SystemFormatError(f"{path}: not a collision-sequence file")
    labels = doc.get("labels")
    if not isinstance(labels, list) or not labels:
        raise SystemFormatError(f"{path}: 'labels' must be a nonempty array")
    try:
        return [int(x) for x in labels]
    except (TypeError, ValueError) as exc:
        raise SystemFormatError(f"{path}: bad label: {exc}") from exc


def save_path_spec(spec: EuclideanPathSpec, path) -> None:
    from . import fileio

    fileio.dump(
        {
            "format": SPEC_FORMAT,
            "v0": [float(x) for x in spec.v0],
            "offsets": [[float(x) for x in a] for a in spec.offsets],
        },
        path,
    )


def load_path_spec(path) -> EuclideanPathSpec:
    from .model import SystemFormatError, load_document

    doc = load_document(path)
    if not isinstance(doc, dict) or doc.get("format") != SPEC_FORMAT:
        raise SystemFormatError(f"{path}: not a path-spec file")
    try:
        return EuclideanPathSpec(
            v0=np.asarray(doc["v0"], dtype=float),
            offsets=tuple(np.asarray(a, dtype=float) for a in doc["offsets"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemFormatError(f"{path}: {exc}") from exc

