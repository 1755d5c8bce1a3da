"""Straight-line collision paths and their perturbation diagnostics.

A path starts at the origin with a unit velocity and reflects off a
prescribed sequence of translated cylinders; each collision time is the
smaller root of a quadratic in the base-space coordinates.  Everything
else in this module differentiates that map: how the final velocity moves
under uniform cylinder translations (one matrix whose column space /
kernel are the expanding / neutral directions), under independent
per-cylinder translations, and how large the expanding part can get over
random paths with the same collision sequence.

Derivatives are central finite differences with step ``config.FD_STEP``;
ranks of FD matrices use the looser cutoff ``config.FD_RANK_REL``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Per-sequence arrays resolved once: base bases, radii, dims."""

    __slots__ = ("labels", "bases", "radii", "dims", "d")

    def __init__(self, system, labels):
        self.labels = [int(x) for x in labels]
        for lab in self.labels:
            if not 0 <= lab < system.k:
                raise ValueError(f"label {lab} out of range for k={system.k}")
        self.bases = [system.base_space(lab).basis for lab in self.labels]
        self.radii = [system.cylinders[lab].radius for lab in self.labels]
        self.dims = [b.shape[1] for b in self.bases]
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


def trace(system, labels, spec: EuclideanPathSpec) -> EuclideanPathResult:
    """Follow the path through its collision sequence.

    Collision j happens at the smaller root of the quadratic for the
    distance to cylinder j's axis; a negative discriminant means the path
    misses, a near-zero one grazes (rejected), and a root not beyond the
    previous time by ``T_MIN_GAP`` cannot be accepted as a new collision.
    """
    view = _view(system, labels)
    _check_spec(view, spec)
    d = view.d
    m = spec.m
    x = np.zeros(d)
    v = spec.v0.copy()
    t = 0.0
    times = np.empty(m)
    points = np.empty((m, d))
    vels = np.empty((m + 1, d))
    normals = np.empty((m, d))
    vels[0] = v
    min_inc = 1.0
    for j in range(m):
        basis = view.bases[j]
        r = view.radii[j]
        w = basis.T @ x - spec.offsets[j]
        u = basis.T @ v
        uu = float(u @ u)
        if uu < 1e-24:
            raise NoRealRoot(j, "velocity is parallel to the cylinder axis")
        wu = float(w @ u)
        disc = wu * wu - uu * (float(w @ w) - r * r)
        guard = DISC * uu * r * r
        if disc < -guard:
            raise NoRealRoot(j, "path misses the cylinder")
        if disc < guard:
            raise Tangential(j, "grazing contact (discriminant within guard)")
        s = (-wu - np.sqrt(disc)) / uu
        if s <= T_MIN_GAP:
            raise NonAdvancing(
                j, f"smaller root advances by {s:.3e} <= T_MIN_GAP"
            )
        t += s
        x = x + s * v
        n_local = (w + s * u) / r
        n_local = n_local / np.linalg.norm(n_local)
        n = basis @ n_local
        min_inc = min(min_inc, abs(float(v @ n)))
        v = v - 2.0 * float(v @ n) * n
        times[j] = t
        points[j] = x
        normals[j] = n
        vels[j + 1] = v
    return EuclideanPathResult(times=times, points=points, velocities=vels,
                               normals=normals, min_incidence=min_inc)


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


def _final_velocity(system, labels, spec) -> np.ndarray:
    return trace(system, labels, spec).final_velocity


def _require_clear_of_tangency(result) -> None:
    if result.min_incidence < FD_INCIDENCE:
        raise PerturbationFailure(
            f"collision incidence {result.min_incidence:.2e} below the "
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


def dvm_matrix(system, labels, spec: EuclideanPathSpec) -> np.ndarray:
    """d x d matrix of final-velocity derivatives under uniform cylinder
    translations along the coordinate axes (central differences)."""
    view = _view(system, labels)
    d = view.d
    h = FD_STEP
    cols = np.empty((d, d))
    try:
        base = trace(system, labels, spec)
        _require_clear_of_tangency(base)
        base_vm = base.final_velocity
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            vp = _final_velocity(system, labels,
                                 translate_all(system, labels, spec, e))
            vm = _final_velocity(system, labels,
                                 translate_all(system, labels, spec, -e))
            cols[:, i] = (vp - vm) / (2.0 * h)
    except TraceError as exc:
        raise PerturbationFailure(
            f"translation probe failed ({exc}); path too close to tangency"
        ) from exc
    _check_fd_quality(cols, base_vm)
    return cols


def _each_matrix(system, labels, spec) -> np.ndarray:
    """d x (sum of base dims) matrix: final-velocity derivatives under
    independent per-cylinder translations along base coordinates."""
    view = _view(system, labels)
    h = FD_STEP
    cols = []
    try:
        base = trace(system, labels, spec)
        _require_clear_of_tangency(base)
        base_vm = base.final_velocity
        for j in range(spec.m):
            for c in range(view.dims[j]):
                step = np.zeros(view.dims[j])
                step[c] = h
                up = replace_offsets(spec, j, spec.offsets[j] + step)
                dn = replace_offsets(spec, j, spec.offsets[j] - step)
                vp = _final_velocity(system, labels, up)
                vm = _final_velocity(system, labels, dn)
                cols.append((vp - vm) / (2.0 * h))
    except TraceError as exc:
        raise PerturbationFailure(
            f"per-cylinder probe failed ({exc}); path too close to tangency"
        ) from exc
    if not cols:
        return np.zeros((view.d, 0))
    mat = np.column_stack(cols)
    _check_fd_quality(mat, base_vm)
    return mat


def replace_offsets(spec: EuclideanPathSpec, j: int, new_offset) -> EuclideanPathSpec:
    offs = list(spec.offsets)
    offs[j] = np.asarray(new_offset, dtype=float)
    return EuclideanPathSpec(v0=spec.v0, offsets=tuple(offs))


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
    d = view.d
    m = spec.m
    if m == 0:
        return d - 1
    base = trace(system, labels, spec)
    _require_clear_of_tangency(base)
    v0_tan = _tangent_basis(spec.v0)
    normal_charts = []
    for j in range(m):
        b = view.bases[j]
        n_local = b.T @ base.normals[j]
        n_local /= np.linalg.norm(n_local)
        loc = complement(Subspace(view.dims[j], n_local.reshape(-1, 1))).basis
        normal_charts.append(b @ loc)   # ambient directions tangent to the normal

    h = FD_STEP
    out_rows = (d - 1) + sum(nu - 1 for nu in view.dims)

    def coords(result: EuclideanPathResult, v0: np.ndarray) -> np.ndarray:
        parts = [v0_tan.T @ v0]
        for j in range(m):
            parts.append(normal_charts[j].T @ result.normals[j])
        return np.concatenate(parts)

    cols = []
    try:
        # initial-velocity directions, moved on the sphere
        for i in range(d - 1):
            vp = spec.v0 + h * v0_tan[:, i]
            vp /= np.linalg.norm(vp)
            vm = spec.v0 - h * v0_tan[:, i]
            vm /= np.linalg.norm(vm)
            rp = trace(system, labels,
                       EuclideanPathSpec(vp, spec.offsets))
            rm = trace(system, labels,
                       EuclideanPathSpec(vm, spec.offsets))
            cols.append((coords(rp, vp) - coords(rm, vm)) / (2.0 * h))
        # offset directions
        for j in range(m):
            for c in range(view.dims[j]):
                step = np.zeros(view.dims[j])
                step[c] = h
                rp = trace(system, labels,
                           replace_offsets(spec, j, spec.offsets[j] + step))
                rm = trace(system, labels,
                           replace_offsets(spec, j, spec.offsets[j] - step))
                cols.append((coords(rp, spec.v0) - coords(rm, spec.v0)) / (2.0 * h))
    except TraceError as exc:
        raise PerturbationFailure(
            f"chart probe failed ({exc}); path too close to tangency"
        ) from exc
    jac = np.column_stack(cols)
    assert jac.shape[0] == out_rows
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


def _default_box(system) -> float:
    return 3.0 * max(cyl.radius for cyl in system.cylinders)


def sample_spec(system, labels, rng: np.random.Generator,
                box_scale: float | None = None) -> EuclideanPathSpec:
    """Random path data: uniform unit initial velocity, offsets uniform in a
    per-base-space coordinate box."""
    view = _view(system, labels)
    box = _default_box(system) if box_scale is None else float(box_scale)
    v0 = rng.standard_normal(view.d)
    v0 /= np.linalg.norm(v0)
    offsets = tuple(
        rng.uniform(-box, box, size=view.dims[j]) for j in range(len(view.labels))
    )
    return EuclideanPathSpec(v0=v0, offsets=offsets)


@dataclass
class DeltaReport:
    """Outcome of the expanding-dimension sampler."""

    value: int
    d: int
    bound: int                  # d - 1 - dim(common axis directions)
    n_success: int
    n_failed_samples: int
    sample_dims: list[int]

    @property
    def rich(self) -> bool:
        return self.value == self.d - 1


def _delta_scan(system, labels, n_samples: int, seed: int,
                make_candidate) -> DeltaReport:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = system.dim
    bound = d - 1 - sequence_generator_intersection(system, labels).dim
    children = np.random.SeedSequence(seed).spawn(n_samples)
    best = -1
    dims: list[int] = []
    failed = 0
    max_attempts = 64
    for child in children:
        rng = np.random.default_rng(child)
        got = None
        for _ in range(max_attempts):
            spec = make_candidate(rng)
            try:
                wp = w_plus(system, labels, spec)
            except (TraceError, PerturbationFailure):
                continue
            got = wp.dim
            break
        if got is None:
            failed += 1
            continue
        dims.append(got)
        best = max(best, got)
    if best < 0:
        raise NoValidPath(
            f"all {n_samples} samples failed to produce a valid path"
        )
    return DeltaReport(value=best, d=d, bound=bound,
                       n_success=len(dims), n_failed_samples=failed,
                       sample_dims=dims)


def delta_sigma_report(system, labels, n_samples: int, seed: int,
                       box_scale: float | None = None) -> DeltaReport:
    def make(rng):
        return sample_spec(system, labels, rng, box_scale)

    return _delta_scan(system, labels, n_samples, seed, make)


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
    box = _default_box(system) if box_scale is None else float(box_scale)
    d = system.dim

    def make(rng):
        v0 = rng.standard_normal(d)
        v0 /= np.linalg.norm(v0)
        a = rng.uniform(-box, box, size=d)
        moved = translate_all(system, labels,
                              EuclideanPathSpec(v0, base_spec.offsets), a)
        return moved

    return _delta_scan(system, labels, n_samples, seed, make).value


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
    from . import fileio
    from .model import SystemFormatError

    doc = fileio.load(path)
    if not isinstance(doc, dict) or doc.get("format") != SIGMA_FORMAT:
        raise SystemFormatError(f"{path}: not a collision-sequence file")
    labels = doc.get("labels")
    if not isinstance(labels, list) or not labels:
        raise SystemFormatError(f"{path}: 'labels' must be a nonempty array")
    return [int(x) for x in labels]


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
    from . import fileio
    from .model import SystemFormatError

    doc = fileio.load(path)
    if not isinstance(doc, dict) or doc.get("format") != SPEC_FORMAT:
        raise SystemFormatError(f"{path}: not a path-spec file")
    try:
        return EuclideanPathSpec(
            v0=np.asarray(doc["v0"], dtype=float),
            offsets=tuple(np.asarray(a, dtype=float) for a in doc["offsets"]),
        )
    except (KeyError, ValueError) as exc:
        raise SystemFormatError(f"{path}: {exc}") from exc

