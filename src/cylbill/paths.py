"""Straight-line collision paths and their expanding and neutral spaces.

A path starts at the origin with a unit velocity and reflects off a
prescribed sequence of translated cylinders; each collision time is the
smaller root of a quadratic in the base-space coordinates.  The rest of the
module asks how a parallel beam around such a path spreads: which uniform
cylinder translations leave every collision normal unchanged (the neutral
space), which final-velocity directions the others reach (the expanding
space), and how large the expanding part gets over random paths with the
same collision sequence.

``_collide`` solves the quadratic for a stack of N paths (N initial
velocities, N rows of concatenated offsets) and reports per row how far it
got and why it failed; ``trace`` is its one-row case.  The flow's scan
solves the same quadratic over lattice images, and ``contact_status`` is
the one rule by which both, and the δ sampler, call a contact a miss or a
graze.  The neutral space is exact: a chain of linear constraints built
from the path's own velocities, one block per collision, decided by one
SVD with the package's ``RANK_REL`` cutoff (``singular_rank``).  The δ
sampler builds each path's velocity history forward from a random initial
velocity and random normals, so every draw that clears the contact rule is
a valid path, and nothing is traced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .config import (
    AXIS_PARALLEL,
    DISC,
    SAMPLE_CHUNK,
    T_MIN_GAP,
    UNIT_NORM,
)
from .errors import DegeneracyError, LimitError
from .geometry import (
    Subspace,
    complement,
    null_space,
    singular_rank,
    span_of,
)

__all__ = [
    "EuclideanPathSpec",
    "EuclideanPathResult",
    "TraceError",
    "NoValidPath",
    "MAX_DELTA_SAMPLES",
    "trace",
    "contact_guard",
    "contact_status",
    "apply_reflections",
    "w_plus",
    "neutral_space",
    "delta_sigma_constrained",
    "delta_sigma_report",
    "REJECTION_REASONS",
    "sequence_generator_intersection",
]


MAX_DELTA_SAMPLES = 10**6
"""Most samples one δ sampler call takes: a report keeps one dimension per
sample, and ``delta_sigma_constrained`` one child stream."""


class TraceError(DegeneracyError, RuntimeError):
    """A path with the requested collision sequence does not exist here: it
    fails at collision ``step`` for ``reason``, one of
    ``REJECTION_REASONS``."""

    def __init__(self, step: int, reason: str):
        self.step = step
        self.reason = reason
        super().__init__(f"collision {step}: {_FAILURES[reason]}")


class NoValidPath(DegeneracyError, RuntimeError):
    """Every sample of a δ sampler failed to give a valid path."""


@dataclass(frozen=True, eq=False)
class EuclideanPathSpec:
    """Initial unit velocity plus one offset per collision.

    Offsets are stored in the coordinates of the corresponding base space
    (so they are confined to it by construction): offset ``a`` of a
    collision with cylinder ``i`` is the ambient vector
    ``system.base_space(i).basis @ a``.
    """

    v0: np.ndarray
    offsets: tuple[np.ndarray, ...]

    def __post_init__(self):
        v = np.asarray(self.v0, dtype=float).reshape(-1)
        if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM:
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
    """Collision times, velocity history, and unit normals.

    ``min_incidence`` is the smallest |<v, n>| over the collisions: how far
    the path stays from grazing.
    """

    times: np.ndarray        # (m,) strictly increasing, positive
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


REJECTION_REASONS = ("miss", "graze", "non_advancing")
"""Why a path failed (``TraceError.reason``), in the order of the
collision kernel's checks: ``contact_status`` calls a contact a miss (the
path misses a cylinder or runs along its axis) or a graze, or the root does
not advance beyond ``T_MIN_GAP``.  Index k is the failure status k + 1.
Among the δ samplers only a traced candidate of the constrained screen can
fail the last way: the constructive sampler draws no advances."""

# Status of a stacked row: 0 traced, else 1 + its index in REJECTION_REASONS.
_MISS, _GRAZE, _NON_ADVANCING = 1, 2, 3
_FAILURES = {
    "miss": "path misses the cylinder or runs along its axis",
    "graze": "grazing contact (discriminant within guard)",
    "non_advancing": "smaller root does not advance beyond T_MIN_GAP",
}


def contact_guard(uu, rr):
    """The contact rule's tangency guard ``DISC r² |Bᵀv|²`` on the collision
    quadratic's discriminant, given ``uu = |Bᵀv|²`` and ``rr = r²``."""
    return DISC * rr * uu


def contact_status(disc, uu, rr):
    """The one contact rule: status of a contact with the collision
    quadratic's discriminant ``disc``, given ``uu = |Bᵀv|²`` and ``rr = r²``.

    A contact is a miss (``_MISS``) if ``uu < AXIS_PARALLEL`` (the path
    runs along the axis) or ``disc <= -guard``, a graze (``_GRAZE``) if
    ``disc < guard``, and clean (0) otherwise, ``guard`` being
    ``contact_guard(uu, rr)``.  Plain comparisons and arithmetic, so it
    decides floats and arrays, elementwise, alike.  The kernels here call
    it on every contact.  The flow's scan calls it once per cylinder per
    window, on the clean discriminant ``inf``, which is a miss exactly when
    the ray runs along the axis.  The scan decides every other image by
    ``contact_guard`` alone, clean at or above it, except the rare image
    inside the guard, which it passes here.
    """
    guard = contact_guard(uu, rr)
    miss = (uu < AXIS_PARALLEL) | (disc <= -guard)
    return miss * _MISS + ((disc < guard) > miss) * _GRAZE


@dataclass(eq=False)
class _Stack:
    """N paths traced together by ``_collide``.  A failed row is NaN from
    its failing collision on, its ``min_incidence`` too."""

    times: np.ndarray          # (N, m)
    velocities: np.ndarray     # (N, m+1, d)
    normals: np.ndarray        # (N, m, d)
    min_incidence: np.ndarray  # (N,)
    status: np.ndarray         # (N,) 0 traced, else _MISS/_GRAZE/_NON_ADVANCING
    step: np.ndarray           # (N,) failing collision, -1 if traced

    def error(self, i: int) -> TraceError:
        return TraceError(int(self.step[i]),
                          REJECTION_REASONS[int(self.status[i]) - 1])


def _collide(view: _SequenceView, v0s: np.ndarray,
             offsets: np.ndarray) -> _Stack:
    """Trace N paths through the sequence at once: row i starts at the
    origin with unit velocity ``v0s[i]`` and meets cylinders offset by
    ``offsets[i]`` (the collisions' base-space offsets, concatenated).

    Collision j happens at the smaller root of the quadratic for the
    distance to cylinder j's axis.  A row fails at the first collision
    that ``contact_status`` calls a miss or a graze, or whose clean root
    does not advance beyond the previous time by ``T_MIN_GAP``; from there
    on its state is NaN, which every later step carries along.
    """
    n, d = v0s.shape
    m = len(view.labels)
    times = np.full((n, m), np.nan)
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
            rr = r * r
            disc = wu * wu - uu * (vecdot(w, w) - rr)
            code = contact_status(disc, uu, rr)
            s = (-wu - np.sqrt(disc)) / uu
            code[(code == 0) & ~(s > T_MIN_GAP)] = _NON_ADVANCING
            ok = code == 0
            if np.count_nonzero(ok) < alive:
                new = ~ok & (step < 0)      # rows failing at this collision
                status[new] = code[new]
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
            normals[:, j] = nrm
            vels[:, j + 1] = v
    return _Stack(times=times, velocities=vels,
                  normals=normals, min_incidence=inc, status=status,
                  step=step)


def trace(system, labels, spec: EuclideanPathSpec) -> EuclideanPathResult:
    """Follow the path through its collision sequence: the one-row case of
    the stacked kernel, raising ``TraceError`` at the collision where the
    path fails, with its reason among ``REJECTION_REASONS``."""
    return _trace(_SequenceView(system, labels), spec)


def _trace(view: _SequenceView,
           spec: EuclideanPathSpec) -> EuclideanPathResult:
    _check_spec(view, spec)
    stack = _collide(view, spec.v0[None, :],
                     _offset_row(spec.offsets)[None, :])
    if stack.status[0]:
        raise stack.error(0)
    return EuclideanPathResult(
        times=stack.times[0], velocities=stack.velocities[0],
        normals=stack.normals[0],
        min_incidence=float(stack.min_incidence[0]))


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
# The neutral space: an exact chain of constraints
# ---------------------------------------------------------------------------


def _constraint_stack(view: _SequenceView,
                      velocities: np.ndarray) -> np.ndarray:
    """(N, Σν, d) stack of neutrality constraints on a uniform displacement
    ``w`` of N paths, given their velocity histories (N, m+1, d).

    Displace a path by ``w``.  It meets cylinder j with the same normal iff
    ``B_jᵀ w_{j-1}`` lies in ``span(u_j)``, ``u_j = B_jᵀ v_{j-1}``: the
    displaced path then reaches the same base-space point
    ``μ_j = ⟨u_j, B_jᵀ w_{j-1}⟩ / |u_j|²`` time units earlier, and, up to a
    shift along the flow, carries on the displacement
    ``w_j = w_{j-1} − μ_j v_{j-1}``, which lies in cylinder j's axis space
    and so is fixed by the reflection.  With ``w_{j-1} = M_{j-1} w``, block
    j holds the rows ``(I − û_j û_jᵀ) B_jᵀ M_{j-1}``; the neutral space is
    the kernel of the whole stack, and it depends on the velocities alone.
    """
    n, _, d = velocities.shape
    rows = np.empty((n, view.width, d))
    chain = np.broadcast_to(np.eye(d), (n, d, d))     # M_{j-1}
    for j, (basis, cols) in enumerate(zip(view.bases, view.cols)):
        v = velocities[:, j]
        u = v @ basis
        norm = np.sqrt(np.vecdot(u, u))[:, None, None]
        u_hat = u[:, :, None] / norm                  # (N, ν, 1)
        projected = basis.T @ chain                   # B_jᵀ M_{j-1}
        along = u_hat.transpose(0, 2, 1) @ projected  # û_jᵀ B_jᵀ M_{j-1}
        rows[:, cols] = projected - u_hat * along
        chain = chain - v[:, :, None] * (along / norm)
    return rows


def _expanding_dims(view: _SequenceView,
                    velocities: np.ndarray) -> np.ndarray:
    """dim W⁺ = d − dim N per path: the rank of its constraint stack, all
    paths decided by one SVD with the ``RANK_REL`` cutoff."""
    if not view.width:
        return np.zeros(velocities.shape[0], dtype=np.intp)
    return singular_rank(np.linalg.svd(_constraint_stack(view, velocities),
                                       compute_uv=False))


def _neutral(system, labels, spec: EuclideanPathSpec):
    """The exact neutral space of a path that traces, and its normals."""
    view = _SequenceView(system, labels)
    res = _trace(view, spec)
    if not view.width:
        return Subspace.full(view.d), res.normals
    stack = _constraint_stack(view, res.velocities[None])
    return null_space(stack[0]), res.normals


def neutral_space(system, labels, spec: EuclideanPathSpec) -> Subspace:
    """Directions of uniform cylinder translation that leave every
    collision normal, and so the final velocity, unchanged."""
    return _neutral(system, labels, spec)[0]


def w_plus(system, labels, spec: EuclideanPathSpec) -> Subspace:
    """Expanding directions of an initially parallel beam: the orthogonal
    complement of the neutral space carried through the path's
    reflections, of dimension d - dim N.  Reflections are orthogonal, so
    this is the reflected complement of the neutral space, and its basis
    stays orthonormal."""
    neutral, normals = _neutral(system, labels, spec)
    return Subspace(neutral.ambient_dim,
                    apply_reflections(complement(neutral).basis, normals))


# ---------------------------------------------------------------------------
# Typical expanding dimension over sampled paths
# ---------------------------------------------------------------------------


def sequence_generator_intersection(system, labels) -> Subspace:
    """Common axis directions of the touched cylinders (translations along
    them change nothing about the path): the intersection of their
    generator spaces, which is the orthogonal complement of the span of
    their base spaces."""
    distinct = sorted(set(int(x) for x in labels))
    return complement(span_of([system.base_space(i) for i in distinct],
                              ambient_dim=system.dim))


# Candidates a constrained sample screens, traced as one stack.
_SCREEN = 64


@dataclass
class DeltaReport:
    """Outcome of an expanding-dimension sampler.

    ``n_attempts`` counts the candidate paths examined: one per sample for
    the constructive sampler, and for the constrained screen the
    candidates up to each sample's first traced one (all 64 for a failed
    sample).  ``rejected`` splits the failed candidates by reason, so
    ``n_attempts == sum(rejected.values()) + n_success``.
    """

    value: int
    d: int
    bound: int                  # dim(span of touched base spaces) - 1
    n_success: int
    n_failed_samples: int
    sample_dims: list[int]
    n_attempts: int
    rejected: dict[str, int]

    @property
    def rich(self) -> bool:
        return self.value == self.d - 1


def _report(system, labels, view: _SequenceView, dims: list[int],
            n_samples: int, codes: np.ndarray) -> DeltaReport:
    """Report over the accepted paths' expanding dimensions; ``codes``
    holds the status of every candidate examined."""
    if not dims:
        raise NoValidPath(
            f"all {n_samples} samples failed to produce a valid path"
        )
    counts = np.bincount(codes, minlength=len(REJECTION_REASONS) + 1)
    bound = view.d - 1 - sequence_generator_intersection(system, labels).dim
    return DeltaReport(value=max(dims), d=view.d, bound=bound,
                       n_success=len(dims),
                       n_failed_samples=n_samples - len(dims),
                       sample_dims=dims, n_attempts=int(codes.size),
                       rejected={reason: int(c) for reason, c
                                 in zip(REJECTION_REASONS, counts[1:])})


def _construct(view: _SequenceView, v0s: np.ndarray,
               normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Velocity histories (N, m+1, d) of N paths built forward, and their
    statuses: row i starts with unit velocity ``v0s[i]`` and reflects off
    cylinder j at the unit base normal along ``normals[i]``'s columns for
    j.  No advance is drawn: the neutral space depends on the velocities
    alone, and the flights would only place the cylinders.

    Facing the incoming velocity, the normal makes the contact the smaller
    root of the collision quadratic, whose discriminant is ``r²(u·n)²``;
    so a row fails at the first collision that ``contact_status`` calls a
    miss or a graze, given the discriminant per unit ``r²``, ``(u·n)²``,
    with ``rr = 1``.  Neither the status nor the reflection depends on the
    normal's sign.
    """
    n, d = v0s.shape
    vels = np.empty((n, len(view.labels) + 1, d))
    status = np.zeros(n, dtype=np.intp)
    v = vels[:, 0] = v0s
    vecdot = np.vecdot
    for j, (basis, cols) in enumerate(zip(view.bases, view.cols)):
        u = v @ basis
        n_local = normals[:, cols]
        n_local = n_local / np.sqrt(vecdot(n_local, n_local))[:, None]
        un = vecdot(u, n_local)
        uu = vecdot(u, u)
        code = contact_status(un * un, uu, 1.0)
        new = (code != 0) & (status == 0)
        status[new] = code[new]
        v = v - 2.0 * un[:, None] * (n_local @ basis.T)
        vels[:, j + 1] = v
    return vels, status


def _free_draws(view: _SequenceView, n_samples: int, seed: int):
    """The constructive sampler's draws, in chunks of ``SAMPLE_CHUNK``
    samples: unit initial velocities and unnormalized base normals.  Each
    quantity comes from its own child stream of ``seed``, drawn chunk after
    chunk, so that the draws of k samples are a prefix of the draws of
    more."""
    # child 1 held the advances once; skipping it keeps every seed's samples
    v_rng, _, n_rng = (np.random.default_rng(child) for child
                       in np.random.SeedSequence(seed).spawn(3))
    for done in range(0, n_samples, SAMPLE_CHUNK):
        n = min(SAMPLE_CHUNK, n_samples - done)
        v0s = v_rng.standard_normal((n, view.d))
        v0s /= np.sqrt(np.vecdot(v0s, v0s))[:, None]
        yield v0s, n_rng.standard_normal((n, view.width))


def _check_samples(n_samples: int) -> None:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_samples > MAX_DELTA_SAMPLES:
        raise LimitError(
            "MAX_DELTA_SAMPLES",
            f"{n_samples} samples exceed MAX_DELTA_SAMPLES = "
            f"{MAX_DELTA_SAMPLES}")


def delta_sigma_report(system, labels, n_samples: int,
                       seed: int) -> DeltaReport:
    """Expanding dimension over ``n_samples`` paths with this collision
    sequence, each built forward from random draws, so that every sample
    is a valid path unless a draw breaks one of the kernel's guards.  The
    samples are built and ranked one chunk at a time, so only one chunk's
    paths and constraint stacks are held at once.  More than
    ``MAX_DELTA_SAMPLES`` samples raise ``LimitError`` before any
    path is built."""
    _check_samples(n_samples)
    view = _SequenceView(system, labels)
    dims: list[int] = []
    codes = []
    for draws in _free_draws(view, n_samples, seed):
        velocities, status = _construct(view, *draws)
        dims += _expanding_dims(view, velocities[status == 0]).tolist()
        codes.append(status)
    return _report(system, labels, view, dims, n_samples,
                   np.concatenate(codes))


def _constrained_report(system, labels, base_spec: EuclideanPathSpec,
                        n_samples: int, seed: int) -> DeltaReport:
    """The sampler of ``delta_sigma_constrained``.  Each sample draws
    ``_SCREEN`` unit velocities, then as many translations uniform in the
    box of half-width three times the largest radius, from its own child
    stream of ``seed``, traces the candidates as one stack and keeps the
    first that traces."""
    _check_samples(n_samples)
    view = _SequenceView(system, labels)
    _trace(view, base_spec)   # base path must exist
    box = 3.0 * max(cyl.radius for cyl in system.cylinders)
    # a translation a moves every offset by its base projection: a @ bases
    bases = np.hstack([np.zeros((view.d, 0)), *view.bases])
    base_row = _offset_row(base_spec.offsets)
    accepted, codes = [], []
    for child in np.random.SeedSequence(seed).spawn(n_samples):
        rng = np.random.default_rng(child)
        v0s = rng.standard_normal((_SCREEN, view.d))
        v0s /= np.sqrt(np.vecdot(v0s, v0s))[:, None]
        rows = base_row + rng.uniform(-box, box,
                                      size=(_SCREEN, view.d)) @ bases
        stack = _collide(view, v0s, rows)
        traced = np.flatnonzero(stack.status == 0)
        if traced.size:
            codes.append(stack.status[:traced[0] + 1])
            accepted.append(stack.velocities[traced[0]])
        else:
            codes.append(stack.status)
    dims = _expanding_dims(view, np.array(accepted).reshape(
        -1, len(view.labels) + 1, view.d)).tolist()
    return _report(system, labels, view, dims, n_samples,
                   np.concatenate(codes))


def delta_sigma_constrained(system, labels, base_spec: EuclideanPathSpec,
                            n_samples: int, seed: int) -> int:
    """Largest expanding dimension over paths sharing the base path's
    relative cylinder positions: only the initial velocity and a uniform
    translation are varied.  More than ``MAX_DELTA_SAMPLES`` samples raise
    ``LimitError`` before any path is traced."""
    return _constrained_report(system, labels, base_spec, n_samples,
                               seed).value


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

SIGMA_FORMAT = "cylbill-sigma"


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
    # a boolean is an int to Python, and int() would truncate 0.7 to 0
    bad = [x for x in labels if not (type(x) is int or type(x) is float
                                     and x.is_integer())]
    if bad:
        raise SystemFormatError(f"{path}: label {bad[0]!r} is not an integer")
    return [int(x) for x in labels]
