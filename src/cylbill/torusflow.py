"""Event-driven billiard flow on the torus.

Between collisions the point moves in a straight line; a collision is the
earliest admissible root over all cylinders and all lattice images whose
axis is reachable in the current search window.  Images are searched in
each cylinder's base space, not in the torus: lattice vectors along the
axis move no image, so the distinct images of cylinder ``i`` are the points
of its projected lattice ``B_i^T L W_i``, where ``[K_i | W_i]`` is an exact
unimodular completion of the saturated axis sublattice ``K_i``.  A contact
at time ``t <= T`` has its image within ``T + r`` of the start's base-space
point, so a ball of that radius in the projected lattice lists every
candidate once.  A horizon is searched in windows of fixed length, each
starting where the previous one ended, so a long free flight costs scans,
not a larger ball; the length is two fundamental diameters of the widest
projected lattice, which stays about 1 on hard-ball systems of any size,
while the system's own cell grows with the number of balls.  One stepper
carries every orbit: ``flow``, ``next_collision`` and ``lyapunov_max`` scan
through its window loop and fly, reflect and wrap through its one move, and
``n_scans`` counts its windows.

Grazing (discriminant inside the guard) and simultaneous (two distinct
contacts within ``T_MIN_GAP``) encounters abort the computation loudly:
records carry flags, estimators discard windows, nothing is fabricated.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import intlat
from .classify import SplittingWitness, is_transitive
from .config import AXIS_PARALLEL, DISC, T_MIN_GAP, UNIT_NORM
from .errors import DegeneracyError, UsageError
from .geometry import Lattice
from .paths import EuclideanPathSpec

__all__ = [
    "PhasePoint",
    "CollisionEvent",
    "TrajectoryRecord",
    "FlowError",
    "StartInside",
    "TangentialCollision",
    "SimultaneousCollision",
    "WindowLimitError",
    "MAX_LYAPUNOV_WINDOWS",
    "next_collision",
    "flow",
    "detect_splitting",
    "lyapunov_max",
    "LyapunovResult",
    "DISCARD_REASONS",
    "splitting_scan",
    "SplittingScanResult",
    "random_phase",
    "unfold_to_path",
]

CASCADE_CAP = 1_000_000
MAX_LYAPUNOV_WINDOWS = 10**6
"""Most renormalization windows one ``lyapunov_max`` call runs; a larger
``round(total_t / renorm_dt)`` is refused before anything is flowed."""


class FlowError(DegeneracyError, RuntimeError):
    pass


class StartInside(FlowError):
    """The phase point starts inside a scatterer."""


class _SingularContact(FlowError):
    """A singular encounter ``time`` after the scanned phase point;
    ``reason`` names its kind among ``DISCARD_REASONS``."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} at t={time:.6g}")
        self.time = time


class TangentialCollision(_SingularContact):
    """A grazing contact occurred before the first clean collision."""

    reason = "tangential"


class SimultaneousCollision(_SingularContact):
    """Two distinct contacts within ``T_MIN_GAP`` of each other."""

    reason = "simultaneous"


class WindowLimitError(UsageError, ValueError):
    """A Lyapunov run asks for more than ``MAX_LYAPUNOV_WINDOWS`` windows."""


@dataclass(eq=False)
class PhasePoint:
    """Configuration point (wrapped into the fundamental cell by the flow)
    plus a unit velocity."""

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).reshape(-1)
        self.v = np.asarray(self.v, dtype=float).reshape(-1)
        if self.q.shape != self.v.shape:
            raise ValueError("position and velocity dimensions differ")
        if abs(np.linalg.norm(self.v) - 1.0) > UNIT_NORM:
            raise ValueError("velocity must be a unit vector")


@dataclass(eq=False)
class CollisionEvent:
    """One reflection: when, at which cylinder, at which lattice image
    (integer coordinates in the record's unfolded frame), with which unit
    normal.

    ``lattice_image`` is one representative of the hit axis's coset modulo
    the cylinder's axis sublattice; the representatives differ by lattice
    vectors along the axis, share the base-space offset, and so unfold
    (:func:`unfold_to_path`) to the same path.
    """

    time: float
    cylinder: int
    lattice_image: np.ndarray
    normal: np.ndarray


@dataclass(eq=False)
class TrajectoryRecord:
    initial: PhasePoint
    events: list[CollisionEvent]
    symbolic: list[int]
    flags: dict
    final_q: np.ndarray | None = None
    final_v: np.ndarray | None = None
    final_wrap: np.ndarray | None = None
    total_time: float = 0.0

    def prefix(self, n: int) -> "TrajectoryRecord":
        """Truncated view for combinatorial diagnostics (no final state)."""
        return TrajectoryRecord(
            initial=self.initial,
            events=self.events[:n],
            symbolic=self.symbolic[:n],
            flags=dict(self.flags),
        )

    def collided_labels(self) -> set[int]:
        return set(self.symbolic)


class _AxisImages:
    """The axis images of one cylinder, one per point of its projected lattice.

    Lattice vectors along the axis map the axis onto itself, so the distinct
    images are the cosets of the saturated axis sublattice ``K``.  With a
    unimodular completion ``[K | W]``, ``W b`` represents one coset per
    integer ``b``, and ``G = B^T L W`` (``B`` the orthonormal base-space
    basis, ``L`` the lattice basis) gives that image's base-space offset.
    ``G`` is square and invertible, so a ball of its lattice lists every
    image within reach exactly once.  A cylinder without axis has ``W = I``
    and ``B = I``, and uses the system's own lattice.

    The ball is enumerated once, by :meth:`enumerate`, after the view has
    set its window from every cylinder's projected ``lattice``.  It reaches
    every image a scan window of length ``window`` can hit (``window + r``,
    plus ``T_MIN_GAP`` so the second contact of a hit at the window's end
    is seen); the window is at least the lattice's fundamental diameter, so
    the ball also holds the nearest image of any point.  The image of ball
    row ``j`` shifted by the reduced coordinates ``k`` is ``W (ints[j] +
    U k)``, ``U`` the reduced transform; ``image_ints`` holds ``W ints[j]``
    row by row and ``image_red`` is ``W U``, so a hit costs one product.
    """

    __slots__ = ("basis", "radius", "translation", "cosets", "lattice",
                 "red", "red_inv", "red_transform", "ints", "pts",
                 "image_ints", "image_red")

    def __init__(self, system, i: int):
        cyl = system.cylinders[i]
        if not cyl.lattice_aligned and cyl.generator_basis.size:
            raise FlowError(
                f"cylinder {i} has no lattice-aligned axis; the toroidal "
                "flow needs integer generator coefficients"
            )
        self.basis = system.base_space(i).basis
        self.radius = cyl.radius
        self.translation = cyl.translation
        if cyl.n_generators == 0:
            self.cosets = np.eye(system.dim, dtype=np.int64)
            self.lattice = system.lattice
        else:
            quotient = intlat.lattice_quotient([cyl.generator_coeffs],
                                               system.dim)
            self.cosets = quotient.complement.astype(np.int64)
            self.lattice = Lattice(
                self.basis.T @ (system.lattice.basis @ self.cosets))
        self.red = self.lattice.reduced_basis
        self.red_inv = np.linalg.inv(self.red)
        self.red_transform = self.lattice.reduced_transform
        self.image_red = self.cosets @ self.red_transform

    def enumerate(self, window: float) -> None:
        """List the images a scan window of length ``window`` can reach."""
        half_spread = 0.5 * float(np.sum(np.linalg.norm(self.red, axis=0)))
        reach = window + self.radius + T_MIN_GAP
        self.ints, self.pts = self.lattice.enumerate_ball(
            np.zeros(self.red.shape[0]), reach + half_spread + 1e-9)
        self.image_ints = self.ints @ self.cosets.T


_WINDOW_DIAMETERS = 2.0
"""Scan window length in fundamental diameters of the widest projected
lattice.  A shorter window spends more scans, most of them empty, on a long
free flight; a longer one scans a larger image ball every time.  Against 2,
two-orbit Lyapunov runs in d = 2 cost 16% more at 1 and the same at 4, and
hard-ball flows in d = 4 to 18 cost from 24% less to 3% more at 1, and
from 14% to 7 times more at 4."""


class _FlowView:
    """Per-system arrays for the collision scan, cached on the system.

    ``window`` is the length of one scan window: a horizon longer than it
    is searched window by window, so no image ball ever grows with it.  It
    is ``_WINDOW_DIAMETERS`` times the largest fundamental diameter of the
    cylinders' projected lattices (at least 1e-3), which stays about 1
    however many balls a hard-ball system has; ``diam``, the diameter of
    the system's own cell, grows with them and sets ``flow``'s default
    horizon.  A system without cylinders scans windows of ``diam``.

    The scan treats every cylinder at once.  Each base space gets a block
    of ``n`` rows, ``n`` the largest base dimension, padded with zeros:
    ``bt`` (``k n x d``) stacks the transposed bases ``B_i^T`` and ``bt_t``
    the translations' coordinates ``B_i^T t_i``; ``red`` and ``red_inv``
    are block diagonal.  ``pts`` (``k x n x m``) holds each image ball,
    padded to the largest, one coordinate per row so that every array pass
    runs along the images.  Cylinder ``i``'s first ``sizes[i]`` columns are
    its images; a padding column is zero, a copy of the image at the ball's
    centre, so it never changes a nearest distance, and the scan's loop
    skips it so that it never counts as a second contact.  ``rr`` is the
    column of squared radii.  ``disc_rr`` lists ``DISC r_i^2``, the
    discriminant guard per unit ``|B^T v|^2``, for the scan's loop, and
    ``floor_rr`` is its negative as a column, for the scan's screen.
    """

    __slots__ = ("lattice", "diam", "window", "images", "k", "n", "bt",
                 "bt_t", "red", "red_inv", "pts", "sizes", "radius", "rr",
                 "disc_rr", "floor_rr")

    def __init__(self, system):
        self.lattice = system.lattice
        self.diam = self.lattice.fundamental_diameter
        self.images = [_AxisImages(system, i) for i in range(system.k)]
        widest = max((img.lattice.fundamental_diameter
                      for img in self.images), default=None)
        self.window = max(self.diam if widest is None
                          else _WINDOW_DIAMETERS * widest, 1e-3)
        for img in self.images:
            img.enumerate(self.window)
        k = self.k = system.k
        n = self.n = max((img.red.shape[0] for img in self.images), default=0)
        self.sizes = [len(img.pts) for img in self.images]
        self.bt = np.zeros((k * n, system.dim))
        self.bt_t = np.zeros(k * n)
        self.red = np.zeros((k * n, k * n))
        self.red_inv = np.zeros((k * n, k * n))
        self.pts = np.zeros((k, n, max(self.sizes, default=0)))
        for i, img in enumerate(self.images):
            rows = slice(i * n, i * n + img.red.shape[0])
            self.bt[rows] = img.basis.T
            self.bt_t[rows] = img.basis.T @ img.translation
            self.red[rows, rows] = img.red
            self.red_inv[rows, rows] = img.red_inv
            self.pts[i, :img.red.shape[0], :len(img.pts)] = img.pts.T
        self.radius = np.array([img.radius for img in self.images])
        self.rr = (self.radius ** 2)[:, None]
        self.disc_rr = (DISC * self.rr[:, 0]).tolist()
        self.floor_rr = -DISC * self.rr

    def offsets(self, x: np.ndarray):
        """Base-space offsets ``B_i^T (x - t_i) - G_i b`` of every image
        around ``x``, stacked ``k x n x m``, and the stacked reduced
        coordinates ``k_red`` of the nearest lattice point, which shift a
        row of ``images[i].ints`` to that image's ``b``."""
        y = self.bt @ x - self.bt_t
        k_red = (self.red_inv @ y).round()
        c = (y - self.red @ k_red).reshape(self.k, self.n, 1)
        return c - self.pts, k_red

    def distances(self, x: np.ndarray) -> np.ndarray:
        """Distance from ``x`` to the nearest image, per cylinder."""
        w, _ = self.offsets(x)
        return np.sqrt(np.min(np.square(w).sum(axis=1), axis=1,
                              initial=np.inf))


def _flow_view(system) -> _FlowView:
    if system._flow_cache is None:
        system._flow_cache = _FlowView(system)
    return system._flow_cache


def _assert_outside(view: _FlowView, q: np.ndarray, tol: float = 1e-9) -> None:
    inside = np.flatnonzero(view.distances(q) < view.radius - tol)
    if inside.size:
        raise StartInside(f"start point lies inside cylinder {inside[0]}")


def _scan_window(view: _FlowView, q: np.ndarray, v: np.ndarray,
                 start: float, t_window: float):
    """Earliest admissible collision of the ray from ``q + start v`` within
    ``t_window`` of that point (at most ``view.window``); None if there is
    none.  Returns (s, cylinder, image ints, unit normal), with ``s`` and
    the time of a singular contact measured from ``q`` and the image in
    the frame of ``q``.

    One array pass solves the collision quadratic on every image of every
    cylinder and screens it: an image goes on only if its discriminant
    clears ``-guard`` and the ray heads toward it (``w . u < 0``).  The
    second test drops nothing the loop would keep: with ``w . u >= 0``
    the earlier root, the only one the loop takes, and the graze time
    ``-w . u / |u|^2`` are ``<= 0``, and the loop ignores every time up to
    ``T_MIN_GAP``.  The few screened images, about ten per window, go on
    to roots and grazes in one scalar loop: on arrays that short each
    numpy call costs more than the arithmetic.  The loop also skips what
    the screen lets through but cannot be hit: the images of a cylinder
    with ``|B^T v|^2 < AXIS_PARALLEL``, which the ray runs parallel to,
    and padding columns.  Only the first contact's image and normal are
    built.
    """
    origin = q + start * v if start else q
    u = (view.bt @ v).reshape(view.k, 1, view.n)
    uu = np.vecdot(u, u)                            # k x 1
    w, k_red = view.offsets(origin)
    wu = (u @ w)[:, 0]                              # k x m
    disc = wu * wu - uu * (np.square(w).sum(axis=1) - view.rr)
    screened = np.flatnonzero((disc > uu * view.floor_rr) & (wu < 0))
    if not screened.size:
        return None
    m = disc.shape[1]
    uu = uu.ravel().tolist()
    disc_rr, sizes = view.disc_rr, view.sizes
    graze_s = first = second = math.inf     # earliest graze and contacts
    j = 0
    for flat, d_s, wu_s in zip(screened.tolist(), disc.take(screened).tolist(),
                               wu.take(screened).tolist()):
        c, col = divmod(flat, m)
        uu_c = uu[c]
        if uu_c < AXIS_PARALLEL or col >= sizes[c]:
            continue
        if d_s < uu_c * disc_rr[c]:     # |disc| < guard, as disc > -guard
            s = -wu_s / uu_c
            if T_MIN_GAP < s < graze_s:
                graze_s = s
            continue
        s = (-wu_s - math.sqrt(d_s)) / uu_c
        if s <= T_MIN_GAP:
            continue
        if s < first:
            first, second, j = s, first, flat
        elif s < second:
            second = s
    if first <= t_window:
        if graze_s <= first + T_MIN_GAP:
            raise TangentialCollision("grazing contact", start + graze_s)
        if second - first < T_MIN_GAP:
            raise SimultaneousCollision("two contacts within T_MIN_GAP",
                                        start + first)
        i, col = divmod(j, m)
        img = view.images[i]
        dim = img.red.shape[0]
        k_i = k_red[i * view.n:i * view.n + dim].astype(np.int64)
        image = img.image_ints[col] + img.image_red @ k_i
        w_hit = w[i, :dim, col] + first * u[i, 0, :dim]
        normal = img.basis @ (w_hit / math.sqrt(w_hit @ w_hit))
        return start + first, i, image, normal
    if graze_s <= t_window:
        raise TangentialCollision("grazing contact", start + graze_s)
    return None


class _Orbit:
    """A phase point stepped from collision to collision: position ``q``,
    unit velocity ``v``, ``wrap`` (the lattice shifts ``move`` took off
    ``q``, summed) and ``n_scans`` (the scan windows searched)."""

    def __init__(self, view: _FlowView, q: np.ndarray, v: np.ndarray):
        self.view = view
        self.q, self.v = q, v
        self.wrap = np.zeros(q.size, dtype=np.int64)
        self.n_scans = 0

    def scan(self, horizon: float):
        """Earliest admissible collision within ``horizon``; None if there
        is none.  Returns (s, cylinder, image ints, unit normal), with the
        image in the frame of ``q``.

        The horizon is searched in windows of ``view.window``.  After an
        empty window the start moves forward along ``v`` without wrapping,
        so image coordinates stay in the frame of ``q``; consecutive
        windows overlap by ``T_MIN_GAP``, the advance below which a window
        ignores roots, so no root falls between them.
        """
        if not math.isfinite(horizon):
            raise ValueError("the collision horizon must be finite")
        view = self.view
        start = 0.0
        while True:
            rest = horizon - start
            self.n_scans += 1
            hit = _scan_window(view, self.q, self.v, start,
                               min(view.window, rest))
            if hit is not None or rest <= view.window:
                return hit
            start += view.window - T_MIN_GAP

    def move(self, s: float, normal: np.ndarray | None = None) -> None:
        """Fly ``s``, reflect off the wall of unit normal ``normal`` if one
        is given, and wrap ``q`` into the cell."""
        q = self.q + s * self.v
        if normal is not None:
            self.v = self.v - 2.0 * float(self.v @ normal) * normal
        self.q, shift = self.view.lattice.wrap(q)
        self.wrap += shift


def next_collision(system, phase: PhasePoint,
                   horizon_t: float) -> CollisionEvent | None:
    """First collision after the given phase point, within ``horizon_t``.

    The event time is measured from the phase point; the lattice image is
    in the frame of the given (unwrapped) position.
    """
    view = _flow_view(system)
    _assert_outside(view, phase.q)
    hit = _Orbit(view, phase.q, phase.v).scan(horizon_t)
    return None if hit is None else CollisionEvent(*hit)


def flow(system, phase: PhasePoint, max_collisions: int | None = None,
         max_time: float | None = None,
         default_horizon: float | None = None) -> TrajectoryRecord:
    """Run the flow until a stop condition, recording every collision.

    The record keeps positions wrapped; the integer ``lattice_image`` of
    each event is expressed in the unfolded frame anchored at the wrapped
    start point, so the record can be unfolded into a straight-line path.
    Degenerate encounters stop the run and set a flag; they are never
    silently skipped.
    """
    if max_collisions is None and max_time is None:
        raise ValueError("need a stop condition (max_collisions or max_time)")
    # NaN fails every comparison, so it is refused here too
    if max_time is not None and not 0 <= max_time < math.inf:
        raise ValueError(f"max_time must be finite and >= 0, not {max_time}")
    if max_collisions is not None and max_collisions < 0:
        raise ValueError(f"max_collisions must be >= 0, not {max_collisions}")
    view = _flow_view(system)
    q0, _ = system.lattice.wrap(phase.q)
    initial = PhasePoint(q0.copy(), phase.v.copy())
    _assert_outside(view, q0)
    orbit = _Orbit(view, q0, phase.v.copy())
    t = 0.0
    events: list[CollisionEvent] = []
    symbolic: list[int] = []
    flags = {
        "tangential_encountered": False,
        "simultaneous_encountered": False,
        "cascade_capped": False,
        "no_collision_within_horizon": False,
    }
    horizon = (10.0 * view.diam) if default_horizon is None else default_horizon
    recent: deque[float] = deque(maxlen=CASCADE_CAP)
    while True:
        if max_collisions is not None and len(events) >= max_collisions:
            break
        window = horizon
        remaining = None
        if max_time is not None:
            remaining = max_time - t
            if remaining <= 0:
                break
            window = min(window, remaining)
        try:
            hit = orbit.scan(window)
        except TangentialCollision:
            flags["tangential_encountered"] = True
            break
        except SimultaneousCollision:
            flags["simultaneous_encountered"] = True
            break
        if hit is None:
            if remaining is not None and remaining <= horizon:
                orbit.move(remaining)
                t = max_time
            else:
                flags["no_collision_within_horizon"] = True
            break
        s, i, image, normal = hit
        t += s
        events.append(
            CollisionEvent(time=t, cylinder=i,
                           lattice_image=image + orbit.wrap, normal=normal)
        )
        symbolic.append(i)
        orbit.move(s, normal)
        if len(recent) == CASCADE_CAP and t - recent[0] < 1.0:
            flags["cascade_capped"] = True
            break
        recent.append(t)
    return TrajectoryRecord(
        initial=initial,
        events=events,
        symbolic=symbolic,
        flags=flags,
        final_q=orbit.q,
        final_v=orbit.v,
        final_wrap=orbit.wrap,
        total_time=t,
    )


# ---------------------------------------------------------------------------
# Combinatorial diagnostics over records
# ---------------------------------------------------------------------------


def detect_splitting(record: TrajectoryRecord, system) -> SplittingWitness | None:
    """Coarsest orthogonal splitting respected by every collision in the
    record; None exactly when the collided base spaces are transitive."""
    labels = sorted(record.collided_labels())
    ok, witness = is_transitive(
        [system.base_space(i) for i in labels], ambient_dim=system.dim
    )
    if ok:
        return None
    rekeyed = {labels[j]: side for j, side in witness.assignment.items()}
    out = SplittingWitness(witness.b1, witness.b2, rekeyed,
                           degenerate=witness.degenerate)
    out.check({i: system.base_space(i) for i in rekeyed})
    return out


# ---------------------------------------------------------------------------
# Lyapunov exponents by the billiard tangent map
# ---------------------------------------------------------------------------

DISCARD_REASONS = ("tangential", "simultaneous")
"""Why ``lyapunov_max`` discards a window: it holds a grazing contact, or
two distinct contacts within ``T_MIN_GAP`` of each other."""


@dataclass
class LyapunovResult:
    """Outcome of ``lyapunov_max``.

    ``window_logs`` holds one entry per kept window, the log growth of the
    frame's leading vector over the window (``log R[0, 0]`` of a QR step at
    its end), and ``estimate`` is their mean per unit time.  ``spectrum``
    holds all ``2d`` exponents, largest first.  ``n_collisions`` counts the
    reflections applied, those of discarded windows included, and
    ``n_scans`` the collision-scan windows searched.
    ``discarded_by_reason`` splits ``discarded`` by ``DISCARD_REASONS``.
    """

    estimate: float
    window_logs: list[float]
    n_windows: int
    discarded: int
    unreliable: bool
    spectrum: list[float]
    n_collisions: int
    n_scans: int
    discarded_by_reason: dict[str, int]

    @property
    def stderr(self) -> float:
        if len(self.window_logs) < 2:
            return float("inf")
        arr = np.asarray(self.window_logs)
        return float(np.std(arr, ddof=1) / np.sqrt(arr.size))

    @property
    def pairing_residual(self) -> float:
        """``max_i |λ_i + λ_{2d+1-i}|``: zero for the exact spectrum of a
        billiard, whose exponents come in ± pairs."""
        spec = self.spectrum
        return max(abs(a + b) for a, b in zip(spec, reversed(spec)))


def _across(rng: np.random.Generator, v: np.ndarray) -> np.ndarray:
    """A random unit vector orthogonal to ``v`` (zero if none was drawn)."""
    w = rng.standard_normal(v.size)
    w -= (w @ v) * v
    nw = np.linalg.norm(w)
    return w / nw if nw > 0 else w


_FRAME_CAP = 1e3
"""Entry size at which a reflection re-orthonormalizes the frame by a QR
step.  A window's end rescales only the leading vector, so the others grow
from window to window until this cap, or the end of the run, takes the
step.  QR steps telescope, so the growth sums do not depend on where the
steps fall; but the lower directions keep only the precision that the
frame's spread of scales leaves them, so the cap trades QR steps for
roundoff in the smallest exponent: against a QR step after every
reflection, it was off by up to 1.1e-7 at 1e3, and 3.3e-5 at 1e4, on Sinai
and two-ball orbits of 500 time units."""


class _TangentOrbit(_Orbit):
    """The reference orbit of ``lyapunov_max``, its tangent frame and the
    renormalization windows closed so far.

    The orbit stands at ``q``, its last collision (or restart), and the
    frame ``t`` later along the free flight from there: only a collision
    moves ``q``, so the orbit does not depend on where windows end.  The
    frame's columns are tangent vectors ``(δq, δv)``.  A free flight of
    ``s`` maps each by ``δq += s δv``, a reflection by the billiard tangent
    map.  A QR step re-orthonormalizes them only when the frame grows past
    ``_FRAME_CAP`` and once at the end of the run, and its ``log |R_ii|``
    go to the growth sums (Dellago, Posch and Hoover, PRE 53, 1485 (1996);
    Chernov and Markarian, *Chaotic Billiards*, ch. 3).  A window's end
    costs only the leading vector's norm, which is ``R_00`` of a QR step
    there: dividing that vector by it is a diagonal, so upper-triangular,
    step of its own, and the steps still telescope.
    """

    def __init__(self, view: _FlowView, q, v, frame, renorm_dt: float,
                 n_windows: int, rng: np.random.Generator):
        super().__init__(view, q, v)
        self.frame = frame
        self.t = 0.0
        self.renorm_dt = renorm_dt
        self.n_windows = n_windows
        self.rng = rng
        self.closed = 0             # windows closed, kept or discarded
        self.logs: list[float] = []
        self.log_sums = np.zeros(len(frame))
        self.by_reason = dict.fromkeys(DISCARD_REASONS, 0)
        self._open()

    def _open(self) -> None:
        """Start a window here, saving the state it starts from."""
        self.left = self.renorm_dt  # time to the open window's end
        self.growth = np.zeros(len(self.frame))  # QR logs in the window
        self.saved = (self.q + self.t * self.v, self.v, self.frame.copy())

    def _shear(self, s: float) -> None:
        d = self.v.size
        self.frame[:d] += s * self.frame[d:]
        self.t += s
        self.left -= s

    def _orthonormalize(self) -> np.ndarray:
        self.frame, r = np.linalg.qr(self.frame)
        return np.log(np.abs(np.diagonal(r)))

    def _close(self) -> None:
        lead = self.frame[:, 0]
        norm = math.sqrt(lead @ lead)
        lead /= norm
        self.growth[0] += math.log(norm)
        self.logs.append(float(self.growth[0]))
        self.log_sums += self.growth
        self.closed += 1
        self._open()

    @property
    def remaining(self) -> float:
        """Time from ``q`` to the end of the last window."""
        return self.t + self.left \
            + (self.n_windows - self.closed - 1) * self.renorm_dt

    def fly(self, s: float) -> bool:
        """Free flight of the frame to time ``s`` after ``q``, closing each
        window that ends on the way; False once the last has closed."""
        while self.t + self.left <= s:
            self._shear(self.left)
            self._close()
            if self.closed == self.n_windows:
                return False
        self._shear(s - self.t)
        self.t = s                  # exactly, so q moves as in ``flow``
        return True

    def finish(self) -> None:
        """Free flight to the end of the last window."""
        while self.closed < self.n_windows:
            self._shear(self.left)
            self._close()

    def reflect(self, img: _AxisImages, normal: np.ndarray) -> None:
        """Move the orbit to its collision, ``t`` after ``q``, with the wall
        of ``img`` (unit normal ``normal``); reflect it and map the frame,
        which is there already, by the tangent map.

        A tangent vector meets the wall ``τ = −(n·δq)/(v·n)`` after the
        orbit, displaced along it by ``δq_c = δq + τ v``, where the normal
        has turned by ``δn = K δq_c`` with the curvature operator
        ``K = (P_B − n nᵀ)/r``; ``δq_c ⟂ n``, so ``δn = P_B δq_c / r``.
        Then ``δq' = R δq`` and ``δv' = R δv − 2[(v·δn) n + (v·n) δn]``,
        with ``R = I − 2 n nᵀ``.
        """
        d = self.v.size
        v = self.v
        dq, dv = self.frame[:d], self.frame[d:]
        vn = float(v @ normal)
        nq = normal @ dq
        wall = dq - v[:, None] * (nq / vn)
        dn = img.basis @ (img.basis.T @ wall) / img.radius
        twice_n = 2.0 * normal[:, None]
        frame = np.empty_like(self.frame)
        frame[:d] = dq - twice_n * nq
        frame[d:] = dv - twice_n * (normal @ dv + v @ dn) - (2.0 * vn) * dn
        self.frame = frame
        if np.abs(frame).max() > _FRAME_CAP:
            self.growth += self._orthonormalize()
        self.move(self.t, normal)
        self.t = 0.0

    def discard(self, contact: _SingularContact) -> None:
        """Discard the window holding a singular contact ``contact.time``
        after ``q``: restore the state saved at its start, there step the
        point 1e-10 across the velocity, in a random direction, and go on
        from it."""
        if not self.fly(contact.time):
            return
        self.by_reason[contact.reason] += 1
        q, v, frame = self.saved
        q_try = q + 1e-10 * _across(self.rng, v)
        try:
            _assert_outside(self.view, q_try)
            q = q_try
        except StartInside:
            pass
        self.q, self.v, self.frame, self.t = q, v, frame, 0.0
        self.closed += 1
        self._open()


def lyapunov_max(system, phase: PhasePoint, total_t: float, renorm_dt: float,
                 d0: float = 1e-9, *, seed: int) -> LyapunovResult:
    """Lyapunov exponents of an orbit by the billiard tangent map.

    Only the orbit of ``phase`` is flowed, over ``round(total_t /
    renorm_dt)`` windows of length ``renorm_dt``, by the stepper of
    ``flow``: each collision costs one scan (and a free flight one more per
    ``view.window`` it spans), and a window's end inside a free flight
    advances only the tangent frame, linearly.  A random orthonormal frame
    of all ``2d`` tangent vectors, drawn from ``seed``, goes through the
    tangent map.  Each window's end rescales its leading vector to unit
    length, which gives the window's log; a QR step re-orthonormalizes the
    whole frame when it grows past ``_FRAME_CAP`` and at the end of the
    run.  The logs of the rescalings and QR steps give every exponent.  A
    window holding a grazing or simultaneous contact is discarded: the
    state saved at its start is restored and the point stepped 1e-10
    across the velocity in a direction drawn from ``seed``.  More than 20%
    discarded windows marks the estimate unreliable.

    ``d0`` must lie in (0, 1e-8] and has no effect on the result; it stays
    only because the benchmark's lyapunov-sinai workload and acceptance
    criterion 10 pass it.  More than ``MAX_LYAPUNOV_WINDOWS`` windows raise
    ``WindowLimitError``.
    """
    # NaN fails every comparison, so it is refused here too
    if not (0 < total_t < math.inf and 0 < renorm_dt < math.inf
            and total_t / renorm_dt < math.inf):
        raise ValueError("total_t and renorm_dt must be finite and positive, "
                         "with a finite ratio")
    if not 0 < d0 <= 1e-8:
        raise ValueError("d0 must lie in (0, 1e-8]")
    n_windows = int(round(total_t / renorm_dt))
    if n_windows > MAX_LYAPUNOV_WINDOWS:
        raise WindowLimitError(
            f"total_t / renorm_dt asks for {n_windows:.3g} windows, above "
            f"MAX_LYAPUNOV_WINDOWS = {MAX_LYAPUNOV_WINDOWS}")
    view = _flow_view(system)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = system.dim
    q, _ = system.lattice.wrap(phase.q)
    _assert_outside(view, q)
    # the leading vector starts across the velocity, in position only, so
    # that a free flight leaves it unstretched
    frame = rng.standard_normal((2 * d, 2 * d))
    frame[:, 0] = 0.0
    frame[:d, 0] = _across(rng, phase.v)
    frame = np.linalg.qr(frame)[0]
    orbit = _TangentOrbit(view, q, phase.v.copy(), frame, renorm_dt,
                          n_windows, rng)
    n_collisions = 0
    while orbit.closed < n_windows:
        try:
            hit = orbit.scan(orbit.remaining)
        except _SingularContact as contact:
            orbit.discard(contact)
            continue
        if hit is None:
            orbit.finish()
            continue
        s, i, _, normal = hit
        if orbit.fly(s):
            orbit.reflect(view.images[i], normal)
            n_collisions += 1
    # the growth of the lower vectors since the last QR step
    orbit.log_sums += orbit._orthonormalize()
    logs = orbit.logs
    discarded = sum(orbit.by_reason.values())
    if logs:
        estimate = sum(logs) / (len(logs) * renorm_dt)
        spectrum = sorted(orbit.log_sums / (len(logs) * renorm_dt),
                          reverse=True)
    else:
        estimate, spectrum = 0.0, np.zeros(2 * d)
    return LyapunovResult(
        estimate=estimate,
        window_logs=logs,
        n_windows=n_windows,
        discarded=discarded,
        unreliable=(discarded > 0.2 * n_windows) or not logs,
        spectrum=[float(x) for x in spectrum],
        n_collisions=n_collisions,
        n_scans=orbit.n_scans,
        discarded_by_reason=orbit.by_reason,
    )


# ---------------------------------------------------------------------------
# Orbit ensembles
# ---------------------------------------------------------------------------


def random_phase(system, rng: np.random.Generator,
                 max_tries: int = 1000) -> PhasePoint:
    """Uniform random phase point with the position outside all scatterers."""
    view = _flow_view(system)
    d = system.dim
    for _ in range(max_tries):
        coords = rng.uniform(0.0, 1.0, size=d)
        q = system.lattice.basis @ coords
        try:
            _assert_outside(view, q)
        except StartInside:
            continue
        v = rng.standard_normal(d)
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            continue
        return PhasePoint(q, v / nv)
    raise FlowError("could not sample a start point outside the scatterers")


@dataclass
class SplittingScanResult:
    fraction: float
    n_orbits: int
    n_with_witness: int
    n_degenerate: int


def splitting_scan(system, n_orbits: int, n_collisions: int,
                   seed: int) -> SplittingScanResult:
    """Fraction of random orbits (fixed collision count) whose collision
    set respects some orthogonal splitting."""
    if n_orbits < 1 or n_collisions < 1:
        raise ValueError("n_orbits and n_collisions must be >= 1")
    children = np.random.SeedSequence(seed).spawn(n_orbits)
    hits = 0
    degenerate = 0
    for child in children:
        rng = np.random.default_rng(child)
        phase = random_phase(system, rng)
        record = flow(system, phase, max_collisions=n_collisions)
        if record.flags["tangential_encountered"] or \
                record.flags["simultaneous_encountered"]:
            degenerate += 1
        if detect_splitting(record, system) is not None:
            hits += 1
    return SplittingScanResult(
        fraction=hits / n_orbits,
        n_orbits=n_orbits,
        n_with_witness=hits,
        n_degenerate=degenerate,
    )


def unfold_to_path(record: TrajectoryRecord, system):
    """Rebuild the record as straight-line path data: the collision
    sequence plus offsets of each hit axis image in the unfolded frame
    anchored at the record's start point."""
    q0 = record.initial.q
    labels = list(record.symbolic)
    offsets = []
    for ev in record.events:
        i = ev.cylinder
        axis_point = system.cylinders[i].translation \
            + system.lattice.basis @ ev.lattice_image.astype(float) - q0
        offsets.append(system.base_space(i).basis.T @ axis_point)
    spec = EuclideanPathSpec(v0=record.initial.v, offsets=tuple(offsets))
    return labels, spec


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

RECORD_FORMAT = "cylbill-trajectory"


def record_to_dict(record: TrajectoryRecord) -> dict:
    return {
        "format": RECORD_FORMAT,
        "initial_q": [float(x) for x in record.initial.q],
        "initial_v": [float(x) for x in record.initial.v],
        "events": [
            {
                "time": float(ev.time),
                "cylinder": int(ev.cylinder),
                "lattice_image": [int(x) for x in ev.lattice_image],
                "normal": [float(x) for x in ev.normal],
            }
            for ev in record.events
        ],
        "symbolic": [int(x) for x in record.symbolic],
        "flags": {k: bool(v) for k, v in record.flags.items()},
        "final_q": None if record.final_q is None
        else [float(x) for x in record.final_q],
        "final_v": None if record.final_v is None
        else [float(x) for x in record.final_v],
        "final_wrap": None if record.final_wrap is None
        else [int(x) for x in record.final_wrap],
        "total_time": float(record.total_time),
    }


def save_record(record: TrajectoryRecord, path) -> None:
    from . import fileio

    fileio.dump(record_to_dict(record), path)


def record_table(record: TrajectoryRecord) -> str:
    """Flat tabular form, one event per row (tab-separated)."""
    lines = ["event\ttime\tcylinder\timage\tnormal"]
    for idx, ev in enumerate(record.events):
        image = ",".join(str(int(x)) for x in ev.lattice_image)
        normal = ",".join(format(float(x), ".17g") for x in ev.normal)
        lines.append(
            f"{idx}\t{format(float(ev.time), '.17g')}\t{ev.cylinder}"
            f"\t{image}\t{normal}"
        )
    return "\n".join(lines) + "\n"
