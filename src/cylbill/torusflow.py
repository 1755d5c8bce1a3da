"""Event-driven billiard flow on the torus.

Between collisions the point moves in a straight line; a collision is the
earliest admissible root over all cylinders and all lattice images whose
axis is reachable in the current search window.  Images are searched in
each cylinder's base space, not in the torus, as the points of its
projected lattice (``_FlowView``).  A contact at time ``t <= T`` has its
image within ``T + r`` of the start's base-space point, so a ball of that
radius in the projected lattice lists every candidate once.  A horizon is
searched in windows of fixed length, each starting where the previous one
ended, so a long free flight costs scans, not a larger ball; the length is
two fundamental diameters of the widest projected lattice, which stays
about 1 on hard-ball systems of any size, while the system's own cell
grows with the number of balls.  One stepper carries every orbit:
``flow``, ``next_collision`` and ``lyapunov_max`` scan through its window
loop and fly, reflect and wrap through its one move, and ``n_scans``
counts its windows.  ``lyapunov_max`` runs in two passes: that stepper
records the orbit, and the tangent frame then goes through the recorded
collisions' maps, built a batch at a time.

Grazing (discriminant inside the guard) and simultaneous (two distinct
contacts within ``T_MIN_GAP``) encounters abort the computation loudly:
records carry flags, estimators discard windows, nothing is fabricated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import intlat
from .classify import SplittingWitness, is_transitive
from .config import CHUNK_ENTRIES, T_MIN_GAP, UNIT_NORM
from .errors import DegeneracyError, InputError, LimitError
from .geometry import Lattice
from .paths import _GRAZE, EuclideanPathSpec, contact_guard, contact_status

__all__ = [
    "PhasePoint",
    "CollisionEvent",
    "TrajectoryRecord",
    "FlowError",
    "StartInside",
    "SingularContact",
    "UnalignedAxisError",
    "MAX_FLOW_EVENTS",
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

MAX_FLOW_EVENTS = 10**5
"""Most collisions one ``flow`` records; a larger ``max_collisions`` is
refused before anything is flowed, and a run given only ``max_time`` stops
here.  A record's peak memory (tracemalloc, 5,000-event flows) was 0.79 kB
per event on hb(3,2) and 2.6 kB on hb(10,2) (d = 18, k = 45), where the
scan's reduced coordinates, ``k`` times the base dimension per event, weigh
most; so a full record peaks near 0.26 GB there."""
CASCADE_CAP = 10_000
"""A record stops, ``cascade_capped``, at the first event less than one
time unit after the event ``CASCADE_CAP`` before it; below
``MAX_FLOW_EVENTS``, so the guard can fire before the cap."""
MAX_LYAPUNOV_WINDOWS = 10**6
"""Most renormalization windows one ``lyapunov_max`` call runs; a larger
``round(total_t / renorm_dt)`` is refused before anything is flowed."""


class FlowError(DegeneracyError, RuntimeError):
    pass


class StartInside(FlowError):
    """The phase point starts inside a scatterer."""


class SingularContact(FlowError):
    """A singular encounter ``time`` after the scanned phase point:
    ``reason`` is one of ``DISCARD_REASONS``, a grazing contact before the
    first clean collision or two distinct contacts within ``T_MIN_GAP``."""

    def __init__(self, reason: str, time: float):
        super().__init__(f"{reason} contact at t={time:.6g}")
        self.reason = reason
        self.time = time


class UnalignedAxisError(InputError, ValueError):
    """A cylinder's axis has no integer lattice coefficients to flow on."""


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
    """A flow's collisions and how it stopped.  ``horizon`` is the
    collision horizon the flow searched with, which decides
    ``no_collision_within_horizon``; the trajectory file does not hold
    it."""

    initial: PhasePoint
    events: list[CollisionEvent]
    flags: dict
    final_q: np.ndarray | None = None
    final_v: np.ndarray | None = None
    final_wrap: np.ndarray | None = None
    total_time: float = 0.0
    horizon: float | None = None

    def prefix(self, n: int) -> "TrajectoryRecord":
        """Truncated view for combinatorial diagnostics (no final state)."""
        return TrajectoryRecord(
            initial=self.initial,
            events=self.events[:n],
            flags=dict(self.flags),
            horizon=self.horizon,
        )

    @property
    def degenerate(self) -> bool:
        """The run stopped at a degeneracy: a tangential or simultaneous
        contact, or the cascade cap."""
        flags = self.flags
        return (flags["tangential_encountered"]
                or flags["simultaneous_encountered"]
                or flags["cascade_capped"])

    @property
    def symbolic(self) -> list[int]:
        """The collision sequence: each event's cylinder, in order."""
        return [ev.cylinder for ev in self.events]

    def collided_labels(self) -> set[int]:
        return {ev.cylinder for ev in self.events}


_WINDOW_DIAMETERS = 2.0
"""Scan window length in fundamental diameters of the widest projected
lattice.  A shorter window spends more scans, most of them empty, on a long
free flight; a longer one scans a larger image ball every time.  Against 2
(``BENCH_ball_pad.json``, CPU time): a 200-collision flow of three hard
discs with its splitting checks costs 5% less at 1 and 9% more at 4; a
Lyapunov run in d = 2 costs 16% (Sinai) and 33% (two discs) more at 1 and
within 6% of it at 3 and 4; and hard-ball flows cost 5% (hb(4,3)) to 42%
(hb(12,3)) less per collision at 1, and from 25% more (hb(8,2)) to 13 times
more (hb(12,3)) at 4.  So no one length is best for every system."""


class _FlowView:
    """Every cylinder's axis images, stacked for the collision scan and
    cached on the system.

    Lattice vectors along an axis map it onto itself, so cylinder ``i``'s
    distinct images are the cosets of its saturated axis sublattice ``K``.
    With a unimodular completion ``[K | W]``, ``W b`` represents one coset
    per integer ``b``, at base-space offset ``G b``, ``G = B^T L W`` (``B``
    the orthonormal base basis ``bases[i]``, ``L`` the lattice basis).
    ``G`` is square and invertible, so a ball of this projected lattice
    lists each image within reach once.  A cylinder without axis has
    ``W = B = I`` and the system's own lattice.

    ``window``, the scan window's length, is ``_WINDOW_DIAMETERS`` times
    the largest fundamental diameter of the projected lattices (at least
    1e-3), or, without cylinders, ``diam``, the diameter of the system's
    own cell, which sets ``flow``'s default horizon.  Each ball reaches
    ``window + r``, plus ``T_MIN_GAP`` for the second contact of a hit at
    the window's end, from any point within half the projected lattice's
    fundamental diameter of the lattice point ``offsets`` rounds it to:
    rounding the reduced coordinates leaves the point at ``red f`` from it,
    every ``|f_j| <= 1/2``, and the diameter is the largest ``|red s|``
    over sign vectors ``s`` (above 12 dimensions, the column lengths' sum,
    which bounds it).  As the window is at least the fundamental diameter,
    the ball also holds every point's nearest image.

    Each base space gets a block of ``n`` rows, ``n`` the largest base
    dimension, padded with zeros: ``bt`` (``k n x d``) stacks the ``B_i^T``
    and ``bt_t`` the ``B_i^T t_i``; ``red`` and ``red_inv`` are block
    diagonal, from the projected lattices' reduced bases.  ``pts``
    (``k x n x m``) holds each ball, padded to the largest, one coordinate
    per row, so every array pass runs along the images.  Cylinder ``i``'s
    first ``sizes[i]`` columns are its images; a padding column copies the
    ball's farthest image, so it never changes a nearest distance and the
    screen seldom passes it, and the scan's loop skips it so it never
    counts as a second contact.  Ball column ``j`` shifted by reduced
    coordinates ``k`` is the image ``W (ints_j + U k)``, ``U`` the reduced
    transform:
    ``image_ints[i]`` holds the ``W ints_j`` and ``image_red[i]`` is
    ``W U``, so ``image`` builds the images of any number of one cylinder's
    hits by one gather and one product.  ``rr`` is
    the column of squared radii, for the scan's array pass, and ``rr_list``
    the same as floats, for its loop; ``neg_guard`` is
    ``-contact_guard(1.0, rr)``, which times ``|B_i^T v|^2`` is the screen's
    bound ``-contact_guard(uu, rr)`` bit for bit.
    """

    __slots__ = ("lattice", "window", "k", "n", "bases", "dims",
                 "bt", "bt_t", "red", "red_inv", "pts", "sizes",
                 "image_ints", "image_red", "radius", "rr", "rr_list",
                 "neg_guard")

    def __init__(self, system):
        d = system.dim
        self.lattice = system.lattice
        k = self.k = system.k
        self.bases = [system.base_space(i).basis for i in range(k)]
        self.dims = [basis.shape[1] for basis in self.bases]
        n = self.n = max(self.dims, default=0)
        self.bt = np.zeros((k * n, d))
        self.bt_t = np.zeros(k * n)
        self.red = np.zeros((k * n, k * n))
        self.red_inv = np.zeros((k * n, k * n))
        self.image_red, projected = [], []
        for i, (cyl, basis) in enumerate(zip(system.cylinders, self.bases)):
            if not cyl.lattice_aligned and cyl.generator_basis.size:
                raise UnalignedAxisError(
                    f"cylinder {i} has no lattice-aligned axis; the toroidal "
                    "flow needs integer generator coefficients")
            if cyl.n_generators == 0:
                w = np.eye(d, dtype=np.int64)
                lattice = system.lattice
            else:
                w = intlat.lattice_quotient([cyl.generator_coeffs],
                                            d).complement.astype(np.int64)
                lattice = Lattice(basis.T @ (system.lattice.basis @ w))
            rows = slice(i * n, i * n + self.dims[i])
            self.bt[rows] = basis.T
            self.bt_t[rows] = basis.T @ cyl.translation
            self.red[rows, rows] = lattice.reduced_basis
            self.red_inv[rows, rows] = np.linalg.inv(lattice.reduced_basis)
            self.image_red.append(w @ lattice.reduced_transform)
            projected.append((lattice, w))
        widest = max((lattice.fundamental_diameter
                      for lattice, _ in projected), default=None)
        self.window = max(self.diam if widest is None
                          else _WINDOW_DIAMETERS * widest, 1e-3)
        self.radius = np.array([cyl.radius for cyl in system.cylinders])
        balls, self.image_ints = [], []
        for (lattice, w), r in zip(projected, self.radius.tolist()):
            ints, pts = lattice.enumerate_ball(
                np.zeros(w.shape[1]),
                self.window + r + T_MIN_GAP
                + 0.5 * lattice.fundamental_diameter + 1e-9)
            self.image_ints.append(ints @ w.T)
            balls.append(pts)
        self.sizes = [len(pts) for pts in balls]
        self.pts = np.zeros((k, n, max(self.sizes, default=0)))
        for i, pts in enumerate(balls):
            far = pts[np.argmax(np.vecdot(pts, pts))]
            self.pts[i, :self.dims[i]] = far[:, None]
            self.pts[i, :self.dims[i], :len(pts)] = pts.T
        self.rr = (self.radius ** 2)[:, None]
        self.rr_list = self.rr[:, 0].tolist()
        self.neg_guard = -contact_guard(1.0, self.rr)

    @property
    def diam(self) -> float:
        """The fundamental diameter of the system's own cell, read only by
        the default horizon and the window of a view without cylinders:
        for a system whose cylinders all have axes, the full lattice's
        reduction is paid only when one of them asks."""
        return self.lattice.fundamental_diameter

    def offsets(self, x: np.ndarray):
        """Base-space offsets ``B_i^T (x - t_i) - G_i b`` of every image
        around ``x``, stacked ``k x n x m``, and the stacked reduced
        coordinates ``k_red`` of the nearest lattice point, which shift a
        ball column to that image's ``b``."""
        y = self.bt @ x - self.bt_t
        k_red = (self.red_inv @ y).round()
        c = (y - self.red @ k_red).reshape(self.k, self.n, 1)
        return c - self.pts, k_red

    def image(self, i: int, cols, k_red: np.ndarray,
              wraps: np.ndarray) -> np.ndarray:
        """Integer coordinates of the images of cylinder ``i`` that scans
        hit, one row per hit: ``cols`` holds each hit's ball column,
        ``k_red`` (a row per hit) the stacked reduced coordinates that
        ``offsets`` gave its scan, and ``wraps`` (a row per hit) the
        orbit's ``wrap`` at the scan, which puts the image in the frame of
        the orbit's start."""
        rows = slice(i * self.n, i * self.n + self.dims[i])
        return (self.image_ints[i][cols]
                + k_red[:, rows].astype(np.int64) @ self.image_red[i].T
                + wraps)

    def distances(self, x: np.ndarray) -> np.ndarray:
        """Distance from ``x`` to the nearest image, per cylinder."""
        w, _ = self.offsets(x)
        return np.sqrt(np.min(np.add.reduce(np.square(w), axis=1), axis=1,
                              initial=np.inf))


def _flow_view(system) -> _FlowView:
    if system._flow_cache is None:
        system._flow_cache = _FlowView(system)
    return system._flow_cache


def _assert_outside(view: _FlowView, q: np.ndarray) -> None:
    # a start point may lie up to 1e-9 inside a scatterer
    inside = np.flatnonzero(view.distances(q) < view.radius - 1e-9)
    if inside.size:
        raise StartInside(f"start point lies inside cylinder {inside[0]}")


def _scan_window(view: _FlowView, q: np.ndarray, v: np.ndarray,
                 start: float, t_window: float):
    """Earliest admissible collision of the ray from ``q + start v`` within
    ``t_window`` of that point (at most ``view.window``); None if there is
    none.  Returns (s, cylinder, at, unit normal), with ``s`` and the time
    of a singular contact measured from ``q``; ``at`` holds the hit's ball
    column and ``k_red``, from which ``view.image`` builds its image in the
    frame of ``q``, only in the callers that record it.

    One array pass solves the collision quadratic on every image of every
    cylinder and screens it: an image goes on only if its discriminant
    clears ``-contact_guard`` (``view.neg_guard`` times ``|B^T v|^2``) and
    the ray heads toward it (``w . u < 0``).  Neither test drops anything
    the loop would keep: the first is ``contact_status``'s miss test on the
    discriminant, and with ``w . u >= 0`` the earlier root, the only one
    the loop takes, and the graze time ``-w . u / |u|^2`` are ``<= 0``, and
    the loop ignores every time up to ``T_MIN_GAP``.  The few screened
    images, about ten per window, go on to roots and grazes in one scalar
    loop: on arrays that short each numpy call costs more than the
    arithmetic.  The loop meets them cylinder by cylinder and decides the
    contact rule once per cylinder: ``contact_status`` on a clean
    discriminant says whether the ray runs along the axis, a miss for every
    image.  On the other images the same guard decides: one at or above
    ``contact_guard`` is clean, and only one inside it, rare, goes to
    ``contact_status`` for its miss or graze.  The loop skips padding
    columns.  Only the first contact's normal is built.
    """
    origin = q + start * v if start else q
    u = (view.bt @ v).reshape(view.k, 1, view.n)
    uu = np.vecdot(u, u)                            # k x 1
    w, k_red = view.offsets(origin)
    wu = (u @ w)[:, 0]                              # k x m
    disc = wu * wu - uu * (np.add.reduce(np.square(w), axis=1) - view.rr)
    screened = ((disc > view.neg_guard * uu) & (wu < 0)).ravel().nonzero()[0]
    if not screened.size:
        return None
    m = disc.shape[1]
    uu = uu.ravel().tolist()
    rr, sizes = view.rr_list, view.sizes
    graze_s = first = second = math.inf     # earliest graze and contacts
    j = c_at = -1
    for flat, d_s, wu_s in zip(screened.tolist(), disc.take(screened).tolist(),
                               wu.take(screened).tolist()):
        c, col = divmod(flat, m)
        if c != c_at:               # the screen lists images cylinder-major
            c_at, uu_c, rr_c, size = c, uu[c], rr[c], sizes[c]
            guard = contact_guard(uu_c, rr_c)
            along = contact_status(math.inf, uu_c, rr_c)
        if col >= size:
            continue
        if d_s < guard:
            if contact_status(d_s, uu_c, rr_c) == _GRAZE:
                s = -wu_s / uu_c
                if T_MIN_GAP < s < graze_s:
                    graze_s = s
            continue
        if along:
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
            raise SingularContact("tangential", start + graze_s)
        if second - first < T_MIN_GAP:
            raise SingularContact("simultaneous", start + first)
        i, col = divmod(j, m)
        dim = view.dims[i]
        w_hit = w[i, :dim, col] + first * u[i, 0, :dim]
        normal = view.bases[i] @ (w_hit / math.sqrt(w_hit @ w_hit))
        return start + first, i, (col, k_red), normal
    if graze_s <= t_window:
        raise SingularContact("tangential", start + graze_s)
    return None


class _Orbit:
    """A phase point stepped from collision to collision: position ``q``,
    unit velocity ``v``, ``wrap`` (the lattice shifts ``move`` took off
    ``q``, summed) and ``n_scans`` (the scan windows searched).  ``move``
    replaces ``wrap`` rather than adding to it in place, so a ``wrap`` read
    earlier keeps its value."""

    def __init__(self, view: _FlowView, q: np.ndarray, v: np.ndarray):
        self.view = view
        self.q, self.v = q, v
        self.wrap = np.zeros(q.size, dtype=np.int64)
        self.n_scans = 0

    def scan(self, horizon: float):
        """Earliest admissible collision within ``horizon``; None if there
        is none.  Returns (s, cylinder, at, unit normal) as
        ``_scan_window`` does, ``at`` in the frame of ``q``.

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
        self.q, shift = self.view.lattice.shift_into_cell(q)
        if shift is not None:
            self.wrap = self.wrap + shift


def next_collision(system, phase: PhasePoint,
                   horizon_t: float) -> CollisionEvent | None:
    """First collision after the given phase point, within ``horizon_t``.

    The event time is measured from the phase point; the lattice image is
    in the frame of the given (unwrapped) position.
    """
    view = _flow_view(system)
    _assert_outside(view, phase.q)
    orbit = _Orbit(view, phase.q, phase.v)
    hit = orbit.scan(horizon_t)
    if hit is None:
        return None
    s, i, (col, k_red), normal = hit
    image = view.image(i, [col], k_red[None], orbit.wrap[None])[0]
    return CollisionEvent(s, i, image, normal)


def _events(view: _FlowView, times: list[float], hits: list[tuple],
            normals: list[np.ndarray]) -> list[CollisionEvent]:
    """The collisions ``flow`` recorded, as events; ``hits`` holds each
    one's (cylinder, ball column, ``k_red``, ``wrap``) raw.  Each
    cylinder's lattice images are built by one ``view.image`` pass."""
    if not times:
        return []
    cylinders, cols, k_reds, wraps = zip(*hits)
    by_cylinder = np.array(cylinders)
    cols, k_reds, wraps = np.array(cols), np.array(k_reds), np.array(wraps)
    images = np.empty_like(wraps)
    for i in range(view.k):
        rows = (by_cylinder == i).nonzero()[0]
        if rows.size:
            images[rows] = view.image(i, cols[rows], k_reds[rows],
                                      wraps[rows])
    return [CollisionEvent(t, i, image, normal) for t, i, image, normal
            in zip(times, cylinders, images, normals)]


def flow(system, phase: PhasePoint, max_collisions: int | None = None,
         max_time: float | None = None,
         default_horizon: float | None = None) -> TrajectoryRecord:
    """Run the flow until a stop condition, recording every collision.

    The record keeps positions wrapped; the integer ``lattice_image`` of
    each event is expressed in the unfolded frame anchored at the wrapped
    start point, so the record can be unfolded into a straight-line path.
    Degenerate encounters stop the run and set a flag; they are never
    silently skipped.  Each collision is searched within ``horizon``
    (``default_horizon``, or 10 fundamental diameters of the system's
    cell), which the record keeps.

    The loop records each hit raw: its cylinder, ball column and ``k_red``
    as the scan found them, and the orbit's ``wrap``, which ``move``
    replaces and never changes in place.  After the loop every event's
    lattice image is built by one ``_FlowView.image`` pass per cylinder.

    At most ``MAX_FLOW_EVENTS`` collisions are recorded: a larger
    ``max_collisions`` raises ``LimitError`` before anything is
    flowed, and ``max_collisions=None`` (with a ``max_time``) means the
    cap.
    """
    if max_collisions is None and max_time is None:
        raise ValueError("need a stop condition (max_collisions or max_time)")
    # NaN fails every comparison, so it is refused here too
    if max_time is not None and not 0 <= max_time < math.inf:
        raise ValueError(f"max_time must be finite and >= 0, not {max_time}")
    if max_collisions is None:
        max_collisions = MAX_FLOW_EVENTS
    elif max_collisions < 0:
        raise ValueError(f"max_collisions must be >= 0, not {max_collisions}")
    elif max_collisions > MAX_FLOW_EVENTS:
        raise LimitError(
            "MAX_FLOW_EVENTS",
            f"max_collisions asks for {max_collisions:.3g} collisions, above "
            f"MAX_FLOW_EVENTS = {MAX_FLOW_EVENTS}")
    view = _flow_view(system)
    q0, _ = system.lattice.wrap(phase.q)
    initial = PhasePoint(q0.copy(), phase.v.copy())
    _assert_outside(view, q0)
    orbit = _Orbit(view, q0, phase.v.copy())
    t = 0.0
    times: list[float] = []
    hits: list[tuple] = []
    normals: list[np.ndarray] = []
    flags = {
        "tangential_encountered": False,
        "simultaneous_encountered": False,
        "cascade_capped": False,
        "no_collision_within_horizon": False,
    }
    horizon = (10.0 * view.diam) if default_horizon is None else default_horizon
    while len(times) < max_collisions:
        window = horizon
        remaining = None
        if max_time is not None:
            remaining = max_time - t
            if remaining <= 0:
                break
            window = min(window, remaining)
        try:
            hit = orbit.scan(window)
        except SingularContact as contact:
            flags[f"{contact.reason}_encountered"] = True
            break
        if hit is None:
            if remaining is not None and remaining <= horizon:
                orbit.move(remaining)
                t = max_time
            else:
                flags["no_collision_within_horizon"] = True
            break
        s, i, (col, k_red), normal = hit
        t += s
        times.append(t)
        hits.append((i, col, k_red, orbit.wrap))
        normals.append(normal)
        orbit.move(s, normal)
        if len(times) > CASCADE_CAP and t - times[-CASCADE_CAP - 1] < 1.0:
            flags["cascade_capped"] = True
            break
    return TrajectoryRecord(
        initial=initial,
        events=_events(view, times, hits, normals),
        flags=flags,
        final_q=orbit.q,
        final_v=orbit.v,
        final_wrap=orbit.wrap,
        total_time=t,
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# Combinatorial diagnostics over records
# ---------------------------------------------------------------------------


def detect_splitting(record: TrajectoryRecord, system) -> SplittingWitness | None:
    """Coarsest orthogonal splitting respected by every collision in the
    record; None exactly when the collided base spaces are transitive.

    The verdict depends only on the sorted tuple of collided labels, so it
    is decided once per tuple and system: the system keeps it, with the
    witness's ``assignment`` keyed by cylinder label, and each call returns
    a fresh witness with its own ``assignment`` (the parts ``b1`` and
    ``b2`` are shared)."""
    labels = tuple(sorted(record.collided_labels()))
    verdicts = system._splittings
    if labels not in verdicts:
        _, witness = is_transitive(
            [system.base_space(i) for i in labels], ambient_dim=system.dim
        )
        if witness is not None:
            witness.assignment = {labels[j]: side
                                  for j, side in witness.assignment.items()}
        verdicts[labels] = witness
    witness = verdicts[labels]
    if witness is None:
        return None
    return replace(witness, assignment=dict(witness.assignment))


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
    its end), read by the tangent pass, and ``estimate`` is their mean per
    unit time.  ``spectrum`` holds all ``2d`` exponents, largest first.
    ``n_collisions`` counts the reflections the orbit pass recorded and
    the tangent pass mapped, those of discarded windows included, and
    ``n_scans`` the collision-scan windows the orbit pass searched.
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
"""Entry size at which the tangent pass re-orthonormalizes the frame by a
QR step after a collision map.  Window ends rescale nothing, so every
vector grows from collision to collision until this cap, or the end of the
run, takes the step.  QR steps telescope, so the growth sums do not depend
on where the steps fall; but the lower directions keep only the precision
that the frame's spread of scales leaves them, so the cap trades QR steps
for roundoff in the smallest exponent: against a QR step after every
collision, it was off by up to 1.6e-8 at 1e3, and 9.2e-7 at 1e4, on the
Sinai and two-ball orbits of 500 time units that the benchmark's
lyapunov-sinai workload flows at seed 1."""


class _Batch:
    """What the orbit pass records for the tangent pass between two
    ``take``s: per collision, the flight ``s`` from the orbit's last
    collision or restart (or the batch's start), the cylinder, the
    incoming velocity and the unit normal; per window end, the number of
    collisions recorded before it and its offset from the last of them;
    and whether a discarded window restarts the orbit at its start, which
    ends the batch."""

    __slots__ = ("flights", "cylinders", "velocities", "normals", "ends",
                 "restart")

    def __init__(self):
        self.flights: list[float] = []
        self.cylinders: list[int] = []
        self.velocities: list[np.ndarray] = []
        self.normals: list[np.ndarray] = []
        self.ends: list[tuple[int, float]] = []
        self.restart = False


class _LyapunovOrbit(_Orbit):
    """The orbit pass of ``lyapunov_max``: its reference orbit and its
    renormalization windows, recorded in ``batch``; it carries no tangent
    frame.

    The orbit stands at ``q``, its last collision (or restart), and its
    window clock ``t`` later along the free flight from there: only a
    collision moves ``q``, so the orbit does not depend on where windows
    end.
    """

    def __init__(self, view: _FlowView, q, v, renorm_dt: float,
                 n_windows: int, rng: np.random.Generator):
        super().__init__(view, q, v)
        self.t = 0.0
        self.renorm_dt = renorm_dt
        self.n_windows = n_windows
        self.rng = rng
        self.closed = 0             # windows closed, kept or discarded
        self.n_collisions = 0
        self.by_reason = dict.fromkeys(DISCARD_REASONS, 0)
        self.batch = _Batch()
        self._open()

    def take(self) -> _Batch:
        """The batch recorded so far; the next one starts empty."""
        batch, self.batch = self.batch, _Batch()
        return batch

    def _open(self) -> None:
        """Start a window here, saving the state it starts from, ``t``
        after ``q``."""
        self.left = self.renorm_dt  # time to the open window's end
        self.saved = (self.q, self.t, self.v)

    def _close(self) -> None:
        self.t += self.left
        self.batch.ends.append((len(self.batch.flights), self.t))
        self.closed += 1
        self._open()

    @property
    def remaining(self) -> float:
        """Time from ``q`` to the end of the last window."""
        return self.t + self.left \
            + (self.n_windows - self.closed - 1) * self.renorm_dt

    def fly(self, s: float) -> bool:
        """Free flight to time ``s`` after ``q``, closing each window that
        ends on the way; False once the last has closed."""
        while self.t + self.left <= s:
            self._close()
            if self.closed == self.n_windows:
                return False
        self.left -= s - self.t
        self.t = s                  # exactly, so q moves as in ``flow``
        return True

    def finish(self) -> None:
        """Free flight to the end of the last window."""
        while self.closed < self.n_windows:
            self._close()

    def reflect(self, i: int, normal: np.ndarray) -> None:
        """Record the collision, ``t`` after ``q``, with the wall of
        cylinder ``i`` (unit normal ``normal``), and move the orbit there
        and reflect it."""
        batch = self.batch
        batch.flights.append(self.t)
        batch.cylinders.append(i)
        batch.velocities.append(self.v)
        batch.normals.append(normal)
        self.n_collisions += 1
        self.move(self.t, normal)
        self.t = 0.0

    def discard(self, contact: SingularContact) -> None:
        """Discard the window holding a singular contact ``contact.time``
        after ``q``: restore the state saved at its start, there step the
        point 1e-10 across the velocity, in a random direction, and go on
        from it."""
        if not self.fly(contact.time):
            return
        self.by_reason[contact.reason] += 1
        q, t, v = self.saved
        q = q + t * v
        q_try = q + 1e-10 * _across(self.rng, v)
        try:
            _assert_outside(self.view, q_try)
            q = q_try
        except StartInside:
            pass
        self.q, self.v, self.t = q, v, 0.0
        self.closed += 1
        self.batch.restart = True
        self._open()


class _TangentFrame:
    """The tangent pass of ``lyapunov_max``: a frame of ``2d`` tangent
    vectors ``(δq, δv)``, mapped through the orbit pass's batches, and its
    growth sums (Dellago, Posch and Hoover, PRE 53, 1485 (1996); Chernov
    and Markarian, *Chaotic Billiards*, ch. 3).

    ``frame`` stands at the orbit's last collision (or restart), and
    ``start`` at the open window's start, where the leading vector has log
    norm ``lead``; ``growth`` holds the logs of the QR steps taken since.
    A batch's collision maps are built at once (``maps``) and applied by
    one product each, with a QR step when the frame grows past
    ``_FRAME_CAP``.  Window ends rescale nothing: a window's log is the
    leading vector's log norm at its end less that at its start, plus its
    QR logs in the window, read for every window of a batch in one array
    pass.  That is ``log R_00`` of a QR step at the end: rescaling one
    column is a diagonal step, which leaves the other ``R_ii`` as they
    are, so the steps still telescope.  A kept window's QR logs go to the
    growth sums, a discarded window's are dropped with its frame.
    """

    def __init__(self, view: _FlowView, frame: np.ndarray):
        d = len(frame) // 2
        # P_B / r per cylinder, the curvature operator off the normal
        self.curvature = np.array(
            [basis @ basis.T / r for basis, r in
             zip(view.bases, view.radius.tolist())]).reshape(view.k, d, d)
        self.frame = self.start = frame
        self.lead = 0.0
        self.growth = np.zeros(2 * d)
        self.logs: list[float] = []
        self.log_sums = np.zeros(2 * d)

    def maps(self, flights, cylinders, velocities, normals) -> np.ndarray:
        """The collision maps ``M = J S(s)``, stacked, of collisions met
        after free flights ``s``.

        ``S(s)`` maps ``δq`` to ``δq + s δv``.  A tangent vector meets the
        wall ``τ = −(n·δq)/(v·n)`` after the orbit, displaced along it by
        ``δq_c = (I − v nᵀ/(v·n)) δq``, where the normal has turned by
        ``δn = K δq``, ``K = (P_B/r)(I − v nᵀ/(v·n))``: the curvature
        operator ``(P_B − n nᵀ)/r`` on ``δq_c ⟂ n``.  Then ``δq' = R δq``
        and ``δv' = R δv − 2[(v·δn) n + (v·n) δn]`` with
        ``R = I − 2 n nᵀ``, so ``J`` has ``R`` on its diagonal blocks and
        ``C = −2(n vᵀ + (v·n) I) K`` below them, and
        ``M = [[R, s R], [C, s C + R]]``.
        """
        s = np.asarray(flights)[:, None, None]
        v, n = np.asarray(velocities), np.asarray(normals)
        m, d = n.shape
        vn = np.vecdot(v, n)[:, None, None]
        curv = self.curvature[cylinders]
        k = curv - (curv @ v[:, :, None]) * (n[:, None, :] / vn)
        c = -2.0 * (n[:, :, None] * (v[:, None, :] @ k) + vn * k)
        r = np.eye(d) - 2.0 * n[:, :, None] * n[:, None, :]
        maps = np.empty((m, 2 * d, 2 * d))
        maps[:, :d, :d] = r
        maps[:, :d, d:] = s * r
        maps[:, d:, :d] = c
        maps[:, d:, d:] = s * c + r
        return maps

    def apply(self, batch: _Batch) -> None:
        """Map the frame through a batch and close its windows."""
        d2 = len(self.frame)
        d = d2 // 2
        frames = np.empty((len(batch.flights) + 1, d2, d2))
        frames[0] = self.frame
        qr_at, qr_logs = [], []
        if batch.flights:
            maps = self.maps(batch.flights, batch.cylinders,
                             batch.velocities, batch.normals)
            for j, (m, before, frame) in enumerate(
                    zip(maps, frames, frames[1:]), 1):
                np.matmul(m, before, out=frame)
                if np.abs(frame).max() > _FRAME_CAP:
                    frame[...], r = np.linalg.qr(frame)
                    qr_at.append(j)
                    qr_logs.append(np.log(np.abs(np.diagonal(r))))
        # row w: the QR logs in the w-th window the batch touches
        growth = np.zeros((len(batch.ends) + 1, d2))
        growth[0] = self.growth
        if qr_at:
            # a collision falls in the window after every end before it
            ends_before = np.searchsorted([a for a, _ in batch.ends], qr_at)
            np.add.at(growth, ends_before, qr_logs)
        if batch.ends:
            anchor, offset = zip(*batch.ends)
            lead = frames[list(anchor), :, 0]
            lead[:, :d] += np.array(offset)[:, None] * lead[:, d:]
            lead = np.log(np.linalg.norm(lead, axis=1))
            growth[:-1, 0] += np.diff(lead, prepend=self.lead)
            self.logs += growth[:-1, 0].tolist()
            self.log_sums += growth[:-1].sum(axis=0)
            self.start = frames[anchor[-1]].copy()
            self.start[:d] += offset[-1] * self.start[d:]
            self.lead = float(lead[-1])
        if batch.restart:
            self.frame, self.growth = self.start, np.zeros(d2)
        else:
            self.frame, self.growth = frames[-1].copy(), growth[-1]

    def sums(self) -> np.ndarray:
        """The growth sums of the closed windows, with the lower vectors'
        growth from their last QR step to the end of the run, where the
        frame stands at ``start``; the leading vector's is all in the
        window logs."""
        r = np.linalg.qr(self.start, mode="r")
        sums = self.log_sums + np.log(np.abs(np.diagonal(r)))
        sums[0] = self.log_sums[0]
        return sums


def lyapunov_max(system, phase: PhasePoint, total_t: float, renorm_dt: float,
                 d0: float = 1e-9, *, seed: int) -> LyapunovResult:
    """Lyapunov exponents of an orbit by the billiard tangent map.

    Only the orbit of ``phase`` is flowed, over ``round(total_t /
    renorm_dt)`` windows of length ``renorm_dt``, in two passes.  The orbit
    pass steps it by the stepper of ``flow``: each collision costs one scan
    (and a free flight one more per ``view.window`` it spans), and records
    its flight, cylinder, velocity and normal; a window's end records only
    its offset.  The tangent pass takes the records in batches of at most
    ``CHUNK_ENTRIES`` map entries (maps × ``(2d)²``), builds the batch's
    collision maps at once and applies them to a random orthonormal frame
    of all ``2d`` tangent vectors, drawn from ``seed``, by one product per
    collision.  A QR step re-orthonormalizes the frame when it grows past
    ``_FRAME_CAP`` and at the end of the run.  Each window's log is the log
    growth of the frame's leading vector over it, read at its end, a batch
    at a time; those logs and the QR steps' give every exponent.  Results
    do not depend on ``CHUNK_ENTRIES``.  A window holding a grazing or
    simultaneous contact is discarded: the state saved at its start is
    restored and the point stepped 1e-10 across the velocity in a
    direction drawn from ``seed``.  More than 20% discarded windows marks
    the estimate unreliable.

    ``d0`` must lie in (0, 1e-8] and has no effect on the result; it stays
    only because the benchmark's lyapunov-sinai workload and acceptance
    criterion 10 pass it.  No window at all raises ``ValueError``, and more
    than ``MAX_LYAPUNOV_WINDOWS`` windows raise ``LimitError``.
    """
    # NaN fails every comparison, so it is refused here too
    if not (0 < total_t < math.inf and 0 < renorm_dt < math.inf
            and total_t / renorm_dt < math.inf):
        raise ValueError("total_t and renorm_dt must be finite and positive, "
                         "with a finite ratio")
    if not 0 < d0 <= 1e-8:
        raise ValueError("d0 must lie in (0, 1e-8]")
    n_windows = int(round(total_t / renorm_dt))
    if n_windows < 1:
        raise ValueError(f"total_t / renorm_dt asks for {n_windows} windows")
    if n_windows > MAX_LYAPUNOV_WINDOWS:
        raise LimitError(
            "MAX_LYAPUNOV_WINDOWS",
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
    tangent = _TangentFrame(view, np.linalg.qr(frame)[0])
    orbit = _LyapunovOrbit(view, q, phase.v.copy(), renorm_dt, n_windows,
                           rng)
    per_batch = max(1, CHUNK_ENTRIES // (2 * d) ** 2)
    while orbit.closed < n_windows:
        if orbit.batch.restart or len(orbit.batch.flights) == per_batch:
            tangent.apply(orbit.take())
        try:
            hit = orbit.scan(orbit.remaining)
        except SingularContact as contact:
            orbit.discard(contact)
            continue
        if hit is None:
            orbit.finish()
            continue
        s, i, _, normal = hit
        if orbit.fly(s):
            orbit.reflect(i, normal)
    tangent.apply(orbit.take())
    logs = tangent.logs
    discarded = sum(orbit.by_reason.values())
    if logs:
        estimate = sum(logs) / (len(logs) * renorm_dt)
        spectrum = sorted(tangent.sums() / (len(logs) * renorm_dt),
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
        n_collisions=orbit.n_collisions,
        n_scans=orbit.n_scans,
        discarded_by_reason=orbit.by_reason,
    )


# ---------------------------------------------------------------------------
# Orbit ensembles
# ---------------------------------------------------------------------------


_START_TRIES = 1000
"""Uniform draws ``random_phase`` makes before it gives up on a start."""


def random_phase(system, rng: np.random.Generator) -> PhasePoint:
    """Uniform random phase point with the position outside all scatterers."""
    view = _flow_view(system)
    d = system.dim
    for _ in range(_START_TRIES):
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
    raise FlowError("could not sample a start point outside the scatterers "
                    f"in {_START_TRIES} tries")


@dataclass
class SplittingScanResult:
    fraction: float
    n_orbits: int
    n_with_witness: int
    n_degenerate: int
    n_horizon_stops: int    # orbits that met no collision within the horizon
    horizon: float          # the collision horizon every orbit searched with


def splitting_scan(system, n_orbits: int, n_collisions: int,
                   seed: int) -> SplittingScanResult:
    """Fraction of random orbits (fixed collision count) whose collision
    set respects some orthogonal splitting.  An orbit that stops short of
    the count, at a singular contact or with no collision within the
    horizon, is judged on the collisions it made and counted by why it
    stopped.  Orbits that collide with the same cylinders share one
    verdict, which ``detect_splitting`` decides once."""
    if n_orbits < 1 or n_collisions < 1:
        raise ValueError("n_orbits and n_collisions must be >= 1")
    children = np.random.SeedSequence(seed).spawn(n_orbits)
    hits = 0
    degenerate = 0
    horizon_stops = 0
    for child in children:
        rng = np.random.default_rng(child)
        phase = random_phase(system, rng)
        record = flow(system, phase, max_collisions=n_collisions)
        degenerate += record.degenerate
        horizon_stops += record.flags["no_collision_within_horizon"]
        if detect_splitting(record, system) is not None:
            hits += 1
    return SplittingScanResult(
        fraction=hits / n_orbits,
        n_orbits=n_orbits,
        n_with_witness=hits,
        n_degenerate=degenerate,
        n_horizon_stops=horizon_stops,
        horizon=record.horizon,
    )


def unfold_to_path(record: TrajectoryRecord, system):
    """Rebuild the record as straight-line path data: the collision
    sequence plus offsets of each hit axis image in the unfolded frame
    anchored at the record's start point."""
    q0 = record.initial.q
    labels = record.symbolic
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
    events = record.events
    d = record.initial.q.size
    # every list from one typed array's tolist(): Python floats and ints
    times = np.array([ev.time for ev in events], dtype=float).tolist()
    cylinders = np.array([ev.cylinder for ev in events],
                         dtype=np.int64).tolist()
    images = np.array([ev.lattice_image for ev in events],
                      dtype=np.int64).reshape(-1, d).tolist()
    normals = np.array([ev.normal for ev in events],
                       dtype=float).reshape(-1, d).tolist()
    return {
        "format": RECORD_FORMAT,
        "initial_q": record.initial.q.tolist(),
        "initial_v": record.initial.v.tolist(),
        "events": [
            {"time": t, "cylinder": i, "lattice_image": image,
             "normal": normal}
            for t, i, image, normal in zip(times, cylinders, images, normals)
        ],
        "symbolic": list(cylinders),
        "flags": {k: bool(v) for k, v in record.flags.items()},
        "final_q": None if record.final_q is None
        else np.asarray(record.final_q, dtype=float).tolist(),
        "final_v": None if record.final_v is None
        else np.asarray(record.final_v, dtype=float).tolist(),
        "final_wrap": None if record.final_wrap is None
        else np.asarray(record.final_wrap, dtype=np.int64).tolist(),
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
