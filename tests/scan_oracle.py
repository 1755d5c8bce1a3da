"""Per-cylinder oracle for the stacked collision scan of
``cylbill.torusflow``.

Each cylinder is scanned on its own: its image ball is shifted to the
nearest image of the window's start, the collision quadratic is solved row
by row, and the earliest root, the second contact and the earliest graze
are folded across cylinders in index order.  It builds its own image data
(``axis_images``): the axis quotient, the projected lattice and an image
ball wider than the flow's, so a flow ball that misses a reachable image
shows as a disagreement.  It pays about thirty numpy calls per cylinder,
so it serves as a reference only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from cylbill import intlat
from cylbill.config import DISC, T_MIN_GAP
from cylbill.geometry import Lattice
from cylbill.torusflow import SingularContact


class AxisImages(NamedTuple):
    """One cylinder's axis images: the ball ``ints`` (coordinates in the
    projected ``lattice``, whose basis is ``B^T L W``) with base-space
    points ``pts``, one row per image; image ``b`` is the lattice vector
    ``cosets @ b``."""

    basis: np.ndarray
    radius: float
    translation: np.ndarray
    cosets: np.ndarray
    lattice: Lattice
    ints: np.ndarray
    pts: np.ndarray


def axis_images(system, window: float) -> list[AxisImages]:
    """Every cylinder's axis images within reach of a scan window of length
    ``window``.

    The distinct images are the cosets of the axis sublattice; the columns
    ``W`` completing its basis to a unimodular matrix represent one coset
    per integer vector.  Rounding a point to the lattice leaves it within
    a fundamental diameter of the rounded lattice point, so a ball of
    ``window + r + T_MIN_GAP`` plus that diameter holds every image a
    window (and a second contact just past its end) can reach.
    """
    out = []
    for i, cyl in enumerate(system.cylinders):
        basis = system.base_space(i).basis
        if cyl.n_generators == 0:
            cosets = np.eye(system.dim, dtype=np.int64)
        else:
            cosets = np.asarray(intlat.lattice_quotient(
                [cyl.generator_coeffs], system.dim).complement, np.int64)
        lattice = Lattice(basis.T @ (system.lattice.basis @ cosets))
        ints, pts = lattice.enumerate_ball(
            np.zeros(basis.shape[1]), window + cyl.radius + T_MIN_GAP
            + lattice.fundamental_diameter)
        out.append(AxisImages(basis, cyl.radius, cyl.translation, cosets,
                              lattice, ints, pts))
    return out


def _offsets(img: AxisImages, q: np.ndarray):
    """Base-space offsets ``B^T (q - t) - G b`` of the ball's images
    around ``q``, one row per image, and the shift that turns a row of
    ``ints`` into the image's ``b``."""
    red = img.lattice.reduced_basis
    y = img.basis.T @ (q - img.translation)
    k_red = np.round(np.linalg.solve(red, y)).astype(np.int64)
    w = (y - red @ k_red)[None, :] - img.pts
    return w, img.lattice.reduced_transform @ k_red


def scan_window(images: list[AxisImages], q: np.ndarray, v: np.ndarray,
                start: float, t_window: float):
    """Earliest admissible collision of the ray from ``q + start v`` within
    ``t_window`` of that point (at most the window ``images`` were built
    for); None if there is none.  Returns (s, cylinder, image ints, unit
    normal), with ``s`` and the time of a singular contact measured from
    ``q`` and the image in the frame of ``q``."""
    first = second = np.inf     # two earliest contacts over all images
    best = None                 # (i, b, w_hit) of the first
    graze_s = np.inf
    origin = q + start * v
    for i, img in enumerate(images):
        r = img.radius
        u = img.basis.T @ v
        uu = float(u @ u)
        if uu < 1e-24:
            continue
        w, shift = _offsets(img, origin)
        wu = w @ u
        ww = np.einsum("ij,ij->i", w, w)
        disc = wu * wu - uu * (ww - r * r)
        guard = DISC * uu * r * r
        near = np.abs(disc) < guard
        if np.any(near):
            s_t = -wu[near] / uu
            s_t = s_t[s_t > T_MIN_GAP]
            if s_t.size:
                graze_s = min(graze_s, float(s_t.min()))
        real = disc >= guard
        if not np.any(real):
            continue
        s_all = np.full(disc.shape, np.inf)
        s_all[real] = (-wu[real] - np.sqrt(disc[real])) / uu
        s_all[s_all <= T_MIN_GAP] = np.inf
        jmin = int(np.argmin(s_all))
        s_min = float(s_all[jmin])
        if not np.isfinite(s_min):
            continue
        if s_min < first:
            # rows are distinct images, so this cylinder's own second
            # contact is its second-smallest root
            s_all[jmin] = np.inf
            second = min(second, first, float(s_all.min()))
            first = s_min
            best = (i, img.ints[jmin] + shift, w[jmin] + s_min * u)
        else:
            second = min(second, s_min)
    if first <= t_window:
        i, b, w_hit = best
        if graze_s <= first + T_MIN_GAP:
            raise SingularContact("tangential", start + graze_s)
        if second - first < T_MIN_GAP:
            raise SingularContact("simultaneous", start + first)
        img = images[i]
        normal = img.basis @ (w_hit / np.linalg.norm(w_hit))
        return start + first, i, img.cosets @ b, normal
    if graze_s <= t_window:
        raise SingularContact("tangential", start + graze_s)
    return None


def min_axis_distances(images: list[AxisImages], q: np.ndarray) -> np.ndarray:
    """Distance from ``q`` to the nearest axis image, per cylinder."""
    return np.array([float(np.min(np.linalg.norm(_offsets(img, q)[0], axis=1)))
                     for img in images])
