"""Per-hit oracle for the lattice images of ``cylbill.torusflow.flow``.

``flow`` records each hit raw and builds every event's image afterwards,
one ``_FlowView.image`` pass per cylinder.  This is the route it took
before: each hit's image built when it is hit, by one matrix-vector
product, plus the orbit's wrap at that moment.  The two must agree as
integers, exactly.
"""

from __future__ import annotations

import numpy as np

from cylbill import torusflow as tf


def hit_image(view, i: int, at) -> np.ndarray:
    """The image of cylinder ``i`` that a scan hit, in the frame of the
    scanned point: ``at`` holds the hit's ball column and ``k_red``."""
    col, k_red = at
    rows = slice(i * view.n, i * view.n + view.dims[i])
    return view.image_ints[i][col] \
        + view.image_red[i] @ k_red[rows].astype(np.int64)


def recording_scans(monkeypatch, stop_after: int | None = None) -> list:
    """Patch ``_Orbit.scan`` to list, for every hit it returns, the
    per-hit image plus the orbit's wrap at the scan.  With ``stop_after``,
    the scan after that many hits raises a tangential contact, as a graze
    would."""
    images = []
    scan = tf._Orbit.scan

    def recorded(orbit, horizon):
        if stop_after is not None and len(images) == stop_after:
            raise tf.SingularContact("tangential", 0.5 * horizon)
        hit = scan(orbit, horizon)
        if hit is not None:
            _, i, at, _ = hit
            images.append(hit_image(orbit.view, i, at) + orbit.wrap)
        return hit

    monkeypatch.setattr(tf._Orbit, "scan", recorded)
    return images
