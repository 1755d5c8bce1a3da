"""Shadow-trajectory oracle for the tangent-map Lyapunov estimator of
``cylbill.torusflow``.

The largest exponent is measured the way the two-trajectory method of
Benettin et al. does it: a shadow point ``d0`` away from the reference is
flowed alongside it, each orbit restarted at every ``renorm_dt`` window by
its own collision scans, and the phase-space separation is renormalized to
``d0`` every window.  Windows hitting grazing or simultaneous encounters
are discarded and the shadow is re-seeded; more than 20% discarded windows
marks the estimate unreliable.  It differentiates the flow by finite
differences, independently of the tangent map, and is far slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cylbill.torusflow import (
    FlowError,
    SimultaneousCollision,
    StartInside,
    TangentialCollision,
    _assert_outside,
    _flow_view,
    _reflect,
    _scan,
)


@dataclass
class ShadowResult:
    estimate: float
    window_logs: list[float]
    n_windows: int
    discarded: int
    unreliable: bool

    @property
    def stderr(self) -> float:
        if len(self.window_logs) < 2:
            return float("inf")
        arr = np.asarray(self.window_logs)
        return float(np.std(arr, ddof=1) / np.sqrt(arr.size))


def _advance(view, q, v, duration: float):
    """Propagate a state for an exact duration.  Raises on degeneracies."""
    t = 0.0
    q = q.copy()
    v = v.copy()
    while duration - t > 1e-15:
        remaining = duration - t
        hit = _scan(view, q, v, remaining)
        if hit is None:
            q = q + remaining * v
            break
        s, _, _, normal = hit
        q = q + s * v
        v = _reflect(v, normal)
        q, _ = view.lattice.wrap(q)
        t += s
    q, _ = view.lattice.wrap(q)
    return q, v


def shadow_lyapunov_max(system, phase, total_t: float, renorm_dt: float,
                        d0: float, seed: int) -> ShadowResult:
    """Largest Lyapunov exponent by shadow-trajectory renormalization."""
    if not (0 < total_t < math.inf and 0 < renorm_dt < math.inf
            and total_t / renorm_dt < math.inf):
        raise ValueError("total_t and renorm_dt must be finite and positive, "
                         "with a finite ratio")
    if not 0 < d0 <= 1e-8:
        raise ValueError("d0 must lie in (0, 1e-8]")
    view = _flow_view(system)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    d = system.dim

    def fresh_shadow(q, v):
        for _ in range(128):
            w = rng.standard_normal(d)
            w -= (w @ v) * v
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                continue
            cand = q + (d0 / nw) * w
            try:
                _assert_outside(view, cand)
            except StartInside:
                continue
            return cand, v.copy()
        raise FlowError("could not place a shadow point outside the scatterers")

    q_m, _ = system.lattice.wrap(phase.q)
    v_m = phase.v.copy()
    _assert_outside(view, q_m)
    q_s, v_s = fresh_shadow(q_m, v_m)

    n_windows = int(round(total_t / renorm_dt))
    logs: list[float] = []
    discarded = 0
    for _ in range(n_windows):
        try:
            q_m2, v_m2 = _advance(view, q_m, v_m, renorm_dt)
            q_s2, v_s2 = _advance(view, q_s, v_s, renorm_dt)
        except (TangentialCollision, SimultaneousCollision, StartInside):
            discarded += 1
            jig = rng.standard_normal(d)
            jig -= (jig @ v_m) * v_m
            nj = np.linalg.norm(jig)
            if nj > 0:
                q_try = q_m + (1e-10 / nj) * jig
                try:
                    _assert_outside(view, q_try)
                    q_m = q_try
                except StartInside:
                    pass
            q_s, v_s = fresh_shadow(q_m, v_m)
            continue
        q_m, v_m = q_m2, v_m2
        dq = system.lattice.nearest_image_delta(q_s2 - q_m)
        dv = v_s2 - v_m
        sep = float(np.sqrt(dq @ dq + dv @ dv))
        if sep < 1e-300:
            discarded += 1
            q_s, v_s = fresh_shadow(q_m, v_m)
            continue
        logs.append(float(np.log(sep / d0)))
        scale = d0 / sep
        q_s = q_m + scale * dq
        v_s = v_m + scale * dv
        v_s /= np.linalg.norm(v_s)
        try:
            _assert_outside(view, q_s)
        except StartInside:
            q_s, v_s = fresh_shadow(q_m, v_m)
    estimate = (sum(logs) / (len(logs) * renorm_dt)) if logs else 0.0
    return ShadowResult(
        estimate=estimate,
        window_logs=logs,
        n_windows=n_windows,
        discarded=discarded,
        unreliable=(discarded > 0.2 * n_windows) or not logs,
    )
