"""One-pass oracle for the two-pass Lyapunov estimator of
``cylbill.torusflow``.

``_TangentOrbit`` is the route ``lyapunov_max`` took before it split into
an orbit pass and batched collision maps: one stepper carries the tangent
frame along with the orbit, maps it collision by collision with the block
formulas of the billiard tangent map, shears it through every free flight
and closes each window as it ends, at about twenty numpy calls per
collision.  ``QRPerWindow`` closes every window with a full QR step
instead of the leading vector's norm.  Both serve as references only.
"""

from __future__ import annotations

import math

import numpy as np

from cylbill.errors import LimitError
from cylbill.torusflow import (DISCARD_REASONS, MAX_LYAPUNOV_WINDOWS,
                               LyapunovResult, SingularContact, StartInside,
                               _across, _assert_outside, _FlowView,
                               _flow_view, _FRAME_CAP, _Orbit)


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

    def reflect(self, i: int, normal: np.ndarray) -> None:
        """Move the orbit to its collision, ``t`` after ``q``, with the wall
        of cylinder ``i`` (unit normal ``normal``); reflect it and map the
        frame, which is there already, by the tangent map.

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
        basis = self.view.bases[i]
        dn = basis @ (basis.T @ wall) / self.view.radius[i]
        twice_n = 2.0 * normal[:, None]
        frame = np.empty_like(self.frame)
        frame[:d] = dq - twice_n * nq
        frame[d:] = dv - twice_n * (normal @ dv + v @ dn) - (2.0 * vn) * dn
        self.frame = frame
        if np.abs(frame).max() > _FRAME_CAP:
            self.growth += self._orthonormalize()
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


class QRPerWindow(_TangentOrbit):
    """A full QR step closes every window, as the estimator did before
    window ends took only the leading vector's norm."""

    def _close(self):
        self.growth += self._orthonormalize()
        self.logs.append(float(self.growth[0]))
        self.log_sums += self.growth
        self.closed += 1
        self._open()


def lyapunov_max(system, phase, total_t: float, renorm_dt: float,
                 d0: float = 1e-9, *, seed: int,
                 orbit_class: type[_TangentOrbit] = _TangentOrbit
                 ) -> LyapunovResult:
    """``torusflow.lyapunov_max`` in one pass, each collision mapping the
    frame as the orbit reaches it; ``orbit_class`` picks how windows
    close."""
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
    frame = np.linalg.qr(frame)[0]
    orbit = orbit_class(view, q, phase.v.copy(), frame, renorm_dt,
                        n_windows, rng)
    n_collisions = 0
    while orbit.closed < n_windows:
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
