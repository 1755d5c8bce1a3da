import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from cylbill import builders, paths
from cylbill import torusflow as tf
from cylbill.classify import count_transitive_blocks, is_transitive
from cylbill.errors import LimitError
from cylbill.geometry import Lattice, complement, projector_distance
from cylbill.model import CylinderSpec, CylindricBilliardSystem, load_system
from conftest import axis_space, make_sphere_system, make_two_block_system
from image_oracle import hit_image, recording_scans
from scan_oracle import axis_images
from scan_oracle import min_axis_distances as oracle_min_axis_distances
from scan_oracle import scan_window as oracle_scan_window
from shadow_oracle import shadow_lyapunov_max
from tangent_oracle import QRPerWindow
from tangent_oracle import lyapunov_max as oracle_lyapunov_max


@pytest.fixture
def sinai():
    return make_sphere_system(2, r=0.3)


@pytest.fixture
def hardball3():
    system, _ = builders.hard_ball_system(
        builders.HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.15))
    return system


def base_offset(system, i, image):
    """Base-space offset of a lattice image of cylinder ``i``'s axis; equal
    offsets mean the same axis coset."""
    return system.base_space(i).basis.T @ (
        system.lattice.basis @ np.asarray(image, dtype=float))


def torus_oracle_first_collision(system, q0, v, t_max=10.0, n_grid=2_000_000):
    """Independent first-collision oracle on the torus: dense time stepping
    over nearby images (a vectorized coarse pass narrows the image list),
    then bisection."""
    best = None
    coarse = np.linspace(0.0, t_max, 4000)
    ts = np.linspace(0.0, t_max, n_grid)
    for i in range(system.k):
        basis = system.base_space(i).basis
        r = system.cylinders[i].radius
        t_i = system.cylinders[i].translation
        ints, pts = system.lattice.enumerate_ball(
            np.asarray(q0, float) - t_i, t_max + r + 2.0)
        if not ints.size:
            continue
        u = basis.T @ np.asarray(v, float)
        uu = float(u @ u)
        if uu < 1e-24:
            continue
        w0 = basis.T @ (np.asarray(q0, float) - t_i)
        w = w0[None, :] - pts @ basis
        wu = w @ u
        ww = np.einsum("ij,ij->i", w, w) - r * r
        # coarse dip scan, vectorized over images
        coarse_vals = (uu * coarse[None, :] ** 2
                       + 2 * wu[:, None] * coarse[None, :] + ww[:, None])
        candidates = np.nonzero(np.min(coarse_vals, axis=1) < 0.25 * r * r)[0]
        for row in candidates:
            vals = uu * ts * ts + 2 * wu[row] * ts + ww[row]
            neg = np.nonzero(vals < 0)[0]
            if not neg.size or neg[0] == 0:
                continue
            lo, hi = ts[neg[0] - 1], ts[neg[0]]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if uu * mid * mid + 2 * wu[row] * mid + ww[row] < 0:
                    hi = mid
                else:
                    lo = mid
            t_hit = 0.5 * (lo + hi)
            if best is None or t_hit < best[0]:
                best = (t_hit, i, ints[row])
    return best


class TestNextCollision:
    def test_head_on(self, sinai):
        ev = tf.next_collision(sinai, tf.PhasePoint([0.0, 0.5], [1.0, 0.0]),
                               10.0)
        assert abs(ev.time - 0.2) < 1e-12
        assert ev.cylinder == 0
        assert list(ev.lattice_image) == [0, 0]
        assert np.allclose(ev.normal, [-1.0, 0.0])

    def test_matches_torus_oracle(self, sinai, rng):
        for _ in range(12):
            phase = tf.random_phase(sinai, rng)
            ev = tf.next_collision(sinai, phase, 10.0)
            oracle = torus_oracle_first_collision(sinai, phase.q, phase.v)
            if ev is None:
                assert oracle is None or oracle[0] > 10.0
                continue
            assert oracle is not None
            assert abs(ev.time - oracle[0]) < 1e-9
            assert ev.cylinder == oracle[1]

    def test_hard_ball_matches_torus_oracle(self, hardball3):
        # the oracle scans a full lattice ball, one row per representative
        rng = np.random.default_rng(77)
        hits = 0
        for _ in range(6):
            phase = tf.random_phase(hardball3, rng)
            ev = tf.next_collision(hardball3, phase, 1.0)
            oracle = torus_oracle_first_collision(hardball3, phase.q, phase.v,
                                                  t_max=1.0, n_grid=1_000_000)
            if ev is None:
                assert oracle is None
                continue
            assert oracle is not None
            assert abs(ev.time - oracle[0]) < 1e-9
            assert ev.cylinder == oracle[1]
            i = ev.cylinder
            assert np.linalg.norm(base_offset(hardball3, i, ev.lattice_image)
                                  - base_offset(hardball3, i, oracle[2])) < 1e-9
            hits += 1
        assert hits >= 4

    def test_collision_free_direction(self):
        # small scatterer, motion along a clear lattice corridor
        system = make_sphere_system(2, r=0.1)
        ev = tf.next_collision(system, tf.PhasePoint([0.0, 0.1], [1.0, 0.0]),
                               50.0)
        assert ev is None

    def test_long_flight_matches_torus_oracle(self):
        # a shallow corridor flight whose first hit lies past 4 scan
        # windows (2 sqrt 2 each here)
        system = make_sphere_system(2, r=0.1)
        v = [np.cos(0.03), np.sin(0.03)]
        ev = tf.next_collision(system, tf.PhasePoint([0.0, 0.0], v), 50.0)
        assert ev.time > 4 * tf._flow_view(system).window
        oracle = torus_oracle_first_collision(system, [0.0, 0.0], v,
                                              t_max=20.0)
        assert abs(ev.time - oracle[0]) < 1e-9
        assert ev.cylinder == oracle[1]
        assert list(ev.lattice_image) == list(oracle[2])

    def test_start_inside_raises(self, sinai):
        with pytest.raises(tf.StartInside):
            tf.next_collision(sinai, tf.PhasePoint([0.5, 0.45], [1.0, 0.0]),
                              10.0)

    def test_vertical_corridor_from_half_edge(self, sinai):
        # from (0, 0.5) moving straight up, every axis image keeps
        # x-distance 0.5 > r: no collision ever (the oracle agrees)
        phase = tf.PhasePoint([0.0, 0.5], [0.0, 1.0])
        assert tf.next_collision(sinai, phase, 10.0) is None
        oracle = torus_oracle_first_collision(sinai, phase.q, phase.v)
        assert oracle is None

    @pytest.mark.parametrize("name", ["hb_3_2", "sinai"])
    def test_agrees_with_flows_first_event(self, name):
        # the scan hands both callers the same hit, and each builds its
        # image from it: time, cylinder, image and normal agree exactly
        system = (make_sphere_system(2, r=0.3) if name == "sinai" else
                  load_system(Path(__file__).parent / "data" / f"{name}.json"))
        horizon = 10.0 * tf._flow_view(system).diam
        rng = np.random.default_rng(2024)
        hits = 0
        for _ in range(20):
            phase = tf.random_phase(system, rng)
            q0, _ = system.lattice.wrap(phase.q)
            ev = tf.next_collision(system, tf.PhasePoint(q0, phase.v),
                                   horizon)
            record = tf.flow(system, phase, max_collisions=1,
                             default_horizon=horizon)
            assert (ev is None) == (not record.events)
            if ev is None:
                continue
            hits += 1
            first = record.events[0]
            assert ev.time == first.time
            assert ev.cylinder == first.cylinder
            assert ev.lattice_image.dtype == first.lattice_image.dtype
            assert np.array_equal(ev.lattice_image, first.lattice_image)
            assert np.array_equal(ev.normal, first.normal)
        assert hits >= 15


def _hard_balls(n, nu, r):
    return lambda: builders.hard_ball_system(
        builders.HardBallParams(n, nu, (1.0,) * n, r))[0]


def _cylinder(r, translation, axes=()):
    """A cylinder on the unit 3-torus whose axis spans the coordinate
    directions ``axes``."""
    coeffs = np.zeros((3, len(axes)), np.int64)
    for j, a in enumerate(axes):
        coeffs[a, j] = 1
    return CylinderSpec(radius=r, translation=np.asarray(translation, float),
                        generator_coeffs=coeffs)


def _mixed_dims():
    """Base dimensions 3, 2 and 1 on the unit 3-torus (a ball, a rod along
    e3 and a slab across e3), so every stacked array is padded."""
    return CylindricBilliardSystem(
        dim=3, lattice=Lattice(np.eye(3)), cylinders=[
            _cylinder(0.2, [0.5, 0.5, 0.5]),
            _cylinder(0.15, [0.1, 0.2, 0.0], axes=(2,)),
            _cylinder(0.05, [0.0, 0.0, 0.8], axes=(0, 1)),
        ])


SCAN_SYSTEMS = {
    "sinai": lambda: make_sphere_system(2, r=0.3),
    "hb22": _hard_balls(2, 2, 0.1),
    "hb32": _hard_balls(3, 2, 0.2),
    "hb43": _hard_balls(4, 3, 0.1),
    "hb62": _hard_balls(6, 2, 0.1),
    "mixed": _mixed_dims,
}


def _oracle_images(system):
    """The oracle's own axis images, for the flow's scan window."""
    return axis_images(system, tf._flow_view(system).window)


def _scan_both(system, images, q, v, start=0.0):
    """The stacked scan's and the oracle's outcome (a hit, None or the
    raised singular contact) for one window; ``images`` are the oracle's.
    Both hits read (s, cylinder, image ints, normal): the stacked scan's
    image is built from its hit by the per-hit route, ``hit_image``."""
    view = tf._flow_view(system)
    outcomes = []
    for scan, table in ((tf._scan_window, view), (oracle_scan_window, images)):
        try:
            outcomes.append(scan(table, q, v, start, view.window))
        except tf.SingularContact as contact:
            outcomes.append(contact)
    if isinstance(outcomes[0], tuple):
        s, i, at, normal = outcomes[0]
        outcomes[0] = (s, i, hit_image(view, i, at), normal)
    return outcomes


def assert_same_scan(system, new, old):
    """Same None or hit, cylinder and axis coset; time and normal within
    1e-12.  Singular contacts: same reason and time within 1e-12."""
    if isinstance(old, tf.SingularContact):
        assert isinstance(new, tf.SingularContact)
        assert new.reason == old.reason
        assert abs(new.time - old.time) <= 1e-12
        return
    assert (new is None) == (old is None)
    if old is None:
        return
    (s, i, image, normal), (s_o, i_o, image_o, normal_o) = new, old
    assert i == i_o
    assert np.linalg.norm(base_offset(system, i, image)
                          - base_offset(system, i, image_o)) < 1e-9
    assert abs(s - s_o) <= 1e-12
    assert np.abs(normal - normal_o).max() <= 1e-12


class TestStackedScan:
    """The one-pass scan over all cylinders against the per-cylinder
    oracle ``scan_oracle.scan_window``."""

    @pytest.mark.parametrize("name", sorted(SCAN_SYSTEMS))
    def test_matches_oracle_along_orbits(self, name):
        system = SCAN_SYSTEMS[name]()
        view = tf._flow_view(system)
        images = _oracle_images(system)
        rng = np.random.default_rng(1301)
        hits = 0
        for _ in range(12):
            phase = tf.random_phase(system, rng)
            q, v = phase.q, phase.v
            np.testing.assert_allclose(
                view.distances(q),
                oracle_min_axis_distances(images, q), rtol=0, atol=1e-12)
            for _ in range(8):
                # a later window too, whose start lies off the cell
                for start in (0.0, view.window - tf.T_MIN_GAP):
                    new, old = _scan_both(system, images, q, v, start)
                    assert_same_scan(system, new, old)
                if not isinstance(old, tuple):
                    break
                hits += 1
                s, _, _, normal = old
                q, _ = system.lattice.wrap(q + s * v)
                v = v - 2.0 * (v @ normal) * normal
        assert hits >= 12

    @pytest.mark.parametrize("name,v", [
        ("sinai", [1.0, 0.0]),
        ("mixed", [0.0, 0.0, 1.0]),     # the rod's |B^T v|^2 is 0
        ("mixed", [1.0, 0.0, 0.0]),     # the slab's |B^T v|^2 is 0
    ])
    def test_velocity_along_an_axis(self, name, v):
        system = SCAN_SYSTEMS[name]()
        images = _oracle_images(system)
        rng = np.random.default_rng(17)
        for _ in range(20):
            q = tf.random_phase(system, rng).q
            assert_same_scan(system,
                             *_scan_both(system, images, q, np.array(v)))

    def test_contact_rule_once_per_cylinder(self, monkeypatch):
        # with no image inside the guard the scan asks the rule only whether
        # the ray runs along an axis, once per cylinder it screens images of
        system = SCAN_SYSTEMS["hb32"]()
        phase = tf.random_phase(system, np.random.default_rng(23))
        orbit = tf._Orbit(tf._flow_view(system), phase.q, phase.v)
        discs = []
        monkeypatch.setattr(tf, "contact_status", lambda disc, uu, rr: (
            discs.append(disc) or paths.contact_status(disc, uu, rr)))
        for _ in range(200):
            s, _, _, normal = orbit.scan(100.0)
            orbit.move(s, normal)
        assert set(discs) == {np.inf}
        assert len(discs) <= system.k * orbit.n_scans

    def test_empty_system(self):
        empty = CylindricBilliardSystem(dim=2, lattice=Lattice(np.eye(2)),
                                        cylinders=[])
        q, v = np.array([0.2, 0.3]), np.array([0.6, 0.8])
        assert _scan_both(empty, _oracle_images(empty), q, v) == [None, None]
        assert tf._flow_view(empty).distances(q).shape == (0,)

    @pytest.mark.parametrize("name", ["sinai", "hb32", "mixed"])
    def test_forced_grazing(self, name):
        # shift a hitting ray across itself, inside the hit cylinder's
        # base space, until its closest approach to the axis is r
        system = SCAN_SYSTEMS[name]()
        images = _oracle_images(system)
        rng = np.random.default_rng(5)
        grazes = 0
        for _ in range(30):
            phase = tf.random_phase(system, rng)
            hit = tf.next_collision(system, phase, 10.0)
            if hit is None:
                continue
            basis = system.base_space(hit.cylinder).basis
            if basis.shape[1] < 2:
                continue        # a ray grazes a slab only along it
            r = system.cylinders[hit.cylinder].radius
            u = basis.T @ phase.v
            w_hit = r * (basis.T @ hit.normal)
            closest = w_hit - (w_hit @ u) / (u @ u) * u
            dmin = np.linalg.norm(closest)
            q = phase.q + (r - dmin) * (basis @ (closest / dmin))
            new, old = _scan_both(system, images, q, phase.v)
            assert_same_scan(system, new, old)
            grazes += getattr(old, "reason", None) == "tangential"
        assert grazes >= 5

    @pytest.mark.parametrize("second", [
        # a concentric ball 1e-11 wider: both are met within T_MIN_GAP
        _cylinder(0.2 + 1e-11, [0.5, 0.5, 0.5]),
        # a rod through the ball's centre: the ray in the plane z = 0.5
        # meets both on the ball's equator at once
        _cylinder(0.2, [0.5, 0.5, 0.0], axes=(2,)),
    ], ids=["concentric-ball", "rod-through-ball"])
    def test_forced_simultaneous(self, second):
        system = CylindricBilliardSystem(
            dim=3, lattice=Lattice(np.eye(3)),
            cylinders=[_cylinder(0.2, [0.5, 0.5, 0.5]), second])
        images = _oracle_images(system)
        rng = np.random.default_rng(9)
        for _ in range(10):
            angle = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(angle), np.sin(angle), 0.0])
            q = np.array([0.5, 0.5, 0.5]) - 0.45 * v \
                + rng.uniform(-0.1, 0.1) * np.array([-v[1], v[0], 0.0])
            new, old = _scan_both(system, images, q, v)
            assert old.reason == "simultaneous"
            assert_same_scan(system, new, old)


class TestFlow:
    def test_energy_conservation_1e3(self, sinai):
        rec = tf.flow(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                      max_collisions=1000, default_horizon=1e4)
        assert len(rec.events) == 1000
        assert abs(np.linalg.norm(rec.final_v) - 1.0) < 1e-10

    @pytest.mark.parametrize("q0", [[0.0, 0.5], [3.0, -1.5]])
    def test_callers_phase_is_left_alone(self, sinai, q0):
        """The stepper never writes into the caller's arrays, whether the
        start needs wrapping or not."""
        phase = tf.PhasePoint(q0, [0.6, 0.8])
        q, v = phase.q.copy(), phase.v.copy()
        rec = tf.flow(sinai, phase, max_collisions=20)
        for arr in (rec.initial.q, rec.initial.v, rec.final_q, rec.final_v):
            arr += 1.0
        tf.next_collision(sinai, phase, 10.0)
        tf.lyapunov_max(sinai, phase, total_t=20.0, renorm_dt=1.0, seed=0)
        assert np.array_equal(phase.q, q) and np.array_equal(phase.v, v)

    def test_specularity(self, sinai):
        rec = tf.flow(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                      max_collisions=200, default_horizon=1e4)
        v = rec.initial.v.copy()
        for ev in rec.events:
            v_post = v - 2 * (v @ ev.normal) * ev.normal
            assert abs((v_post @ ev.normal) + (v @ ev.normal)) < 1e-12
            dv = v_post - v
            gen = axis_space(sinai, ev.cylinder)
            if gen.dim:
                assert np.linalg.norm(gen.basis.T @ dv) < 1e-10
            v = v_post

    def test_non_penetration_sampled(self, sinai, rng):
        rec = tf.flow(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                      max_collisions=340, default_horizon=1e4)
        # replay and sample positions between events
        q = rec.initial.q.copy()
        v = rec.initial.v.copy()
        t_prev = 0.0
        checked = 0
        for ev in rec.events:
            for frac in rng.uniform(0.05, 0.95, size=3):
                t_s = t_prev + frac * (ev.time - t_prev)
                pos = q + (t_s - t_prev) * v
                wrapped, _ = sinai.lattice.wrap(pos)
                dmin = tf._flow_view(sinai).distances(wrapped)[0]
                assert dmin >= 0.3 - 1e-9
                checked += 1
            q = q + (ev.time - t_prev) * v
            v = v - 2 * (v @ ev.normal) * ev.normal
            t_prev = ev.time
        assert checked >= 1000

    def test_reversibility_windows(self, sinai):
        # mid-flight anchored reversal: flow for a fixed time, flip, return
        rec = tf.flow(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                      max_time=7.0, default_horizon=1e4)
        assert rec.events
        back = tf.flow(sinai, tf.PhasePoint(rec.final_q, -rec.final_v),
                       max_time=7.0, default_horizon=1e4)
        assert len(back.events) == len(rec.events)
        T = 7.0
        for j, ev in enumerate(back.events):
            mirror = rec.events[len(rec.events) - 1 - j]
            assert abs((T - mirror.time) - ev.time) < 1e-9
            assert ev.cylinder == mirror.cylinder
            assert np.array_equal(ev.lattice_image + rec.final_wrap,
                                  mirror.lattice_image)

    def test_hard_ball_reversibility_windows(self, hardball3):
        # images are coset representatives: compare them by base offset
        rng = np.random.default_rng(31)
        rec = tf.flow(hardball3, tf.random_phase(hardball3, rng),
                      max_time=3.0, default_horizon=1e4)
        assert len(rec.events) >= 3
        back = tf.flow(hardball3, tf.PhasePoint(rec.final_q, -rec.final_v),
                       max_time=3.0, default_horizon=1e4)
        assert len(back.events) == len(rec.events)
        for j, ev in enumerate(back.events):
            mirror = rec.events[len(rec.events) - 1 - j]
            assert abs((3.0 - mirror.time) - ev.time) < 1e-9
            assert ev.cylinder == mirror.cylinder
            i = ev.cylinder
            assert np.linalg.norm(
                base_offset(hardball3, i, ev.lattice_image + rec.final_wrap)
                - base_offset(hardball3, i, mirror.lattice_image)) < 1e-9

    @pytest.mark.parametrize("n, nu, seed", [(3, 3, 11), (4, 2, 12)])
    def test_hard_ball_d6_speed_conservation_1e3(self, n, nu, seed):
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(n, nu, (1.0,) * n, 0.1))
        assert system.dim == 6
        phase = tf.random_phase(system, np.random.default_rng(seed))
        rec = tf.flow(system, phase, max_collisions=1000, default_horizon=1e4)
        assert len(rec.events) == 1000
        assert not any(rec.flags.values())
        assert abs(np.linalg.norm(rec.final_v) - 1.0) < 1e-9

    def test_hard_ball_reach_d18(self):
        """hb(10,2): the scan window is two projected cell diameters, not
        the 17.1 of the system's own cell, and 1e3 collisions stay clean."""
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(10, 2, (1.0,) * 10, 0.03))
        view = tf._flow_view(system)
        assert (system.dim, system.k) == (18, 45)
        assert view.window == 2.0 * max(
            img.lattice.fundamental_diameter
            for img in axis_images(system, view.window))
        assert view.window == pytest.approx(2.0)
        assert view.diam > 17.0
        phase = tf.random_phase(system, np.random.default_rng(10))
        rec = tf.flow(system, phase, max_collisions=1000, default_horizon=1e4)
        assert len(rec.events) == 1000
        assert not any(rec.flags.values())
        assert abs(np.linalg.norm(rec.final_v) - 1.0) < 1e-9

    def test_system_freed_after_flow(self):
        sinai = make_sphere_system(2, r=0.3)
        ref = weakref.ref(sinai)
        tf.flow(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                max_collisions=5, default_horizon=1e4)
        del sinai
        gc.collect()
        assert ref() is None

    def test_block_system_stays_in_block(self):
        system = make_two_block_system()
        # motion within the e1-e2 block only collides with cylinder 0
        v = np.zeros(4)
        v[:2] = [0.6, 0.8]
        rec = tf.flow(system, tf.PhasePoint(np.zeros(4), v),
                      max_collisions=50, default_horizon=1e4)
        assert rec.events
        assert set(rec.symbolic) == {0}

    def test_unfold_retrace_windows(self, sinai):
        # chaos amplifies last-bit differences by roughly one decade per
        # collision, so retrace agreement at 1e-9 needs short re-anchored
        # windows; chained windows cover one continuous orbit
        q = np.array([0.0, 0.5])
        v = np.array([0.6, 0.8])
        total = 0
        for _ in range(60):
            rec = tf.flow(sinai, tf.PhasePoint(q, v), max_collisions=3,
                          default_horizon=1e4)
            assert len(rec.events) == 3
            labels, spec = tf.unfold_to_path(rec, sinai)
            res = paths.trace(sinai, labels, spec)
            times = np.array([e.time for e in rec.events])
            assert np.max(np.abs(res.times - times)) < 1e-9
            assert np.linalg.norm(res.final_velocity - rec.final_v) < 1e-9
            total += len(rec.events)
            q, v = rec.final_q, rec.final_v
        assert total == 180

    def test_flags_honest_on_horizon(self):
        system = make_sphere_system(2, r=0.1)
        rec = tf.flow(system, tf.PhasePoint([0.0, 0.1], [1.0, 0.0]),
                      max_collisions=10)
        assert rec.flags["no_collision_within_horizon"]
        assert not rec.events

    def test_corridor_with_long_horizon(self):
        # the scan walks the horizon window by window, so a corridor orbit
        # never asks for a lattice ball sized by the horizon
        system = make_sphere_system(2, r=0.1)
        rec = tf.flow(system, tf.PhasePoint([0.0, 0.1], [1.0, 0.0]),
                      max_collisions=10, default_horizon=1e4)
        assert rec.flags["no_collision_within_horizon"]
        assert not rec.events

    def test_explicit_horizon_leaves_the_full_lattice_unreduced(self):
        """Every hard-ball cylinder has an axis, so only the default horizon
        reads the full lattice's reduction."""
        system = load_system(Path(__file__).parent / "data" / "hb_3_2.json")
        phase = tf.random_phase(system, np.random.default_rng(1))
        rec = tf.flow(system, phase, max_collisions=20, default_horizon=1e4)
        assert len(rec.events) == 20
        assert "_reduction" not in vars(system.lattice)

    def test_default_horizon_is_ten_diameters(self):
        """Three balls in their own horizontal lanes never meet; the default
        horizon stops the flow at 10 fundamental diameters of the cell."""
        system, emb = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0,) * 3, 0.02))
        q = emb.reduce_positions([[0.0, 0.0], [0.0, 1 / 3], [0.0, 2 / 3]])
        v = emb.reduce_velocities([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        phase = tf.PhasePoint(q, v / np.linalg.norm(v))
        horizon = 10.0 * system.lattice.fundamental_diameter
        short = tf.flow(system, phase, max_time=horizon * (1 - 1e-9))
        assert short.total_time == horizon * (1 - 1e-9)
        assert not short.events and not any(short.flags.values())
        long = tf.flow(system, phase, max_time=horizon * (1 + 1e-9))
        assert long.total_time == 0.0 and not long.events
        assert long.flags["no_collision_within_horizon"]

    def test_max_time_stop(self, sinai):
        rec = tf.flow(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                      max_time=3.0, default_horizon=1e4)
        assert abs(rec.total_time - 3.0) < 1e-12
        assert all(e.time <= 3.0 for e in rec.events)

    def test_needs_stop_condition(self, sinai):
        with pytest.raises(ValueError):
            tf.flow(sinai, tf.PhasePoint([0.0, 0.5], [1.0, 0.0]))

    def test_cascade_guard(self, monkeypatch):
        # shrink the cap so a dense-scatterer run trips it
        monkeypatch.setattr(tf, "CASCADE_CAP", 5)
        dense = make_sphere_system(2, r=0.45)
        rec = tf.flow(dense, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                      max_collisions=10_000, default_horizon=1e4)
        assert rec.flags["cascade_capped"]
        assert len(rec.events) < 10_000
        # the record stops at the first event less than one time unit after
        # the event CASCADE_CAP before it
        times = [e.time for e in rec.events]
        gaps = [times[i] - times[i - 5] for i in range(5, len(times))]
        assert gaps[-1] < 1.0
        assert all(g >= 1.0 for g in gaps[:-1])

    def test_cascade_cap_below_the_event_cap(self):
        # otherwise a record of MAX_FLOW_EVENTS could never trip the guard
        assert tf.CASCADE_CAP < tf.MAX_FLOW_EVENTS

    def test_time_only_run_stops_at_the_event_cap(self, monkeypatch, sinai):
        monkeypatch.setattr(tf, "MAX_FLOW_EVENTS", 7)
        rec = tf.flow(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                      max_time=1e6, default_horizon=1e4)
        assert len(rec.events) == 7
        assert rec.total_time == rec.events[-1].time < 1e6
        assert not any(rec.flags.values())

    def test_event_cap_refused_before_flowing(self, monkeypatch, sinai):
        monkeypatch.setattr(tf, "MAX_FLOW_EVENTS", 7)
        assert len(tf.flow(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                           max_collisions=7).events) == 7
        fresh = make_sphere_system(2, r=0.3)
        with pytest.raises(LimitError, match="MAX_FLOW_EVENTS"):
            tf.flow(fresh, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                    max_collisions=8, max_time=1.0)
        assert fresh._flow_cache is None

    def test_record_keeps_its_horizon(self, sinai):
        phase = tf.PhasePoint([0.0, 0.5], [0.6, 0.8])
        rec = tf.flow(sinai, phase, max_collisions=5)
        assert rec.horizon == 10.0 * tf._flow_view(sinai).diam
        rec = tf.flow(sinai, phase, max_collisions=5, default_horizon=7.5)
        assert rec.horizon == rec.prefix(2).horizon == 7.5


IMAGE_SYSTEMS = {
    "hb32-masses": lambda: builders.hard_ball_system(
        builders.HardBallParams(3, 2, (1.0, 1.2, 0.9), 0.2))[0],
    "hb53": _hard_balls(5, 3, 0.1),
    "sinai": lambda: make_sphere_system(2, r=0.3),
    # a free flight crosses about 25 cells: the orbit wraps often
    "sinai-thin": lambda: make_sphere_system(2, r=0.02),
    "mixed": _mixed_dims,
}


class TestRecordImages:
    """``flow`` builds its events' images after the loop, one pass per
    cylinder; ``image_oracle`` builds each when it is hit, the route the
    flow took before.  They agree exactly, whatever stopped the run."""

    @pytest.mark.parametrize("stop", ["collisions", "time", "horizon",
                                      "graze"])
    @pytest.mark.parametrize("name", sorted(IMAGE_SYSTEMS))
    def test_batched_images_match_the_per_hit_route(self, monkeypatch, name,
                                                    stop):
        system = IMAGE_SYSTEMS[name]()
        rng = np.random.default_rng(11)
        phases = [tf.random_phase(system, rng) for _ in range(3)]
        # the free orbits, flowed before the oracle is patched in
        free = [tf.flow(system, phase, max_collisions=60,
                        default_horizon=1e4) for phase in phases]
        per_hit = recording_scans(monkeypatch,
                                  stop_after=25 if stop == "graze" else None)
        wraps = 0
        for phase, orbit in zip(phases, free):
            times = [ev.time for ev in orbit.events]
            flights = np.diff(times, prepend=0.0)
            run = {
                "collisions": dict(max_collisions=60, default_horizon=1e4),
                "time": dict(max_time=0.5 * (times[40] + times[41]),
                             default_horizon=1e4),
                # just short of the longest flight: the run stops there
                "horizon": dict(max_collisions=60,
                                default_horizon=0.999 * flights.max()),
                "graze": dict(max_collisions=60, default_horizon=1e4),
            }[stop]
            per_hit.clear()
            rec = tf.flow(system, phase, **run)
            expected = {"collisions": 60, "time": 41, "graze": 25,
                        "horizon": int(flights.argmax())}[stop]
            assert len(rec.events) == len(per_hit) == expected
            assert rec.flags["no_collision_within_horizon"] == (
                stop == "horizon")
            assert rec.flags["tangential_encountered"] == (stop == "graze")
            for ev, image in zip(rec.events, per_hit):
                assert ev.lattice_image.dtype == image.dtype == np.int64
                assert np.array_equal(ev.lattice_image, image)
            wraps = max(wraps, int(np.abs(orbit.final_wrap).max()))
        assert wraps >= (50 if name == "sinai-thin" else 2)


class TestDetectSplitting:
    def test_single_block_witness(self):
        system = make_two_block_system()
        v = np.zeros(4)
        v[:2] = [0.6, 0.8]
        rec = tf.flow(system, tf.PhasePoint(np.zeros(4), v),
                      max_collisions=20, default_horizon=1e4)
        witness = tf.detect_splitting(rec, system)
        assert witness is not None
        assert projector_distance(witness.b1, system.base_space(0)) < 1e-9
        assert witness.assignment == {0: 1}

    def test_transitive_record_none(self):
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.15))
        rng = np.random.default_rng(2)
        for _ in range(10):
            phase = tf.random_phase(system, rng)
            rec = tf.flow(system, phase, max_collisions=60,
                          default_horizon=1e4)
            if len(set(rec.symbolic)) >= 2:
                assert tf.detect_splitting(rec, system) is None
                break
        else:
            pytest.fail("never saw two distinct pair collisions")

    def test_empty_record_degenerate(self, sinai):
        rec = tf.TrajectoryRecord(
            initial=tf.PhasePoint([0.0, 0.5], [1.0, 0.0]),
            events=[], flags={})
        w = tf.detect_splitting(rec, sinai)
        assert w is not None and w.degenerate


def _splitting_records():
    """Records of 40 flow-hardball orbits, whole and at prefixes of 1, 2, 5
    and 20 events, and of 10 two-block orbits: every collided label set
    that 3 hard balls and the two blocks make."""
    for system, n in (
            (IMAGE_SYSTEMS["hb32-masses"](), 40),
            (make_two_block_system(), 10)):
        rng = np.random.default_rng(31)
        for _ in range(n):
            rec = tf.flow(system, tf.random_phase(system, rng),
                          max_collisions=100, default_horizon=1e4)
            for part in (rec.prefix(1), rec.prefix(2), rec.prefix(5),
                         rec.prefix(20), rec):
                yield system, part


class TestSplittingVerdicts:
    """``detect_splitting`` decides each collided label tuple once per
    system and hands each caller a witness of its own."""

    def test_one_decision_per_label_tuple(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tf, "is_transitive", lambda bases, **kw: (
            calls.append(len(bases)) or is_transitive(bases, **kw)))
        seen = set()
        for system, rec in _splitting_records():
            tf.detect_splitting(rec, system)
            seen.add((id(system), tuple(sorted(rec.collided_labels()))))
        assert len(calls) == len(seen) >= 6

    def test_verdicts_match_a_fresh_decision(self):
        verdicts = {True: 0, False: 0}
        for system, rec in _splitting_records():
            labels = sorted(rec.collided_labels())
            ok, fresh = is_transitive([system.base_space(i) for i in labels],
                                      ambient_dim=system.dim)
            witness = tf.detect_splitting(rec, system)
            verdicts[ok] += 1
            assert (witness is None) == ok
            if ok:
                continue
            assert np.array_equal(witness.b1.basis, fresh.b1.basis)
            assert np.array_equal(witness.b2.basis, fresh.b2.basis)
            assert witness.degenerate == fresh.degenerate
            assert witness.assignment == {labels[j]: side for j, side
                                          in fresh.assignment.items()}
        assert min(verdicts.values()) >= 20

    def test_each_call_gets_its_own_witness(self):
        system = make_two_block_system()
        v = np.zeros(4)
        v[:2] = [0.6, 0.8]
        rec = tf.flow(system, tf.PhasePoint(np.zeros(4), v),
                      max_collisions=20, default_horizon=1e4)
        first = tf.detect_splitting(rec, system)
        first.assignment[0] = 2
        first.assignment[1] = 1
        second = tf.detect_splitting(rec, system)
        assert second is not first
        assert second.assignment == {0: 1}
        second.check({0: system.base_space(0)})


class TestRichnessCertificate:
    """A record's richness certificate: ``count_transitive_blocks`` on its
    symbolic sequence."""

    def test_single_cylinder_every_collision_is_a_block(self):
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(2, 2, (1.0, 1.0), 0.1))
        rng = np.random.default_rng(4)
        phase = tf.random_phase(system, rng)
        rec = tf.flow(system, phase, max_collisions=10, default_horizon=1e4)
        assert count_transitive_blocks(rec.symbolic, system) == 10

    def test_free_flight_false(self, sinai):
        rec = tf.TrajectoryRecord(
            initial=tf.PhasePoint([0.0, 0.5], [1.0, 0.0]),
            events=[], flags={})
        assert count_transitive_blocks(rec.symbolic, sinai) == 0

    def test_monotone_in_prefix(self):
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.15))
        rng = np.random.default_rng(6)
        phase = tf.random_phase(system, rng)
        rec = tf.flow(system, phase, max_collisions=120, default_horizon=1e4)
        counts = [count_transitive_blocks(rec.prefix(n).symbolic, system)
                  for n in (20, 60, 120)]
        assert counts == sorted(counts)


def _flow_map(system, x: np.ndarray, t: float) -> np.ndarray:
    """The billiard flow over time ``t`` of the phase ``x = (q, v)``, ``v``
    of any speed, built from two ``next_collision`` steps: the first finds
    the one collision, the second checks that no other follows within
    ``t``.  A speed ``c`` flows like a unit velocity over time ``c t``."""
    d = system.dim
    q, v = x[:d], x[d:]
    c = np.linalg.norm(v)
    u = v / c
    hit = tf.next_collision(system, tf.PhasePoint(q, u), c * t)
    assert hit is not None
    q1 = q + hit.time * u
    u1 = u - 2.0 * (u @ hit.normal) * hit.normal
    rest = c * t - hit.time
    assert tf.next_collision(system, tf.PhasePoint(q1, u1), rest) is None
    return np.concatenate((q1 + rest * u1, c * u1))


def _tangent_jacobian(system, phase: tf.PhasePoint, t: float):
    """The tangent map over ``t`` (one collision): the production map of
    the collision, which holds the free flight before it, composed with
    the free flight after it; returns it and the flow map's
    central-difference Jacobian."""
    d = system.dim
    hit = tf.next_collision(system, phase, t)
    tangent = tf._TangentFrame(tf._flow_view(system), np.eye(2 * d))
    (collision,) = tangent.maps([hit.time], [hit.cylinder], [phase.v],
                                [hit.normal])
    after = np.eye(2 * d)
    after[:d, d:] = (t - hit.time) * np.eye(d)
    x = np.concatenate((phase.q, phase.v))
    h = 1e-6
    fd = np.column_stack([
        (_flow_map(system, x + h * e, t) - _flow_map(system, x - h * e, t))
        / (2 * h) for e in np.eye(2 * d)])
    return after @ collision, fd


_ORACLE_ORBITS = ([f"workload-{unit}" for unit in range(12)]
                  + [f"hb32-{i}" for i in range(3)] + ["grazing"])


def _oracle_orbit(name: str):
    """(system, phase, seed, total_t) of a Lyapunov orbit: the 12 orbits of
    the benchmark's lyapunov-sinai workload at seed 1, drawn as it draws
    them, three hb(3,2) orbits and an orbit that grazes its scatterer."""
    kind, _, index = name.partition("-")
    if kind == "workload":
        unit = int(index)
        if unit % 2:
            system, _ = builders.hard_ball_system(
                builders.HardBallParams(2, 2, (1.0, 1.0), 0.1))
        else:
            system = make_sphere_system(2, r=0.3)
        rng = np.random.default_rng(np.random.SeedSequence([1, unit]))
        phase = tf.random_phase(system, rng)
        return system, phase, int(rng.integers(2**31)), 500.0
    if kind == "hb32":
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.2))
        phase = tf.random_phase(system, np.random.default_rng(40 + int(index)))
        return system, phase, 7, 200.0
    return (make_sphere_system(2, r=0.3),
            tf.PhasePoint([0.2, 0.0], [0.0, 1.0]), 5, 50.0)


class TestLyapunov:
    def test_free_flight_zero(self):
        empty = CylindricBilliardSystem(dim=2, lattice=Lattice(np.eye(2)),
                                        cylinders=[])
        res = tf.lyapunov_max(empty, tf.PhasePoint([0.2, 0.3], [0.6, 0.8]),
                              total_t=50.0, renorm_dt=1.0, d0=1e-9, seed=3)
        assert abs(res.estimate) <= 2.0 / 50.0
        assert not res.unreliable

    def test_sinai_positive_smoke(self, sinai):
        res = tf.lyapunov_max(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                              total_t=300.0, renorm_dt=1.0, d0=1e-9, seed=12)
        assert res.estimate > 0.5
        assert not res.unreliable

    def test_d0_bounds(self, sinai):
        with pytest.raises(ValueError):
            tf.lyapunov_max(sinai, tf.PhasePoint([0.0, 0.5], [1.0, 0.0]),
                            total_t=10.0, renorm_dt=1.0, d0=1e-6, seed=3)

    def test_deterministic(self, sinai):
        a = tf.lyapunov_max(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                            total_t=50.0, renorm_dt=1.0, d0=1e-9, seed=9)
        b = tf.lyapunov_max(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                            total_t=50.0, renorm_dt=1.0, d0=1e-9, seed=9)
        assert a.estimate == b.estimate
        assert a.window_logs == b.window_logs
        assert a.spectrum == b.spectrum

    def test_window_cap_refused_before_flowing(self, sinai):
        # the start lies inside the scatterer: the cap is checked first
        with pytest.raises(LimitError):
            tf.lyapunov_max(sinai, tf.PhasePoint([0.5, 0.5], [1.0, 0.0]),
                            total_t=1.0 + tf.MAX_LYAPUNOV_WINDOWS,
                            renorm_dt=1.0, d0=1e-9, seed=3)

    @pytest.mark.parametrize("balls", [None, (2, 0.1), (3, 0.2)],
                             ids=["sinai", "hb22", "hb32"])
    def test_tangent_map_matches_flow_jacobian(self, balls):
        if balls is None:
            system = make_sphere_system(2, r=0.3)
        else:
            n, r = balls
            system, _ = builders.hard_ball_system(
                builders.HardBallParams(n, 2, (1.0,) * n, r))
        # hb(3,2)'s cylinders have axes, so its curvature operator is not
        # (I - n n^T) / r
        assert balls != (3, 0.2) or system.base_space(0).dim < system.dim
        rng = np.random.default_rng(17)
        for _ in range(3):
            phase = tf.random_phase(system, rng)
            first = tf.next_collision(system, phase, 100.0)
            q1 = phase.q + first.time * phase.v
            v1 = phase.v - 2.0 * (phase.v @ first.normal) * first.normal
            second = tf.next_collision(system, tf.PhasePoint(q1, v1), 100.0)
            t = first.time + 0.5 * second.time
            tangent, fd = _tangent_jacobian(system, phase, t)
            assert np.max(np.abs(tangent - fd)) \
                < 1e-6 * max(1.0, np.max(np.abs(fd)))

    @pytest.mark.parametrize("orbit", ["sinai", "hb22"])
    def test_agrees_with_shadow_oracle(self, orbit):
        """Criterion 10's orbits, over a fifth of its time."""
        if orbit == "sinai":
            system = make_sphere_system(2, r=0.3)
            phase, seed = tf.PhasePoint([0.0, 0.5], [0.6, 0.8]), 1001
        else:
            system, _ = builders.hard_ball_system(
                builders.HardBallParams(2, 2, (1.0, 1.0), 0.1))
            phase = tf.random_phase(system, np.random.default_rng(1002))
            seed = 1003
        tangent = tf.lyapunov_max(system, phase, total_t=2000.0,
                                  renorm_dt=1.0, d0=1e-9, seed=seed)
        shadow = shadow_lyapunov_max(system, phase, total_t=2000.0,
                                     renorm_dt=1.0, d0=1e-9, seed=seed)
        combined = np.hypot(tangent.stderr, shadow.stderr)
        assert abs(tangent.estimate - shadow.estimate) < 4 * combined

    @pytest.mark.parametrize("orbit", ["sinai", "hb32"])
    def test_spectrum_self_checks(self, orbit):
        """The exponents pair up to ±, sum to zero, and exactly two vanish:
        the flow direction and the speed direction."""
        if orbit == "sinai":
            system = make_sphere_system(2, r=0.3)
            phase, total_t = tf.PhasePoint([0.0, 0.5], [0.6, 0.8]), 2000.0
        else:
            system, _ = builders.hard_ball_system(
                builders.HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.2))
            phase = tf.random_phase(system, np.random.default_rng(1))
            total_t = 300.0
        res = tf.lyapunov_max(system, phase, total_t=total_t, renorm_dt=1.0,
                              d0=1e-9, seed=4)
        spectrum = np.array(res.spectrum)
        lam1 = spectrum[0]
        assert spectrum.size == 2 * system.dim
        assert np.all(np.diff(spectrum) <= 0)
        assert np.isclose(lam1, res.estimate)
        assert res.pairing_residual < 0.01 * lam1
        assert abs(spectrum.sum()) < 0.01 * lam1
        assert np.count_nonzero(np.abs(spectrum) < 0.01 * lam1) == 2

    def test_window_length_changes_no_exponent(self):
        """Window ends move neither the orbit, which is ``flow``'s, nor the
        frame's growth sums: QR steps telescope, and a frame grown large
        inside a long window is re-orthonormalized before it loses its
        lower directions."""
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.2))
        phase = tf.random_phase(system, np.random.default_rng(1))
        short, long = (tf.lyapunov_max(system, phase, total_t=600.0,
                                       renorm_dt=dt, d0=1e-9, seed=3)
                       for dt in (1.0, 300.0))
        record = tf.flow(system, phase, max_time=600.0, default_horizon=600.0)
        assert short.n_collisions == long.n_collisions == len(record.events)
        assert len(long.window_logs) == 2
        assert np.allclose(short.spectrum, long.spectrum, rtol=0, atol=1e-7)
        assert np.isclose(sum(short.window_logs), sum(long.window_logs),
                          rtol=0, atol=1e-7)

    def test_work_counts(self, sinai):
        res = tf.lyapunov_max(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                              total_t=500.0, renorm_dt=1.0, d0=1e-9, seed=2)
        window = tf._flow_view(sinai).window
        assert res.n_collisions > 0
        assert res.n_scans <= res.n_collisions + np.ceil(500.0 / window) \
            + res.discarded

    @pytest.mark.parametrize("orbit", ["sinai", "hb22", "grazing"])
    def test_matches_a_qr_step_per_window(self, orbit):
        """Closing a window by the leading vector's norm gives the orbit,
        the window logs and the spectrum of a full QR step per window."""
        if orbit == "hb22":
            system, _ = builders.hard_ball_system(
                builders.HardBallParams(2, 2, (1.0, 1.0), 0.1))
            phase = tf.random_phase(system, np.random.default_rng(1002))
            seed = 1003
        else:
            system = make_sphere_system(2, r=0.3)
            phase, seed = {
                "sinai": (tf.PhasePoint([0.0, 0.5], [0.6, 0.8]), 1001),
                "grazing": (tf.PhasePoint([0.2, 0.0], [0.0, 1.0]), 5),
            }[orbit]
        new = tf.lyapunov_max(system, phase, total_t=500.0, renorm_dt=1.0,
                              d0=1e-9, seed=seed)
        old = oracle_lyapunov_max(system, phase, total_t=500.0,
                                  renorm_dt=1.0, d0=1e-9, seed=seed,
                                  orbit_class=QRPerWindow)
        assert (new.n_collisions, new.n_scans, new.discarded) \
            == (old.n_collisions, old.n_scans, old.discarded)
        assert orbit != "grazing" or old.discarded >= 1
        np.testing.assert_allclose(new.window_logs, old.window_logs,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(new.spectrum, old.spectrum,
                                   rtol=0, atol=1e-6)

    @pytest.mark.parametrize("orbit", _ORACLE_ORBITS)
    def test_matches_the_one_pass_route(self, orbit):
        """The orbit pass steps the orbit of the one-pass route, and the
        batched maps give its window logs and spectrum."""
        system, phase, seed, total_t = _oracle_orbit(orbit)
        new = tf.lyapunov_max(system, phase, total_t=total_t, renorm_dt=1.0,
                              d0=1e-9, seed=seed)
        old = oracle_lyapunov_max(system, phase, total_t=total_t,
                                  renorm_dt=1.0, d0=1e-9, seed=seed)
        assert (new.n_collisions, new.n_scans, new.discarded_by_reason) \
            == (old.n_collisions, old.n_scans, old.discarded_by_reason)
        assert orbit != "grazing" or old.discarded >= 1
        np.testing.assert_allclose(new.window_logs, old.window_logs,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(new.spectrum, old.spectrum,
                                   rtol=0, atol=1e-5)

    @pytest.mark.parametrize("orbit", ["hb32-0", "grazing"])
    def test_batches_change_no_result(self, orbit, monkeypatch):
        """A batch of one map gives the counts, logs and spectrum of the
        default batches, on an orbit that restarts from discarded windows
        too."""
        system, phase, seed, total_t = _oracle_orbit(orbit)
        runs = []
        for chunk in (tf.CHUNK_ENTRIES, (2 * system.dim) ** 2):
            monkeypatch.setattr(tf, "CHUNK_ENTRIES", chunk)
            runs.append(tf.lyapunov_max(system, phase, total_t=total_t,
                                        renorm_dt=1.0, d0=1e-9, seed=seed))
        default, single = runs
        assert (default.n_collisions, default.n_scans,
                default.discarded_by_reason) \
            == (single.n_collisions, single.n_scans,
                single.discarded_by_reason)
        np.testing.assert_allclose(single.window_logs, default.window_logs,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(single.spectrum, default.spectrum,
                                   rtol=0, atol=1e-12)

    def test_memory_does_not_grow_with_the_run(self):
        """The tangent pass holds one batch of maps at a time, so a run ten
        times longer peaks within half again of the shorter one's memory."""
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(8, 2, (1.0,) * 8, 0.05))
        phase = tf.random_phase(system, np.random.default_rng(1))
        tf._flow_view(system)
        peaks = []
        for total_t in (200.0, 2000.0):
            tracemalloc.start()
            try:
                tf.lyapunov_max(system, phase, total_t=total_t,
                                renorm_dt=1.0, d0=1e-9, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_discarded_window_accounting(self, sinai):
        # the line x = 0.2 touches the scatterer of radius 0.3 at (0.5, 0.5)
        res = tf.lyapunov_max(sinai, tf.PhasePoint([0.2, 0.0], [0.0, 1.0]),
                              total_t=50.0, renorm_dt=1.0, d0=1e-9, seed=5)
        assert res.discarded_by_reason["tangential"] >= 1
        assert sum(res.discarded_by_reason.values()) == res.discarded
        assert len(res.window_logs) + res.discarded == res.n_windows
        assert res.n_scans <= res.n_collisions \
            + np.ceil(50.0 / tf._flow_view(sinai).window) + res.discarded


class TestSplittingScan:
    def test_orthogonal_product_always_splits(self):
        system = make_two_block_system()
        res = tf.splitting_scan(system, n_orbits=10, n_collisions=20, seed=1)
        assert res.fraction == 1.0


class TestRecordExport:
    def test_roundtrip_and_table(self, sinai, tmp_path):
        rec = tf.flow(sinai, tf.PhasePoint([0.0, 0.5], [0.6, 0.8]),
                      max_collisions=20, default_horizon=1e4)
        p = tmp_path / "traj.json"
        tf.save_record(rec, p)
        from cylbill import fileio

        doc = fileio.load(p)
        assert doc["format"] == tf.RECORD_FORMAT
        assert len(doc["events"]) == 20
        assert doc["events"][0]["time"] == rec.events[0].time
        table = tf.record_table(rec)
        assert table.count("\n") == 21

    def test_typed_lists_write_the_per_element_bytes(self):
        # the lists come from tolist(); the bytes are those of converting
        # every element on its own
        def per_element(record):
            return {
                "format": tf.RECORD_FORMAT,
                "initial_q": [float(x) for x in record.initial.q],
                "initial_v": [float(x) for x in record.initial.v],
                "events": [{"time": float(ev.time),
                            "cylinder": int(ev.cylinder),
                            "lattice_image": [int(x) for x in ev.lattice_image],
                            "normal": [float(x) for x in ev.normal]}
                           for ev in record.events],
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

        from cylbill import fileio

        system, _ = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0, 1.2, 0.9), 0.2))
        rng = np.random.default_rng(3)
        for n in (0, 1, 50):
            rec = tf.flow(system, tf.random_phase(system, rng),
                          max_collisions=n, default_horizon=1e4)
            for part in (rec, rec.prefix(n // 2)):
                got = tf.record_to_dict(part)
                assert fileio.dumps(got) == fileio.dumps(per_element(part))
                assert got == per_element(part)


class TestFactorFlowConsistency:
    def test_full_hard_ball_projects_to_reduced_flow(self):
        """A zero-drift trajectory of the full two-ball system and the
        factor trajectory started from its projection see the same
        collisions at the same times (compared over a short window; the
        two computations are different arithmetic paths, so chaos drives
        them apart exponentially after that)."""
        params = builders.HardBallParams(2, 2, (1.0, 1.0), 0.12)
        reduced, emb = builders.hard_ball_system(params)
        full = emb.full_system
        report = emb.factor_report

        rng = np.random.default_rng(321)
        # velocity with no component along the factored-out directions
        for _ in range(50):
            v_full = rng.standard_normal(4)
            v_full -= report.drift_space.basis @ (
                report.drift_space.basis.T @ v_full)
            nv = np.linalg.norm(v_full)
            if nv > 0.3:
                v_full /= nv
                break
        q_full = full.lattice.basis @ rng.uniform(0, 1, size=4)

        rec_full = tf.flow(full, tf.PhasePoint(q_full, v_full),
                           max_collisions=6, default_horizon=1e3)
        to_factor = report.active_space.basis.T
        q_red = to_factor @ rec_full.initial.q
        v_red = to_factor @ v_full
        rec_red = tf.flow(reduced,
                          tf.PhasePoint(q_red, v_red / np.linalg.norm(v_red)),
                          max_collisions=6, default_horizon=1e3)
        assert len(rec_full.events) == len(rec_red.events) == 6
        t_full = np.array([e.time for e in rec_full.events])
        t_red = np.array([e.time for e in rec_red.events])
        assert np.max(np.abs(t_full - t_red)) < 1e-6
        assert rec_full.symbolic == rec_red.symbolic
        # the drift-velocity component is untouched by the full flow
        drift_before = report.drift_space.basis.T @ v_full
        drift_after = report.drift_space.basis.T @ rec_full.final_v
        assert np.linalg.norm(drift_after - drift_before) < 1e-10
