import numpy as np
import pytest

import fd_oracle as fd
import test_acceptance as acceptance
from cylbill import builders, intlat, paths
from cylbill.config import AXIS_PARALLEL, DISC, T_MIN_GAP
from cylbill.geometry import (
    Subspace,
    containment_residual,
    orthonormalize,
    projector_distance,
    subspace_overlap,
)
from cylbill.paths import (
    EuclideanPathSpec,
    NoRealRoot,
    NonAdvancing,
    NoValidPath,
    REJECTION_REASONS,
    Tangential,
    TraceError,
    apply_reflections,
    delta_sigma_constrained,
    delta_sigma_report,
    load_sigma,
    neutral_space,
    save_sigma,
    sequence_generator_intersection,
    trace,
    w_plus,
)
from conftest import (
    intersect,
    make_real_axis_direct_sum,
    make_sphere_system,
    make_two_block_system,
    oracle_path_times,
    random_int_system,
    sample_spec,
    sample_traceable_spec,
    scalar_trace_oracle,
    spec_from_row,
    translate_all,
    translate_each,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@pytest.fixture
def sphere2():
    return make_sphere_system(2, r=1.0, center=np.zeros(2))


@pytest.fixture
def sphere3():
    return make_sphere_system(3, r=0.5, center=np.zeros(3))


class TestTrace:
    def test_head_on_reflection(self, sphere2):
        # start at the origin, scatterer offset (2, 0): mirror of starting
        # at (-2, 0) against a unit sphere at the origin
        spec = EuclideanPathSpec([1.0, 0.0], [np.array([2.0, 0.0])])
        res = trace(sphere2, [0], spec)
        assert abs(res.times[0] - 1.0) < 1e-14
        assert np.allclose(res.velocities[1], [-1.0, 0.0])
        assert np.allclose(res.normals[0], [-1.0, 0.0])

    def test_miss(self, sphere2):
        spec = EuclideanPathSpec([1.0, 0.0], [np.array([2.0, 2.0])])
        with pytest.raises(NoRealRoot):
            trace(sphere2, [0], spec)

    def test_tangential(self, sphere2):
        spec = EuclideanPathSpec([1.0, 0.0], [np.array([2.0, 1.0])])
        with pytest.raises(Tangential):
            trace(sphere2, [0], spec)

    def test_non_advancing_from_inside(self, sphere2):
        spec = EuclideanPathSpec([1.0, 0.0], [np.array([0.1, 0.0])])
        with pytest.raises(NonAdvancing):
            trace(sphere2, [0], spec)

    def test_behind_is_non_advancing(self, sphere2):
        spec = EuclideanPathSpec([1.0, 0.0], [np.array([-3.0, 0.0])])
        with pytest.raises(NonAdvancing):
            trace(sphere2, [0], spec)

    def test_invariants_on_random_traces(self, rng):
        checked = 0
        for _ in range(60):
            d = int(rng.integers(2, 5))
            system = random_int_system(rng, d)
            m = int(rng.integers(1, 4))
            labels = [int(x) for x in rng.integers(0, system.k, size=m)]
            spec = sample_traceable_spec(system, labels, rng, tries=40)
            if spec is None:
                continue
            res = trace(system, labels, spec)
            checked += 1
            assert np.all(np.diff(np.concatenate([[0.0], res.times])) > 0)
            for j, lab in enumerate(labels):
                dv = res.velocities[j + 1] - res.velocities[j]
                gen = system.generator_space(lab)
                assert np.linalg.norm(gen.basis.T @ dv) < 1e-10
                assert abs(np.linalg.norm(res.velocities[j + 1]) - 1) < 1e-12
                assert abs(np.linalg.norm(res.normals[j]) - 1) < 1e-12
        assert checked >= 15

    def test_against_dense_stepping_oracle(self, rng):
        compared = 0
        while compared < 8:
            d = int(rng.integers(2, 4))
            system = random_int_system(rng, d)
            m = int(rng.integers(1, 4))
            labels = [int(x) for x in rng.integers(0, system.k, size=m)]
            spec = sample_traceable_spec(system, labels, rng, tries=40)
            if spec is None:
                continue
            res = trace(system, labels, spec)
            oracle = oracle_path_times(system, labels, spec)
            if oracle is None:
                continue
            assert np.max(np.abs(oracle - res.times)) < 1e-9
            compared += 1


class TestTranslations:
    def test_translate_all_zero(self, sphere3, rng):
        spec = sample_traceable_spec(sphere3, [0], rng)
        moved = translate_all(sphere3, [0], spec, np.zeros(3))
        assert all(np.array_equal(a, b)
                   for a, b in zip(spec.offsets, moved.offsets))

    def test_translate_all_axis_direction_noop(self):
        system = make_two_block_system()
        labels = [0]
        spec = EuclideanPathSpec(unit([1, 1, 0, 0]),
                                 [np.array([0.9, 0.2])])
        # translations inside the cylinder's own axis change nothing
        a = np.array([0.0, 0.0, 0.7, -0.3])
        moved = translate_all(system, labels, spec, a)
        assert np.allclose(moved.offsets[0], spec.offsets[0])

    def test_time_shift_neutrality_fd(self, sphere3, rng):
        spec = sample_traceable_spec(sphere3, [0], rng)
        vm = trace(sphere3, [0], spec).final_velocity
        eps = 1e-5
        moved = translate_all(sphere3, [0], spec, eps * spec.v0)
        vm2 = trace(sphere3, [0], moved).final_velocity
        assert np.linalg.norm(vm2 - vm) < 10 * eps * eps

    def test_translate_each_consistency(self, sphere3, rng):
        m = 1
        spec = sample_traceable_spec(sphere3, [0], rng)
        a = rng.standard_normal(3) * 0.1
        via_all = translate_all(sphere3, [0], spec, a)
        b = [sphere3.base_space(0).basis
             @ (sphere3.base_space(0).basis.T @ a)]
        via_each = translate_each(sphere3, [0], spec, b)
        assert np.allclose(via_all.offsets[0], via_each.offsets[0])

    def test_translate_each_rejects_off_base(self):
        system = make_two_block_system()
        spec = EuclideanPathSpec(unit([1, 1, 0, 0]), [np.array([0.9, 0.2])])
        with pytest.raises(ValueError):
            translate_each(system, [0], spec, [np.array([0, 0, 1.0, 0])])

    def test_spec_invariants_preserved(self, sphere3, rng):
        spec = sample_traceable_spec(sphere3, [0], rng)
        for _ in range(10):
            spec = translate_all(sphere3, [0], spec,
                                 rng.standard_normal(3) * 0.01)
        assert abs(np.linalg.norm(spec.v0) - 1) < 1e-12


class TestDerivatives:
    """The finite-difference derivative of the test oracle, and the exact
    expanding span against it."""

    def test_axis_intersection_column_zero(self):
        system = make_two_block_system()
        rng = np.random.default_rng(3)
        spec = sample_traceable_spec(system, [0], rng)
        assert spec is not None
        mat = fd.dvm_matrix(system, [0], spec)
        # directions inside the cylinder's axis (e3, e4) change nothing
        assert np.linalg.norm(mat[:, 2]) < 1e-9
        assert np.linalg.norm(mat[:, 3]) < 1e-9

    def test_initial_velocity_in_kernel(self, sphere3, rng):
        spec = sample_traceable_spec(sphere3, [0], rng)
        mat = fd.dvm_matrix(sphere3, [0], spec)
        assert np.linalg.norm(mat @ spec.v0) < 1e-5

    def test_columns_orthogonal_to_final_velocity(self, sphere3, rng):
        spec = sample_traceable_spec(sphere3, [0], rng)
        vm = trace(sphere3, [0], spec).final_velocity
        mat = fd.dvm_matrix(sphere3, [0], spec)
        assert np.max(np.abs(vm @ mat)) < 1e-5
        assert np.max(np.abs(vm @ w_plus(sphere3, [0], spec).basis)) < 1e-12

    def test_single_sphere_rank_two_in_3space(self, sphere3, rng):
        ranks = []
        for _ in range(50):
            spec = sample_traceable_spec(sphere3, [0], rng, tries=60)
            if spec is not None:
                ranks.append(w_plus(sphere3, [0], spec).dim)
        assert len(ranks) >= 30
        assert all(r == 2 for r in ranks)

    def test_w_plus_contained_in_w_plus_tilde(self, rng):
        done = 0
        while done < 10:
            d = int(rng.integers(2, 5))
            system = random_int_system(rng, d)
            m = int(rng.integers(1, 3))
            labels = [int(x) for x in rng.integers(0, system.k, size=m)]
            spec = sample_traceable_spec(system, labels, rng, tries=40)
            if spec is None:
                continue
            try:
                mat = fd.dvm_matrix(system, labels, spec)
                wp = fd.w_plus(system, labels, spec)
                wpt = fd.w_plus_tilde(system, labels, spec)
            except fd.PerturbationFailure:
                continue
            assert wp.dim == wpt.dim == w_plus(system, labels, spec).dim
            # containment at 1e-8 is an FD-noise statement; meaningful only
            # while the derivative magnitude stays moderate
            if np.linalg.norm(mat, 2) <= 100.0:
                assert containment_residual(wp, wpt) < 1e-8
            done += 1

    def test_block_confinement(self):
        system = make_two_block_system()
        rng = np.random.default_rng(11)
        spec = sample_traceable_spec(system, [0, 0], rng, tries=500)
        assert spec is not None
        wp = w_plus(system, [0, 0], spec)
        assert containment_residual(wp, system.base_space(0)) < 1e-12


class TestNeutralSpace:
    def test_kernel_properties(self, sphere3, rng):
        spec = sample_traceable_spec(sphere3, [0], rng)
        kernel = neutral_space(sphere3, [0], spec)
        wp = w_plus(sphere3, [0], spec)
        assert kernel.dim + wp.dim == 3
        # initial velocity direction is neutral
        assert containment_residual(
            Subspace(3, unit(spec.v0).reshape(3, 1)), kernel) < 1e-12
        rep = fd.neutral_space_detail(sphere3, [0], spec)
        assert rep.residual < 1e-6
        assert projector_distance(kernel, rep.kernel) < 1e-6

    def test_axis_intersection_neutral(self):
        system = make_two_block_system()
        rng = np.random.default_rng(7)
        spec = sample_traceable_spec(system, [0], rng)
        axis = sequence_generator_intersection(system, [0])
        assert containment_residual(axis, neutral_space(system, [0],
                                                        spec)) < 1e-12

    def test_pushed_complement_orthogonal_to_w_plus(self, rng):
        done = 0
        while done < 6:
            system = random_int_system(rng, int(rng.integers(2, 5)))
            labels = [int(x) for x in
                      rng.integers(0, system.k, size=int(rng.integers(1, 3)))]
            spec = sample_traceable_spec(system, labels, rng, tries=40)
            if spec is None:
                continue
            try:
                rep = fd.neutral_space_detail(system, labels, spec)
                wp = fd.w_plus(system, labels, spec)
            except fd.PerturbationFailure:
                continue
            res = trace(system, labels, spec)
            pushed = paths.apply_reflections(rep.kernel.basis, res.normals)
            if wp.dim and rep.kernel.dim:
                assert np.max(np.abs(pushed.T @ wp.basis)) < 1e-6
            assert neutral_space(system, labels, spec).dim == rep.kernel.dim
            done += 1

    def test_no_collisions_everything_neutral(self, sphere3):
        spec = EuclideanPathSpec(unit([1, 1, 1]), [])
        assert neutral_space(sphere3, [], spec).dim == 3
        assert w_plus(sphere3, [], spec).dim == 0

    def test_stacked_chain_equals_one_path_chains(self):
        system = hard_balls(5, 0.05)
        labels = list(range(system.k))
        view = paths._SequenceView(system, labels)
        velocities, _ = paths._construct(
            view, *next(paths._free_draws(view, 20, seed=4)))
        dims = paths._expanding_dims(view, velocities)
        for i in range(20):
            one = paths._constraint_stack(view, velocities[i:i + 1])
            s = np.linalg.svd(one[0], compute_uv=False)
            assert dims[i] == np.count_nonzero(s >= 1e-8 * s[0])
        assert set(dims.tolist()) == {system.dim - 1}


class TestPhiMap:
    """The velocity map of a collision sequence: ``apply_reflections`` on
    one vector."""

    def test_antiparallel(self):
        assert np.allclose(apply_reflections([1.0, 0.0], [[1.0, 0.0]])[:, 0],
                           [-1.0, 0.0])

    def test_orthogonal_unchanged(self):
        assert np.allclose(apply_reflections([1.0, 0.0], [[0.0, 1.0]])[:, 0],
                           [1.0, 0.0])

    def test_norm_preserved(self, rng):
        v = unit(rng.standard_normal(5))
        normals = [unit(rng.standard_normal(5)) for _ in range(7)]
        out = apply_reflections(v, normals)[:, 0]
        assert abs(np.linalg.norm(out) - 1) < 1e-14

    def test_reproduces_traced_final_velocity(self, rng):
        done = 0
        while done < 10:
            system = random_int_system(rng, int(rng.integers(2, 5)))
            labels = [int(x) for x in
                      rng.integers(0, system.k, size=int(rng.integers(1, 4)))]
            spec = sample_traceable_spec(system, labels, rng, tries=40)
            if spec is None:
                continue
            res = trace(system, labels, spec)
            assert np.linalg.norm(
                apply_reflections(spec.v0, res.normals)[:, 0]
                - res.final_velocity) < 1e-12
            done += 1


class TestThetaRank:
    """The finite-difference chart rank of the test oracle."""

    def test_single_collision_2d_full(self, sphere2, rng):
        spec = sample_traceable_spec(sphere2, [0], rng)
        assert fd.theta_rank(sphere2, [0], spec) == 2 == \
            fd.theta_full_rank(sphere2, [0])

    def test_empty_sequence(self, sphere3):
        spec = EuclideanPathSpec(unit([1, 1, 1]), [])
        assert fd.theta_rank(sphere3, [], spec) == 2

    def test_monte_carlo_full_rank_rate(self, rng):
        system = make_two_block_system()
        labels = [0, 1]
        target = fd.theta_full_rank(system, labels)
        full = 0
        total = 0
        while total < 60:
            spec = sample_traceable_spec(system, labels, rng, tries=60)
            if spec is None:
                continue
            try:
                r = fd.theta_rank(system, labels, spec)
            except fd.PerturbationFailure:
                continue
            total += 1
            if r == target:
                full += 1
        assert full >= int(0.99 * total)


class TestDelta:
    def test_single_sphere_rich(self):
        for d in (2, 3):
            system = make_sphere_system(d, r=0.4, center=np.zeros(d))
            assert delta_sigma_report(system, [0], 30, seed=101).value == d - 1
            assert delta_sigma_report(system, [0], 30, seed=101).rich

    def test_block_confined_not_rich(self):
        system = make_two_block_system()
        val = delta_sigma_report(system, [0, 0], 40, seed=5).value
        assert val <= system.base_space(0).dim - 1
        assert not delta_sigma_report(system, [0, 0], 40, seed=5).rich

    def test_bound_from_axis_intersection(self, rng):
        for _ in range(6):
            system = random_int_system(rng, int(rng.integers(2, 5)))
            m = int(rng.integers(1, 4))
            labels = [int(x) for x in rng.integers(0, system.k, size=m)]
            bound = system.dim - 1 - \
                sequence_generator_intersection(system, labels).dim
            try:
                val = delta_sigma_report(
                    system, labels, 25, seed=int(rng.integers(1 << 30))).value
            except NoValidPath:
                continue
            assert val <= bound

    def test_monotone_in_samples(self):
        system = make_sphere_system(3, r=0.4, center=np.zeros(3))
        v10 = delta_sigma_report(system, [0], 10, seed=42).value
        v30 = delta_sigma_report(system, [0], 30, seed=42).value
        assert v30 >= v10

    def test_deterministic(self):
        system = make_sphere_system(3, r=0.4, center=np.zeros(3))
        a = delta_sigma_report(system, [0], 20, seed=7).value
        b = delta_sigma_report(system, [0], 20, seed=7).value
        assert a == b

    def test_constrained_leq_unconstrained_and_equal_generic(self, rng):
        system = make_sphere_system(3, r=0.5, center=np.zeros(3))
        base = sample_traceable_spec(system, [0], rng)
        un = delta_sigma_report(system, [0], 40, seed=9).value
        con = delta_sigma_constrained(system, [0], base, 40, seed=9)
        assert con <= un
        assert con == un

    def test_all_failures_raise(self):
        system = make_sphere_system(2, r=1e-6, center=np.zeros(2))
        base = EuclideanPathSpec([1.0, 0.0], [np.array([2.0, 0.0])])
        # a random direction from the origin almost surely misses a sphere
        # of radius 1e-6 at distance 2, moved by at most 3e-6
        with pytest.raises(NoValidPath):
            delta_sigma_constrained(system, [0], base, 3, seed=1)

    def test_sample_cap_refused_before_any_work(self):
        system = make_sphere_system(2, r=0.5, center=np.zeros(2))
        base = EuclideanPathSpec([1.0, 0.0], [np.array([2.0, 0.0])])
        too_many = paths.MAX_DELTA_SAMPLES + 1
        for call in (lambda: delta_sigma_report(system, [0], too_many, 1),
                     lambda: delta_sigma_constrained(system, [0], base,
                                                     too_many, 1)):
            with pytest.raises(paths.SampleLimitError):
                call()

    def test_no_sampler_takes_box_scale(self):
        # the box is three times the largest radius, with no way to set it
        system = make_sphere_system(2, r=0.5, center=np.zeros(2))
        base = EuclideanPathSpec([1.0, 0.0], [np.array([2.0, 0.0])])
        for call in (lambda: delta_sigma_report(system, [0], 3, seed=1,
                                                box_scale=1.0),
                     lambda: delta_sigma_constrained(system, [0], base, 3,
                                                     seed=1, box_scale=1.0)):
            with pytest.raises(TypeError):
                call()


def _lattice_axes(system, labels) -> Subspace:
    """The common axes in exact integer arithmetic: the saturated
    sublattice lying in every touched cylinder's axis span, mapped by the
    lattice basis and orthonormalized."""
    distinct = sorted(set(labels))
    kernel = intlat.lattice_quotient(
        [system.cylinders[i].generator_coeffs for i in distinct],
        system.dim).kernel
    return orthonormalize((system.lattice.basis @ kernel).T,
                          ambient_dim=system.dim)


def _label_sets(rng, k: int):
    """Each single label, the first two and three, all, and three random
    sequences with repeats."""
    sets = [[i] for i in range(k)] + [[0, 1], [0, 1, 2], list(range(k))]
    sets += [rng.integers(0, k, size=int(rng.integers(1, k + 2))).tolist()
             for _ in range(3)]
    return [labels for labels in sets if max(labels) < k]


class TestCommonAxes:
    """``sequence_generator_intersection``, the complement of the touched
    base spaces' span, against two independent routes."""

    def _check(self, axes: Subspace, oracle: Subspace) -> None:
        assert axes.dim == oracle.dim
        assert projector_distance(axes, oracle) < 1e-12

    def test_hard_balls_match_the_integer_kernel(self, rng):
        for nu, top in ((2, 6), (3, 6)):
            for n in range(2, top + 1):
                masses = tuple(1.0 + 0.25 * i for i in range(n))
                system = builders.hard_ball_system(
                    builders.HardBallParams(n, nu, masses, 0.05))[0]
                for labels in _label_sets(rng, system.k):
                    self._check(sequence_generator_intersection(system, labels),
                                _lattice_axes(system, labels))

    def test_random_integer_systems_match_the_integer_kernel(self, rng):
        for _ in range(40):
            system = random_int_system(rng, int(rng.integers(2, 7)),
                                       int(rng.integers(1, 5)))
            for labels in _label_sets(rng, system.k):
                self._check(sequence_generator_intersection(system, labels),
                            _lattice_axes(system, labels))

    def test_real_axes_match_the_generator_intersection(self):
        rng = np.random.default_rng(23)
        systems = [make_real_axis_direct_sum()]
        systems += [acceptance._connected_direct_sum(rng) for _ in range(10)]
        systems += [acceptance._disconnected_direct_sum(rng)
                    for _ in range(10)]
        for system in systems:
            for labels in _label_sets(rng, system.k):
                oracle = intersect([system.generator_space(i)
                                    for i in set(labels)], system.dim)
                self._check(sequence_generator_intersection(system, labels),
                            oracle)


def hard_balls(n: int, r: float):
    return builders.hard_ball_system(
        builders.HardBallParams(n, 2, (1.0,) * n, r))[0]


class TestStackedKernel:
    """The stacked collision kernel against the scalar per-path oracle."""

    @staticmethod
    def grazing_spec(system, labels, rng):
        """A path tangent to its first cylinder: the offset puts the axis
        at distance exactly r from the line of flight, at time 1."""
        basis = system.base_space(labels[0]).basis
        r = system.cylinders[labels[0]].radius
        v0 = unit(rng.standard_normal(system.dim))
        u = basis.T @ v0
        perp = np.array([-u[1], u[0]]) / np.linalg.norm(u)
        offsets = [u + r * perp] + [np.zeros(basis.shape[1])
                                    for _ in labels[1:]]
        return EuclideanPathSpec(v0, offsets)

    @staticmethod
    def axial_spec(system, labels):
        """A velocity along the first cylinder's axis (no root)."""
        axis = system.generator_space(labels[0]).basis[:, 0]
        return EuclideanPathSpec(
            unit(axis), [np.ones(system.base_space(lab).dim)
                         for lab in labels])

    @pytest.mark.parametrize("n_balls,r,seed", [
        (3, 0.15, 1), (3, 0.15, 2), (5, 0.05, 3), (5, 0.05, 4),
    ])
    def test_matches_scalar_oracle(self, n_balls, r, seed):
        from cylbill import torusflow

        system = hard_balls(n_balls, r)
        rng = np.random.default_rng(seed)
        # a real collision sequence and its path, unfolded from the flow
        record = torusflow.flow(system, torusflow.random_phase(system, rng),
                                max_collisions=4)
        labels, base = torusflow.unfold_to_path(record, system)
        specs = [base]
        for scale in np.geomspace(1e-6, 1.0, 150):
            v0 = unit(base.v0 + scale * rng.standard_normal(system.dim))
            specs.append(EuclideanPathSpec(v0, [
                a + scale * rng.standard_normal(a.shape[0])
                for a in base.offsets]))
        specs += [sample_spec(system, labels, rng) for _ in range(100)]
        specs += [self.grazing_spec(system, labels, rng) for _ in range(5)]
        specs.append(self.axial_spec(system, labels))
        stack = paths._collide(
            paths._SequenceView(system, labels), np.array([s.v0 for s in specs]),
            np.array([np.concatenate(s.offsets) for s in specs]))
        seen = set()
        for i, spec in enumerate(specs):
            want = scalar_trace_oracle(system, labels, spec)
            if len(want) == 2:
                cls, step = want
                seen.add(cls)
                got = stack.error(i) if stack.status[i] else None
                assert type(got) is cls and got.step == step, (i, got)
                with pytest.raises(cls) as info:
                    trace(system, labels, spec)
                assert info.value.step == step
                continue
            times, normals, min_inc = want
            seen.add("traced")
            assert stack.status[i] == 0 and stack.step[i] == -1
            # Each collision agrees with the scalar quadratic restarted from
            # the kernel's own state before it.
            x = np.zeros(system.dim)
            t = 0.0
            for j, lab in enumerate(labels):
                one = EuclideanPathSpec(stack.velocities[i, j],
                                        [spec.offsets[j]])
                t1, n1, _ = scalar_trace_oracle(system, [lab], one, x, t)
                assert abs(stack.times[i, j] - t1[0]) <= 1e-12
                assert np.max(np.abs(stack.normals[i, j] - n1[0])) <= 1e-12
                # the kernel keeps no positions: rebuild the next start
                x = x + (stack.times[i, j] - t) * stack.velocities[i, j]
                t = stack.times[i, j]
            # Whole paths: the sums are ordered differently, and each
            # dispersing collision amplifies the last-bit differences.
            assert np.max(np.abs(stack.times[i] - times)) <= 1e-9
            assert np.max(np.abs(stack.normals[i] - normals)) <= 1e-9
            assert abs(stack.min_incidence[i] - min_inc) <= 1e-9
            # the one-row case may round differently from a tall stack
            res = trace(system, labels, spec)
            assert np.max(np.abs(res.times - stack.times[i])) <= 1e-9
            assert np.max(np.abs(res.final_velocity
                                 - stack.velocities[i, -1])) <= 1e-9
        assert seen == {"traced", NoRealRoot, Tangential, NonAdvancing}


class TestContactRule:
    """``contact_status``, the one rule by which the flow's scan, the path
    tracer and the δ sampler call a contact a miss or a graze."""

    UU, RR = 0.5, 0.04

    @staticmethod
    def decide(disc, uu, rr):
        """The rule's code on floats, checked against its code on
        one-element arrays."""
        code = paths.contact_status(float(disc), float(uu), rr)
        assert type(code) is int
        assert paths.contact_status(np.array([disc]), np.array([uu]),
                                    rr).tolist() == [code]
        return code

    def test_discriminant_edges(self):
        guard = paths.contact_guard(self.UU, self.RR)
        assert guard == DISC * self.RR * self.UU > 0
        edges = {-1.0: paths._MISS,
                 -guard: paths._MISS,
                 np.nextafter(-guard, 0.0): paths._GRAZE,
                 0.0: paths._GRAZE,
                 np.nextafter(guard, 0.0): paths._GRAZE,
                 guard: 0,
                 1.0: 0}
        for disc, code in edges.items():
            assert self.decide(disc, self.UU, self.RR) == code, disc

    def test_axis_parallel_edge(self):
        # a clear discriminant, so only the speed toward the axis decides
        below = np.nextafter(AXIS_PARALLEL, 0.0)
        assert self.decide(1.0, AXIS_PARALLEL, self.RR) == 0
        assert self.decide(1.0, below, self.RR) == paths._MISS
        assert self.decide(0.0, 0.0, self.RR) == paths._MISS


def screen_draws(system, rng):
    """One constrained sample's two draws, in stream order: 64 unit
    velocities, then 64 translations uniform in the box of half-width three
    times the largest radius."""
    box = 3.0 * max(c.radius for c in system.cylinders)
    v0s = rng.standard_normal((64, system.dim))
    v0s /= np.sqrt(np.vecdot(v0s, v0s))[:, None]
    return v0s, rng.uniform(-box, box, size=(64, system.dim))


def one_candidate_constrained(system, labels, base, n_samples, seed):
    """Reference for the constrained screen: each sample's 64 candidates
    walked one at a time, each classified by the scalar oracle, and the
    expanding dimension of the first that traces from ``w_plus``."""
    reasons = {NoRealRoot: "miss", Tangential: "graze",
               NonAdvancing: "non_advancing"}
    rejected = dict.fromkeys(REJECTION_REASONS, 0)
    dims, failed = [], 0
    for child in np.random.SeedSequence(seed).spawn(n_samples):
        for v0, a in zip(*screen_draws(system, np.random.default_rng(child))):
            spec = translate_all(system, labels,
                                 EuclideanPathSpec(v0, base.offsets), a)
            traced = scalar_trace_oracle(system, labels, spec)
            if len(traced) == 2:
                rejected[reasons[traced[0]]] += 1
                continue
            dims.append(w_plus(system, labels, spec).dim)
            break
        else:
            failed += 1
    return dims, failed, rejected


def screen_systems(name):
    return {
        "sphere2": lambda: make_sphere_system(2, 0.5, np.zeros(2)),
        "sphere3": lambda: make_sphere_system(3, 0.5, np.zeros(3)),
        "blocks": make_two_block_system,
        "hb3": lambda: hard_balls(3, 0.15),
    }[name]()


class TestBlockScreening:
    """The constrained sampler screens each sample's random candidates as
    one stack."""

    @pytest.mark.parametrize("name,labels,seed,reasons", [
        ("sphere2", [0], 3, {"miss", "non_advancing"}),
        ("sphere3", [0], 4, {"miss", "non_advancing"}),
        ("blocks", [0, 0], 5, {"miss", "non_advancing"}),
        ("hb3", [0, 1], 6, {"miss", "non_advancing"}),
    ])
    def test_matches_one_candidate_sampler(self, name, labels, seed,
                                           reasons):
        system = screen_systems(name)
        base = sample_traceable_spec(system, labels,
                                     np.random.default_rng(seed), tries=500)
        report = paths._constrained_report(system, labels, base, 30, seed)
        dims, failed, rejected = one_candidate_constrained(
            system, labels, base, 30, seed)
        assert report.sample_dims == dims
        assert report.n_failed_samples == failed
        assert report.rejected == rejected
        assert report.n_attempts == sum(rejected.values()) + len(dims)
        assert {k for k, v in rejected.items() if v} == reasons

    def test_sample_spec_draws_match_per_collision_calls(self):
        system = hard_balls(3, 0.15)
        labels = [0, 1, 2, 0]
        box = 3.0 * max(c.radius for c in system.cylinders)
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(20):
            spec = sample_spec(system, labels, a)
            v0 = b.standard_normal(system.dim)
            v0 /= np.linalg.norm(v0)
            assert np.array_equal(spec.v0, v0)
            for off, lab in zip(spec.offsets, labels):
                want = b.uniform(-box, box, size=system.base_space(lab).dim)
                assert np.array_equal(off, want)

    def test_each_sample_traces_its_draws_as_one_stack(self, monkeypatch):
        # After the base path's trace, one stacked trace per sample: the
        # sample's 64 velocities, and the base offsets moved by its 64
        # translations.  The rows come from one matrix product, so they
        # may differ from the per-collision reference by a few roundings.
        system = hard_balls(3, 0.15)
        labels = [0, 1]
        base = sample_traceable_spec(system, labels,
                                     np.random.default_rng(2), tries=2000)
        box = 3.0 * max(c.radius for c in system.cylinders)
        atol = 8 * system.dim * np.finfo(float).eps * box
        stacks = []
        original = paths._collide

        def collide(view, v0s, offsets):
            stacks.append((v0s.copy(), offsets.copy()))
            return original(view, v0s, offsets)

        monkeypatch.setattr(paths, "_collide", collide)
        report = paths._constrained_report(system, labels, base, 12, 21)
        assert report.n_success > 0 and report.n_attempts > 12
        assert len(stacks) == 1 + 12
        for (v0s, rows), child in zip(stacks[1:],
                                      np.random.SeedSequence(21).spawn(12)):
            want, moves = screen_draws(system, np.random.default_rng(child))
            assert np.array_equal(v0s, want)
            for v0, a, row in zip(want, moves, rows):
                spec = translate_all(system, labels,
                                     EuclideanPathSpec(v0, base.offsets), a)
                np.testing.assert_allclose(row, np.concatenate(spec.offsets),
                                           rtol=0, atol=atol)

    def test_attempts_are_rejections_plus_successes(self):
        system = hard_balls(3, 0.15)
        for labels in ([0, 1], [0, 1, 2]):
            base = sample_traceable_spec(system, labels,
                                         np.random.default_rng(5), tries=2000)
            report = paths._constrained_report(system, labels, base, 40, 5)
            assert tuple(report.rejected) == REJECTION_REASONS
            assert report.n_attempts == \
                sum(report.rejected.values()) + report.n_success
            assert report.n_attempts <= 64 * 40


class TestConstructiveSampler:
    """The free δ sampler builds every path forward."""

    @pytest.mark.parametrize("labels,seed,value,n_success,failed", [
        ([0, 1, 2], 3, 3, 100, 0),
        ([0, 1, 2], 8, 3, 100, 0),
        ([0, 1, 2, 0], 6, 3, 100, 0),
        ([0, 1, 2, 0], 8, 3, 100, 0),
    ])
    def test_pinned_box_sampler_values(
            self, labels, seed, value, n_success, failed):
        # δ values recorded from the box sampler, which accepted 10, 2, 1
        # and 2 of these 100 samples; every constructed sample is valid
        report = delta_sigma_report(hard_balls(3, 0.15), labels, 100, seed)
        assert report.value == value
        assert report.n_success == n_success
        assert report.n_failed_samples == failed
        assert report.sample_dims == [3] * n_success
        assert report.n_attempts == 100

    def test_former_no_valid_path_answers(self):
        # the box sampler found no valid path here in 6,400 candidates
        report = delta_sigma_report(hard_balls(3, 0.15), [0, 1, 2, 0], 100, 0)
        assert report.value == 3 and report.n_success == 100

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2], [0, 1, 2, 0]])
    def test_benchmark_sequences_reject_nothing(self, labels):
        system = hard_balls(3, 0.15)
        for seed in (0, 1, 2):
            report = delta_sigma_report(system, labels, 100, seed)
            assert report.n_attempts == report.n_success == 100
            assert report.rejected == dict.fromkeys(REJECTION_REASONS, 0)

    @staticmethod
    def place_cylinders(view, velocities, normals, advances):
        """Offset rows that put constructed paths' collisions in place:
        each path flies ``advances[i, j]`` to collision j, at ``x_j``, and
        meets cylinder j there with its unit base normal ``n_j`` facing
        the incoming velocity, so the offset is ``B_jᵀ x_j − r_j n_j``.
        Also returns the collision times and the ambient normals."""
        n, m = advances.shape
        offsets = np.empty((n, view.width))
        nrms = np.empty((n, m, view.d))
        x = np.zeros((n, view.d))
        for j, (basis, r, cols) in enumerate(zip(view.bases, view.radii,
                                                 view.cols)):
            v = velocities[:, j]
            x = x + advances[:, j:j + 1] * v
            n_local = normals[:, cols] / np.linalg.norm(normals[:, cols],
                                                        axis=1)[:, None]
            n_local[np.vecdot(v @ basis, n_local) > 0] *= -1.0
            offsets[:, cols] = x @ basis - r * n_local
            nrms[:, j] = n_local @ basis.T
        return offsets, np.cumsum(advances, axis=1), nrms

    def test_constructed_paths_retrace(self):
        # the velocity histories the sampler builds are those of real
        # paths: placed with drawn advances, every cylinder is met in
        # order, and the kernel traces the same velocities
        rng = np.random.default_rng(61)
        systems = [hard_balls(3, 0.15), hard_balls(5, 0.05),
                   make_sphere_system(3, 0.5, np.zeros(3)),
                   make_two_block_system(), random_int_system(rng, 4, 2)]
        checked = 0
        for system in systems:
            for m in (1, 2, 3):
                labels = [int(x) for x in rng.integers(0, system.k, size=m)]
                view = paths._SequenceView(system, labels)
                seed = int(rng.integers(1000))
                v0s, normals = next(paths._free_draws(view, 40, seed))
                velocities, status = paths._construct(view, v0s, normals)
                advances = np.random.default_rng(seed).uniform(
                    T_MIN_GAP, 1.0, size=(40, m))
                offsets, times, nrms = self.place_cylinders(
                    view, velocities, normals, advances)
                for i in np.flatnonzero(status == 0):
                    res = trace(system, labels,
                                spec_from_row(view, v0s[i], offsets[i]))
                    assert np.max(np.abs(res.times - times[i])) <= 1e-9
                    assert np.max(np.abs(res.velocities
                                         - velocities[i])) <= 1e-9
                    assert np.max(np.abs(res.normals - nrms[i])) <= 1e-9
                    checked += 1
        assert checked >= 590

    def test_guards_fail_their_sample(self):
        # draws that break each guard fail where the kernel fails the
        # placed path, for the same reason
        system = make_two_block_system()
        labels = [0, 1]
        view = paths._SequenceView(system, labels)
        v0s = np.array([unit([1, 1, 1, 1]), unit([0, 0, 1, 1]),
                        unit([1, 1, 1, 1]), unit([1, 2, 1, 1]),
                        unit([1, 0, 0, 0])])
        normals = np.array([[1.0, 0.0, 1.0, 0.0],   # traces
                            [1.0, 0.0, 1.0, 0.0],   # axial: u = 0
                            [1.0, -1.0, 1.0, 0.0],  # u . n = 0
                            [1.0, 0.0, 1.0, 0.0],   # traces
                            # reflected to -e1, along cylinder 1's axis
                            [1.0, 0.0, 1.0, 0.0]])
        velocities, status = paths._construct(view, v0s, normals)
        assert status.tolist() == [0, paths._MISS, paths._GRAZE, 0,
                                   paths._MISS]
        offsets, _, _ = self.place_cylinders(view, velocities, normals,
                                             np.full((5, 2), 0.5))
        traced = paths._collide(view, v0s, offsets)
        assert traced.status.tolist() == status.tolist()
        assert traced.step.tolist() == [-1, 0, 0, -1, 1]

    def test_draws_are_prefix_stable(self):
        view = paths._SequenceView(hard_balls(3, 0.15), [0, 1, 2, 0])
        few = next(paths._free_draws(view, 7, seed=12))
        many = next(paths._free_draws(view, 30, seed=12))
        for a, b in zip(few, many):
            assert np.array_equal(a, b[:7])

    def test_chunked_run_equals_unchunked(self, monkeypatch):
        system = hard_balls(3, 0.15)
        labels = [0, 1, 2, 0]
        view = paths._SequenceView(system, labels)
        whole = delta_sigma_report(system, labels, 40, 9)
        (unchunked,) = paths._free_draws(view, 40, 9)
        monkeypatch.setattr(paths, "SAMPLE_CHUNK", 7)
        chunks = list(paths._free_draws(view, 40, 9))
        assert [len(c[0]) for c in chunks] == [7] * 5 + [5]
        for a, parts in zip(unchunked, zip(*chunks)):
            assert np.array_equal(a, np.concatenate(parts))
        assert delta_sigma_report(system, labels, 40, 9) == whole


class TestReachabilityMatch:
    """Small translations of all cylinders and independent per-cylinder
    translations reach the same nearby final velocities."""

    def test_uniform_reached_by_independent(self, sphere3, rng):
        spec = sample_traceable_spec(sphere3, [0], rng)
        base_vm = trace(sphere3, [0], spec).final_velocity
        for _ in range(20):
            a = 1e-4 * rng.standard_normal(3)
            target = trace(sphere3, [0],
                           translate_all(sphere3, [0], spec, a)).final_velocity
            b = [sphere3.base_space(0).basis
                 @ (sphere3.base_space(0).basis.T @ a)]
            via_each = trace(sphere3, [0],
                             translate_each(sphere3, [0], spec, b)
                             ).final_velocity
            assert np.linalg.norm(via_each - target) < 1e-12

    def test_independent_reached_by_uniform_newton(self, sphere3, rng):
        # inverse direction: a nearby per-cylinder perturbation's final
        # velocity is matched by a uniform translation (Newton on the
        # derivative matrix)
        spec = sample_traceable_spec(sphere3, [0], rng)
        base_vm = trace(sphere3, [0], spec).final_velocity
        mat = fd.dvm_matrix(sphere3, [0], spec)
        pinv = np.linalg.pinv(mat, rcond=1e-8)
        hits = 0
        for _ in range(20):
            step = 1e-5 * rng.standard_normal(3)
            b = [sphere3.base_space(0).basis
                 @ (sphere3.base_space(0).basis.T @ step)]
            target = trace(sphere3, [0],
                           translate_each(sphere3, [0], spec, b)
                           ).final_velocity
            a = np.zeros(3)
            cur = spec
            for _ in range(4):
                vm = trace(sphere3, [0], cur).final_velocity
                a = a + pinv @ (target - vm)
                cur = translate_all(sphere3, [0], spec, a)
            vm = trace(sphere3, [0], cur).final_velocity
            if np.linalg.norm(vm - target) < 1e-8:
                hits += 1
        assert hits == 20


class TestAlgebraicSmoothness:
    def test_times_smooth_along_lines(self, sphere3, rng):
        spec = sample_traceable_spec(sphere3, [0], rng)
        direction = rng.standard_normal(3)
        h = 1e-4
        ts = []
        for k in range(-25, 26):
            moved = translate_all(sphere3, [0], spec, k * h * direction)
            try:
                ts.append(trace(sphere3, [0], moved).times[0])
            except TraceError:
                pytest.skip("line left the traceable set")
        ts = np.array(ts)
        first = np.diff(ts)
        second = np.diff(ts, 2)
        assert np.max(np.abs(first)) < 1.0           # no jumps
        assert np.max(np.abs(second)) / h ** 2 < 1e4  # bounded curvature


class TestFiles:
    def test_sigma_roundtrip(self, tmp_path):
        p = tmp_path / "sigma.json"
        save_sigma([0, 1, 0, 2], p)
        assert load_sigma(p) == [0, 1, 0, 2]

    def test_malformed_files_are_format_errors(self, tmp_path):
        from cylbill.model import SystemFormatError

        p = tmp_path / "bad.json"
        p.write_text("{broken")
        with pytest.raises(SystemFormatError):
            load_sigma(p)
        p.write_text('{"format": "cylbill-sigma", "labels": [[1]]}\n')
        with pytest.raises(SystemFormatError):
            load_sigma(p)

    def test_sigma_rejects_junk(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format": "cylbill-sigma", "labels": []}\n')
        from cylbill.model import SystemFormatError

        with pytest.raises(SystemFormatError):
            load_sigma(p)

    @pytest.mark.parametrize("label", ["0.7", "true", "false", "NaN",
                                       "1e400", '"1"'])
    def test_sigma_refuses_labels_that_are_not_integers(self, tmp_path,
                                                        label):
        from cylbill.model import SystemFormatError

        p = tmp_path / "bad.json"
        p.write_text(f'{{"format": "cylbill-sigma", "labels": [{label}, 0]}}')
        with pytest.raises(SystemFormatError, match="is not an integer"):
            load_sigma(p)

    def test_sigma_reads_integral_floats(self, tmp_path):
        p = tmp_path / "sigma.json"
        p.write_text('{"format": "cylbill-sigma", "labels": [2.0, 0, 7]}')
        assert load_sigma(p) == [2, 0, 7]


class TestPhiMapProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(2, 6), st.integers(0, 6), st.integers(1, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_reflections_preserve_norm_and_compose(self, d, m, seed):
        r = np.random.default_rng(seed)
        v = r.standard_normal(d)
        v /= np.linalg.norm(v)
        normals = []
        for _ in range(m):
            n = r.standard_normal(d)
            normals.append(n / np.linalg.norm(n))
        out = apply_reflections(v, normals)[:, 0]
        assert abs(np.linalg.norm(out) - 1.0) < 1e-13
        # applying each reflection twice is the identity
        doubled = apply_reflections(
            v, [n for n in normals for _ in range(2)])[:, 0]
        assert np.linalg.norm(doubled - v) < 1e-12
