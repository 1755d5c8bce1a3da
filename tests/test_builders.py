from pathlib import Path

import numpy as np
import pytest

import intlat_oracle as oracle
from cylbill import builders, fileio, intlat
from cylbill.builders import (
    BuilderError,
    FactorLatticeError,
    HardBallParams,
    NotDirectSumError,
    direct_sum_system,
    hard_ball_system,
    pair_radius,
    sub_billiard,
)
from cylbill.classify import (
    commutant_dimension,
    graph_components,
    is_transitive,
    is_transverse,
)
from cylbill.geometry import (
    Subspace,
    complement,
    orthonormalize,
    projector_distance,
    span_of,
    subspace_overlap,
)
from cylbill.model import load_system, system_to_dict, validate
from cylbill.torusflow import random_phase
from conftest import (
    axis_space,
    make_thin_lattice_system,
    make_two_block_system,
    project_zero_momentum,
    random_subspace,
)


def lagrange_reduced_gram(basis2d: np.ndarray) -> np.ndarray:
    """Canonical Gram matrix of a 2-dimensional lattice (Lagrange/Gauss
    reduction), used to compare lattices up to rotation."""
    u = basis2d[:, 0].copy()
    v = basis2d[:, 1].copy()
    for _ in range(200):
        if u @ u > v @ v:
            u, v = v, u
        q = round(float((u @ v) / (u @ u)))
        v2 = v - q * u
        if v2 @ v2 >= v @ v - 1e-15:
            break
        v = v2
    if u @ v < 0:
        v = -v
    return np.array([[u @ u, u @ v], [u @ v, v @ v]])


class TestHardBallParams:
    def test_validation(self):
        with pytest.raises(BuilderError):
            HardBallParams(1, 2, (1.0,), 0.1)
        with pytest.raises(BuilderError):
            HardBallParams(2, 1, (1.0, 1.0), 0.1)
        with pytest.raises(BuilderError):
            HardBallParams(2, 2, (1.0, -1.0), 0.1)
        with pytest.raises(BuilderError):
            HardBallParams(2, 2, (1.0, 1.0), 0.0)
        with pytest.raises(BuilderError):
            HardBallParams(2, 2, (1.0,), 0.1)

    def test_radius_that_leaves_no_free_point(self):
        # 2 r against sqrt(nu)/2, the largest distance on the unit torus
        for nu in (2, 3):
            with pytest.raises(BuilderError, match="overlap"):
                HardBallParams(2, nu, (1.0, 1.0), np.sqrt(nu) / 4)
        with pytest.raises(BuilderError):
            HardBallParams(2, 2, (1.0, 1.0), 0.36)
        # just below the limit a free start is still found (random_phase
        # raises FlowError after 1,000 tries otherwise)
        system, _ = hard_ball_system(HardBallParams(2, 2, (1.0, 1.0), 0.35))
        random_phase(system, np.random.default_rng(0))


class TestHardBall:
    def test_two_balls_unit_masses(self):
        system, emb = hard_ball_system(HardBallParams(2, 2, (1.0, 1.0), 0.1))
        assert system.dim == 2
        assert system.k == 1
        assert abs(system.cylinders[0].radius - 0.1 * np.sqrt(2.0)) < 1e-16
        assert validate(system).ok

    def test_mass_ratio_radius(self):
        system, _ = hard_ball_system(HardBallParams(2, 2, (1.0, 3.0), 0.25))
        assert abs(system.cylinders[0].radius - 0.25 * np.sqrt(3.0)) < 1e-15

    def test_radius_formula_exact(self, rng):
        for n in (2, 3, 4):
            for nu in (2, 3):
                masses = tuple(float(m) for m in rng.uniform(0.2, 5.0, size=n))
                r = float(rng.uniform(0.01, 0.2))
                system, emb = hard_ball_system(
                    HardBallParams(n, nu, masses, r))
                for idx, (i, j) in enumerate(emb.pairs):
                    expected = 2 * r * np.sqrt(
                        masses[i] * masses[j] / (masses[i] + masses[j]))
                    assert abs(system.cylinders[idx].radius - expected) < 1e-14

    def test_three_ball_structure(self):
        system, emb = hard_ball_system(HardBallParams(3, 2, (1.0, 1.0, 1.0),
                                                      0.1))
        assert system.dim == 4
        assert system.k == 3
        assert all(system.base_space(i).dim == 2 for i in range(3))
        assert validate(system).ok
        assert is_transverse(system)[0]

    def test_generator_dims(self):
        system, _ = hard_ball_system(HardBallParams(4, 2, (1.0, 2.0, 3.0, 4.0),
                                                    0.05))
        nu, n = 2, 4
        assert system.dim == nu * (n - 1)
        for i in range(system.k):
            assert axis_space(system, i).dim == nu * (n - 2)
            assert system.base_space(i).dim == nu

    def test_disjoint_pairs_orthogonal(self):
        system, emb = hard_ball_system(HardBallParams(4, 2,
                                                      (1.0, 1.5, 0.7, 2.0),
                                                      0.05))
        for a in range(system.k):
            for b in range(a + 1, system.k):
                if not (set(emb.pairs[a]) & set(emb.pairs[b])):
                    assert subspace_overlap(system.base_space(a),
                                            system.base_space(b)) < 1e-10

    def test_full_system_spaces_stay_unfilled(self):
        _, emb = hard_ball_system(HardBallParams(4, 2, (1.0, 2.0, 3.0, 4.0),
                                                 0.05))
        assert emb.full_system._spaces is None

    @pytest.mark.parametrize("n, nu", [(2, 2), (3, 2), (5, 2), (3, 3),
                                       (4, 3)])
    def test_pair_blocks_equal_a_loop_build(self, n, nu):
        _, emb = hard_ball_system(HardBallParams(n, nu, (1.0,) * n, 0.05))
        for (i, j), cyl in zip(emb.pairs, emb.full_system.cylinders):
            cols = []
            for a in range(nu):
                col = np.zeros(n * nu, dtype=np.int64)
                col[[i * nu + a, j * nu + a]] = 1
                cols.append(col)
            for b in range(n):
                if b not in (i, j):
                    for a in range(nu):
                        col = np.zeros(n * nu, dtype=np.int64)
                        col[b * nu + a] = 1
                        cols.append(col)
            assert cyl.generator_coeffs.dtype == np.int64
            assert np.array_equal(cyl.generator_coeffs, np.column_stack(cols))

    def test_embedding_maps(self):
        params = HardBallParams(3, 2, (1.0, 2.0, 0.5), 0.1)
        system, emb = hard_ball_system(params)
        rng = np.random.default_rng(5)
        v = project_zero_momentum(params.masses,
                                  rng.standard_normal((3, 2)))
        red = emb.reduce_velocities(v)
        # kinetic energy is preserved by the embedding
        ke = sum(m * float(vi @ vi) for m, vi in zip(params.masses, v))
        assert abs(float(red @ red) - ke) < 1e-12
        with pytest.raises(BuilderError):
            emb.reduce_velocities(rng.standard_normal((3, 2)) + 3.0)
        # positions round-trip through the lift
        x = rng.standard_normal(system.dim)
        assert np.allclose(emb.reduce_positions(emb.lift_positions(x)), x)


class TestDirectSum:
    def test_orthogonal_blocks_integer_and_nontransitive(self):
        q = np.eye(4)
        bases = [Subspace(4, q[:, :2]), Subspace(4, q[:, 2:])]
        system, graph = direct_sum_system([2, 2], bases, [0.3, 0.3])
        assert validate(system).ok
        assert all(c.lattice_aligned for c in system.cylinders)
        assert graph.shape == (2, 2) and not graph.any()
        assert not is_transitive(system.base_spaces())[0]

    def test_tilted_blocks_transitive(self, rng):
        m = np.eye(4)
        m[:, 2:] += 0.4 * rng.standard_normal((4, 2))
        b1 = orthonormalize(m[:, :2].T.tolist())
        b2 = orthonormalize(m[:, 2:].T.tolist())
        system, graph = direct_sum_system([2, 2], [b1, b2], [0.2, 0.2])
        assert graph[0, 1]
        bases = system.base_spaces()
        assert is_transitive(bases)[0]
        assert commutant_dimension(bases) == 1

    def test_connected_chain_transverse(self, rng):
        # three blocks in R^6, consecutive ones coupled (tree-shaped graph)
        m = np.eye(6)
        m[:, 2:4] += 0.3 * np.roll(np.eye(6), 1, axis=1)[:, 2:4]
        m[0, 2] += 0.2
        m[2, 4] += 0.25
        bases = [orthonormalize(m[:, 0:2].T.tolist()),
                 orthonormalize(m[:, 2:4].T.tolist()),
                 orthonormalize(m[:, 4:6].T.tolist())]
        system, graph = direct_sum_system([2, 2, 2], bases, [0.2, 0.2, 0.2])
        assert len(graph_components(graph)) == 1
        assert is_transverse(system)[0]

    def test_not_direct_sum_rejected(self):
        b1 = orthonormalize([[1, 0, 0, 0], [0, 1, 0, 0]])
        with pytest.raises(NotDirectSumError):
            direct_sum_system([2, 2], [b1, b1], [0.1, 0.1])
        with pytest.raises(NotDirectSumError):
            direct_sum_system([2], [b1], [0.1])

    @pytest.mark.parametrize("rows, axes", [
        ([[[1, 1, 0, 0], [0, 0, 1, 2]], [[1, 0, 0, 0], [0, 0, 1, 0]]],
         [[[1, -1, 0, 0], [0, 0, 2, -1]], [[0, 1, 0, 0], [0, 0, 0, 1]]]),
        ([[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 1, 1, 0], [0, 0, 0, 1]]],
         [[[0, 0, 1, 0], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 1, -1, 0]]]),
        ([[[1, 2, 0], [0, 0, 1]], [[0, 1, 3]]],
         [[[2, -1, 0]], [[1, 0, 0], [0, 3, -1]]]),
    ])
    def test_rational_blocks_get_primitive_axes(self, rows, axes):
        bases = [orthonormalize(r) for r in rows]
        system, _ = direct_sum_system([b.dim for b in bases], bases,
                                      [0.1] * len(bases))
        for cyl, want in zip(system.cylinders, axes):
            assert cyl.lattice_aligned
            assert cyl.generator_coeffs.T.tolist() == want

    def test_rational_axes_on_a_skew_lattice(self):
        # axes rational in lattice coordinates, not in ambient ones
        lattice = np.array([[1.0, 0.5, 0, 0], [0, np.sqrt(2.0), 0, 0],
                            [0, 0, 1.0, 0], [0, 0, 0.3, 1.0]])
        axes = [[[1, 1, 0, 0], [0, 0, 1, 2]], [[1, -1, 0, 0], [0, 0, 2, -1]]]
        bases = [complement(orthonormalize((lattice @ np.array(a).T).T))
                 for a in axes]
        system, _ = direct_sum_system([2, 2], bases, [0.1, 0.1],
                                      lattice_basis=lattice)
        for cyl, want in zip(system.cylinders, axes):
            assert cyl.lattice_aligned
            assert cyl.generator_coeffs.T.tolist() == want

    def test_fallback_real_basis_for_irrational(self):
        # rotate across the block boundary by an irrational angle
        theta = np.sqrt(2.0) / 3.0
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[1.0, 0, 0, 0], [0, c, -s, 0],
                        [0, s, c, 0], [0, 0, 0, 1.0]])
        b1 = Subspace(4, rot[:, :2])
        b2 = Subspace(4, rot[:, 2:])
        system, _ = direct_sum_system([2, 2], [b1, b2], [0.1, 0.1])
        assert not system.cylinders[0].lattice_aligned
        assert system.cylinders[0].provenance
        # derived base spaces still match the requested blocks
        assert projector_distance(system.base_space(0), b1) < 1e-9

    def test_random_planes_keep_a_real_axis(self, rng):
        for _ in range(5):
            b1 = orthonormalize(rng.standard_normal((2, 4)))
            system, _ = direct_sum_system([2, 2], [b1, complement(b1)],
                                          [0.1, 0.1])
            assert not any(c.lattice_aligned for c in system.cylinders)


class TestSubBilliard:
    def test_full_index_set_identity_up_to_rotation(self):
        params = HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.1)
        system, _ = hard_ball_system(params)
        factor, report = sub_billiard(system, range(system.k))
        assert factor.dim == system.dim
        assert report.drift_lattice_rank == 0
        assert [c.radius for c in factor.cylinders] == \
            [c.radius for c in system.cylinders]
        assert abs(abs(np.linalg.det(factor.lattice.basis))
                   - abs(np.linalg.det(system.lattice.basis))) < 1e-12

    def test_pair_factor_matches_direct_two_ball_build(self):
        masses = (1.0, 2.0, 5.0)
        r = 0.07
        system3, emb3 = hard_ball_system(HardBallParams(3, 2, masses, r))
        pair_idx = emb3.pairs.index((0, 1))
        factor, report = sub_billiard(system3, [pair_idx])
        direct, _ = hard_ball_system(HardBallParams(2, 2,
                                                    (masses[0], masses[1]), r))
        assert factor.dim == direct.dim == 2
        assert factor.k == direct.k == 1
        assert abs(factor.cylinders[0].radius
                   - direct.cylinders[0].radius) < 1e-14
        g1 = lagrange_reduced_gram(factor.lattice.basis)
        g2 = lagrange_reduced_gram(direct.lattice.basis)
        assert np.allclose(g1, g2, atol=1e-10)

    def test_block_factor_of_product(self):
        system = make_two_block_system()
        factor, report = sub_billiard(system, [0])
        assert factor.dim == 2
        assert factor.k == 1
        assert factor.cylinders[0].radius == system.cylinders[0].radius
        assert factor.base_space(0).dim == 2
        # drift space is the other block
        assert projector_distance(report.drift_space,
                                  system.base_space(1)) < 1e-10

    def test_base_spaces_preserved(self):
        params = HardBallParams(3, 2, (1.0, 3.0, 2.0), 0.1)
        system, _ = hard_ball_system(params)
        factor, report = sub_billiard(system, [0, 1])
        q = report.active_space.basis
        for pos, parent_idx in enumerate(report.parent_indices):
            lifted = Subspace(system.dim,
                              q @ factor.base_space(pos).basis)
            assert projector_distance(lifted,
                                      system.base_space(parent_idx)) < 1e-9

    def test_thin_lattice_drift_raises(self):
        with pytest.raises(FactorLatticeError, match="lattice rank 1"):
            sub_billiard(make_thin_lattice_system(), [0, 1])

    def test_real_basis_parent_rejected(self):
        theta = np.sqrt(2.0) / 3.0
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[1.0, 0, 0, 0], [0, c, -s, 0],
                        [0, s, c, 0], [0, 0, 0, 1.0]])
        system, _ = direct_sum_system(
            [2, 2], [Subspace(4, rot[:, :2]), Subspace(4, rot[:, 2:])],
            [0.1, 0.1])
        with pytest.raises(BuilderError):
            sub_billiard(system, [0])

    def test_empty_index_set_rejected(self):
        system = make_two_block_system()
        with pytest.raises(BuilderError):
            sub_billiard(system, [])


# Written by ``system_to_dict`` when the lattice quotient still used
# Fraction inverses and determinants and the greedy rank loop.  They keep
# the ``interior_connected_asserted`` line it wrote then and writes no more,
# so that they also stand for older files, which must still load.
BUILT_SYSTEMS = {
    "hb_2_2": HardBallParams(2, 2, (1.0, 1.0), 0.15),
    "hb_3_2": HardBallParams(3, 2, (1.0, 1.2, 0.9), 0.1),
    "hb_5_2": HardBallParams(5, 2, (1.0,) * 5, 0.05),
    "hb_4_3": HardBallParams(4, 3, (1.0, 2.0, 1.5, 0.7), 0.1),
    "hb_5_3": HardBallParams(5, 3, (1.0,) * 5, 0.1),
}


@pytest.mark.parametrize("name", sorted(BUILT_SYSTEMS))
def test_built_system_is_byte_identical_to_its_file(name):
    system, _ = hard_ball_system(BUILT_SYSTEMS[name])
    lines = (Path(__file__).parent / "data" / f"{name}.json").read_text(
        encoding="utf-8").splitlines(keepends=True)
    expected = "".join(line for line in lines
                       if line != '  "interior_connected_asserted": true,\n')
    assert len(expected) < sum(map(len, lines))
    assert fileio.dumps(system_to_dict(system)) == expected


def _factor_cases():
    """(parent, indices, report) for every hard-ball build of hb(N,2),
    N = 2..8, and hb(N,3), N = 2..4, with unit and unequal masses, and for
    three sub-billiards: hb(3,2) on {0, 1}, one pair of hb(3,2) with
    masses (1, 2, 5), and the first block of the two-block system."""
    for nu, top in ((2, 8), (3, 4)):
        for n in range(2, top + 1):
            for masses in ((1.0,) * n, tuple(1.0 + 0.3 * i for i in range(n))):
                _, emb = hard_ball_system(HardBallParams(n, nu, masses, 0.05))
                yield emb.full_system, range(emb.full_system.k), \
                    emb.factor_report
    hb3, _ = hard_ball_system(HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.1))
    hb3_masses, emb = hard_ball_system(HardBallParams(3, 2, (1.0, 2.0, 5.0),
                                                      0.07))
    blocks = make_two_block_system()
    for parent, indices in ((hb3, [0, 1]),
                            (hb3_masses, [emb.pairs.index((0, 1))]),
                            (blocks, [0])):
        yield parent, indices, sub_billiard(parent, indices)[1]


def test_factor_quotient_agrees_with_the_span_of_the_base_spaces():
    # the check the factor builder no longer makes: the common axis
    # sublattice's rank is the joint span's deficiency, and the active
    # space is that span
    n_cases = 0
    for parent, indices, report in _factor_cases():
        span = span_of([parent.base_space(i) for i in indices])
        assert report.drift_lattice_rank == parent.dim - span.dim
        assert report.drift_space.dim == report.drift_lattice_rank
        assert projector_distance(report.active_space, span) < 1e-12
        n_cases += 1
    assert n_cases == 2 * (7 + 3) + 3


def _assert_oracle_factor(parent, indices):
    """``sub_billiard``'s cylinders keep the columns, with the coefficients,
    that mapping each whole block and eliminating its image keeps."""
    idx = sorted(set(indices))
    blocks = [parent.cylinders[i].generator_coeffs for i in idx]
    quotient = intlat.lattice_quotient(blocks, parent.dim)
    factor, _ = sub_billiard(parent, idx)
    for i, (block, cyl) in enumerate(zip(blocks, factor.cylinders)):
        cols, coords = oracle.factor_columns(quotient, block)
        assert quotient.kept_columns(i) == cols
        assert cyl.generator_coeffs.dtype == np.int64
        assert cyl.generator_coeffs.flags.c_contiguous
        assert cyl.generator_coeffs.shape == coords.shape
        assert (cyl.generator_coeffs.astype(object) == coords).all()


def test_kept_columns_match_the_mapped_blocks_on_the_factor_cases():
    n_cases = 0
    for parent, indices, _ in _factor_cases():
        _assert_oracle_factor(parent, indices)
        n_cases += 1
    assert n_cases == 2 * (7 + 3) + 3


@pytest.mark.parametrize("n", range(2, 11))
def test_kept_columns_match_the_mapped_blocks_with_unequal_masses(n):
    masses = tuple(1.0 + 0.37 * i + 0.11 * i * i for i in range(n))
    _, emb = hard_ball_system(HardBallParams(n, 2, masses, 0.02))
    _assert_oracle_factor(emb.full_system, range(emb.full_system.k))


@pytest.mark.parametrize("name", sorted(BUILT_SYSTEMS))
def test_kept_columns_match_the_mapped_blocks_on_the_data_files(name):
    parent = load_system(Path(__file__).parent / "data" / f"{name}.json")
    k = parent.k
    for indices in ([[i] for i in range(k)]
                    + [[i, j] for i in range(k) for j in range(i + 1, k)]
                    + [list(range(k))]):
        _assert_oracle_factor(parent, indices)


@pytest.mark.parametrize("n, nu", [(3, 2), (5, 2), (8, 2), (4, 3)])
def test_hard_ball_build_makes_no_pivot_columns_call(n, nu, monkeypatch):
    calls = []
    original = intlat.pivot_columns
    monkeypatch.setattr(intlat, "pivot_columns",
                        lambda a: calls.append(1) or original(a))
    hard_ball_system(HardBallParams(n, nu, (1.0,) * n, 0.05))
    assert calls == []
