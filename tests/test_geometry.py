import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylbill import fileio, geometry
from cylbill.geometry import (
    DimensionMismatch,
    Lattice,
    Subspace,
    complement,
    containment_residual,
    null_space,
    singular_rank,
    orthonormalize,
    projector_distance,
    span_of,
    subspace_overlap,
)
from cylbill.config import DROP
from cylbill.errors import LimitError
from conftest import intersect, random_subspace, row_reduction_rank
from lll_oracle import census, lll_loop
from mgs_oracle import orthonormalize_mgs
from shadow_oracle import nearest_image_delta


class TestOrthonormalize:
    def test_colinear_collapse(self):
        s = orthonormalize([[1, 0], [2, 0]])
        assert s.dim == 1
        assert abs(abs(s.basis[0, 0]) - 1) < 1e-14

    def test_empty_span(self):
        s = orthonormalize([], ambient_dim=3)
        assert s.dim == 0 and s.ambient_dim == 3

    def test_rank_matches_row_reduction_oracle(self, rng):
        for _ in range(10):
            vecs = [rng.standard_normal(6) for _ in range(50)]
            # inject deliberate dependencies
            vecs[10] = vecs[0] + vecs[1]
            vecs[20] = 0.5 * vecs[2]
            assert orthonormalize(vecs).dim == row_reduction_rank(vecs)

    def test_rank_stable_under_permutation(self, rng):
        vecs = [rng.standard_normal(5) for _ in range(8)]
        vecs[3] = vecs[0] - 2 * vecs[1]
        base = orthonormalize(vecs).dim
        for _ in range(10):
            perm = rng.permutation(len(vecs))
            assert orthonormalize([vecs[i] for i in perm]).dim == base

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            orthonormalize([[1, 0], [1, 0, 0]])

    def test_gram_identity_on_outputs(self, rng):
        for _ in range(20):
            s = orthonormalize(rng.standard_normal((7, 4)).T, ambient_dim=7)
            gram = s.basis.T @ s.basis
            assert np.max(np.abs(gram - np.eye(s.dim))) < 1e-10

    @given(st.integers(1, 6),
           st.lists(st.sampled_from(
               ["generic", "duplicate", "zero", "below", "above"]),
               min_size=1, max_size=12),
           st.sampled_from([0.0, 1e-8, 1.0]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_mgs_oracle(self, d, kinds, lift, seed):
        # a "below"/"above" column is `lift` times a combination of the
        # generic columns before it, plus a residual of norm 0.99 or 1.01
        # DROP orthogonal to the span kept so far (none once that is full)
        r = np.random.default_rng(seed)
        cols, generic, lifted = [], [], 0.0
        for kind in kinds:
            if kind == "generic" or (kind == "duplicate" and not cols):
                generic.append(r.standard_normal(d))
                cols.append(generic[-1])
            elif kind == "duplicate":
                cols.append(cols[r.integers(len(cols))].copy())
            elif kind == "zero":
                cols.append(np.zeros(d))
            else:
                x = lift * sum((r.standard_normal() * g for g in generic),
                               np.zeros(d))
                free = complement(orthonormalize_mgs(cols, ambient_dim=d))
                if free.dim:
                    e = free.basis @ r.standard_normal(free.dim)
                    scale = 0.99 if kind == "below" else 1.01
                    x = x + scale * DROP * e / np.linalg.norm(e)
                cols.append(x)
                lifted = max(lifted, float(np.linalg.norm(x)))
        ours, oracle = orthonormalize(cols), orthonormalize_mgs(cols)
        assert ours.dim == oracle.dim
        # a kept residual of norm about DROP fixes its direction only to
        # roundoff * |x| / DROP: 1e-12 unless a lifted column carries a
        # unit-size combination, where the two routes part by up to 1e-5
        tol = 1e-12 + 16 * np.finfo(float).eps * lifted / DROP
        assert np.max(np.abs(ours.projector() - oracle.projector())) < tol


class TestProject:
    def test_axis(self):
        s = orthonormalize([[1, 0]])
        assert np.allclose(s.projector() @ [3, 4], [3, 0])

    def test_full_space_identity(self, rng):
        s = Subspace.full(5)
        v = rng.standard_normal(5)
        assert np.allclose(s.projector() @ v, v)

    def test_idempotent(self, rng):
        for _ in range(25):
            s = random_subspace(rng, 6, int(rng.integers(0, 7)))
            v = rng.standard_normal(6)
            once = s.projector() @ v
            assert np.linalg.norm(s.projector() @ once - once) < 1e-12
            assert np.linalg.norm(once) <= np.linalg.norm(v) + 1e-12


class TestComplement:
    def test_plane_in_4space(self):
        s = orthonormalize([[1, 0, 0, 0], [0, 1, 0, 0]])
        c = complement(s)
        assert c.dim == 2
        assert subspace_overlap(s, c) < 1e-12

    def test_zero_gives_full(self):
        assert complement(Subspace.zero(4)).dim == 4

    def test_double_complement(self, rng):
        for _ in range(25):
            s = random_subspace(rng, 5, int(rng.integers(0, 6)))
            assert projector_distance(complement(complement(s)), s) < 1e-10

    def test_projection_decomposition(self, rng):
        s = random_subspace(rng, 6, 2)
        c = complement(s)
        for _ in range(100):
            v = rng.standard_normal(6)
            assert np.linalg.norm(s.projector() @ v + c.projector() @ v
                                  - v) < 1e-10


class TestSpanIntersect:
    def test_span_axes(self):
        s = span_of([orthonormalize([[1, 0, 0]]), orthonormalize([[0, 1, 0]])])
        assert s.dim == 2

    def test_intersect_planes(self):
        a = orthonormalize([[1, 0, 0], [0, 1, 0]])
        b = orthonormalize([[0, 1, 0], [0, 0, 1]])
        i = intersect([a, b])
        assert i.dim == 1
        assert abs(abs(i.basis[1, 0]) - 1) < 1e-10

    def test_dimension_formula(self, rng):
        for _ in range(30):
            u = random_subspace(rng, 6, int(rng.integers(0, 5)))
            v = random_subspace(rng, 6, int(rng.integers(0, 5)))
            lhs = u.dim + v.dim
            rhs = span_of([u, v]).dim + intersect([u, v]).dim
            assert lhs == rhs

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_dimension_formula_hypothesis(self, du, dv, seed):
        r = np.random.default_rng(seed)
        u = random_subspace(r, 5, du)
        v = random_subspace(r, 5, dv)
        assert u.dim + v.dim == span_of([u, v]).dim + intersect([u, v]).dim


class TestRank:
    def test_rel_tol_cutoff(self):
        m = np.diag([1.0, 1e-6, 1e-12])
        # RANK_REL = 1e-8 counts 1e-6 and drops 1e-12
        assert 3 - null_space(m).dim == 2

    def test_singular_rank_on_stacks(self):
        # a value at exactly RANK_REL * s_max counts, and all-zero or
        # empty singular values have rank 0, row by row as alone
        s = np.array([[1.0, 1e-6, 1e-12], [0.0, 0.0, 0.0], [2.0, 2e-8, 1e-8]])
        assert singular_rank(s).tolist() == [2, 0, 2]
        assert [int(singular_rank(row)) for row in s] == [2, 0, 2]
        assert singular_rank(np.zeros(0)) == 0
        assert null_space(np.zeros((3, 4))).dim == 4

    def test_containment(self, rng):
        outer = random_subspace(rng, 6, 4)
        inner = Subspace(6, outer.basis[:, :2])
        assert containment_residual(inner, outer) < 1e-12
        assert containment_residual(outer, inner) > 0.5


class TestLattice:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Lattice(np.zeros((2, 2)))

    def test_wrap(self):
        lat = Lattice(np.eye(2))
        w, sh = lat.wrap([2.25, -0.5])
        assert np.allclose(w, [0.25, 0.5])
        assert list(sh) == [2, -1]

    @pytest.mark.parametrize("q", [[0.25, 0.5], [2.25, -0.5]])
    def test_wrap_returns_new_arrays(self, q):
        lat = Lattice(np.eye(2))
        q = np.array(q)
        kept = q.copy()
        w, sh = lat.wrap(q)
        assert not np.shares_memory(w, q)
        assert sh.dtype == np.int64
        w += 1.0
        assert np.array_equal(q, kept)

    def test_wrap_general_basis(self, rng):
        lat = Lattice(np.array([[2.0, 0.5], [0.0, 1.0]]))
        for _ in range(20):
            q = rng.uniform(-10, 10, size=2)
            w, sh = lat.wrap(q)
            assert np.allclose(w + lat.basis @ sh, q, atol=1e-9)
            coords = lat.inv_basis @ w
            assert np.all(coords >= -1e-12) and np.all(coords < 1 + 1e-12)

    def test_reduced_basis_same_lattice(self):
        lat = Lattice(np.array([[1.0, 5.0], [0.0, 1.0]]))
        u = lat.reduced_transform
        assert abs(abs(round(float(np.linalg.det(u.astype(float))))) - 1) == 0
        assert np.allclose(lat.reduced_basis, lat.basis @ u)
        norms = np.linalg.norm(lat.reduced_basis, axis=0)
        assert np.max(norms) <= np.linalg.norm(lat.basis[:, 1]) + 1e-9

    def test_enumerate_ball_vs_bruteforce(self, rng):
        lat = Lattice(np.array([[1.0, 0.4], [0.1, 0.8]]))
        center = np.array([0.3, -0.7])
        radius = 2.5
        ints, pts = lat.enumerate_ball(center, radius)
        got = {tuple(row) for row in ints}
        expected = set()
        for i in range(-20, 21):
            for j in range(-20, 21):
                p = lat.basis @ np.array([i, j], dtype=float)
                if np.linalg.norm(p - center) <= radius:
                    expected.add((i, j))
        assert expected <= got
        for row, p in zip(ints, pts):
            assert np.linalg.norm(p - center) <= radius + 1e-6

    def test_enumerate_ball_limit_is_typed(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_BALL_CANDIDATES", 100)
        lat = Lattice(np.eye(2))
        assert len(lat.enumerate_ball(np.zeros(2), 3.0)[0]) == 29
        with pytest.raises(LimitError, match="too large"):
            lat.enumerate_ball(np.zeros(2), 10.0)

    def test_reduction_limit_is_typed(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_LLL_STEPS", 0)
        with pytest.raises(LimitError, match="did not finish"):
            Lattice(np.array([[1.0, 5.0], [0.0, 1.0]])).reduced_basis

    def test_nearest_image_delta(self):
        lat = Lattice(np.eye(2))
        v = nearest_image_delta(lat, [0.9, -1.1])
        assert np.allclose(v, [-0.1, -0.1])

    def test_fundamental_diameter(self):
        assert abs(Lattice(np.eye(2)).fundamental_diameter - np.sqrt(2)) < 1e-12


def _is_lll_reduced(basis, reduced, u) -> bool:
    """Size- and Lovász-reduced (δ = 0.75) by a Cholesky route of its own,
    with ``reduced = basis @ u`` for an integer unimodular ``u``."""
    chol = np.linalg.cholesky(reduced.T @ reduced)
    diag = np.diag(chol)
    mu, nrm = chol / diag, diag * diag
    n = len(nrm)
    size = all(abs(mu[k, j]) <= 0.5 + 1e-9
               for k in range(n) for j in range(k))
    lovasz = all(nrm[k] >= (0.75 - mu[k, k - 1] ** 2) * nrm[k - 1]
                 * (1 - 1e-12) for k in range(1, n))
    return (size and lovasz and u.dtype == np.int64
            and round(abs(np.linalg.det(u.astype(float)))) == 1
            and np.allclose(reduced, basis @ u, rtol=0, atol=1e-9))


def test_reduction_matches_the_loop_oracle():
    """One QR per step takes the loop's decisions: every projected lattice
    (the only lattices a flow scans) and every unequal-mass lattice
    reduces to the oracle's transform; elsewhere a tie in μ may move the
    reduction to another reduced basis of the same lattice."""
    for label, kind, unequal, basis in census():
        reduced, u = Lattice(basis)._reduction
        if np.array_equal(u, lll_loop(basis)[1]):
            continue
        assert kind == "reduced" and not unequal, label
        assert _is_lll_reduced(basis, reduced, u), label


class TestFileIO:
    def test_float_roundtrip_17g(self, rng):
        vals = list(rng.standard_normal(50)) + [0.1, 1e300, -1e-300, 2.0 / 3.0]
        text = fileio.dumps({"x": vals})
        back = json.loads(text)["x"]
        assert all(a == b for a, b in zip(vals, back))

    def test_deterministic(self):
        doc = {"b": [1, 2.5], "a": {"z": True, "y": None}}
        assert fileio.dumps(doc) == fileio.dumps(doc)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fileio.dumps({"x": float("inf")})


class TestLatticeProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(1, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_wrap_idempotent_and_consistent(self, seed):
        r = np.random.default_rng(seed)
        while True:
            basis = np.eye(3) + 0.4 * r.uniform(-1, 1, size=(3, 3))
            if abs(np.linalg.det(basis)) > 0.2:
                break
        lat = Lattice(basis)
        q = r.uniform(-20, 20, size=3)
        w, sh = lat.wrap(q)
        assert np.allclose(w + lat.basis @ sh, q, atol=1e-8)
        w2, sh2 = lat.wrap(w)
        assert np.array_equal(w, w2)
        assert not sh2.any()
