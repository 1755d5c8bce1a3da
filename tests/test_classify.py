import itertools
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest

import test_acceptance as acceptance
from cylbill import builders, classify
from cylbill.classify import (
    EnumerationGuardError,
    _flats,
    SplittingWitness,
    commutant_dimension,
    count_transitive_blocks,
    graph_components,
    is_transitive,
    is_transverse,
    non_orthogonality_graph,
)
from cylbill.config import OVERLAP
from cylbill.geometry import (
    DimensionMismatch,
    Lattice,
    Subspace,
    complement,
    null_space,
    orthonormalize,
    span_of,
    subspace_overlap,
)
from cylbill.model import CylinderSpec, CylindricBilliardSystem
from conftest import (
    make_real_axis_direct_sum,
    make_sphere_system,
    make_two_block_system,
    random_subspace,
)
from commutant_oracle import commutant_dimension as commutant_oracle
from transverse_oracle import flats_depth_first, is_transverse_by_subsets


def _span(*vecs):
    return orthonormalize(list(vecs))


E1, E2, E3, E4 = np.eye(4)


class TestGraph:
    def test_shared_direction_edge(self):
        g = non_orthogonality_graph([
            _span([1, 0, 0], [0, 1, 0]),
            _span([0, 1, 0], [0, 0, 1]),
        ])
        assert g.tolist() == [[False, True], [True, False]]

    def test_orthogonal_no_edge(self):
        g = non_orthogonality_graph([_span(E1, E2), _span(E3, E4)])
        assert g.shape == (2, 2) and not g.any()

    def test_hard_ball_pair_overlap_structure(self):
        system, emb = builders.hard_ball_system(
            builders.HardBallParams(4, 2, (1.0, 1.0, 1.0, 1.0), 0.1)
        )
        g = non_orthogonality_graph(system.base_spaces())
        for (a, b) in np.argwhere(g):
            assert set(emb.pairs[a]) & set(emb.pairs[b])
        for a in range(system.k):
            for b in range(a + 1, system.k):
                if set(emb.pairs[a]) & set(emb.pairs[b]):
                    assert g[a, b]

    def test_different_ambient_dims_refused(self):
        with pytest.raises(DimensionMismatch):
            non_orthogonality_graph([_span(E1, E2), _span([1, 0, 0])])


def _pairwise_graph(bases) -> np.ndarray:
    """The adjacency matrix by one ``subspace_overlap`` call per pair."""
    k = len(bases)
    g = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            g[i, j] = g[j, i] = subspace_overlap(bases[i], bases[j]) > OVERLAP
    return g


def _bfs_components(g) -> list[list[int]]:
    """Connected components by breadth-first search from each unseen
    index in turn, so they come ordered by their smallest member."""
    seen: set[int] = set()
    components = []
    for start in range(len(g)):
        if start in seen:
            continue
        seen.add(start)
        component, queue = [start], deque([start])
        while queue:
            a = queue.popleft()
            for b in range(len(g)):
                if g[a, b] and b not in seen:
                    seen.add(b)
                    component.append(b)
                    queue.append(b)
        components.append(sorted(component))
    return components


def _mixed_dim_system():
    """Six cylinders in R^5 whose base spaces have dims 3, 2, 1, 1, 1, 2:
    span{e1,e2,e3}, span{e4,e5}, e5, e1-e2, e3-e4 and span{e3, 2e1-e4}."""
    e = np.eye(5, dtype=np.int64)
    axes = [e[:, [3, 4]], e[:, [0, 1, 2]], e[:, [0, 1, 2, 3]],
            np.column_stack([e[:, 0] + e[:, 1], e[:, 2], e[:, 3], e[:, 4]]),
            np.column_stack([e[:, 0], e[:, 1], e[:, 2] + e[:, 3], e[:, 4]]),
            np.column_stack([e[:, 0] + 2 * e[:, 3], e[:, 1], e[:, 4]])]
    return CylindricBilliardSystem(
        dim=5, lattice=Lattice(np.eye(5)),
        cylinders=[CylinderSpec(radius=0.1, translation=np.zeros(5),
                                generator_coeffs=c) for c in axes])


# singular values of B_1^T B_2, in units of OVERLAP, for pairs of 5-dim
# base spaces whose largest one sits near the threshold while the Frobenius
# norm of the block lies in (OVERLAP, sqrt(5) OVERLAP], so that only an SVD
# decides the edge
_NEAR_THRESHOLD = ((0.5,) * 5, (0.99, 0.99), (1.01, 1.01), (2.0,))


def _near_threshold_pair(cosines) -> list[Subspace]:
    """span(e_1..e_5) and the span of ``c_k e_k + sqrt(1 - c_k^2) e_{5+k}``
    in 10-space: their block's singular values are the cosines ``c_k``."""
    c = np.zeros(5)
    c[:len(cosines)] = np.asarray(cosines) * OVERLAP
    turned = np.zeros((10, 5))
    turned[np.arange(5), np.arange(5)] = c
    turned[np.arange(5, 10), np.arange(5)] = np.sqrt(1.0 - c * c)
    return [Subspace(10, np.eye(10)[:, :5]), Subspace(10, turned)]


def _graph_cases():
    """Criterion 01's 300 collections, hard balls N = 2..8 (nu = 2) and
    N = 2..5 (nu = 3) with unequal masses, the mixed-dimension system, and
    the near-threshold pairs."""
    rng = np.random.default_rng(np.random.SeedSequence(101))
    for _ in range(300):
        yield acceptance.random_base_collection(rng)
    for nu, top in ((2, 8), (3, 5)):
        for n in range(2, top + 1):
            masses = tuple(1.0 + 0.25 * i for i in range(n))
            yield _hard_ball(n, nu, masses).base_spaces()
    yield _mixed_dim_system().base_spaces()
    for cosines in _NEAR_THRESHOLD:
        yield _near_threshold_pair(cosines)


class TestBatchedGraph:
    def test_equals_pairwise_overlap(self):
        n_edges = n_split = 0
        for bases in _graph_cases():
            g = non_orthogonality_graph(bases)
            assert g.dtype == bool
            assert np.array_equal(g, _pairwise_graph(bases))
            n_edges += int(g.sum())
            n_split += len(graph_components(g)) > 1
        # both kinds of pair, and both kinds of graph, are exercised
        assert n_edges > 0 and n_split > 0

    def test_near_threshold_pairs_need_the_svd(self):
        for cosines in _NEAR_THRESHOLD:
            a, b = _near_threshold_pair(cosines)
            size = np.linalg.norm(a.basis.T @ b.basis)
            assert OVERLAP < size <= np.sqrt(5) * OVERLAP
            edge = non_orthogonality_graph([a, b])[0, 1]
            assert edge == (max(cosines) > 1)

    def test_components_equal_breadth_first(self):
        for bases in _graph_cases():
            g = non_orthogonality_graph(bases)
            assert graph_components(g) == _bfs_components(g)

    def test_mixed_dims(self):
        bases = _mixed_dim_system().base_spaces()
        assert [b.dim for b in bases] == [3, 2, 1, 1, 1, 2]
        g = non_orthogonality_graph(bases)
        edges = [(0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (3, 5),
                 (4, 5)]
        assert np.argwhere(np.triu(g)).tolist() == [list(e) for e in edges]
        assert graph_components(g) == [[0, 1, 2, 3, 4, 5]]

    def test_components_of_small_graphs(self):
        assert non_orthogonality_graph([]).shape == (0, 0)
        assert graph_components(non_orthogonality_graph([])) == []
        assert graph_components(np.zeros((3, 3), dtype=bool)) == [[0], [1], [2]]
        g = np.zeros((5, 5), dtype=bool)
        g[[1, 4, 3, 0], [4, 1, 0, 3]] = True
        assert graph_components(g) == [[0, 3], [1, 4], [2]]


class TestTransitive:
    def test_overlapping_planes_in_3space(self):
        bases = [_span([1, 0, 0], [0, 1, 0]), _span([0, 1, 0], [0, 0, 1])]
        ok, witness = is_transitive(bases)
        assert ok and witness is None
        assert commutant_dimension(bases) == 1

    def test_orthogonal_blocks_split(self):
        bases = [_span(E1, E2), _span(E3, E4)]
        ok, witness = is_transitive(bases)
        assert not ok
        witness.check({i: b for i, b in enumerate(bases)})
        assert {witness.b1.dim, witness.b2.dim} == {2}
        assert commutant_dimension(bases) >= 2

    def test_full_space_single(self):
        ok, _ = is_transitive([Subspace.full(3)])
        assert ok
        assert commutant_dimension([Subspace.full(3)]) == 1

    def test_span_deficient(self):
        bases = [_span(E1, E2)]
        ok, witness = is_transitive(bases)
        assert not ok
        assert witness.b2.dim == 2

    def test_empty_list(self):
        ok, witness = is_transitive([], ambient_dim=3)
        assert not ok and witness.degenerate
        with pytest.raises(ValueError):
            is_transitive([])

    def test_invariance_permutation_and_rotation(self, rng):
        for _ in range(10):
            d = int(rng.integers(3, 6))
            bases = [random_subspace(rng, d, int(rng.integers(2, d + 1)))
                     for _ in range(3)]
            base_verdict = is_transitive(bases)[0]
            perm = rng.permutation(3)
            assert is_transitive([bases[i] for i in perm])[0] == base_verdict
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            rotated = [Subspace(d, q @ b.basis) for b in bases]
            assert is_transitive(rotated)[0] == base_verdict

    def test_oracle_agreement_sample(self, rng):
        agree = 0
        total = 40
        for i in range(total):
            d = int(rng.integers(2, 7))
            if rng.random() < 0.45 and d >= 4:
                split = int(rng.integers(2, d - 1))
                q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                b1 = Subspace(d, q[:, :split])
                b2 = Subspace(d, q[:, split:])
                bases = []
                for _ in range(int(rng.integers(1, 4))):
                    part = b1 if rng.random() < 0.5 else b2
                    if part.dim < 2:
                        part = b1 if b1.dim >= 2 else b2
                    k = int(rng.integers(2, part.dim + 1))
                    mix = part.basis @ np.linalg.qr(
                        rng.standard_normal((part.dim, k)))[0][:, :k]
                    bases.append(Subspace(d, mix))
            else:
                bases = [random_subspace(rng, d, int(rng.integers(2, d + 1)))
                         for _ in range(int(rng.integers(1, 4)))]
            structural = is_transitive(bases)[0]
            oracle = commutant_oracle(bases) == 1
            assert structural == oracle
            agree += 1
        assert agree == total


def _hard_ball(n: int, nu: int, masses=None, r: float = 0.05):
    masses = tuple([1.0] * n) if masses is None else masses
    return builders.hard_ball_system(builders.HardBallParams(n, nu, masses, r))[0]


def _commutant_dimension_loop(bases) -> int:
    """The commutant constraint built entry by entry, one generator and one
    symmetric basis matrix at a time, with the null space of the full
    matrix."""
    d = bases[0].ambient_dim
    sym_basis = []
    for a in range(d):
        e = np.zeros((d, d))
        e[a, a] = 1.0
        sym_basis.append(e)
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d))
            e[a, b] = e[b, a] = 1.0 / np.sqrt(2.0)
            sym_basis.append(e)
    gens = []
    for base in bases:
        u = base.basis
        for p in range(base.dim):
            for q in range(p + 1, base.dim):
                gens.append(np.outer(u[:, p], u[:, q]) - np.outer(u[:, q], u[:, p]))
    rows = [(e @ g - g @ e).reshape(-1) for g in gens for e in sym_basis]
    n_sym = len(sym_basis)
    constraint = np.array(rows).reshape(len(gens), n_sym, d * d)
    constraint = np.transpose(constraint, (0, 2, 1)).reshape(-1, n_sym)
    return null_space(constraint).dim


def _deficient_block_collection(rng):
    """Base spaces inside mutually orthogonal blocks of a random frame in
    d = 3..8: one or two per touched block, each of dim >= 2, and some
    blocks left untouched, so the joint span may fall short of the space
    and the graph may split."""
    d = int(rng.integers(3, 9))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    n_cuts = int(rng.integers(1, d // 2 + 1))
    cuts = np.sort(rng.choice(np.arange(1, d), size=n_cuts, replace=False))
    blocks = np.split(q, cuts, axis=1)
    touched = [b for b in blocks if b.shape[1] >= 2 and rng.random() < 0.8]
    if not touched:
        touched = [q]
    bases = []
    for block in touched:
        for _ in range(int(rng.integers(1, 3))):
            m = int(rng.integers(2, block.shape[1] + 1))
            mix, _ = np.linalg.qr(rng.standard_normal((block.shape[1], m)))
            bases.append(Subspace(d, block @ mix))
    return bases


class TestCommutantAgainstLoops:
    """The graph-and-span dimension, the constraint-matrix oracle and the
    entry-by-entry loop agree."""

    def test_criterion_01_collections(self):
        rng = np.random.default_rng(np.random.SeedSequence(101))
        for _ in range(300):
            bases = acceptance.random_base_collection(rng)
            assert commutant_dimension(bases) \
                == commutant_oracle(bases) \
                == _commutant_dimension_loop(bases)

    def test_deficient_block_constructions(self):
        rng = np.random.default_rng(np.random.SeedSequence(36))
        deficient = split = 0
        for _ in range(200):
            bases = _deficient_block_collection(rng)
            assert commutant_dimension(bases) == commutant_oracle(bases)
            deficient += span_of(bases).dim < bases[0].ambient_dim
            split += len(graph_components(non_orthogonality_graph(bases))) > 1
        assert deficient > 100 and split > 50

    @pytest.mark.parametrize("n, nu", [(2, 2), (3, 2), (4, 2), (5, 2),
                                       (2, 3), (3, 3), (4, 3)])
    def test_hard_balls(self, n, nu):
        bases = _hard_ball(n, nu).base_spaces()
        assert commutant_dimension(bases) \
            == commutant_oracle(bases) \
            == _commutant_dimension_loop(bases)

    def test_two_blocks(self):
        bases = make_two_block_system().base_spaces()
        assert commutant_dimension(bases) \
            == commutant_oracle(bases) \
            == _commutant_dimension_loop(bases) == 2

    def test_hard_ball_reach(self):
        """hb(12,2), where the constraint matrix took 289 MB, reads its
        dimension from the graph and the span in a few megabytes."""
        bases = _hard_ball(12, 2).base_spaces()
        start = time.perf_counter()
        assert commutant_dimension(bases) == 1
        assert time.perf_counter() - start < 0.1
        tracemalloc.start()
        try:
            commutant_dimension(bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class _Collection:
    """Base spaces standing in for a system: ``is_transverse`` reads only
    ``k``, ``dim`` and ``base_space``."""

    def __init__(self, bases):
        self.bases = list(bases)
        self.k = len(self.bases)
        self.dim = self.bases[0].ambient_dim

    def base_space(self, i):
        return self.bases[i]


def _inside(rng, outer: Subspace, m: int) -> Subspace:
    mix = np.linalg.qr(rng.standard_normal((outer.dim, m)))[0]
    return Subspace(outer.ambient_dim, outer.basis @ mix)


DEFECTS = ("repeat", "nested", "lines", "orthogonal")


def _defective_collection(rng, kind: str) -> _Collection:
    """Random base spaces with a defect that tends to break transverseness:
    a repeated base, a base nested in another, 1-dim bases inside a common
    proper subspace, or two mutually orthogonal groups."""
    d = int(rng.integers(3, 7))
    if kind == "orthogonal":
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        d1 = int(rng.integers(1, d))
        bases = [_inside(rng, group, int(rng.integers(1, group.dim + 1)))
                 for group in (Subspace(d, q[:, :d1]), Subspace(d, q[:, d1:]))
                 for _ in range(int(rng.integers(1, 3)))]
        bases += [random_subspace(rng, d, int(rng.integers(1, d)))
                  for _ in range(int(rng.integers(0, 2)))]
    else:
        bases = [random_subspace(rng, d, int(rng.integers(1, d)))
                 for _ in range(int(rng.integers(2, 5)))]
        if kind == "repeat":
            bases.append(bases[int(rng.integers(len(bases)))])
        elif kind == "nested":
            outer = bases[int(rng.integers(len(bases)))]
            if outer.dim > 1:
                bases.append(_inside(rng, outer, int(rng.integers(1, outer.dim))))
        else:
            host = random_subspace(rng, d, int(rng.integers(2, d)))
            bases += [_inside(rng, host, 1) for _ in range(host.dim + 1)]
    return _Collection([bases[i] for i in rng.permutation(len(bases))])


class TestTransverseAgainstSubsets:
    @pytest.mark.parametrize("n, nu", [(n, nu) for n in (2, 3, 4, 5)
                                       for nu in (2, 3)])
    def test_hard_balls(self, n, nu):
        system = _hard_ball(n, nu, tuple(np.linspace(1.0, 2.0, n)))
        assert is_transverse(system) == is_transverse_by_subsets(system) \
            == (True, None)

    def test_criterion_02_systems(self):
        rng = np.random.default_rng(np.random.SeedSequence(202))
        for n in (2, 3, 4):
            for nu in (2, 3):
                for _ in range(5):
                    masses = tuple(float(m) for m in rng.uniform(0.2, 5.0, size=n))
                    system = _hard_ball(n, nu, masses, float(rng.uniform(0.02, 0.2)))
                    assert is_transverse(system) == is_transverse_by_subsets(system)

    def test_criterion_03_systems(self):
        rng = np.random.default_rng(np.random.SeedSequence(303))
        systems = [acceptance._connected_direct_sum(rng) for _ in range(20)]
        systems += [acceptance._disconnected_direct_sum(rng) for _ in range(20)]
        verdicts = [is_transverse(s) for s in systems]
        assert verdicts == [is_transverse_by_subsets(s) for s in systems]
        assert [ok for ok, _ in verdicts] == [True] * 20 + [False] * 20

    @pytest.mark.parametrize("kind", DEFECTS)
    def test_defective_collections(self, kind):
        rng = np.random.default_rng(np.random.SeedSequence(
            [909, DEFECTS.index(kind)]))
        sizes = set()
        for _ in range(40):
            collection = _defective_collection(rng, kind)
            ok, counter = is_transverse(collection)
            assert (ok, counter) == is_transverse_by_subsets(collection)
            sizes.add(0 if ok else len(counter))
        # failures occur, and not only at single cylinders
        assert len(sizes - {0, 1}) >= 2


FLAT_SYSTEMS = {
    **{f"hb{n}{nu}": (lambda n=n, nu=nu: _hard_ball(n, nu))
       for n, nu in [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3)]},
    "two_block": make_two_block_system,
    "real_axis_direct_sum": make_real_axis_direct_sum,
}


def assert_flats_equal(flats, reference):
    """Same member masks and dims; projectors within 1e-12."""
    masks, dims, proj = flats
    assert sorted(masks.tolist()) == sorted(reference)
    for mask, r, p in zip(masks.tolist(), dims.tolist(), proj):
        q = reference[mask]
        assert r == q.shape[1]
        assert np.max(np.abs(p - q @ q.T)) < 1e-12


class TestFlatsAgainstDepthFirst:
    @pytest.mark.parametrize("name", sorted(FLAT_SYSTEMS))
    def test_flats_equal_the_oracle(self, name):
        bases = FLAT_SYSTEMS[name]().base_spaces()
        assert_flats_equal(_flats(bases), flats_depth_first(bases))

    @pytest.mark.parametrize("kind", DEFECTS)
    def test_defective_collections(self, kind):
        rng = np.random.default_rng(np.random.SeedSequence(
            [919, DEFECTS.index(kind)]))
        for _ in range(10):
            bases = _defective_collection(rng, kind).bases
            assert_flats_equal(_flats(bases), flats_depth_first(bases))

    def test_chunk_size_changes_no_result(self, monkeypatch):
        bases = _hard_ball(5, 2).base_spaces()
        masks, dims, proj = _flats(bases)
        monkeypatch.setattr(classify, "CHUNK_ENTRIES", 1)
        one = _flats(bases)
        order = np.argsort(one[0])
        assert np.array_equal(np.sort(masks), one[0][order])
        assert np.array_equal(dims[np.argsort(masks)], one[1][order])
        assert np.max(np.abs(proj[np.argsort(masks)] - one[2][order])) < 1e-12

    @pytest.mark.parametrize("name", sorted(FLAT_SYSTEMS))
    def test_chunk_size_changes_no_verdict(self, name, monkeypatch):
        system = FLAT_SYSTEMS[name]()
        default = is_transverse(system)
        monkeypatch.setattr(classify, "CHUNK_ENTRIES", 1)
        assert is_transverse(system) == default


class TestTransverseReach:
    @pytest.mark.parametrize("n, limit", [(6, 2.0), (7, 60.0)])
    def test_hard_balls_answer_in_time(self, n, limit):
        system = _hard_ball(n, 2)
        start = time.perf_counter()
        assert is_transverse(system) == (True, None)
        assert time.perf_counter() - start < limit


class TestTransverse:
    def test_hard_ball_transverse(self):
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.1)
        )
        ok, counter = is_transverse(system)
        assert ok and counter is None

    def test_two_block_not_transverse(self):
        system = make_two_block_system()
        ok, counter = is_transverse(system)
        assert not ok
        # {0} alone escapes via the orthogonal L_1; the full pair does not
        assert counter == (0, 1)
        assert is_transverse_by_subsets(system) == (ok, counter)

    def test_transverse_implies_transitive(self, rng):
        for n in (2, 3):
            system, _ = builders.hard_ball_system(
                builders.HardBallParams(n, 2, tuple([1.0] * n), 0.1)
            )
            if is_transverse(system)[0]:
                assert is_transitive(system.base_spaces())[0]

    def test_enumeration_guard(self):
        system = make_sphere_system(2)
        system.cylinders = system.cylinders * 30
        with pytest.raises(EnumerationGuardError):
            is_transverse(system)

    def test_sphere_alone_transverse(self):
        # one full-space base: the only splittable subset is empty
        assert is_transverse(make_sphere_system(3))[0]


def touched_transitive(labels, system) -> bool:
    """``is_transitive`` on the distinct base spaces a sequence touches."""
    return is_transitive([system.base_space(i) for i in sorted(set(labels))],
                         ambient_dim=system.dim)[0]


class TestSequences:
    def test_single_sphere_sequence(self):
        system = make_sphere_system(3)
        assert touched_transitive([0, 0, 0], system)

    def test_one_block_not_transitive(self):
        system = make_two_block_system()
        assert not touched_transitive([0, 0], system)
        assert touched_transitive([0, 1], system) == \
            is_transitive(system.base_spaces())[0]

    def test_block_counting_no_transitive_prefix(self):
        system = make_two_block_system()
        assert count_transitive_blocks([0, 0, 0, 0], system) == 0

    def test_block_counting_concatenation(self):
        system = make_sphere_system(3)
        assert count_transitive_blocks([0] * 5, system) == 5

    def test_block_counting_mixed(self):
        system = make_two_block_system()
        # (0,1) spans R^4; orthogonal blocks are NOT transitive together
        assert count_transitive_blocks([0, 1, 0, 1], system) == 0

    def test_greedy_maximal_vs_random_partitions(self, rng):
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.1)
        )
        labels = [int(x) for x in rng.integers(0, 3, size=40)]
        greedy = count_transitive_blocks(labels, system)
        for _ in range(40):
            # random partition into consecutive pieces
            cuts = sorted(rng.choice(np.arange(1, 40), size=5, replace=False))
            pieces = np.split(np.array(labels), cuts)
            complete = sum(
                1 for p in pieces if p.size
                and touched_transitive(p, system)
            )
            assert greedy >= complete


class TestSplitsAccordingTo:
    """``SplittingWitness.check`` decides whether collided base spaces
    respect a given splitting: each must lie in its assigned part."""

    def test_one_block_respects_natural_splitting(self):
        system = make_two_block_system()
        b1 = system.base_space(0)
        b2 = complement(b1)
        bases = dict(enumerate(system.base_spaces()))
        SplittingWitness(b1, b2, {0: 1}).check(bases)
        SplittingWitness(b1, b2, {0: 1, 1: 2}).check(bases)

    def test_straddling_base_fails(self):
        system = make_two_block_system()
        q, _ = np.linalg.qr(np.array([[1.0, 0], [0, 1], [1, 0], [0, 1]]))
        b1 = Subspace(4, q[:, :2])
        b2 = complement(b1)
        for side in (1, 2):
            with pytest.raises(ValueError, match="leaks out"):
                SplittingWitness(b1, b2, {0: side}).check(
                    {0: system.base_space(0)})

    def test_invalid_splitting_rejected(self):
        system = make_two_block_system()
        b1 = system.base_space(0)
        with pytest.raises(ValueError):
            SplittingWitness(b1, b1, {0: 1}).check({0: b1})

    def test_consistency_with_transitivity(self, rng):
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0, 1.0, 1.0), 0.1)
        )
        labels = [0, 1, 2]
        assert touched_transitive(labels, system)
        bases = {i: system.base_space(i) for i in labels}
        # a transitive collided set admits no splitting at all: probe a
        # few, each with every assignment of the labels to its two parts
        for _ in range(20):
            b1 = random_subspace(rng, 4, int(rng.integers(1, 4)))
            b2 = complement(b1)
            for sides in itertools.product((1, 2), repeat=len(labels)):
                with pytest.raises(ValueError, match="leaks out"):
                    SplittingWitness(b1, b2, dict(zip(labels, sides))).check(
                        bases)


class TestWitnessInvariants:
    def test_emitted_witnesses_pass_check(self, rng):
        for _ in range(20):
            d = 4
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            bases = [Subspace(d, q[:, :2]), Subspace(d, q[:, 2:])]
            ok, witness = is_transitive(bases)
            assert not ok
            witness.check({i: b for i, b in enumerate(bases)})

    def test_bad_witness_rejected(self):
        b1 = orthonormalize([E1, E2])
        with pytest.raises(ValueError):
            SplittingWitness(b1, orthonormalize([E2, E3]), {}).check()
