import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intlat_oracle as oracle
from cylbill import builders, intlat


def _as_obj(m):
    return np.asarray(m, dtype=object)


def completion(k) -> np.ndarray:
    """The unimodular completion ``[k | w]`` of a primitive ``k``, as
    ``lattice_quotient`` builds it."""
    return intlat._complete(k)[0]


class TestRowHNF:
    def test_transform_relation(self, rng):
        for _ in range(30):
            a = rng.integers(-5, 6, size=(4, 5))
            h, t = oracle.row_hnf(a)
            assert (_as_obj(t) @ _as_obj(a) == _as_obj(h)).all()
            assert abs(oracle.int_det(t)) == 1

    def test_echelon_shape(self, rng):
        a = rng.integers(-3, 4, size=(5, 3))
        h, _ = oracle.row_hnf(a)
        lead = []
        for row in h:
            nz = [j for j, x in enumerate(row) if x != 0]
            lead.append(nz[0] if nz else None)
        nonzero = [l for l in lead if l is not None]
        assert nonzero == sorted(nonzero)
        assert all(l is None for l in lead[len(nonzero):])

    def test_known_case(self):
        h, _ = oracle.row_hnf([[2, 4], [1, 3]])
        assert [[int(x) for x in row] for row in h] == [[1, 1], [0, 2]]


class TestIntegerKernel:
    def test_kernel_annihilates(self, rng):
        for _ in range(30):
            a = rng.integers(-4, 5, size=(3, 6))
            k = intlat.integer_kernel(a)
            assert (_as_obj(a) @ _as_obj(k) == 0).all()
            # dimension matches the real kernel
            assert k.shape[1] == 6 - np.linalg.matrix_rank(np.asarray(a, float))

    def test_primitive(self):
        # kernel of [2, -3] must be generated by (3, 2), not (6, 4)
        k = intlat.integer_kernel(np.array([[2, -3]]))
        col = [abs(int(x)) for x in k[:, 0]]
        assert sorted(col) == [2, 3]

    def test_kernel_of_empty(self):
        k = intlat.integer_kernel(np.zeros((0, 4), dtype=np.int64))
        assert k.shape == (4, 4)
        assert (k == np.eye(4, dtype=np.int64)).all()


class TestCompletion:
    def test_known_primitive(self):
        u = completion(np.array([[2], [3]]))
        assert abs(oracle.int_det(u)) == 1

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            completion(np.array([[2], [4]]))

    def test_random_kernels_complete(self, rng):
        for _ in range(20):
            a = rng.integers(-4, 5, size=(2, 5))
            k = intlat.integer_kernel(a)
            if k.shape[1] == 0:
                continue
            u = completion(k)
            assert abs(oracle.int_det(u)) == 1
            assert (np.asarray(u, dtype=object)[:, :k.shape[1]]
                    == _as_obj(k)).all()

    def test_inverse_exact(self, rng):
        for _ in range(10):
            a = rng.integers(-4, 5, size=(2, 5))
            k = intlat.integer_kernel(a)
            if k.shape[1] == 0:
                continue
            u = completion(k)
            uinv = oracle.int_inverse(u)
            prod = _as_obj(u) @ _as_obj(uinv)
            assert (prod == np.eye(u.shape[0], dtype=object)).all()


class TestLatticeQuotient:
    def test_saturates_the_common_span(self):
        # span{(2, 0, 0)} meets Z^3 in multiples of e1, not of 2 e1
        quot = intlat.lattice_quotient([np.array([[2], [0], [0]])], 3)
        assert quot.rank == 1
        assert sorted(abs(int(x)) for x in quot.kernel[:, 0]) == [0, 0, 1]
        assert abs(oracle.int_det(quot.completion)) == 1
        assert (_as_obj(quot.inverse) @ _as_obj(quot.completion)
                == np.eye(3, dtype=object)).all()
        assert quot.complement.shape == (3, 2)

    def test_intersection_of_blocks(self):
        # planes x3 = 0 and x1 = x2 share the line through (1, 1, 0)
        a = np.array([[1, 0], [0, 1], [0, 0]])
        b = np.array([[1, 0], [1, 0], [0, 1]])
        quot = intlat.lattice_quotient([a, b], 3)
        assert quot.rank == 1
        assert sorted(abs(int(x)) for x in quot.kernel[:, 0]) == [0, 1, 1]

    def test_no_axis(self):
        quot = intlat.lattice_quotient([np.zeros((3, 0), np.int64)], 3)
        assert quot.rank == 0
        assert (np.asarray(quot.complement) == np.eye(3)).all()

    def test_self_check_rejects_a_wrong_inverse(self, monkeypatch):
        # A corrupt column past the kernel leaves t⁻¹'s kernel columns
        # intact, so only the product T T⁻¹ = I can catch it.
        original = intlat._eliminate

        def eliminate(aa, t=None, tinv=None):
            pivots = original(aa, t, tinv)
            if tinv is not None:
                tinv[-1][0] += 1
            return pivots

        monkeypatch.setattr(intlat, "_eliminate", eliminate)
        with pytest.raises(AssertionError, match="unimodular"):
            intlat.lattice_quotient([np.array([[1], [1], [0]])], 3)


class TestDet:
    def test_matches_numpy(self, rng):
        for _ in range(20):
            a = rng.integers(-6, 7, size=(4, 4))
            assert oracle.int_det(a) == round(np.linalg.det(a.astype(float)))

    def test_rank(self, rng):
        a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert intlat.integer_rank(a) == 2


def _random_kernel(rng, d, r):
    """A primitive d x r kernel basis of a random (d - r) x d matrix."""
    while True:
        k = intlat.integer_kernel(rng.integers(-3, 4, size=(d - r, d)))
        if k.shape[1] == r:
            return k


def _assert_exactly_equal(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert (_as_obj(got) == _as_obj(want)).all()


def _assert_oracle_quotient(blocks, dim):
    got = intlat.lattice_quotient(blocks, dim)
    want = oracle.lattice_quotient(blocks, dim)
    for name in ("kernel", "completion", "inverse"):
        _assert_exactly_equal(getattr(got, name), getattr(want, name))


class TestRationalOracle:
    """The one-pass completion and inverse equal the Fraction route's."""

    def test_random_primitive_kernels(self, rng):
        cases = 0
        for d in range(1, 13):
            ranks = [0, d - 1, d] + [int(r) for r in rng.integers(0, d + 1, 14)]
            for r in ranks:
                k = _random_kernel(rng, d, r)
                _assert_exactly_equal(completion(k),
                                      oracle.unimodular_completion(k))
                _assert_oracle_quotient([k], d)
                cases += 1
        assert cases >= 200

    @pytest.mark.parametrize("n, nu, masses", [
        (3, 2, (1.0, 1.2, 0.9)),
        (5, 2, (1.0,) * 5),
        (4, 3, (1.0, 2.0, 1.5, 0.7)),
        (8, 2, (1.0,) * 8),
    ])
    def test_hard_ball_cylinders(self, n, nu, masses):
        system, emb = builders.hard_ball_system(
            builders.HardBallParams(n, nu, masses, 0.05))
        full = emb.full_system
        for sys_ in (system, full):
            for cyl in sys_.cylinders:
                _assert_oracle_quotient([cyl.generator_coeffs], sys_.dim)
        _assert_oracle_quotient([c.generator_coeffs for c in full.cylinders],
                                full.dim)

    def test_pivot_columns_are_the_greedy_choice(self, rng):
        for _ in range(150):
            p = int(rng.integers(1, 7))
            cols = []
            for _ in range(int(rng.integers(0, 9))):
                kind = rng.integers(0, 4)
                if kind == 0 or not cols:
                    cols.append(rng.integers(-3, 4, size=p))
                elif kind == 1:
                    cols.append(np.zeros(p, dtype=np.int64))
                else:
                    # an integer combination of columns already drawn
                    w = rng.integers(-2, 3, size=len(cols))
                    cols.append(np.column_stack(cols) @ w)
            a = (np.column_stack(cols) if cols
                 else np.zeros((p, 0), dtype=np.int64))
            assert intlat.pivot_columns(a) == oracle.greedy_columns(a)
            assert intlat.integer_rank(a) == oracle.integer_rank(a)


_small_ints = st.integers(-9, 9)


@given(st.integers(1, 8), st.integers(1, 8), st.data())
@settings(max_examples=150, deadline=None)
def test_elimination_tracks_the_transform_and_its_inverse(rows, cols, data):
    a = data.draw(st.lists(st.lists(_small_ints, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    h = [list(row) for row in a]
    t, tinv_cols = intlat._identity(rows), intlat._identity(rows)
    intlat._eliminate(h, t, tinv_cols)
    assert (_as_obj(t) @ _as_obj(a) == _as_obj(h)).all()
    assert (_as_obj(t) @ _as_obj(tinv_cols).T
            == np.eye(rows, dtype=np.int64).astype(object)).all()


def _assert_oracle_kept_columns(blocks, dim) -> intlat.LatticeQuotient:
    """Each block's kept columns and their quotient coordinates equal the
    route that maps the whole block and eliminates its image."""
    quot = intlat.lattice_quotient(blocks, dim)
    for i, block in enumerate(blocks):
        cols, coords = oracle.factor_columns(quot, block)
        assert quot.kept_columns(i) == cols
        got = quot.coordinates(np.asarray(block)[:, cols])
        assert got.shape == coords.shape
        assert (_as_obj(got) == coords).all()
    return quot


def _random_parent(rng, d, scale):
    """Blocks of a random integer parent: each holds random combinations
    of a shared set of columns (possibly none), its own columns, and now
    and then a zero column or a combination of its columns so far."""
    shared = rng.integers(-scale, scale + 1, size=(d, int(rng.integers(0, 3))))
    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        cols = [shared @ rng.integers(-2, 3, size=shared.shape[1])
                for _ in range(shared.shape[1])]
        cols += [rng.integers(-scale, scale + 1, size=d)
                 for _ in range(int(rng.integers(0, d - 1)))]
        if cols and rng.integers(0, 3) == 0:
            cols.insert(int(rng.integers(0, len(cols) + 1)),
                        np.column_stack(cols) @ rng.integers(-2, 3,
                                                             size=len(cols)))
        if rng.integers(0, 4) == 0:
            cols.append(np.zeros(d, dtype=np.int64))
        blocks.append(np.column_stack(cols).astype(np.int64) if cols
                      else np.zeros((d, 0), dtype=np.int64))
    return blocks


class TestKeptColumns:
    """Kept columns read from each block's own elimination equal the
    mapped-block route's."""

    def test_random_parents(self, rng):
        seen = {"nu0 = 0": 0, "nu0 > 0": 0, "rank-deficient": 0,
                "object ints": 0, "int64": 0}
        for _ in range(300):
            d = int(rng.integers(2, 9))
            scale = int(rng.choice([3, 3, 3, 2**40]))
            blocks = _random_parent(rng, d, scale)
            quot = _assert_oracle_kept_columns(blocks, d)
            seen["nu0 = 0" if quot.rank == 0 else "nu0 > 0"] += 1
            seen["rank-deficient"] += any(
                intlat.integer_rank(b) < b.shape[1] for b in blocks)
            for b in blocks:
                dtype = quot.coordinates(b).dtype
                seen["object ints" if dtype == object else "int64"] += 1
        assert min(seen.values()) >= 10, seen

    def test_a_rank_deficient_block_drops_its_dependent_columns(self):
        # columns 1 and 3 depend on the ones before them; the common
        # direction (1, 1, 0) is quotiented out, so column 2 goes too
        a = np.array([[1, 2, 1, 3], [0, 0, 1, 1], [0, 0, 0, 0]])
        b = np.array([[1, 0], [1, 0], [0, 1]])
        quot = _assert_oracle_kept_columns([a, b], 3)
        assert quot.rank == 1
        assert quot.kept_columns(0) == [0]
        assert quot.kept_columns(1) == [1]

    def test_no_common_direction_keeps_every_pivot(self):
        a = np.array([[1, 0], [0, 1], [0, 0], [0, 0]])
        b = np.array([[0, 0], [0, 0], [1, 0], [0, 1]])
        quot = _assert_oracle_kept_columns([a, b], 4)
        assert quot.rank == 0
        assert quot.kept_columns(0) == [0, 1]
        assert quot.kept_columns(1) == [0, 1]

    def test_product_switches_to_python_ints_past_the_bound(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 6))
            top = int(rng.choice([3, 2**20, 2**31, 2**40]))
            a = rng.integers(-top, top + 1, size=(3, n))
            b = rng.integers(-top, top + 1, size=(n, 2))
            got = intlat._int_product(a, b)
            bound = (int(np.abs(a).max()) * int(np.abs(b).max()) * n)
            assert (got.dtype == object) == (bound > intlat._INT64_MAX)
            assert (_as_obj(got) == _as_obj(a) @ _as_obj(b)).all()
        # entries of int64's extremes: the bound, not the values, decides
        a = np.array([[np.iinfo(np.int64).min]])
        assert intlat._int_product(a, np.array([[1]])).dtype == object
        assert intlat._int_product(a, np.array([[1]]))[0, 0] == -2**63

    def test_large_kernel_completes_through_python_ints(self):
        # a primitive kernel whose completion and inverse hold entries
        # near 2**40: the self-check product runs on Python integers
        k = np.array([[1], [2**40], [3 * 2**39 + 1], [5]])
        comp, inv = intlat._complete(k)
        _assert_exactly_equal(comp, oracle.unimodular_completion(k))
        _assert_exactly_equal(inv, oracle.int_inverse(comp))
        bound = int(np.abs(comp).max()) * int(np.abs(inv).max()) * 4
        assert bound > intlat._INT64_MAX

    def test_self_check_rejects_a_wrong_inverse_past_the_int64_bound(
            self, monkeypatch):
        original = intlat._eliminate

        def eliminate(aa, t=None, tinv=None):
            pivots = original(aa, t, tinv)
            if tinv is not None:
                tinv[-1][0] += 1
            return pivots

        monkeypatch.setattr(intlat, "_eliminate", eliminate)
        with pytest.raises(AssertionError, match="unimodular"):
            intlat._complete(np.array([[1], [2**40], [3 * 2**39 + 1], [5]]))
