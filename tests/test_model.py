from pathlib import Path

import numpy as np
import pytest

from cylbill import builders, fileio
from cylbill.geometry import (
    Lattice,
    complement,
    projector_distance,
    subspace_overlap,
)
from cylbill.model import (
    CylinderSpec,
    CylindricBilliardSystem,
    SystemFormatError,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
    validate,
)
from conftest import (
    axis_space,
    make_malformed_axis_system,
    make_mixed_axis_system,
    make_real_axis_direct_sum,
    make_sphere_system,
    make_two_block_system,
    random_int_system,
)

DATA = sorted((Path(__file__).parent / "data").glob("*.json"))


def _axis_cylinder(d, axes, r=0.3, t=None):
    coeffs = np.zeros((d, len(axes)), np.int64)
    for j, a in enumerate(axes):
        coeffs[a, j] = 1
    return CylinderSpec(radius=r, translation=np.zeros(d) if t is None else t,
                        generator_coeffs=coeffs)


class TestValidation:
    def test_single_generator_valid(self):
        sys3 = CylindricBilliardSystem(
            dim=3, lattice=Lattice(np.eye(3)),
            cylinders=[_axis_cylinder(3, [2], r=0.3)],
        )
        assert validate(sys3).ok

    def test_base_dim_below_two_invalid(self):
        sys3 = CylindricBilliardSystem(
            dim=3, lattice=Lattice(np.eye(3)),
            cylinders=[_axis_cylinder(3, [1, 2], r=0.3)],
        )
        rep = validate(sys3)
        assert not rep.ok
        assert any("base space dimension 1" in msg for _, msg in rep.violations)

    def test_negative_radius(self):
        sys3 = CylindricBilliardSystem(
            dim=3, lattice=Lattice(np.eye(3)),
            cylinders=[_axis_cylinder(3, [2], r=-1.0)],
        )
        assert not validate(sys3).ok

    def test_dependent_coeffs(self):
        coeffs = np.array([[1, 2], [0, 0], [1, 2]], dtype=np.int64)
        sys3 = CylindricBilliardSystem(
            dim=3, lattice=Lattice(np.eye(3)),
            cylinders=[CylinderSpec(radius=0.1, translation=np.zeros(3),
                                    generator_coeffs=coeffs)],
        )
        rep = validate(sys3)
        assert any("rationally dependent" in msg for _, msg in rep.violations)

    def test_validation_comes_before_the_fill(self):
        """A cylinder with the wrong row count is reported, although the
        one-pass fill of every cylinder's spaces cannot run on it."""
        report = validate(make_malformed_axis_system())
        assert report.violations == [(0, "generator_coeffs row count != dim")]
        assert "cylinder 1 carries a real axis basis (test)" in report.notes[0]

    def test_hard_ball_output_valid(self):
        params = builders.HardBallParams(3, 2, (1.0, 2.0, 0.5), 0.1)
        system, _ = builders.hard_ball_system(params)
        assert validate(system).ok


def _hard_ball(n, nu):
    return builders.hard_ball_system(
        builders.HardBallParams(n, nu, (1.0,) * n, 0.05))[0]


SPACE_SYSTEMS = {
    **{f"hb{n}{nu}": (lambda n=n, nu=nu: _hard_ball(n, nu))
       for n, nu in [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3)]},
    "hb52_full": lambda: builders.hard_ball_system(
        builders.HardBallParams(5, 2, (1.0,) * 5, 0.05))[1].full_system,
    "two_block": make_two_block_system,
    "real_axis_direct_sum": make_real_axis_direct_sum,
    "sinai": lambda: make_sphere_system(2),
    "mixed_axes": make_mixed_axis_system,
}


class TestDerivedSpaces:
    def test_axis_generator(self):
        sys3 = CylindricBilliardSystem(
            dim=3, lattice=Lattice(np.eye(3)),
            cylinders=[_axis_cylinder(3, [2])],
        )
        base = sys3.base_space(0)
        assert base.dim == 2
        assert abs(base.basis[2, 0]) < 1e-12 and abs(base.basis[2, 1]) < 1e-12

    def test_empty_generator_full_base(self):
        s = make_sphere_system(3)
        assert s.cylinders[0].n_generators == 0
        assert s.base_space(0).dim == 3

    def test_orthogonality_sweep(self, rng):
        for _ in range(10):
            system = random_int_system(rng, int(rng.integers(3, 6)))
            for i in range(system.k):
                a = axis_space(system, i)
                l = system.base_space(i)
                assert a.dim + l.dim == system.dim
                assert subspace_overlap(a, l) < 1e-10

    def test_index_error(self):
        with pytest.raises(IndexError):
            make_sphere_system(2).base_space(5)

    @pytest.mark.parametrize("name", sorted(SPACE_SYSTEMS))
    def test_stacked_spaces_match_per_cylinder(self, name):
        """The one-pass fill against the complement of each cylinder's own
        Gram-Schmidt."""
        system = SPACE_SYSTEMS[name]()
        for i in range(system.k):
            got, want = system.base_space(i), complement(axis_space(system, i))
            assert got.dim == want.dim
            assert np.max(np.abs(got.projector() - want.projector())) < 1e-12


class TestSerialization:
    @pytest.mark.parametrize("path", DATA, ids=lambda p: p.stem)
    def test_files_with_the_retired_key_load_and_resave(self, path, tmp_path):
        """Files that still carry ``interior_connected_asserted`` load and
        validate; a re-saved system drops the key and reloads to the same
        bytes."""
        assert fileio.load(path)["interior_connected_asserted"] is True
        system = load_system(path)
        assert validate(system).ok
        doc = system_to_dict(system)
        assert "interior_connected_asserted" not in doc
        save_system(system, tmp_path / "resaved.json")
        text = (tmp_path / "resaved.json").read_text(encoding="utf-8")
        assert text == fileio.dumps(doc)
        back = system_to_dict(load_system(tmp_path / "resaved.json"))
        assert fileio.dumps(back) == text

    def test_roundtrip_exact(self, tmp_path, rng):
        system = random_int_system(rng, 4)
        path = tmp_path / "sys.json"
        save_system(system, path)
        back = load_system(path)
        assert back.dim == system.dim
        assert np.array_equal(back.lattice.basis, system.lattice.basis)
        for i in range(system.k):
            assert back.cylinders[i].radius == system.cylinders[i].radius
            assert np.array_equal(back.cylinders[i].translation,
                                  system.cylinders[i].translation)
            assert projector_distance(back.base_space(i),
                                      system.base_space(i)) < 1e-12

    def test_roundtrip_real_basis_cylinder(self, tmp_path):
        basis = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]).T
        system = CylindricBilliardSystem(
            dim=3, lattice=Lattice(np.eye(3)),
            cylinders=[CylinderSpec(radius=0.2, translation=np.zeros(3),
                                    generator_basis=basis[:, :1],
                                    provenance="test")],
        )
        path = tmp_path / "sys.json"
        save_system(system, path)
        back = load_system(path)
        assert back.cylinders[0].provenance == "test"
        assert projector_distance(back.base_space(0),
                                  system.base_space(0)) < 1e-12

    def test_translation_wrapped(self):
        sys2 = CylindricBilliardSystem(
            dim=2, lattice=Lattice(np.eye(2)),
            cylinders=[CylinderSpec(radius=0.1, translation=[1.75, -0.5],
                                    generator_coeffs=np.zeros((2, 0),
                                                              np.int64))],
        )
        assert np.allclose(sys2.cylinders[0].translation, [0.75, 0.5])

    def test_bad_format_tag(self):
        with pytest.raises(SystemFormatError):
            system_from_dict({"format": "something-else"})

    def test_missing_field(self):
        doc = system_to_dict(make_sphere_system(2))
        del doc["lattice_basis"]
        with pytest.raises(SystemFormatError, match="lattice_basis"):
            system_from_dict(doc)

    def test_both_generators_rejected(self):
        doc = system_to_dict(make_sphere_system(2))
        doc["cylinders"][0]["generator_basis"] = [[1.0], [0.0]]
        doc["cylinders"][0]["generator_coeffs"] = [[1], [0]]
        with pytest.raises(SystemFormatError):
            system_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("coeff", None),
        ("radius", "abc"),
        ("radius", None),
        ("dim", [4]),
    ])
    def test_malformed_value_is_a_format_error(self, field, value):
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1, 1, 1), 0.1))
        doc = system_to_dict(system)
        if field == "coeff":
            doc["cylinders"][0]["generator_coeffs"][2][0] = value
        elif field == "radius":
            doc["cylinders"][0]["radius"] = value
        else:
            doc[field] = value
        with pytest.raises(SystemFormatError):
            system_from_dict(doc)

    def test_unparsable_file(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(SystemFormatError):
            load_system(p)

    def test_spec_requires_one_generator_kind(self):
        with pytest.raises(ValueError):
            CylinderSpec(radius=1.0, translation=[0, 0])

    def test_two_block_roundtrip(self, tmp_path):
        system = make_two_block_system()
        path = tmp_path / "blocks.json"
        save_system(system, path)
        back = load_system(path)
        for i in range(2):
            assert projector_distance(back.base_space(i),
                                      system.base_space(i)) < 1e-12
