import numpy as np
import pytest

from cylbill import builders
from cylbill.geometry import Lattice, projector_distance, subspace_overlap
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
from conftest import make_sphere_system, make_two_block_system, random_int_system


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

    def test_hard_ball_output_valid(self):
        params = builders.HardBallParams(3, 2, (1.0, 2.0, 0.5), 0.1)
        system, _ = builders.hard_ball_system(params)
        assert validate(system).ok


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
        assert s.generator_space(0).dim == 0
        assert s.base_space(0).dim == 3

    def test_orthogonality_sweep(self, rng):
        for _ in range(10):
            system = random_int_system(rng, int(rng.integers(3, 6)))
            for i in range(system.k):
                a = system.generator_space(i)
                l = system.base_space(i)
                assert a.dim + l.dim == system.dim
                assert subspace_overlap(a, l) < 1e-10

    def test_index_error(self):
        with pytest.raises(IndexError):
            make_sphere_system(2).base_space(5)


class TestSerialization:
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
        assert projector_distance(back.generator_space(0),
                                  system.generator_space(0)) < 1e-12

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
