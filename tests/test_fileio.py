"""``fileio.dumps`` writes the same bytes as the item-by-item emitter."""

from pathlib import Path

import numpy as np
import pytest

from cylbill import cli, fileio
from cylbill.model import load_system, save_system, system_to_dict
from cylbill.paths import save_sigma
from conftest import make_sphere_system
from emit_oracle import dumps_item_by_item

DATA = sorted((Path(__file__).parent / "data").glob("*.json"))


@pytest.mark.parametrize("path", DATA, ids=lambda p: p.stem)
def test_system_files(path):
    for doc in (fileio.load(path), system_to_dict(load_system(path))):
        assert fileio.dumps(doc) == dumps_item_by_item(doc)


def test_mixed_list_keeps_the_item_route():
    doc = {"x": [True, 1, 2.5, np.float64(3), np.int64(4)],
           "y": (1, 2), "z": [[0.1, 2], [3, 4]], "e": []}
    assert fileio.dumps(doc) == dumps_item_by_item(doc)
    assert '"x": [true, 1, 2.5, 3, 4]' in fileio.dumps(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_inside_a_float_list(bad):
    with pytest.raises(ValueError):
        fileio.dumps({"x": [0.5, bad, 1.5]})


def test_report_bodies(tmp_path, monkeypatch, capsys):
    """The bodies that ``classify``, ``delta`` and ``lyapunov`` emit."""
    bodies = []
    dumps = fileio.dumps

    def recording(obj):
        bodies.append(obj)
        return dumps(obj)

    hb = str(Path(__file__).parent / "data" / "hb_3_2.json")
    sinai = tmp_path / "sinai.json"
    save_system(make_sphere_system(2, r=0.3), sinai)
    sigma = tmp_path / "sigma.json"
    save_sigma([0, 1, 2], sigma)
    monkeypatch.setattr(fileio, "dumps", recording)
    for argv in (["classify", "--system", hb],
                 ["delta", "--system", hb, "--sigma", str(sigma),
                  "--samples", "20", "--seed", "3"],
                 ["lyapunov", "--system", str(sinai), "--q", "0,0.5",
                  "--v", "0.6,0.8", "--total-time", "50", "--seed", "5"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(bodies) == 3
    for body in bodies:
        assert dumps(body) == dumps_item_by_item(body)
